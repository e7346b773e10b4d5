//! Error type of the serving runtime.
//!
//! Every fault path is a *typed* variant carrying its context — request
//! ids, deadlines, shed streaks, the underlying layer error — never a
//! formatted string. The degradation ladder's rungs (retry → shed →
//! circuit-break) are all visible here: [`ServeError::QueueFull`] is the
//! retryable backpressure signal, [`ServeError::DeadlineExceeded`] is a
//! shed, [`ServeError::CircuitOpen`] is the breaker refusing admission.

use std::fmt;
use std::time::Duration;

/// Everything that can go wrong while configuring, loading or running a
/// [`Server`](crate::Server).
#[derive(Debug)]
pub enum ServeError {
    /// A configuration field is out of range.
    InvalidConfig {
        /// Human-readable description of the bad field.
        reason: String,
    },
    /// A request's tensor shape does not match the served model's input.
    ShapeMismatch {
        /// The shape the request carried.
        got: String,
        /// The shape the model requires.
        want: String,
    },
    /// Admission control rejected the request: the bounded queue is full.
    ///
    /// This is backpressure, not failure — the caller may retry once
    /// in-flight work drains.
    QueueFull {
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// The circuit breaker is open: a streak of shed requests tripped it
    /// and the server is refusing admission until a probe succeeds.
    CircuitOpen {
        /// Consecutive sheds observed when the breaker tripped.
        shed_streak: u32,
    },
    /// The server is shutting down and accepts no new requests.
    ShuttingDown,
    /// The request was queued when shutdown completed and no worker was
    /// left to serve it; it was drained and rejected, not dropped.
    DrainedAtShutdown {
        /// Id of the drained request.
        request_id: u64,
    },
    /// The request waited past its deadline and was shed (load shedding —
    /// a typed rejection, never a hang).
    DeadlineExceeded {
        /// Id of the shed request.
        request_id: u64,
        /// How long the request had been queued when it was shed.
        waited: Duration,
        /// The deadline it missed.
        deadline: Duration,
    },
    /// The worker serving this request hit an injected or organic panic;
    /// the request was rejected before the panic unwound and the worker
    /// was respawned by its supervisor.
    WorkerPanicked {
        /// Id of the rejected request.
        request_id: u64,
    },
    /// The worker serving this request died before responding (a model
    /// error or a panic on the worker thread).
    WorkerLost {
        /// Id of the orphaned request.
        request_id: u64,
    },
    /// No response arrived within the caller's wait timeout — used by the
    /// chaos harness to convert a would-be hang into a typed violation.
    ResponseTimeout {
        /// Id of the request that never answered.
        request_id: u64,
        /// How long the caller waited.
        waited: Duration,
    },
    /// A worker thread could not be spawned.
    WorkerSpawn {
        /// Index of the worker that failed to start.
        worker: usize,
        /// The OS error.
        source: std::io::Error,
    },
    /// An unknown model name was requested from the zoo.
    UnknownModel {
        /// The name that failed to resolve.
        name: String,
    },
    /// A frame carried a tenant id that is not in the registry.
    UnknownTenant {
        /// The unregistered tenant id from the frame header.
        tenant: u32,
    },
    /// The TCP front-end failed (socket setup, reactor, framing).
    Net(seal_net::NetError),
    /// A tensor could not be assembled (batch concatenation).
    Tensor(seal_tensor::TensorError),
    /// The neural-network layer stack rejected an input.
    Model(seal_nn::NnError),
    /// The encryption-plan / traffic layer rejected the topology.
    Core(seal_core::CoreError),
    /// The AES engine / counter-cache model rejected its configuration,
    /// or integrity verification failed ([`TagMismatch`]
    /// (seal_crypto::CryptoError::TagMismatch)).
    Crypto(seal_crypto::CryptoError),
    /// The fault-injection schedule rejected its configuration.
    Fault(seal_faults::FaultError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig { reason } => {
                write!(f, "invalid serve configuration: {reason}")
            }
            ServeError::ShapeMismatch { got, want } => {
                write!(f, "request shape {got} does not match model input {want}")
            }
            ServeError::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            ServeError::CircuitOpen { shed_streak } => {
                write!(
                    f,
                    "circuit breaker open after {shed_streak} consecutive sheds; admission refused"
                )
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DrainedAtShutdown { request_id } => {
                write!(
                    f,
                    "request {request_id} drained at shutdown with no worker left"
                )
            }
            ServeError::DeadlineExceeded {
                request_id,
                waited,
                deadline,
            } => write!(
                f,
                "request {request_id} shed: waited {}us past its {}us deadline",
                waited.as_micros(),
                deadline.as_micros()
            ),
            ServeError::WorkerPanicked { request_id } => {
                write!(
                    f,
                    "worker panicked while serving request {request_id} (respawned)"
                )
            }
            ServeError::WorkerLost { request_id } => {
                write!(f, "worker died before answering request {request_id}")
            }
            ServeError::ResponseTimeout { request_id, waited } => {
                write!(
                    f,
                    "request {request_id} unanswered after {}ms — possible hang",
                    waited.as_millis()
                )
            }
            ServeError::WorkerSpawn { worker, source } => {
                write!(f, "cannot spawn serving worker {worker}: {source}")
            }
            ServeError::UnknownModel { name } => {
                write!(f, "unknown model `{name}` (zoo: mlp, vgg16, resnet18)")
            }
            ServeError::UnknownTenant { tenant } => {
                write!(f, "tenant {tenant} is not registered")
            }
            ServeError::Net(e) => write!(f, "network front-end error: {e}"),
            ServeError::Tensor(e) => write!(f, "tensor error: {e}"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Core(e) => write!(f, "encryption-plan error: {e}"),
            ServeError::Crypto(e) => write!(f, "crypto-model error: {e}"),
            ServeError::Fault(e) => write!(f, "fault-plan error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Tensor(e) => Some(e),
            ServeError::Model(e) => Some(e),
            ServeError::Core(e) => Some(e),
            ServeError::Crypto(e) => Some(e),
            ServeError::Fault(e) => Some(e),
            ServeError::Net(e) => Some(e),
            ServeError::WorkerSpawn { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<seal_tensor::TensorError> for ServeError {
    fn from(e: seal_tensor::TensorError) -> Self {
        ServeError::Tensor(e)
    }
}

impl From<seal_nn::NnError> for ServeError {
    fn from(e: seal_nn::NnError) -> Self {
        ServeError::Model(e)
    }
}

impl From<seal_core::CoreError> for ServeError {
    fn from(e: seal_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<seal_crypto::CryptoError> for ServeError {
    fn from(e: seal_crypto::CryptoError) -> Self {
        ServeError::Crypto(e)
    }
}

impl From<seal_faults::FaultError> for ServeError {
    fn from(e: seal_faults::FaultError) -> Self {
        ServeError::Fault(e)
    }
}

impl From<seal_net::NetError> for ServeError {
    fn from(e: seal_net::NetError) -> Self {
        ServeError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = ServeError::QueueFull { capacity: 8 };
        assert!(e.to_string().contains("capacity 8"));
        let e = ServeError::UnknownModel { name: "gpt".into() };
        assert!(e.to_string().contains("gpt"));
        let e = ServeError::DeadlineExceeded {
            request_id: 3,
            waited: Duration::from_micros(900),
            deadline: Duration::from_micros(500),
        };
        assert!(e.to_string().contains("900us"));
        assert!(e.to_string().contains("500us"));
        let e = ServeError::CircuitOpen { shed_streak: 7 };
        assert!(e.to_string().contains("7 consecutive sheds"));
    }

    #[test]
    fn sources_are_threaded_through() {
        use std::error::Error as _;
        let e = ServeError::WorkerSpawn {
            worker: 2,
            source: std::io::Error::other("no threads"),
        };
        assert!(e.source().is_some(), "io::Error context must survive");
        let e = ServeError::Crypto(seal_crypto::CryptoError::TagMismatch { addr: 64, block: 1 });
        assert!(e.source().unwrap().to_string().contains("tampered"));
        let e = ServeError::Fault(seal_faults::FaultError::InvalidConfig { reason: "x".into() });
        assert!(e.source().is_some());
    }
}
