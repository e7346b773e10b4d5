//! Closed-loop, open-loop and chaos load generators.
//!
//! * **Closed loop** — `concurrency` clients, each keeping exactly one
//!   request in flight: submit, wait, repeat. Backpressure is absorbed by
//!   retrying with exponential backoff, so every request eventually
//!   completes; this measures the system's sustainable throughput.
//! * **Open loop** — requests arrive at a fixed rate regardless of
//!   completions (the standard arrival model for tail-latency studies).
//!   Admission-control rejections are *dropped and counted*, not retried.
//! * **Chaos loop** — a closed loop driving a server whose
//!   [`FaultPlan`](seal_faults::FaultPlan) is armed: each globally-indexed
//!   request carries whatever fault the plan assigns it, every outcome is
//!   classified into a typed count, and a bounded wait turns any would-be
//!   hang into a [`ServeError::ResponseTimeout`] violation.
//!
//! All generators draw request tensors from the deterministic in-tree
//! generator, so a (seed, request-count) pair always produces the same
//! request stream.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use seal_faults::{Backoff, FaultPlan, RequestFault, RequestFaultCounts};
use seal_tensor::rng::rngs::StdRng;
use seal_tensor::rng::SeedableRng;
use seal_tensor::{Shape, Tensor};

use crate::arrivals::ArrivalSchedule;
use crate::metrics::LatencyHistogram;
use crate::{locked, ServeError, Server};

/// Base pause of the QueueFull retry backoff.
const RETRY_BASE: Duration = Duration::from_micros(50);

/// Cap on a single QueueFull retry pause.
const RETRY_MAX: Duration = Duration::from_millis(5);

/// Bounded per-request wait in the chaos loop: a response slower than this
/// is reported as a typed hang violation instead of blocking forever.
const CHAOS_WAIT: Duration = Duration::from_secs(5);

/// How a load generator drove the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Closed loop with this many concurrent clients.
    Closed {
        /// Number of client threads (each with one request in flight).
        concurrency: usize,
    },
    /// Open loop at this many requests per second.
    Open {
        /// Arrival rate in requests per second.
        rate_rps: f64,
    },
    /// Open loop with Pareto (heavy-tailed) inter-arrival gaps — the
    /// same [`ArrivalSchedule`] the TCP load generator replays.
    OpenPareto {
        /// Mean inter-arrival gap in microseconds.
        mean_gap_us: f64,
        /// Pareto shape parameter (tail heaviness).
        alpha: f64,
    },
}

impl LoadMode {
    /// Short name used in reports and file names.
    pub fn name(&self) -> &'static str {
        match self {
            LoadMode::Closed { .. } => "closed",
            LoadMode::Open { .. } => "open",
            LoadMode::OpenPareto { .. } => "open-pareto",
        }
    }
}

/// What the load generator observed from the client side.
#[derive(Debug)]
pub struct LoadReport {
    /// The arrival model used.
    pub mode: LoadMode,
    /// Requests the generator tried to issue.
    pub requested: usize,
    /// Requests that completed with a prediction.
    pub completed: usize,
    /// Requests dropped by admission control (open loop only).
    pub rejected: usize,
    /// Wall-clock duration of the run in seconds.
    pub wall_seconds: f64,
    /// Completed requests per wall-clock second.
    pub observed_throughput_rps: f64,
    /// Client-observed end-to-end latency.
    pub latency: LatencyHistogram,
}

/// What the chaos loop observed: every request accounted for by exactly
/// one typed outcome.
///
/// The seed-deterministic fields — `injected`, `completed`, `shed`,
/// `panicked`, `oversized_rejected` — must be identical across same-seed
/// runs; `timeouts` and `lost` must be zero on any healthy run (they are
/// the "server hung" and "server dropped a request" violations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosReport {
    /// Requests the generator issued (each global index exactly once).
    pub requested: usize,
    /// Faults the plan assigned to those requests.
    pub injected: RequestFaultCounts,
    /// Requests that completed with a prediction (healthy + slow).
    pub completed: usize,
    /// Requests shed with a typed [`ServeError::DeadlineExceeded`].
    pub shed: usize,
    /// Requests rejected by [`ServeError::WorkerPanicked`].
    pub panicked: usize,
    /// Oversized requests rejected at [`ServeError::ShapeMismatch`].
    pub oversized_rejected: usize,
    /// Requests refused by [`ServeError::CircuitOpen`] (0 while the chaos
    /// preset keeps the breaker threshold out of reach).
    pub breaker_rejected: usize,
    /// Requests that hit the bounded wait — hang violations.
    pub timeouts: usize,
    /// Requests whose worker vanished without a typed answer.
    pub lost: usize,
    /// Wall-clock duration of the run in seconds (not deterministic).
    pub wall_seconds: f64,
}

impl ChaosReport {
    /// Every issued request must land in exactly one outcome bucket.
    pub fn fully_accounted(&self) -> bool {
        self.completed
            + self.shed
            + self.panicked
            + self.oversized_rejected
            + self.breaker_rejected
            + self.timeouts
            + self.lost
            == self.requested
    }
}

/// Runs a closed-loop test: `concurrency` clients issue `requests` total
/// requests, each waiting for its previous answer before the next send.
///
/// # Errors
///
/// Propagates the first client-side error other than backpressure
/// (`QueueFull` is retried with exponential backoff).
pub fn run_closed(
    server: &Server,
    requests: usize,
    concurrency: usize,
    seed: u64,
) -> Result<LoadReport, ServeError> {
    if concurrency == 0 {
        return Err(ServeError::InvalidConfig {
            reason: "closed-loop concurrency must be >= 1".into(),
        });
    }
    let started = Instant::now();
    let issued = AtomicUsize::new(0);
    let latency = Mutex::new(LatencyHistogram::new());
    let first_error: Mutex<Option<ServeError>> = Mutex::new(None);
    let completed = AtomicUsize::new(0);

    // Clients run on seal-pool scoped workers (the workspace's single
    // audited home for thread spawning) rather than ad-hoc scope threads.
    seal_pool::scoped_map((0..concurrency).collect(), |client: usize| {
        let mut rng = StdRng::seed_from_u64(seed ^ (client as u64).wrapping_mul(0x9E37));
        loop {
            if issued.fetch_add(1, Ordering::Relaxed) >= requests {
                return;
            }
            let input = server.sample_input(&mut rng);
            let mut backoff = Backoff::new(RETRY_BASE, RETRY_MAX);
            let handle = loop {
                match server.submit(input.clone()) {
                    Ok(h) => break h,
                    Err(ServeError::QueueFull { .. }) => {
                        std::thread::sleep(backoff.next_delay());
                    }
                    Err(e) => {
                        record_error(&first_error, e);
                        return;
                    }
                }
            };
            match handle.wait() {
                Ok(r) => {
                    completed.fetch_add(1, Ordering::Relaxed);
                    locked(&latency).record(r.latency.as_micros() as u64);
                }
                Err(e) => {
                    record_error(&first_error, e);
                    return;
                }
            }
        }
    });

    if let Some(e) = locked(&first_error).take() {
        return Err(e);
    }
    let wall = started.elapsed().as_secs_f64();
    let done = completed.load(Ordering::Relaxed);
    let latency = locked(&latency).clone();
    Ok(LoadReport {
        mode: LoadMode::Closed { concurrency },
        requested: requests,
        completed: done,
        rejected: 0,
        wall_seconds: wall,
        observed_throughput_rps: if wall > 0.0 { done as f64 / wall } else { 0.0 },
        latency,
    })
}

/// Runs an open-loop test: `requests` arrivals paced at `rate_rps`,
/// submitted without waiting for completions; rejected arrivals are
/// dropped and counted. After the last arrival the generator waits for
/// every accepted request.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for a non-positive rate and
/// propagates non-backpressure submission failures.
pub fn run_open(
    server: &Server,
    requests: usize,
    rate_rps: f64,
    seed: u64,
) -> Result<LoadReport, ServeError> {
    if rate_rps <= 0.0 {
        return Err(ServeError::InvalidConfig {
            reason: format!("open-loop rate {rate_rps} must be positive"),
        });
    }
    let interval = Duration::from_secs_f64(1.0 / rate_rps);
    let offsets = (0..requests).map(|k| interval * k as u32);
    run_arrivals(server, LoadMode::Open { rate_rps }, offsets, seed)
}

/// Runs an open-loop test with Pareto inter-arrivals: the schedule is the
/// deterministic [`ArrivalSchedule`] shared with the TCP load generator,
/// so in-process and network runs replay the identical offered load for a
/// given seed. Rejected arrivals are dropped and counted, exactly as in
/// [`run_open`].
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] for a non-positive mean gap and
/// propagates non-backpressure submission failures.
pub fn run_open_pareto(
    server: &Server,
    requests: usize,
    mean_gap_us: f64,
    alpha: f64,
    seed: u64,
) -> Result<LoadReport, ServeError> {
    if mean_gap_us <= 0.0 {
        return Err(ServeError::InvalidConfig {
            reason: format!("open-loop mean gap {mean_gap_us}us must be positive"),
        });
    }
    let schedule = ArrivalSchedule::pareto(seed, requests, mean_gap_us, alpha);
    let offsets = schedule.offsets_us().iter().map(|&us| Duration::from_micros(us));
    run_arrivals(server, LoadMode::OpenPareto { mean_gap_us, alpha }, offsets, seed)
}

/// The open loop itself: one submission at each arrival offset from the
/// start, never waiting for completions; then every accepted request is
/// waited for.
fn run_arrivals(
    server: &Server,
    mode: LoadMode,
    offsets: impl ExactSizeIterator<Item = Duration>,
    seed: u64,
) -> Result<LoadReport, ServeError> {
    let requested = offsets.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let started = Instant::now();
    let mut handles = Vec::with_capacity(requested);
    let mut rejected = 0usize;

    for offset in offsets {
        let fire = started + offset;
        let now = Instant::now();
        if now < fire {
            std::thread::sleep(fire - now);
        }
        let input = server.sample_input(&mut rng);
        match server.submit(input) {
            Ok(h) => handles.push(h),
            Err(ServeError::QueueFull { .. }) => rejected += 1,
            Err(e) => return Err(e),
        }
    }

    let mut latency = LatencyHistogram::new();
    let mut completed = 0usize;
    for h in handles {
        let r = h.wait()?;
        completed += 1;
        latency.record(r.latency.as_micros() as u64);
    }
    let wall = started.elapsed().as_secs_f64();
    Ok(LoadReport {
        mode,
        requested,
        completed,
        rejected,
        wall_seconds: wall,
        observed_throughput_rps: if wall > 0.0 {
            completed as f64 / wall
        } else {
            0.0
        },
        latency,
    })
}

/// Per-outcome atomic tallies shared by the chaos clients.
#[derive(Default)]
struct ChaosCounts {
    completed: AtomicUsize,
    shed: AtomicUsize,
    panicked: AtomicUsize,
    oversized_rejected: AtomicUsize,
    breaker_rejected: AtomicUsize,
    timeouts: AtomicUsize,
    lost: AtomicUsize,
}

/// Runs the chaos loop: `concurrency` clients issue `requests` globally
/// indexed requests against a server whose fault schedule is armed; the
/// plan (reconstructed from the server's own config) assigns each index
/// its fault, and every outcome lands in a typed count.
///
/// An oversized fault is realised as an actually wrong-shaped tensor, so
/// the rejection exercises the real [`ServeError::ShapeMismatch`]
/// admission check rather than a flag.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] if the server has no fault
/// schedule armed, and propagates any outcome the classifier does not
/// recognise (those are harness bugs, not chaos).
pub fn run_chaos(
    server: &Server,
    requests: usize,
    concurrency: usize,
) -> Result<ChaosReport, ServeError> {
    if concurrency == 0 {
        return Err(ServeError::InvalidConfig {
            reason: "chaos concurrency must be >= 1".into(),
        });
    }
    let config = server.config();
    let Some(faults) = config.faults else {
        return Err(ServeError::InvalidConfig {
            reason: "chaos run requires an armed fault schedule (config.faults)".into(),
        });
    };
    let plan = FaultPlan::new(config.fault_seed, faults)?;
    let oversized_shape = wrong_shape(server.input_shape());

    let started = Instant::now();
    let cursor = AtomicUsize::new(0);
    let counts = ChaosCounts::default();
    let first_error: Mutex<Option<ServeError>> = Mutex::new(None);

    seal_pool::scoped_map((0..concurrency).collect(), |client: usize| {
        let mut rng =
            StdRng::seed_from_u64(config.fault_seed ^ (client as u64).wrapping_mul(0x517C));
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= requests {
                return;
            }
            let fault = plan.request_fault(index as u64);
            if fault == Some(RequestFault::Oversized) {
                // A genuinely wrong-shaped tensor: must bounce off the
                // ShapeMismatch admission check, deterministically.
                match server.submit(Tensor::zeros(oversized_shape.clone())) {
                    Err(ServeError::ShapeMismatch { .. }) => {
                        counts.oversized_rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => record_error(
                        &first_error,
                        ServeError::InvalidConfig {
                            reason: "oversized request was admitted".into(),
                        },
                    ),
                    Err(e) => record_error(&first_error, e),
                }
                continue;
            }
            let input = server.sample_input(&mut rng);
            let mut backoff = Backoff::new(RETRY_BASE, RETRY_MAX);
            let handle = loop {
                match server.submit_with_fault(input.clone(), fault) {
                    Ok(h) => break Some(h),
                    Err(ServeError::QueueFull { .. }) => {
                        std::thread::sleep(backoff.next_delay());
                    }
                    Err(ServeError::CircuitOpen { .. }) => {
                        counts.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                        break None;
                    }
                    Err(e) => {
                        record_error(&first_error, e);
                        return;
                    }
                }
            };
            let Some(handle) = handle else { continue };
            match handle.wait_timeout(CHAOS_WAIT) {
                Ok(_) => {
                    counts.completed.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServeError::DeadlineExceeded { .. }) => {
                    counts.shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServeError::WorkerPanicked { .. }) => {
                    counts.panicked.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServeError::ResponseTimeout { .. }) => {
                    counts.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                Err(ServeError::WorkerLost { .. } | ServeError::DrainedAtShutdown { .. }) => {
                    counts.lost.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => record_error(&first_error, e),
            }
        }
    });

    if let Some(e) = locked(&first_error).take() {
        return Err(e);
    }
    Ok(ChaosReport {
        requested: requests,
        injected: plan.planned_request_faults(requests as u64),
        completed: counts.completed.load(Ordering::Relaxed),
        shed: counts.shed.load(Ordering::Relaxed),
        panicked: counts.panicked.load(Ordering::Relaxed),
        oversized_rejected: counts.oversized_rejected.load(Ordering::Relaxed),
        breaker_rejected: counts.breaker_rejected.load(Ordering::Relaxed),
        timeouts: counts.timeouts.load(Ordering::Relaxed),
        lost: counts.lost.load(Ordering::Relaxed),
        wall_seconds: started.elapsed().as_secs_f64(),
    })
}

/// A shape guaranteed not to equal the model's input shape.
fn wrong_shape(input: &Shape) -> Shape {
    let bad = Shape::nchw(1, 1, 1, 1);
    if &bad == input {
        Shape::nchw(1, 2, 2, 2)
    } else {
        bad
    }
}

/// Keeps the first error a client hit.
fn record_error(slot: &Mutex<Option<ServeError>>, e: ServeError) {
    let mut s = locked(slot);
    if s.is_none() {
        *s = Some(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use std::time::Duration;

    fn mlp_server() -> Server {
        Server::start(ServerConfig {
            model: "mlp".into(),
            workers: 2,
            max_batch: 4,
            batch_deadline: Duration::from_micros(200),
            queue_capacity: 64,
            ..ServerConfig::smoke()
        })
        .unwrap()
    }

    #[test]
    fn closed_loop_completes_every_request() {
        let server = mlp_server();
        let report = run_closed(&server, 20, 4, 9).unwrap();
        assert_eq!(report.completed, 20);
        assert_eq!(report.rejected, 0);
        assert!(report.observed_throughput_rps > 0.0);
        assert_eq!(report.latency.len(), 20);
        server.shutdown().unwrap();
    }

    #[test]
    fn open_loop_accounts_for_every_arrival() {
        let server = mlp_server();
        let report = run_open(&server, 20, 5000.0, 9).unwrap();
        assert_eq!(report.completed + report.rejected, 20);
        assert!(report.completed > 0);
        server.shutdown().unwrap();
    }

    #[test]
    fn open_pareto_replays_the_shared_schedule() {
        let server = mlp_server();
        let report = run_open_pareto(&server, 30, 50.0, 1.5, 17).unwrap();
        assert_eq!(report.completed + report.rejected, 30);
        assert_eq!(report.mode.name(), "open-pareto");
        server.shutdown().unwrap();
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let server = mlp_server();
        assert!(run_closed(&server, 1, 0, 0).is_err());
        assert!(run_open(&server, 1, 0.0, 0).is_err());
        assert!(run_open_pareto(&server, 1, 0.0, 1.5, 0).is_err());
        assert!(
            run_chaos(&server, 1, 2).is_err(),
            "chaos without an armed schedule is a config error"
        );
        server.shutdown().unwrap();
    }

    #[test]
    fn chaos_outcomes_match_the_plan() {
        let server = Server::start(ServerConfig::chaos_smoke(77)).unwrap();
        let report = run_chaos(&server, 120, 4).unwrap();
        assert!(report.fully_accounted(), "{report:?}");
        assert_eq!(report.timeouts, 0, "no request may hang");
        assert_eq!(report.lost, 0, "no request may vanish");
        assert_eq!(report.shed, report.injected.deadline_busts as usize);
        assert_eq!(report.panicked, report.injected.worker_panics as usize);
        assert_eq!(
            report.oversized_rejected,
            report.injected.oversized as usize
        );
        let stats = server.shutdown().unwrap();
        assert_eq!(stats.supervision.panics as usize, report.panicked);
        assert!(!stats.supervision.quarantined);
        let faults = stats.faults.expect("chaos armed");
        assert_eq!(faults.silent_corruptions, 0);
        assert_eq!(faults.tampers_detected, faults.tampers_injected);
    }
}
