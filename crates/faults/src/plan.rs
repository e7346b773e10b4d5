//! The seeded fault schedule: configuration, pure-hash decisions and
//! planned-count accounting.

use std::error::Error;
use std::fmt;

/// Errors from fault-plan construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// A fault-schedule parameter is out of range.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::InvalidConfig { reason } => {
                write!(f, "invalid fault configuration: {reason}")
            }
        }
    }
}

impl Error for FaultError {}

/// The fault classes the SEAL chaos suite injects, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A bit-flip on ciphertext or counter state crossing the memory bus
    /// (detected by MAC verification, recovered by bounded re-fetch).
    Tamper,
    /// A stalled AES engine lane (extra pipeline cycles).
    EngineStall,
    /// A counter-cache miss storm (a burst of cold counter fetches).
    MissStorm,
    /// A panicking serving worker (quarantined and respawned).
    WorkerPanic,
    /// A request whose tensor shape does not match the model input.
    Oversized,
    /// A request that holds its worker far beyond the normal service time.
    Slow,
    /// A request submitted with an already-expired deadline (must be shed
    /// with a typed rejection, never served and never hung).
    DeadlineBust,
}

impl FaultKind {
    /// Stable label used in reports and JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Tamper => "tamper",
            FaultKind::EngineStall => "engine_stall",
            FaultKind::MissStorm => "miss_storm",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::Oversized => "oversized",
            FaultKind::Slow => "slow",
            FaultKind::DeadlineBust => "deadline_bust",
        }
    }
}

/// Every fault class, in reporting order.
pub const ALL_FAULTS: [FaultKind; 7] = [
    FaultKind::Tamper,
    FaultKind::EngineStall,
    FaultKind::MissStorm,
    FaultKind::WorkerPanic,
    FaultKind::Oversized,
    FaultKind::Slow,
    FaultKind::DeadlineBust,
];

/// A per-request fault decision (at most one class per request, so
/// injected counts partition the request stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestFault {
    /// The worker serving this request panics (supervisor respawns it).
    WorkerPanic,
    /// The request carries a wrongly-shaped tensor (typed rejection at
    /// admission).
    Oversized,
    /// The request's service is artificially slowed.
    Slow,
    /// The request arrives with an already-expired deadline.
    DeadlineBust,
}

/// How many of each per-request fault class a plan injects over a request
/// stream — computable statically from `(seed, config, request_count)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestFaultCounts {
    /// Requests that trigger a worker panic.
    pub worker_panics: u64,
    /// Requests with a wrongly-shaped payload.
    pub oversized: u64,
    /// Requests with injected service-time inflation.
    pub slow: u64,
    /// Requests born with an expired deadline.
    pub deadline_busts: u64,
}

impl RequestFaultCounts {
    /// Total injected per-request faults.
    pub fn total(&self) -> u64 {
        self.worker_panics + self.oversized + self.slow + self.deadline_busts
    }
}

/// A per-network-request fault decision (at most one class per request
/// index, mirroring [`RequestFault`] for the TCP edge). The injection
/// site is the *client*: a faulty request is sent malformed, truncated,
/// slow-lorised or abandoned, and the server must detect each with a
/// typed outcome — never a hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The frame is sent with corrupted header bytes (bad magic): the
    /// reactor must reject it as a typed protocol error.
    MalformedFrame,
    /// The frame's header promises more payload than is ever sent, then
    /// the connection closes: detected as a truncated frame.
    TruncatedFrame,
    /// The client sends a partial frame and stalls, holding the
    /// connection open: the reactor's mid-frame idle sweep must reap it.
    SlowLoris,
    /// The client sends a well-formed request then disconnects before
    /// the response: the response is dropped (counted), never a hang.
    Disconnect,
    /// The client requests large responses through a deliberately tiny
    /// receive window and never reads: the reactor's write-side
    /// backpressure (outbox cap / write-stall reaper) must close it.
    SlowReader,
    /// The client fires a burst of pipelined requests far past the
    /// per-connection cap: excess frames earn typed rejects and the
    /// strike limit closes the connection.
    PipelineAbuse,
    /// The client opens a burst of connections and drops them without
    /// sending a byte: accepted, seen closing cleanly, never fatal.
    ConnectStorm,
    /// During a graceful drain the client sends one more request and
    /// disconnects instead of waiting: the server must still account for
    /// it (typed reject or drop-count), never hang the drain window.
    DrainDisconnect,
}

/// How many of each network fault class a plan injects over a request
/// stream — computable statically from `(seed, config, request_count)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetFaultCounts {
    /// Requests sent as malformed frames.
    pub malformed: u64,
    /// Requests sent as truncated frames.
    pub truncated: u64,
    /// Requests turned into slow-loris stalls.
    pub slow_loris: u64,
    /// Requests abandoned mid-flight.
    pub disconnects: u64,
    /// Requests turned into never-reading slow-reader probes.
    pub slow_reader: u64,
    /// Requests turned into pipelining-abuse bursts.
    pub pipeline_abuse: u64,
    /// Requests turned into connect-and-drop storms.
    pub connect_storm: u64,
    /// Requests abandoned mid-drain (send then disconnect).
    pub drain_disconnects: u64,
}

impl NetFaultCounts {
    /// Total injected network faults.
    pub fn total(&self) -> u64 {
        self.malformed
            + self.truncated
            + self.slow_loris
            + self.disconnects
            + self.slow_reader
            + self.pipeline_abuse
            + self.connect_storm
            + self.drain_disconnects
    }
}

/// Rates and periods of a fault schedule.
///
/// Per-request classes are expressed in permille (out of 1000 requests);
/// sample-keyed classes fire every `*_every_samples` inference samples
/// (0 disables a class). The sample keying is what keeps cost-lane
/// injections independent of batch composition: crossing a multiple of
/// the period depends only on the cumulative sample count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Inject one ciphertext/counter tamper every N samples (0 = off).
    pub tamper_every_samples: u64,
    /// Stall the AES engine every N samples (0 = off).
    pub stall_every_samples: u64,
    /// Cycles each injected engine stall costs.
    pub stall_cycles: u64,
    /// Force a counter-cache miss storm every N samples (0 = off).
    pub storm_every_samples: u64,
    /// Cold counter pages touched per miss storm.
    pub storm_pages: u64,
    /// Permille of requests whose worker panics.
    pub panic_per_mille: u32,
    /// Permille of requests submitted with a wrong shape.
    pub oversized_per_mille: u32,
    /// Permille of requests with inflated service time.
    pub slow_per_mille: u32,
    /// Permille of requests born past their deadline.
    pub deadline_bust_per_mille: u32,
    /// Permille of network requests sent as malformed frames.
    pub malformed_per_mille: u32,
    /// Permille of network requests sent as truncated frames.
    pub truncated_per_mille: u32,
    /// Permille of network requests turned into slow-loris stalls.
    pub slow_loris_per_mille: u32,
    /// Permille of network requests abandoned before their response.
    pub disconnect_per_mille: u32,
    /// Permille of network requests turned into slow-reader probes
    /// (never read their responses; the write-side reaper must act).
    pub slow_reader_per_mille: u32,
    /// Permille of network requests turned into pipelining-abuse bursts.
    pub pipeline_abuse_per_mille: u32,
    /// Permille of network requests turned into connect-and-drop storms.
    pub connect_storm_per_mille: u32,
    /// Permille of drain-phase clients that send-then-disconnect instead
    /// of honouring the GOAWAY.
    pub drain_disconnect_per_mille: u32,
}

impl FaultConfig {
    /// A schedule that disables every fault class.
    pub fn quiescent() -> Self {
        FaultConfig {
            tamper_every_samples: 0,
            stall_every_samples: 0,
            stall_cycles: 0,
            storm_every_samples: 0,
            storm_pages: 0,
            panic_per_mille: 0,
            oversized_per_mille: 0,
            slow_per_mille: 0,
            deadline_bust_per_mille: 0,
            malformed_per_mille: 0,
            truncated_per_mille: 0,
            slow_loris_per_mille: 0,
            disconnect_per_mille: 0,
            slow_reader_per_mille: 0,
            pipeline_abuse_per_mille: 0,
            connect_storm_per_mille: 0,
            drain_disconnect_per_mille: 0,
        }
    }

    /// The CI chaos-smoke schedule: every fault class enabled at rates
    /// that exercise detection and recovery within ~200 requests while
    /// leaving most requests healthy.
    pub fn chaos_smoke() -> Self {
        FaultConfig {
            tamper_every_samples: 5,
            stall_every_samples: 7,
            stall_cycles: 50_000,
            storm_every_samples: 6,
            storm_pages: 32,
            panic_per_mille: 40,
            oversized_per_mille: 40,
            slow_per_mille: 60,
            deadline_bust_per_mille: 40,
            // The in-process chaos smoke has no wire; network fault
            // classes stay off so its counts are unchanged.
            malformed_per_mille: 0,
            truncated_per_mille: 0,
            slow_loris_per_mille: 0,
            disconnect_per_mille: 0,
            slow_reader_per_mille: 0,
            pipeline_abuse_per_mille: 0,
            connect_storm_per_mille: 0,
            drain_disconnect_per_mille: 0,
        }
    }

    /// The TCP chaos-smoke schedule: every *network* fault class enabled
    /// at rates that exercise the reactor's detection paths while the
    /// in-process classes stay quiet (the net smoke proves edge
    /// behaviour; `chaos_smoke` already covers the worker pipeline).
    pub fn net_smoke() -> Self {
        FaultConfig {
            malformed_per_mille: 20,
            truncated_per_mille: 20,
            slow_loris_per_mille: 10,
            disconnect_per_mille: 20,
            // Byzantine-client classes are rarer: each probe is a whole
            // extra connection with an expensive server-side lifecycle.
            slow_reader_per_mille: 5,
            pipeline_abuse_per_mille: 8,
            connect_storm_per_mille: 5,
            drain_disconnect_per_mille: 0,
            ..FaultConfig::quiescent()
        }
    }

    /// The drain-scenario schedule: every lifecycle class quiet except
    /// drain-disconnect, rolled per *client* during the graceful-drain
    /// phase (a quarter of clients abandon instead of honouring GOAWAY).
    pub fn drain_smoke() -> Self {
        FaultConfig {
            drain_disconnect_per_mille: 250,
            ..FaultConfig::quiescent()
        }
    }

    /// Validates the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidConfig`] when the per-request permille
    /// rates sum past 1000, or a period is enabled with a zero magnitude.
    pub fn validate(&self) -> Result<(), FaultError> {
        let per_mille = u64::from(self.panic_per_mille)
            + u64::from(self.oversized_per_mille)
            + u64::from(self.slow_per_mille)
            + u64::from(self.deadline_bust_per_mille);
        if per_mille > 1000 {
            return Err(FaultError::InvalidConfig {
                reason: format!(
                    "per-request fault rates sum to {per_mille}\u{2030} > 1000\u{2030}"
                ),
            });
        }
        let net_per_mille = u64::from(self.malformed_per_mille)
            + u64::from(self.truncated_per_mille)
            + u64::from(self.slow_loris_per_mille)
            + u64::from(self.disconnect_per_mille)
            + u64::from(self.slow_reader_per_mille)
            + u64::from(self.pipeline_abuse_per_mille)
            + u64::from(self.connect_storm_per_mille)
            + u64::from(self.drain_disconnect_per_mille);
        if net_per_mille > 1000 {
            return Err(FaultError::InvalidConfig {
                reason: format!(
                    "network fault rates sum to {net_per_mille}\u{2030} > 1000\u{2030}"
                ),
            });
        }
        if self.stall_every_samples > 0 && self.stall_cycles == 0 {
            return Err(FaultError::InvalidConfig {
                reason: "engine stalls enabled with stall_cycles == 0".into(),
            });
        }
        if self.storm_every_samples > 0 && self.storm_pages == 0 {
            return Err(FaultError::InvalidConfig {
                reason: "miss storms enabled with storm_pages == 0".into(),
            });
        }
        Ok(())
    }

    /// `true` when at least one fault class is enabled.
    pub fn any_enabled(&self) -> bool {
        *self != FaultConfig::quiescent()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::quiescent()
    }
}

/// One round of SplitMix64 — the same finaliser the in-tree RNG uses,
/// duplicated here so the crate stays dependency-free.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded, reproducible fault schedule.
///
/// The plan holds no mutable state: every decision is a hash of the seed
/// and a caller-supplied stable event key, so the plan is `Sync`, cheap to
/// clone and immune to thread-interleaving nondeterminism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
}

// The whole point of the plan is to be shared read-only across serving
// workers and chaos clients; losing `Send + Sync` would silently force a
// lock around a pure function.
const _: () = {
    const fn assert_sync<T: Send + Sync>() {}
    assert_sync::<FaultPlan>();
};

impl FaultPlan {
    /// Builds a plan from a seed and a validated schedule.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultConfig::validate`] failures.
    pub fn new(seed: u64, config: FaultConfig) -> Result<Self, FaultError> {
        config.validate()?;
        Ok(FaultPlan { seed, config })
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The schedule this plan realises.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// A deterministic 64-bit draw for `(domain, index)` — used to pick
    /// bit positions, corruption targets and storm addresses. Distinct
    /// domains decorrelate distinct uses of the same index.
    pub fn draw(&self, domain: u64, index: u64) -> u64 {
        splitmix64(
            splitmix64(self.seed ^ domain.wrapping_mul(0xA076_1D64_78BD_642F)).wrapping_add(index),
        )
    }

    /// The fault (if any) injected into the request with stable index
    /// `request_index`. At most one class fires per request; the decision
    /// is a pure function of `(seed, config, request_index)`.
    pub fn request_fault(&self, request_index: u64) -> Option<RequestFault> {
        let roll = self.draw(0x0072_6571, request_index) % 1000;
        let c = &self.config;
        let mut edge = u64::from(c.panic_per_mille);
        if roll < edge {
            return Some(RequestFault::WorkerPanic);
        }
        edge += u64::from(c.oversized_per_mille);
        if roll < edge {
            return Some(RequestFault::Oversized);
        }
        edge += u64::from(c.slow_per_mille);
        if roll < edge {
            return Some(RequestFault::Slow);
        }
        edge += u64::from(c.deadline_bust_per_mille);
        if roll < edge {
            return Some(RequestFault::DeadlineBust);
        }
        None
    }

    /// How many of each per-request class the plan injects across
    /// `requests` consecutive request indices — the static side of the
    /// chaos determinism check.
    pub fn planned_request_faults(&self, requests: u64) -> RequestFaultCounts {
        let mut counts = RequestFaultCounts::default();
        for i in 0..requests {
            match self.request_fault(i) {
                Some(RequestFault::WorkerPanic) => counts.worker_panics += 1,
                Some(RequestFault::Oversized) => counts.oversized += 1,
                Some(RequestFault::Slow) => counts.slow += 1,
                Some(RequestFault::DeadlineBust) => counts.deadline_busts += 1,
                None => {}
            }
        }
        counts
    }

    /// The network fault (if any) injected into the request with stable
    /// index `request_index`. Drawn from a domain distinct from
    /// [`request_fault`](Self::request_fault), so enabling network faults
    /// never re-rolls the in-process fault decisions.
    pub fn net_fault(&self, request_index: u64) -> Option<NetFault> {
        let roll = self.draw(0x006E_6574, request_index) % 1000;
        let c = &self.config;
        let mut edge = u64::from(c.malformed_per_mille);
        if roll < edge {
            return Some(NetFault::MalformedFrame);
        }
        edge += u64::from(c.truncated_per_mille);
        if roll < edge {
            return Some(NetFault::TruncatedFrame);
        }
        edge += u64::from(c.slow_loris_per_mille);
        if roll < edge {
            return Some(NetFault::SlowLoris);
        }
        edge += u64::from(c.disconnect_per_mille);
        if roll < edge {
            return Some(NetFault::Disconnect);
        }
        edge += u64::from(c.slow_reader_per_mille);
        if roll < edge {
            return Some(NetFault::SlowReader);
        }
        edge += u64::from(c.pipeline_abuse_per_mille);
        if roll < edge {
            return Some(NetFault::PipelineAbuse);
        }
        edge += u64::from(c.connect_storm_per_mille);
        if roll < edge {
            return Some(NetFault::ConnectStorm);
        }
        edge += u64::from(c.drain_disconnect_per_mille);
        if roll < edge {
            return Some(NetFault::DrainDisconnect);
        }
        None
    }

    /// How many of each network fault class the plan injects across
    /// `requests` consecutive request indices — the static side of the
    /// net-smoke determinism check.
    pub fn planned_net_faults(&self, requests: u64) -> NetFaultCounts {
        let mut counts = NetFaultCounts::default();
        for i in 0..requests {
            match self.net_fault(i) {
                Some(NetFault::MalformedFrame) => counts.malformed += 1,
                Some(NetFault::TruncatedFrame) => counts.truncated += 1,
                Some(NetFault::SlowLoris) => counts.slow_loris += 1,
                Some(NetFault::Disconnect) => counts.disconnects += 1,
                Some(NetFault::SlowReader) => counts.slow_reader += 1,
                Some(NetFault::PipelineAbuse) => counts.pipeline_abuse += 1,
                Some(NetFault::ConnectStorm) => counts.connect_storm += 1,
                Some(NetFault::DrainDisconnect) => counts.drain_disconnects += 1,
                None => {}
            }
        }
        counts
    }

    /// Number of period boundaries crossed when a cumulative event count
    /// advances from `before` to `after` (half-open on the left: counts
    /// multiples of `period` in `(before, after]`). Sample-keyed fault
    /// classes use this so the injected count depends only on the total —
    /// never on how batches happened to split it.
    pub fn crossings(period: u64, before: u64, after: u64) -> u64 {
        if period == 0 || after <= before {
            return 0;
        }
        after / period - before / period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed, FaultConfig::chaos_smoke()).unwrap()
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = plan(9);
        let b = plan(9);
        for i in 0..500 {
            assert_eq!(a.request_fault(i), b.request_fault(i), "index {i}");
            assert_eq!(a.draw(3, i), b.draw(3, i));
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = plan(1);
        let b = plan(2);
        assert!((0..500).any(|i| a.request_fault(i) != b.request_fault(i)));
    }

    #[test]
    fn rates_land_near_expectation() {
        let p = plan(33);
        let counts = p.planned_request_faults(10_000);
        // 40‰ / 40‰ / 60‰ / 40‰ over 10k requests; hash noise stays well
        // within ±50% of expectation.
        assert!((200..=600).contains(&counts.worker_panics), "{counts:?}");
        assert!((200..=600).contains(&counts.oversized), "{counts:?}");
        assert!((300..=900).contains(&counts.slow), "{counts:?}");
        assert!((200..=600).contains(&counts.deadline_busts), "{counts:?}");
        assert!(counts.total() < 10_000 / 2);
    }

    #[test]
    fn quiescent_plan_injects_nothing() {
        let p = FaultPlan::new(5, FaultConfig::quiescent()).unwrap();
        assert!((0..1000).all(|i| p.request_fault(i).is_none()));
        assert_eq!(
            p.planned_request_faults(1000),
            RequestFaultCounts::default()
        );
        assert!(!FaultConfig::quiescent().any_enabled());
        assert!(FaultConfig::chaos_smoke().any_enabled());
    }

    #[test]
    fn crossings_depend_only_on_totals() {
        // Any split of 0..100 into segments yields the same crossing sum.
        let whole = FaultPlan::crossings(7, 0, 100);
        for split in [1u64, 13, 50, 99] {
            let sum = FaultPlan::crossings(7, 0, split) + FaultPlan::crossings(7, split, 100);
            assert_eq!(sum, whole, "split {split}");
        }
        assert_eq!(FaultPlan::crossings(0, 0, 100), 0);
        assert_eq!(FaultPlan::crossings(5, 10, 10), 0);
        assert_eq!(FaultPlan::crossings(5, 4, 5), 1);
    }

    #[test]
    fn overcommitted_rates_rejected() {
        let mut c = FaultConfig::chaos_smoke();
        c.panic_per_mille = 900;
        c.slow_per_mille = 200;
        assert!(matches!(
            FaultPlan::new(0, c),
            Err(FaultError::InvalidConfig { .. })
        ));
        let mut c = FaultConfig::chaos_smoke();
        c.stall_cycles = 0;
        assert!(FaultPlan::new(0, c).is_err());
        let mut c = FaultConfig::chaos_smoke();
        c.storm_pages = 0;
        assert!(FaultPlan::new(0, c).is_err());
    }

    #[test]
    fn net_faults_are_deterministic_and_independent() {
        let base = plan(17); // chaos_smoke: net classes disabled
        assert!((0..1000).all(|i| base.net_fault(i).is_none()));
        let net = FaultPlan::new(17, FaultConfig::net_smoke()).unwrap();
        // Enabling net faults must not re-roll the in-process decisions.
        let both = {
            let mut c = FaultConfig::chaos_smoke();
            c.malformed_per_mille = 20;
            c.truncated_per_mille = 20;
            c.slow_loris_per_mille = 10;
            c.disconnect_per_mille = 20;
            c.slow_reader_per_mille = 5;
            c.pipeline_abuse_per_mille = 8;
            c.connect_storm_per_mille = 5;
            FaultPlan::new(17, c).unwrap()
        };
        for i in 0..1000 {
            assert_eq!(base.request_fault(i), both.request_fault(i), "index {i}");
            assert_eq!(net.net_fault(i), both.net_fault(i), "index {i}");
        }
        // Same seed, same counts; rates land near expectation over 10k.
        let counts = net.planned_net_faults(10_000);
        assert_eq!(counts, net.planned_net_faults(10_000));
        assert!((100..=300).contains(&counts.malformed), "{counts:?}");
        assert!((100..=300).contains(&counts.truncated), "{counts:?}");
        assert!((50..=150).contains(&counts.slow_loris), "{counts:?}");
        assert!((100..=300).contains(&counts.disconnects), "{counts:?}");
        // Byzantine classes: 5‰ / 8‰ / 5‰ over 10k, ±~60% hash noise.
        assert!((20..=100).contains(&counts.slow_reader), "{counts:?}");
        assert!((30..=140).contains(&counts.pipeline_abuse), "{counts:?}");
        assert!((20..=100).contains(&counts.connect_storm), "{counts:?}");
        assert_eq!(counts.drain_disconnects, 0, "{counts:?}");
        assert_eq!(
            counts.total(),
            counts.malformed
                + counts.truncated
                + counts.slow_loris
                + counts.disconnects
                + counts.slow_reader
                + counts.pipeline_abuse
                + counts.connect_storm
        );
    }

    #[test]
    fn drain_smoke_only_rolls_drain_disconnects() {
        let p = FaultPlan::new(21, FaultConfig::drain_smoke()).unwrap();
        let counts = p.planned_net_faults(1000);
        assert_eq!(counts.total(), counts.drain_disconnects, "{counts:?}");
        // 250‰ over 1000 clients: comfortably nonzero and non-total.
        assert!(
            (100..=400).contains(&counts.drain_disconnects),
            "{counts:?}"
        );
        assert_eq!(counts, p.planned_net_faults(1000), "re-plan must agree");
        assert!(FaultConfig::drain_smoke().any_enabled());
    }

    #[test]
    fn overcommitted_net_rates_rejected() {
        let mut c = FaultConfig::net_smoke();
        c.malformed_per_mille = 600;
        c.truncated_per_mille = 500;
        assert!(matches!(
            FaultPlan::new(0, c),
            Err(FaultError::InvalidConfig { .. })
        ));
        assert!(FaultConfig::net_smoke().any_enabled());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultKind::Tamper.label(), "tamper");
        assert_eq!(ALL_FAULTS.len(), 7);
    }
}
