//! Seeded encryption-boundary violation on the streaming trace sink:
//! weight-derived sizes reach `Workload::requests` — the address trace the
//! simulated memory bus sees — without passing through `CtrCipher` or the
//! cost-lane pricer.
//!
//! `Workload::requests` is the generator `Workload::trace` collects, so it
//! must be a sink in its own right: a caller that streams the trace never
//! touches `trace`. The deep taint pass must report `leak_requests` with
//! the full source→…→sink chain and leave `replay_ciphertext` alone.

struct BatchNorm2d {
    g: Vec<f32>,
}

impl BatchNorm2d {
    fn gamma(&self) -> &[f32] {
        &self.g
    }
}

struct Workload {
    bytes: u64,
}

impl Workload {
    fn requests(&self, line: u64) -> u64 {
        self.bytes / line
    }
}

/// Reads the scale vector — taints every caller.
fn stage_scales(bn: &BatchNorm2d) -> u64 {
    bn.gamma().len() as u64 * 4
}

/// The seeded bypass: a trace shaped by plaintext weights is streamed
/// straight onto the bus.
fn leak_requests(bn: &BatchNorm2d, wl: &Workload) -> u64 {
    stage_scales(bn) + wl.requests(128)
}

/// Untainted streamer — replays a workload built from ciphertext sizes.
fn replay_ciphertext(wl: &Workload) -> u64 {
    wl.requests(128)
}
