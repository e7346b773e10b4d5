//! The network-serving smoke artifact: `results/serve_net.json`.
//!
//! One [`NetSmoke`] bundles the two phases of the `--net-smoke` run:
//!
//! * **fairness** — one clean open-loop TCP run over many distinct users
//!   and skew-weighted tenants, judged on per-tenant latency percentiles
//!   and Jain's fairness index over weight-normalised completions;
//! * **chaos** — two same-fault-seed TCP runs under the
//!   [`net_smoke`](seal_faults::FaultConfig::net_smoke) fault mix
//!   (including the byzantine-client classes: slow readers, pipeline
//!   abuse, connect storms), judged on exact fault-ledger agreement
//!   (client realised == plan; reactor typed counts == plan) and
//!   cross-run determinism of every seed-deterministic counter;
//! * **drain** — two same-fault-seed graceful-drain exercises, judged on
//!   the zero-silent-drops contract: one GOAWAY per client, every
//!   post-drain request typed-rejected, every vanished client's final
//!   request in the server's `rejected_drain` ledger, and bit-identical
//!   same-seed reports.
//!
//! Rendering uses the workspace's hand-rolled JSON writer (no serde).

use std::io::Write as _;
use std::path::Path;

use crate::netload::{DrainLoadReport, NetLoadReport};
use crate::netserve::{NetStats, CHAOS_PIPELINE_STRIKES};

/// One phase: the client-side load report and the server's shutdown stats.
#[derive(Debug)]
pub struct NetPhase {
    /// What the TCP load generator observed.
    pub load: NetLoadReport,
    /// What the server reported at shutdown.
    pub stats: NetStats,
}

impl NetPhase {
    /// The seed-deterministic counters of this phase: the client ledger
    /// signature plus the server's per-tenant counters and the reactor's
    /// typed fault counts. `dropped_responses` is deliberately excluded —
    /// a response racing a disconnect may or may not reach the socket
    /// buffer before the close is observed.
    pub fn deterministic_signature(&self) -> Vec<u64> {
        let mut sig = self.load.deterministic_signature();
        for &(tenant, completed, queue_full, breaker, shed, rejected_drain) in &self.stats.tenants {
            sig.extend_from_slice(&[
                u64::from(tenant),
                completed,
                queue_full,
                breaker,
                shed,
                rejected_drain,
            ]);
        }
        sig.extend_from_slice(&[
            self.stats.reactor.accepted,
            self.stats.reactor.protocol_errors,
            self.stats.reactor.truncated,
            self.stats.reactor.idle_reaped,
            self.stats.reactor.slow_reader_closed,
            self.stats.reactor.pipeline_rejects,
            self.stats.reactor.pipeline_closed,
            self.stats.reactor.keepalive_closed,
            self.stats.reactor.goaways_sent,
            self.stats.drained,
            self.stats.drain_rejected,
        ]);
        sig
    }

    fn violations(&self, label: &str, out: &mut Vec<String>) {
        if self.load.realized != self.load.planned {
            out.push(format!(
                "{label}: realised faults {:?} != planned {:?}",
                self.load.realized, self.load.planned
            ));
        }
        if self.stats.reactor.protocol_errors != self.load.planned.malformed {
            out.push(format!(
                "{label}: reactor protocol errors {} != planned malformed {}",
                self.stats.reactor.protocol_errors, self.load.planned.malformed
            ));
        }
        if self.stats.reactor.truncated != self.load.planned.truncated {
            out.push(format!(
                "{label}: reactor truncated closes {} != planned {}",
                self.stats.reactor.truncated, self.load.planned.truncated
            ));
        }
        if self.stats.reactor.idle_reaped != self.load.planned.slow_loris {
            out.push(format!(
                "{label}: reactor idle reaps {} != planned slow-loris {}",
                self.stats.reactor.idle_reaped, self.load.planned.slow_loris
            ));
        }
        if self.stats.reactor.slow_reader_closed != self.load.planned.slow_reader {
            out.push(format!(
                "{label}: reactor slow-reader closes {} != planned {}",
                self.stats.reactor.slow_reader_closed, self.load.planned.slow_reader
            ));
        }
        if self.stats.reactor.pipeline_closed != self.load.planned.pipeline_abuse {
            out.push(format!(
                "{label}: reactor pipeline-abuse closes {} != planned {}",
                self.stats.reactor.pipeline_closed, self.load.planned.pipeline_abuse
            ));
        }
        let expected_rejects =
            self.load.planned.pipeline_abuse * u64::from(CHAOS_PIPELINE_STRIKES);
        if self.stats.reactor.pipeline_rejects != expected_rejects {
            out.push(format!(
                "{label}: reactor pipeline rejects {} != planned {expected_rejects}",
                self.stats.reactor.pipeline_rejects
            ));
        }
        if self.stats.reactor.accepted != self.load.expected_accepted() {
            out.push(format!(
                "{label}: reactor accepted {} connections, expected {}",
                self.stats.reactor.accepted,
                self.load.expected_accepted()
            ));
        }
        if self.stats.reactor.goaways_sent != 0 {
            out.push(format!(
                "{label}: {} GOAWAYs sent outside a drain",
                self.stats.reactor.goaways_sent
            ));
        }
        if !self.stats.worker_errors.is_empty() {
            out.push(format!(
                "{label}: {} server-side worker errors",
                self.stats.worker_errors.len()
            ));
        }
        if self.stats.supervision.quarantined {
            out.push(format!("{label}: a worker was quarantined"));
        }
        // Server-side completions must cover every client completion plus
        // every abandoned (byzantine-fault) request plus the settle-wave
        // probes — nothing vanishes.
        let served: u64 = self.stats.tenants.iter().map(|t| t.1).sum();
        let abandoned: u64 = self.load.per_tenant.iter().map(|t| t.abandoned).sum();
        if served != self.load.total_completed() + abandoned + self.load.settle_completed {
            out.push(format!(
                "{label}: server completed {served} != client completed {} + abandoned \
                 {abandoned} + settled {}",
                self.load.total_completed(),
                self.load.settle_completed
            ));
        }
    }
}

/// One graceful-drain exercise: the client-side drain report and the
/// server's post-drain stats.
#[derive(Debug)]
pub struct DrainPhase {
    /// What the drain load generator observed.
    pub load: DrainLoadReport,
    /// What the server reported after `finish_drain`.
    pub stats: NetStats,
}

impl DrainPhase {
    /// Seed-deterministic counters: the client drain ledger plus the
    /// server's per-tenant counters and the drain-specific reactor
    /// counts.
    pub fn deterministic_signature(&self) -> Vec<u64> {
        let mut sig = self.load.deterministic_signature();
        for &(tenant, completed, queue_full, breaker, shed, rejected_drain) in &self.stats.tenants {
            sig.extend_from_slice(&[
                u64::from(tenant),
                completed,
                queue_full,
                breaker,
                shed,
                rejected_drain,
            ]);
        }
        sig.extend_from_slice(&[
            self.stats.reactor.goaways_sent,
            self.stats.drained,
            self.stats.drain_rejected,
        ]);
        sig
    }

    fn violations(&self, label: &str, out: &mut Vec<String>) {
        let l = &self.load;
        if l.wrong_replies != 0 {
            out.push(format!("{label}: {} mismatched replies", l.wrong_replies));
        }
        if l.pre_completed != l.clients * l.pre_requests {
            out.push(format!(
                "{label}: pre-drain completed {} != {} clients x {} requests",
                l.pre_completed, l.clients, l.pre_requests
            ));
        }
        if l.goaways != l.clients {
            out.push(format!(
                "{label}: {} GOAWAYs observed for {} clients",
                l.goaways, l.clients
            ));
        }
        if self.stats.reactor.goaways_sent != l.clients {
            out.push(format!(
                "{label}: reactor sent {} GOAWAYs for {} clients",
                self.stats.reactor.goaways_sent, l.clients
            ));
        }
        if l.realized_disconnects != l.planned_disconnects {
            out.push(format!(
                "{label}: realised drain disconnects {} != planned {}",
                l.realized_disconnects, l.planned_disconnects
            ));
        }
        let surviving = l.clients - l.realized_disconnects;
        if l.post_rejected != surviving * l.post_requests {
            out.push(format!(
                "{label}: {} post-drain rejects != {surviving} survivors x {} requests",
                l.post_rejected, l.post_requests
            ));
        }
        // Zero silent drops: every post-drain request — including the one
        // each vanished client fired before dropping its connection —
        // must land in the server's typed drain-reject ledger.
        let rejected_drain: u64 = self.stats.tenants.iter().map(|t| t.5).sum();
        if rejected_drain != l.post_rejected + l.realized_disconnects {
            out.push(format!(
                "{label}: server drain rejects {rejected_drain} != {} client-observed + {} \
                 from vanished clients",
                l.post_rejected, l.realized_disconnects
            ));
        }
        let served: u64 = self.stats.tenants.iter().map(|t| t.1).sum();
        if served != l.pre_completed {
            out.push(format!(
                "{label}: server completed {served} != pre-drain completions {}",
                l.pre_completed
            ));
        }
        if self.stats.drained != 0 {
            out.push(format!(
                "{label}: {} requests still queued after the drain window",
                self.stats.drained
            ));
        }
        if !self.stats.worker_errors.is_empty() {
            out.push(format!(
                "{label}: {} server-side worker errors",
                self.stats.worker_errors.len()
            ));
        }
        if self.stats.supervision.quarantined {
            out.push(format!("{label}: a worker was quarantined"));
        }
    }
}

/// The full network smoke artifact, written to `results/serve_net.json`.
#[derive(Debug)]
pub struct NetSmoke {
    /// Workload seed of the fairness phase.
    pub seed: u64,
    /// Fault seed both chaos runs share.
    pub fault_seed: u64,
    /// The clean weighted-fairness measurement.
    pub fairness: NetPhase,
    /// Two same-seed chaos runs, in execution order.
    pub chaos: [NetPhase; 2],
    /// Two same-seed graceful-drain exercises, in execution order.
    pub drain: [DrainPhase; 2],
    /// Jain-index acceptance floor (the ISSUE pins 0.9).
    pub jain_floor: f64,
}

impl NetSmoke {
    /// `true` when both chaos runs and both drain exercises produced
    /// identical deterministic signatures.
    pub fn deterministic(&self) -> bool {
        self.chaos[0].deterministic_signature() == self.chaos[1].deterministic_signature()
            && self.drain[0].deterministic_signature() == self.drain[1].deterministic_signature()
    }

    /// Every acceptance violation (empty = the net smoke passes):
    /// fairness-phase completion/Jain/latency checks, per-phase fault
    /// ledger agreement, the drain zero-silent-drops contract, and
    /// cross-run determinism.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.fairness.load.total_completed() == 0 {
            v.push("fairness: no requests completed".into());
        }
        let jain = self.fairness.load.jain_index();
        if jain < self.jain_floor {
            v.push(format!(
                "fairness: Jain index {jain:.4} below the {:.2} floor",
                self.jain_floor
            ));
        }
        for t in &self.fairness.load.per_tenant {
            if !t.latency.is_empty() && t.latency.p50() > t.latency.p99() {
                v.push(format!(
                    "fairness: tenant {} latency p50 {}us exceeds p99 {}us",
                    t.tenant,
                    t.latency.p50(),
                    t.latency.p99()
                ));
            }
        }
        // The counter-locality overhaul's serving-scale gate: with tuned
        // geometry the fleet's counter-mode lanes must actually hit —
        // pinned weight windows plus the fmap prefetcher keep the rate
        // well above the 0.5 floor on any clean run that priced batches.
        for row in &self.fairness.stats.schemes {
            if row.enc_bytes > 0
                && row.counter_hits + row.counter_misses > 0
                && row.counter_hit_rate < 0.5
            {
                v.push(format!(
                    "fairness: {} lane counter hit rate {:.4} below the 0.5 floor",
                    row.scheme.label(),
                    row.counter_hit_rate
                ));
            }
        }
        self.fairness.violations("fairness", &mut v);
        self.chaos[0].violations("chaos run 1", &mut v);
        self.chaos[1].violations("chaos run 2", &mut v);
        self.drain[0].violations("drain run 1", &mut v);
        self.drain[1].violations("drain run 2", &mut v);
        let chaos_sigs = (
            self.chaos[0].deterministic_signature(),
            self.chaos[1].deterministic_signature(),
        );
        if chaos_sigs.0 != chaos_sigs.1 {
            v.push(format!(
                "fault seed {}: chaos signatures differ across same-seed runs \
                 ({} vs {} entries, first divergence at index {:?})",
                self.fault_seed,
                chaos_sigs.0.len(),
                chaos_sigs.1.len(),
                chaos_sigs.0.iter().zip(&chaos_sigs.1).position(|(x, y)| x != y)
            ));
        }
        let drain_sigs = (
            self.drain[0].deterministic_signature(),
            self.drain[1].deterministic_signature(),
        );
        if drain_sigs.0 != drain_sigs.1 {
            v.push(format!(
                "fault seed {}: drain signatures differ across same-seed runs \
                 ({} vs {} entries, first divergence at index {:?})",
                self.fault_seed,
                drain_sigs.0.len(),
                drain_sigs.1.len(),
                drain_sigs.0.iter().zip(&drain_sigs.1).position(|(x, y)| x != y)
            ));
        }
        v
    }

    /// Renders the artifact as JSON.
    pub fn to_json(&self) -> String {
        let deterministic = self.deterministic();
        let violation_count = self.violations().len();
        let jain = self.fairness.load.jain_index();
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"fault_seed\": {},\n", self.fault_seed));
        out.push_str(&format!("  \"deterministic\": {deterministic},\n"));
        out.push_str(&format!("  \"violations\": {violation_count},\n"));
        out.push_str(&format!("  \"jain_index\": {jain:.6},\n"));
        out.push_str(&format!("  \"jain_floor\": {:.2},\n", self.jain_floor));
        out.push_str("  \"fairness\": ");
        out.push_str(&phase_json(&self.fairness, "  "));
        out.push_str(",\n  \"chaos\": [\n");
        for i in 0..self.chaos.len() {
            out.push_str("    ");
            out.push_str(&phase_json(&self.chaos[i], "    "));
            out.push_str(if i + 1 < self.chaos.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"drain\": [\n");
        for i in 0..self.drain.len() {
            out.push_str("    ");
            out.push_str(&drain_json(&self.drain[i], "    "));
            out.push_str(if i + 1 < self.drain.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON artifact to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// Renders one phase (load + server stats) as a JSON object.
fn phase_json(phase: &NetPhase, indent: &str) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str(&format!("{indent}  \"users\": {},\n", phase.load.users));
    out.push_str(&format!(
        "{indent}  \"concurrency\": {},\n",
        phase.load.concurrency
    ));
    out.push_str(&format!(
        "{indent}  \"wall_seconds\": {:.6},\n",
        phase.load.wall_seconds
    ));
    out.push_str(&format!(
        "{indent}  \"completed\": {},\n",
        phase.load.total_completed()
    ));
    out.push_str(&format!(
        "{indent}  \"jain_index\": {:.6},\n",
        phase.load.jain_index()
    ));
    out.push_str(&format!(
        "{indent}  \"settle_completed\": {},\n",
        phase.load.settle_completed
    ));
    out.push_str(&format!(
        "{indent}  \"planned_faults\": {},\n",
        fault_counts_json(&phase.load.planned)
    ));
    out.push_str(&format!(
        "{indent}  \"realized_faults\": {},\n",
        fault_counts_json(&phase.load.realized)
    ));
    out.push_str(&format!(
        "{indent}  \"reactor\": {},\n",
        reactor_json(&phase.stats.reactor)
    ));
    out.push_str(&format!(
        "{indent}  \"drained\": {},\n{indent}  \"drain_rejected\": {},\n",
        phase.stats.drained, phase.stats.drain_rejected
    ));
    out.push_str(&format!("{indent}  \"schemes\": [\n"));
    for (i, s) in phase.stats.schemes.iter().enumerate() {
        out.push_str(&crate::report::scheme_json(s, &format!("{indent}    ")));
        out.push_str(if i + 1 < phase.stats.schemes.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str(&format!("{indent}  ],\n"));
    out.push_str(&format!("{indent}  \"tenants\": [\n"));
    let n = phase.load.per_tenant.len();
    for (i, t) in phase.load.per_tenant.iter().enumerate() {
        out.push_str(&format!(
            "{indent}    {{ \"tenant\": {}, \"weight\": {}, \"assigned\": {}, \"completed\": {}, \
             \"retries\": {}, \"dropped_queue_full\": {}, \"breaker_rejected\": {}, \"shed\": {}, \
             \"abandoned\": {}, \"latency_us\": {{ \"count\": {}, \"p50\": {}, \"p95\": {}, \
             \"p99\": {}, \"mean\": {}, \"max\": {} }} }}{}",
            t.tenant,
            t.weight,
            t.assigned,
            t.completed,
            t.retries,
            t.dropped_queue_full,
            t.breaker_rejected,
            t.shed,
            t.abandoned,
            t.latency.len(),
            t.latency.p50(),
            t.latency.p95(),
            t.latency.p99(),
            t.latency.mean(),
            t.latency.max(),
            if i + 1 < n { ",\n" } else { "\n" }
        ));
    }
    out.push_str(&format!("{indent}  ]\n{indent}}}"));
    out
}

/// Renders one eight-class fault ledger as a flat JSON object.
fn fault_counts_json(c: &seal_faults::NetFaultCounts) -> String {
    format!(
        "{{ \"malformed\": {}, \"truncated\": {}, \"slow_loris\": {}, \"disconnects\": {}, \
         \"slow_reader\": {}, \"pipeline_abuse\": {}, \"connect_storm\": {}, \
         \"drain_disconnect\": {} }}",
        c.malformed,
        c.truncated,
        c.slow_loris,
        c.disconnects,
        c.slow_reader,
        c.pipeline_abuse,
        c.connect_storm,
        c.drain_disconnects
    )
}

/// Renders the reactor's counter block as a flat JSON object.
fn reactor_json(r: &seal_net::ReactorStats) -> String {
    format!(
        "{{ \"accepted\": {}, \"accept_deferred\": {}, \"frames_in\": {}, \"frames_out\": {}, \
         \"protocol_errors\": {}, \"truncated\": {}, \"idle_reaped\": {}, \
         \"dropped_responses\": {}, \"pipeline_rejects\": {}, \"pipeline_closed\": {}, \
         \"slow_reader_closed\": {}, \"keepalive_closed\": {}, \"goaways_sent\": {}, \
         \"socket_writes\": {}, \"wakeups\": {}, \"frames_per_write\": {:.2} }}",
        r.accepted,
        r.accept_deferred,
        r.frames_in,
        r.frames_out,
        r.protocol_errors,
        r.truncated,
        r.idle_reaped,
        r.dropped_responses,
        r.pipeline_rejects,
        r.pipeline_closed,
        r.slow_reader_closed,
        r.keepalive_closed,
        r.goaways_sent,
        r.socket_writes,
        r.wakeups,
        r.frames_per_write()
    )
}

/// Renders one drain exercise (load + server stats) as a JSON object.
fn drain_json(phase: &DrainPhase, indent: &str) -> String {
    let l = &phase.load;
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    out.push_str(&format!("{indent}  \"clients\": {},\n", l.clients));
    out.push_str(&format!(
        "{indent}  \"pre_requests\": {},\n{indent}  \"post_requests\": {},\n",
        l.pre_requests, l.post_requests
    ));
    out.push_str(&format!(
        "{indent}  \"pre_completed\": {},\n{indent}  \"goaways\": {},\n",
        l.pre_completed, l.goaways
    ));
    out.push_str(&format!(
        "{indent}  \"post_rejected\": {},\n{indent}  \"wrong_replies\": {},\n",
        l.post_rejected, l.wrong_replies
    ));
    out.push_str(&format!(
        "{indent}  \"planned_disconnects\": {},\n{indent}  \"realized_disconnects\": {},\n",
        l.planned_disconnects, l.realized_disconnects
    ));
    out.push_str(&format!(
        "{indent}  \"reactor\": {},\n",
        reactor_json(&phase.stats.reactor)
    ));
    out.push_str(&format!(
        "{indent}  \"drained\": {},\n{indent}  \"drain_rejected\": {},\n",
        phase.stats.drained, phase.stats.drain_rejected
    ));
    out.push_str(&format!("{indent}  \"tenants\": [\n"));
    let n = phase.stats.tenants.len();
    for (i, &(tenant, completed, queue_full, breaker, shed, rejected_drain)) in
        phase.stats.tenants.iter().enumerate()
    {
        out.push_str(&format!(
            "{indent}    {{ \"tenant\": {tenant}, \"completed\": {completed}, \
             \"rejected_queue_full\": {queue_full}, \"rejected_breaker\": {breaker}, \
             \"shed\": {shed}, \"rejected_drain\": {rejected_drain} }}{}",
            if i + 1 < n { ",\n" } else { "\n" }
        ));
    }
    out.push_str(&format!("{indent}  ]\n{indent}}}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netload::{run_drain, run_tcp, DrainLoadConfig, NetLoadConfig};
    use crate::netserve::{NetServer, NetServerConfig};
    use std::time::Duration;

    fn run_phase(server_cfg: NetServerConfig, cfg: &NetLoadConfig) -> NetPhase {
        let server = NetServer::start(server_cfg).unwrap();
        let weights = server.registry().weights();
        let load = run_tcp(server.port(), &weights, cfg).unwrap();
        let stats = server.shutdown().unwrap();
        NetPhase { load, stats }
    }

    fn run_drain_phase(fault_seed: u64) -> DrainPhase {
        let server = NetServer::start(NetServerConfig::smoke(2)).unwrap();
        let weights = server.registry().weights();
        let cfg = DrainLoadConfig::smoke(fault_seed);
        let load = run_drain(server.port(), &weights, &cfg, || server.begin_drain()).unwrap();
        let stats = server.finish_drain(Duration::from_secs(5)).unwrap();
        DrainPhase { load, stats }
    }

    fn tiny_smoke() -> NetSmoke {
        NetSmoke {
            seed: 3,
            fault_seed: 11,
            fairness: run_phase(NetServerConfig::smoke(2), &NetLoadConfig::fairness(200, 3)),
            chaos: [
                run_phase(NetServerConfig::chaos_smoke(2), &NetLoadConfig::chaos(150, 3, 11)),
                run_phase(NetServerConfig::chaos_smoke(2), &NetLoadConfig::chaos(150, 3, 11)),
            ],
            drain: [run_drain_phase(11), run_drain_phase(11)],
            jain_floor: 0.9,
        }
    }

    #[test]
    fn healthy_smoke_has_no_violations_and_full_json() {
        let smoke = tiny_smoke();
        assert!(smoke.deterministic());
        let violations = smoke.violations();
        assert!(violations.is_empty(), "{violations:?}");
        let json = smoke.to_json();
        for needle in [
            "\"jain_index\"",
            "\"fairness\"",
            "\"chaos\"",
            "\"drain\"",
            "\"planned_faults\"",
            "\"realized_faults\"",
            "\"slow_reader\"",
            "\"pipeline_abuse\"",
            "\"connect_storm\"",
            "\"settle_completed\"",
            "\"reactor\"",
            "\"pipeline_rejects\"",
            "\"slow_reader_closed\"",
            "\"keepalive_closed\"",
            "\"goaways_sent\"",
            "\"goaways\"",
            "\"post_rejected\"",
            "\"rejected_drain\"",
            "\"drain_rejected\"",
            "\"tenants\"",
            "\"schemes\"",
            "\"counter_hit_rate\"",
            "\"prefetch_hits\"",
            "\"prefetch_fills\"",
            "\"ro_hits\"",
            "\"deterministic\": true",
            "\"violations\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
        // The serving-scale locality gate: every counter-mode lane of the
        // fleet rollup hits well past the 0.5 floor under the tuned
        // default geometry.
        for row in &smoke.fairness.stats.schemes {
            if row.enc_bytes > 0 {
                assert!(
                    row.counter_hit_rate >= 0.5,
                    "{} lane hit rate {} below floor",
                    row.scheme.label(),
                    row.counter_hit_rate
                );
                assert!(row.ro_hits > 0, "pinned weight window never hit");
            }
        }
    }

    #[test]
    fn broken_determinism_is_reported() {
        let mut smoke = tiny_smoke();
        smoke.chaos[1].load.per_tenant[0].completed += 1;
        assert!(!smoke.deterministic());
        assert!(smoke
            .violations()
            .iter()
            .any(|v| v.contains("chaos signatures differ")));
    }

    #[test]
    fn broken_drain_determinism_is_reported() {
        let mut smoke = tiny_smoke();
        smoke.drain[1].load.pre_completed += 1;
        assert!(!smoke.deterministic());
        assert!(smoke
            .violations()
            .iter()
            .any(|v| v.contains("drain signatures differ")));
    }

    /// Also: rendering only reads the stats — the written file, a
    /// rendering after the acceptance checks ran and one before are the
    /// same bytes.
    #[test]
    fn write_creates_parent_directories() {
        let smoke = tiny_smoke();
        let first = smoke.to_json();
        let dir = std::env::temp_dir().join("seal_serve_netreport_test");
        let path = dir.join("nested").join("serve_net.json");
        smoke.write(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('{'));
        assert!(smoke.violations().is_empty());
        assert_eq!(body, first);
        assert_eq!(smoke.to_json(), first);
        std::fs::remove_dir_all(&dir).ok();
    }
}
