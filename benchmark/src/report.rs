//! Metric names, the result line the driver reads, and the run record
//! printed beside it.

use std::fmt::Write as _;
use std::path::Path;

/// The end-to-end metrics of `BENCHMARK.json`, in reporting order. Every
/// workload reports every one. (`fail_ratio` is printed too, but travels
/// in the result line's `attempted`/`failed` because it is expected to
/// read 0.)
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
    ("seal_c_slowdown", "ratio"),
    ("counter_slowdown", "ratio"),
];

/// The per-layer metrics of `BENCHMARK.json`. A traced run reports all of
/// them; a layer that is not on the workload's path reads 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("tensor.gemm_f32_us", "us"),
    ("tensor.im2col_us", "us"),
    ("tensor.gemm_i8_us", "us"),
    ("tensor.quantize_rows_us", "us"),
    ("tensor.gather_patches_u8_us", "us"),
    ("nn.plan_execute_b8_us", "us"),
    ("nn.plan_execute_b1_us", "us"),
    ("nn.plan_gemm_share", "ratio"),
    ("nn.plan_compile_us", "us"),
    ("nn.plan_arena_kb", "KiB"),
    ("serve.concat_batch_us", "us"),
    ("serve.sample_us", "us"),
    ("serve.cost_batch_us", "us"),
    ("serve.queue_push_pop_us", "us"),
    ("serve.fair_push_pop_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_depth_mean", "count"),
    ("serve.shed", "count"),
    ("serve.worker_errors", "count"),
    ("serve.unattributed_us", "us"),
    ("serve.registry_build_us", "us"),
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.reactor_echo_rtt_us", "us"),
    ("net.reactor_echo_burst_rps", "1/s"),
    ("net.frames_in", "count"),
    ("net.frames_out", "count"),
    ("net.protocol_errors", "count"),
    ("net.rejects", "count"),
    ("crypto.counter_access_ns", "ns"),
    ("crypto.counter_access_run_ns", "ns"),
    ("crypto.engine_submit_ns", "ns"),
    ("crypto.counter_hit_rate", "ratio"),
    ("crypto.prefetch_hits", "count"),
    ("crypto.ro_hits", "count"),
    ("core.plan_build_us", "us"),
    ("core.traffic_us", "us"),
    ("core.workload_build_us", "us"),
    ("core.enc_bytes_ratio", "ratio"),
    ("gpusim.host_ns_per_request.baseline", "ns"),
    ("gpusim.host_ns_per_request.direct", "ns"),
    ("gpusim.host_ns_per_request.counter", "ns"),
    ("gpusim.host_ns_per_request.seal_d", "ns"),
    ("gpusim.host_ns_per_request.seal_c", "ns"),
    ("gpusim.sim_requests_per_s", "1/s"),
    ("gpusim.cycles.baseline", "cycles"),
    ("gpusim.cycles.direct", "cycles"),
    ("gpusim.cycles.counter", "cycles"),
    ("gpusim.cycles.seal_d", "cycles"),
    ("gpusim.cycles.seal_c", "cycles"),
    ("gpusim.ipc_norm.direct", "ratio"),
    ("gpusim.ipc_norm.counter", "ratio"),
    ("gpusim.ipc_norm.seal_d", "ratio"),
    ("gpusim.ipc_norm.seal_c", "ratio"),
    ("gpusim.counter_hit_rate", "ratio"),
    ("gpusim.engine_utilisation.seal_c", "ratio"),
    ("gpusim.dram_utilisation.baseline", "ratio"),
    ("gpusim.extra_counter_lines", "count"),
    ("pool.kernel_threads", "count"),
    ("tensor.kernel_mode", "code"),
    ("host.clock_ghz", "GHz"),
    ("trace_overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// One measured value, by name.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64) -> Metric {
        Metric {
            name: name.into(),
            value,
        }
    }
}

/// Lays `measured` out over the `declared` list: declared order, declared
/// units, 0 for a name the workload did not touch.
///
/// # Errors
///
/// Names the first measured metric that is not declared, so a typo cannot
/// silently drop a number.
pub fn layout(
    declared: &[(&'static str, &'static str)],
    measured: &[Metric],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    if let Some(stray) = measured
        .iter()
        .find(|m| !declared.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!(
            "metric {} is not declared in report.rs",
            stray.name
        ));
    }
    Ok(declared
        .iter()
        .map(|&(name, unit)| {
            let value = measured.iter().find(|m| m.name == name).map_or(0.0, |m| {
                if m.value.is_finite() {
                    m.value
                } else {
                    0.0
                }
            });
            (name, value, unit)
        })
        .collect())
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result object the driver parses: exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`. Values print with every
/// digit `f64` holds.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}: {{\"value\": {value}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_string(name),
            json_string(unit)
        );
    }
    out.push_str("}}");
    out
}

/// The commit of the checkout the benchmark runs from, read straight from
/// `.git` (no subprocess); `unknown` in an exported tree.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            10,
            0,
            &[("latency_p50_us", 1.25, "us"), ("setup_s", 0.5, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_p50_us\": {\"value\": 1.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(10, 1, &[]).starts_with("{\"correct\": false,"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn values_keep_all_their_digits() {
        let line = result_line(1, 0, &[("x", 1762.401234567891, "us")]);
        assert!(line.contains("1762.401234567891"), "{line}");
    }

    #[test]
    fn layout_orders_fills_and_rejects_strays() {
        let declared = [("a", "us"), ("b", "count"), ("c", "s")];
        let rows = layout(
            &declared,
            &[Metric::new("c", 3.0), Metric::new("a", f64::NAN)],
        )
        .unwrap();
        assert_eq!(
            rows,
            vec![("a", 0.0, "us"), ("b", 0.0, "count"), ("c", 3.0, "s")]
        );
        assert!(layout(&declared, &[Metric::new("d", 1.0)])
            .unwrap_err()
            .contains('d'));
    }

    /// `BENCHMARK.json` and this file must name the same metrics.
    #[test]
    fn benchmark_json_declares_the_same_names() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (section, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, declared.len(), "{section} length");
            for (name, unit) in declared {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
        for workload in crate::WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
    }

    #[test]
    fn names_and_units_fit_the_contract_limits() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(ok(unit, "_/%.-", 16), "{unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
    }

    #[test]
    fn git_commit_resolves_a_symbolic_head() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-git-{}", std::process::id()));
        let git = dir.join(".git/refs/heads");
        std::fs::create_dir_all(&git).unwrap();
        assert_eq!(git_commit(&dir), "unknown");
        std::fs::write(dir.join(".git/HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(git.join("main"), "abc123\n").unwrap();
        assert_eq!(git_commit(&dir), "abc123");
        std::fs::remove_file(git.join("main")).unwrap();
        std::fs::write(
            dir.join(".git/packed-refs"),
            "# pack-refs\nfed987 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_commit(&dir), "fed987");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
