//! Metric names, summary statistics, process counters and the result
//! line. Nothing here calls into the product.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
/// Must match `BENCHMARK.json` (a unit test checks it).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rows_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("wire_bytes_per_row", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
/// A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bigint.mont_mul_ns", "ns"),
    ("bigint.mont_sqr_ns", "ns"),
    ("bigint.pow_mont_short_us", "us"),
    ("bigint.pow_mont_full_us", "us"),
    ("paillier.keygen_s", "s"),
    ("paillier.obf_pool_build_s", "s"),
    ("paillier.encrypt_us_per_ct", "us"),
    ("paillier.decrypt_us_per_ct", "us"),
    ("paillier.add_us_per_ct", "us"),
    ("paillier.matmul_ms_per_batch", "ms"),
    ("paillier.matmul_pows_per_batch", "count"),
    ("paillier.t_matmul_support_ms_per_batch", "ms"),
    ("paillier.lkup_ms_per_batch", "ms"),
    ("paillier.lkup_bw_ms_per_batch", "ms"),
    ("paillier.matmul_ct_wt_ms_per_batch", "ms"),
    ("paillier.ct_bytes", "bytes"),
    ("paillier.slots_per_ct", "count"),
    ("paillier.export_mb_per_s", "MB/s"),
    ("paillier.import_mb_per_s", "MB/s"),
    ("mpc.bytes_guest_to_host_per_batch", "bytes"),
    ("mpc.bytes_host_to_guest_per_batch", "bytes"),
    ("mpc.msgs_per_batch", "count"),
    ("mpc.wire_model_s_per_batch", "s"),
    ("mpc.channel_rtt_us", "us"),
    ("mpc.tcp_rtt_us", "us"),
    ("ml.batch_select_us", "us"),
    ("source.matmul_fwd_ms", "ms"),
    ("source.matmul_bwd_ms", "ms"),
    ("source.embed_fwd_ms", "ms"),
    ("source.embed_bwd_ms", "ms"),
    ("engine.host.encrypt_upload_ms", "ms"),
    ("engine.host.fed_matmul_ms", "ms"),
    ("engine.host.fed_embed_ms", "ms"),
    ("engine.host.top_local_ms", "ms"),
    ("engine.host.decrypt_update_ms", "ms"),
    ("engine.guest.fed_matmul_ms", "ms"),
    ("engine.guest.fed_embed_ms", "ms"),
    ("engine.guest.decrypt_update_ms", "ms"),
    ("engine.stage_closure", "ratio"),
    ("engine.kernel_closure", "ratio"),
    ("trees.tree_s_p50", "s"),
    ("trees.gh_encrypt_s_per_tree", "s"),
    ("trees.hist_matmul_s_per_tree", "s"),
    ("trees.hist_decrypt_s_per_tree", "s"),
    ("trees.bytes_per_link_per_tree", "bytes"),
    ("serve.replica_ms_p50", "ms"),
    ("serve.forward_ms_per_batch", "ms"),
    ("gateway.mean_batch_rows", "count"),
    ("gateway.peak_in_flight", "count"),
    ("gateway.overhead_ms_p50", "ms"),
    ("persist.import_ms", "ms"),
    ("persist.model_bytes", "bytes"),
    ("proc.cpu_util", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("op_ms_tail", "ms"),
    ("failed_share", "ratio"),
];

/// Metric values by name; the result line prints them in registry
/// order with the registry's unit.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one benchmark invocation reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// JSON number with all measured digits; non-finite values (which JSON
/// cannot carry) read 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for every metric of the
/// registry; a name the run did not set reads 0.
pub fn metrics_json(registry: &[(&str, &str)], m: &Metrics) -> String {
    let items: Vec<String> = registry
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(m.get(name).unwrap_or(0.0))
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The contract's result line.
pub fn result_line(registry: &[(&str, &str)], r: &RunResult) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(registry, &r.metrics)
    )
}

/// Nearest-rank (ceil) quantile of an ascending-sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median as the mean of the two middle values (robust for the small
/// per-session samples the end-to-end metrics are medians of).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v.to_vec());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The percentile rule: the highest of p50/p90/p99 that still has at
/// least ten samples beyond it; p50 when the sample supports nothing
/// higher. Returns `(q, value)`.
pub fn tail_percentile(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    for q in [0.99, 0.90] {
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n >= rank + 10 {
            return (q, quantile_sorted(sorted, q));
        }
    }
    (0.50, quantile_sorted(sorted, 0.50))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) this process has used so far, from
/// `/proc/self/stat` at the kernel's 100 Hz tick.
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let f: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_picks_highest_with_ten_beyond() {
        let sample = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
        // p99 of 1000 is rank 990: exactly ten beyond.
        assert_eq!(tail_percentile(&sample(1000)), (0.99, 990.0));
        // 999 samples: rank 990 leaves nine beyond -> fall to p90.
        assert_eq!(tail_percentile(&sample(999)), (0.90, 900.0));
        // p90 of 100 is rank 90: ten beyond.
        assert_eq!(tail_percentile(&sample(100)), (0.90, 90.0));
        assert_eq!(tail_percentile(&sample(99)), (0.50, 50.0));
        // Tiny samples still answer with the median.
        assert_eq!(tail_percentile(&sample(5)), (0.50, 3.0));
        assert_eq!(tail_percentile(&[]), (0.50, 0.0));
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("rows_per_s", f64::NAN);
        let line = result_line(
            END_TO_END,
            &RunResult {
                correct: true,
                attempted: 3,
                failed: 0,
                metrics: m,
            },
        );
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"rows_per_s\": {\"value\": 0, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_secs() >= 0.0);
    }
}
