//! What a workload hands back, how answers are verified, and the one
//! result line the benchmark prints.

use crate::stats::{fastest, median, OpClass, OpLog};
use crate::trace::Tracer;
use fp_core::results::hash::Fnv64;
use fp_core::results::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
];

/// Per-layer metrics, reported by the traced run only. A workload that
/// does not exercise a layer reports 0 for it (README.md lists which
/// workload carries which layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op_p99_us", "us"),
    ("op_max_us", "us"),
    ("mutate_p50_us", "us"),
    ("mutate_max_us", "us"),
    ("repair_p50_us", "us"),
    ("repair_max_us", "us"),
    ("scale.stream_s", "s"),
    ("scale.build_s", "s"),
    ("scale.build_ns_per_edge", "ns"),
    ("scale.ledger_peak_mb", "MB"),
    ("graph.freeze_s", "s"),
    ("graph.topo_identity_frac", "ratio"),
    ("core.problem_new_us", "us"),
    ("engine.init_s", "s"),
    ("engine.argmax_s", "s"),
    ("engine.insert_s", "s"),
    ("engine.forward_nodes", "count"),
    ("engine.backward_nodes", "count"),
    ("engine.ns_per_node", "ns"),
    ("engine.dense_flips", "count"),
    ("engine.apply_p50_us", "us"),
    ("algo.G_ALL.cell_us", "us"),
    ("algo.G_Max.cell_us", "us"),
    ("algo.G_1.cell_us", "us"),
    ("algo.G_L.cell_us", "us"),
    ("algo.Rand_W.cell_us", "us"),
    ("algo.Rand_I.cell_us", "us"),
    ("algo.Rand_K.cell_us", "us"),
    ("algo.warm_us", "us"),
    ("algo.next_filter_us", "us"),
    ("online.repairs", "count"),
    ("online.repair_picks", "count"),
    ("online.repair_share", "ratio"),
    ("serve.put_s", "s"),
    ("serve.session_query_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.rung_cache_hit_ratio", "ratio"),
    ("serve.mutate_us", "us"),
    ("serve.rewarm_us", "us"),
    ("serve.retained_rung_ratio", "ratio"),
    ("serve.slow_ops", "count"),
    ("serve.connect_p50_us", "us"),
    ("serve.connect_max_us", "us"),
    ("serve.connect_stalls", "count"),
    ("results.encode_us", "us"),
    ("results.parse_us", "us"),
    ("results.record_bytes", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// Ops attempted and ops failed. A failure is a wrong answer, a typed
/// error, or a non-2xx reply; the first few are described on stderr.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
}

impl Tally {
    /// Count one op; `describe` runs only when it failed.
    pub fn op(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        self.check(ok, describe);
    }

    /// Record a consistency check that is not an op of its own (two
    /// rounds leaving the same trail, the harness's engine loop picking
    /// what the library picked): a mismatch is a failure, but the check
    /// adds nothing to `attempted`.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: verification failed: {}", describe());
            }
        }
    }

    /// Whether the run verified: at least one op, and no failure.
    pub fn passed(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Add another tally's counts.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Hold every recorded `(key, digest)` answer to the digest the
/// independent path expects for its key; an answer whose key has no
/// expectation fails too.
pub fn verify_digests<K: Ord + std::fmt::Debug>(
    answers: &[(K, u64)],
    expected: &BTreeMap<K, u64>,
) -> Tally {
    let mut tally = Tally::default();
    for (key, digest) in answers {
        let want = expected.get(key);
        tally.op(want == Some(digest), || {
            format!("{key:?}: answer digest {digest:#x}, expected {want:x?}")
        });
    }
    tally
}

/// Digest of one placement answer: budget, picks in order, and the FR
/// bits. Two answers are bit-identical iff their digests match (up to
/// FNV collisions).
pub fn answer_digest(k: usize, picks: impl IntoIterator<Item = usize>, fr_bits: u64) -> u64 {
    let mut h = Fnv64::new();
    h.update_u64(k as u64);
    for p in picks {
        h.update_u64(p as u64);
    }
    h.update_u64(u64::MAX).update_u64(fr_bits);
    h.finish()
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Duration of each set-up repetition, seconds, in the order run.
    pub setup_s: Vec<f64>,
    /// `VmHWM` in MiB, read right after the untraced timed phase and
    /// before any verification path or traced phase runs, so it is the
    /// workload's own peak.
    pub peak_rss_mb: f64,
    /// Per-class latencies of every op of the untraced timed phase.
    pub ops: OpLog,
    /// Throughput of the untraced timed phase, ops per second.
    pub ops_per_s: f64,
    /// Median primary op of the untraced timed phase, µs.
    pub op_p50_us: f64,
    /// Verification outcome over every op of every phase.
    pub tally: Tally,
    /// Per-layer values (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// Set the class metrics (p99, max, per-class medians) as layers.
    fn class_layers(&mut self) {
        for class in OpClass::ALL {
            let Some(s) = self.ops.summary(class) else {
                continue;
            };
            let (p50, p99, max) = match class {
                OpClass::Primary => ("op_p50_us", "op_p99_us", "op_max_us"),
                OpClass::Mutate => ("mutate_p50_us", "", "mutate_max_us"),
                OpClass::Repair => ("repair_p50_us", "", "repair_max_us"),
            };
            if class != OpClass::Primary {
                self.layers.insert(p50, s.p50);
            }
            if let (false, Some(v)) = (p99.is_empty(), s.p99) {
                self.layers.insert(p99, v);
            }
            self.layers.insert(max, s.max);
        }
    }
}

/// Print the human-readable table and the final JSON result line;
/// returns whether every op verified.
pub fn emit(workload: &str, traced: bool, mut report: Report) -> Result<bool, String> {
    if report.ops.summary(OpClass::Primary).is_none() {
        return Err("the timed phase recorded no primary op".into());
    }
    if report.peak_rss_mb <= 0.0 {
        return Err("the workload did not read its peak RSS".into());
    }
    let rss = report.peak_rss_mb;
    // The fastest set-up, like the fastest repetition everywhere else:
    // every set-up does the same work, so slower ones measure the rest
    // of the machine. They are spread through the run (see
    // `setups_due`), so the fastest is taken over all of its stretches.
    let setup_s = fastest(&report.setup_s);
    println!("workload {workload}  (traced: {traced})");
    println!(
        "  {:<28} {setup_s:>20}  s      ({} set-ups, median {} s, slowest {} s)",
        "setup_s",
        report.setup_s.len(),
        median(&report.setup_s),
        report.setup_s.iter().copied().fold(0.0, f64::max)
    );
    println!("  {:<28} {rss:>20}  MB", "peak_rss_mb");
    println!("  {:<28} {:>20}  1/s", "ops_per_s", report.ops_per_s);
    println!("  {:<28} {:>20}  us", "op_p50_us", report.op_p50_us);
    for class in OpClass::ALL {
        if let Some(s) = report.ops.summary(class) {
            let p99 = s
                .p99
                .map_or("n/a (<10 samples beyond)".into(), |v| format!("{v} us"));
            println!(
                "  {} (every sample): n={}  p50={} us  p99={p99}  max={} us  slow(>10x p50)={}",
                class.prefix(),
                s.n,
                s.p50,
                s.max,
                s.slow
            );
        }
    }

    let (table, values) = if traced {
        report.class_layers();
        if let Some(name) = report
            .layers
            .keys()
            .find(|&&n| !PER_LAYER.iter().any(|&(m, _)| m == n))
        {
            return Err(format!("layer {name:?} is not in the per-layer table"));
        }
        for &(name, unit) in PER_LAYER {
            let v = report.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<28} {v:>20}  {unit}");
        }
        (PER_LAYER, report.layers)
    } else {
        let e2e = [
            ("setup_s", setup_s),
            ("peak_rss_mb", rss),
            ("ops_per_s", report.ops_per_s),
            ("op_p50_us", report.op_p50_us),
        ];
        (END_TO_END, e2e.into_iter().collect())
    };
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            let metric = Json::object([
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.to_string())),
            ]);
            (name.to_string(), metric)
        })
        .collect();
    let ok = report.tally.passed();
    let line = Json::object([
        ("correct", Json::Bool(ok)),
        ("attempted", Json::Int(i128::from(report.tally.attempted))),
        ("failed", Json::Int(i128::from(report.tally.failed))),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{}", line.to_compact());
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_expectation_is_a_failed_op() {
        let answers = vec![("a", 1u64), ("b", 2), ("a", 1)];
        let mut expected: BTreeMap<&str, u64> = [("a", 1), ("b", 2)].into_iter().collect();
        assert_eq!(
            verify_digests(&answers, &expected),
            Tally {
                attempted: 3,
                failed: 0
            }
        );
        *expected.get_mut("b").unwrap() ^= 1;
        assert_eq!(verify_digests(&answers, &expected).failed, 1);
        expected.remove("a");
        assert_eq!(verify_digests(&answers, &expected).failed, 3);
    }

    #[test]
    fn checks_fail_without_counting_as_ops_and_no_ops_is_no_pass() {
        let mut tally = Tally::default();
        assert!(
            !tally.passed(),
            "a run that attempted nothing did not verify"
        );
        tally.op(true, String::new);
        tally.check(true, String::new);
        assert!(tally.passed());
        tally.check(false, String::new);
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 1
            }
        );
        assert!(!tally.passed());
    }

    #[test]
    fn digests_separate_picks_order_and_fr_bits() {
        let base = answer_digest(2, [4, 7], 0.5f64.to_bits());
        assert_eq!(base, answer_digest(2, [4, 7], 0.5f64.to_bits()));
        assert_ne!(base, answer_digest(2, [7, 4], 0.5f64.to_bits()));
        assert_ne!(
            base,
            answer_digest(2, [4, 7], 0.5000000000000001f64.to_bits())
        );
        assert_ne!(base, answer_digest(3, [4, 7], 0.5f64.to_bits()));
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
    }

    #[test]
    fn tables_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
    }
}
