//! Sample statistics every workload shares: nearest-rank percentiles,
//! the tail-reporting rule, per-class op logs, and the process's own
//! memory high-water mark.

use fp_core::online::EventOutcome;
use fp_core::results::protocol::ServeCall;

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the "percentile" is just the maximum of a
/// handful of samples and swings from run to run.
pub const MIN_BEYOND: usize = 10;

/// An op slower than this multiple of its class median counts as slow.
pub const SLOW_FACTOR: f64 = 10.0;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `p`% of all samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Like [`percentile`], but `None` unless at least [`MIN_BEYOND`]
/// samples lie strictly beyond the percentile's rank.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && n - rank(n, p) >= MIN_BEYOND).then(|| sorted[rank(n, p) - 1])
}

/// Median of unsorted values (nearest rank, so always an observed value).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).unwrap_or(0.0)
}

/// The shortest of a set of repetitions of the same fixed work. The
/// differences between repetitions are interference from the rest of
/// the machine, not the program: on a shared host they fall into a fast
/// and a contended mode, and the fastest is the steadiest estimate of
/// what the code itself takes.
pub fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The fastest time of each op over rounds that repeat the same ops in
/// the same order (row `r` holds round `r`'s op times). Interference
/// lands on different ops in different rounds, so the per-op minimum of
/// a few rounds is what the ops cost with the machine quiet, even when
/// no whole round ran quiet.
pub fn fastest_per_op(rounds: &[Vec<f64>]) -> Vec<f64> {
    let mut best = rounds.first().cloned().unwrap_or_default();
    for round in rounds.iter().skip(1) {
        assert_eq!(round.len(), best.len(), "rounds repeat the same ops");
        for (b, &t) in best.iter_mut().zip(round) {
            *b = b.min(t);
        }
    }
    best
}

/// How many of a run's `total` set-ups are due once `progress` (0 to 1)
/// of its timed phase is done. The first set-up runs before the phase
/// and the rest are spread evenly through it, so the set-up times sample
/// the whole run rather than one stretch of it: on a shared host the
/// machine's speed drifts over seconds, and a run's set-up figure should
/// not hinge on where the drift stood at its start.
pub fn setups_due(total: usize, progress: f64) -> usize {
    let rest = total.saturating_sub(1) as f64 * progress.clamp(0.0, 1.0);
    (1 + rest.floor() as usize).min(total)
}

/// The op classes a workload times separately, so one latency metric
/// never mixes cheap and heavy operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// The workload's primary op (solve, cell, query, non-repairing event).
    Primary,
    /// A serve-session mutation plus its re-query to kmax.
    Mutate,
    /// An online event whose drift crossed the threshold and repaired.
    Repair,
}

impl OpClass {
    /// Every class, in report order.
    pub const ALL: [OpClass; 3] = [OpClass::Primary, OpClass::Mutate, OpClass::Repair];

    /// Metric-name prefix (`op_p50_us`, `mutate_p50_us`, `repair_p50_us`).
    pub fn prefix(self) -> &'static str {
        match self {
            OpClass::Primary => "op",
            OpClass::Mutate => "mutate",
            OpClass::Repair => "repair",
        }
    }

    /// Class of a serve call: mutations are their own class, every other
    /// call is a query.
    pub fn of_call(call: &ServeCall) -> OpClass {
        match call {
            ServeCall::Mutate { .. } => OpClass::Mutate,
            _ => OpClass::Primary,
        }
    }

    /// Class of an online event by whether it ran a repair round.
    pub fn of_event(outcome: &EventOutcome) -> OpClass {
        if outcome.repaired {
            OpClass::Repair
        } else {
            OpClass::Primary
        }
    }
}

/// Per-class op latencies in microseconds.
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    samples: [Vec<f64>; 3],
}

impl OpLog {
    fn slot(class: OpClass) -> usize {
        class as usize
    }

    /// Record one op.
    pub fn record(&mut self, class: OpClass, micros: f64) {
        self.samples[Self::slot(class)].push(micros);
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &OpLog) {
        for (mine, theirs) in self.samples.iter_mut().zip(&other.samples) {
            mine.extend_from_slice(theirs);
        }
    }

    /// Samples of one class, in record order.
    pub fn samples(&self, class: OpClass) -> &[f64] {
        &self.samples[Self::slot(class)]
    }

    /// Summary of one class; `None` when the class has no samples.
    pub fn summary(&self, class: OpClass) -> Option<ClassSummary> {
        let mut sorted = self.samples(class).to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 50.0)?;
        Some(ClassSummary {
            n: sorted.len(),
            p50,
            p99: tail_percentile(&sorted, 99.0),
            max: *sorted.last().expect("non-empty after percentile"),
            slow: sorted.iter().filter(|&&s| s > SLOW_FACTOR * p50).count(),
        })
    }
}

/// What the report shows for one op class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassSummary {
    /// Samples.
    pub n: usize,
    /// Nearest-rank median, µs.
    pub p50: f64,
    /// Nearest-rank p99, µs, when [`MIN_BEYOND`] samples lie beyond it.
    pub p99: Option<f64>,
    /// Slowest op, µs.
    pub max: f64,
    /// Ops slower than [`SLOW_FACTOR`] × p50.
    pub slow: usize,
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let value = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(value)
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 1.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(
            fastest_per_op(&[vec![3.0, 1.0, 5.0], vec![2.0, 4.0, 6.0]]),
            vec![2.0, 1.0, 5.0]
        );
        assert!(fastest_per_op(&[]).is_empty());
    }

    #[test]
    fn setups_spread_over_the_phase() {
        assert_eq!(setups_due(5, 0.0), 1);
        assert_eq!(setups_due(5, 0.49), 2);
        assert_eq!(setups_due(5, 0.5), 3);
        assert_eq!(setups_due(5, 1.0), 5);
        assert_eq!(setups_due(5, 7.0), 5);
        assert_eq!(setups_due(1, 0.9), 1);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 999 samples: p99 sits at rank 990, leaving 9 beyond.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 99.0), None);
        // 1000 samples: rank 990, exactly 10 beyond.
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 99.0), Some(990.0));
        // Ten picks (one per pass) cannot carry a p95: it is the maximum.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten, 95.0), None);
        let mut log = OpLog::default();
        for s in ten {
            log.record(OpClass::Primary, s);
        }
        let summary = log.summary(OpClass::Primary).unwrap();
        assert_eq!(summary.p99, None);
        assert_eq!(summary.max, 10.0);
        assert_eq!(log.summary(OpClass::Mutate), None);
    }

    #[test]
    fn slow_ops_are_ten_times_the_class_median() {
        let mut log = OpLog::default();
        for s in [10.0, 10.0, 10.0, 100.0, 101.0] {
            log.record(OpClass::Primary, s);
        }
        assert_eq!(log.summary(OpClass::Primary).unwrap().slow, 1);
    }

    #[test]
    fn vm_hwm_parses_from_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert!(
            peak_rss_mb().unwrap() > 0.0,
            "live /proc/self/status parses"
        );
    }

    #[test]
    fn classifier_splits_query_mutate_and_repair() {
        let query = ServeCall::Query {
            session: "s".into(),
            ks: vec![3],
            deadline_ms: None,
        };
        let mutate = ServeCall::Mutate {
            session: "s".into(),
            mutation: "insert_edge".into(),
            from: "1".into(),
            to: "2".into(),
        };
        assert_eq!(OpClass::of_call(&query), OpClass::Primary);
        assert_eq!(OpClass::of_call(&mutate), OpClass::Mutate);
        let event = |repaired| EventOutcome {
            changed: true,
            drift: 0.0,
            repaired,
            repair_picks: usize::from(repaired) * 8,
        };
        assert_eq!(OpClass::of_event(&event(true)), OpClass::Repair);
        assert_eq!(OpClass::of_event(&event(false)), OpClass::Primary);
    }
}
