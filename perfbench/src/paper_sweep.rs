//! `paper-sweep`: every default `fp sweep` solver over the paper's
//! graphs at paper scale, each cell encoded as its run-store record.
//!
//! All four graphs are cache-resident, so the engine works but a
//! locality change should show no gain here; `layered-dense` carries
//! ~10^20 paths, so counter width matters; and it is the only workload
//! that runs every solver. One op is one (graph, solver) cell:
//! `Problem::solve_ladder` over k = 0..=10, then the `SolverSeries`
//! JSON record.

use crate::report::{answer_digest, verify_digests, Report};
use crate::stats::{fastest_per_op, median, peak_rss_mb, setups_due, OpClass};
use crate::trace::Tracer;
use crate::{engine, Args};
use fp_core::algorithms::SolverKind;
use fp_core::datasets::{citation_like, layered, quote_like};
use fp_core::graph::{DiGraph, NodeId};
use fp_core::num::Wide128;
use fp_core::propagation::{CGraph, EngineScratch, FilterSet};
use fp_core::results::hash::Fnv64;
use fp_core::results::{FromJson, Json, SolverSeries, ToJson};
use fp_core::Problem;
use std::collections::BTreeMap;
use std::time::Instant;

/// The budget ladder of every cell (the paper's small-k figures).
const KS: [usize; 11] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
/// Set-ups take about 25 ms; this many, spread through the timed phase,
/// give the fastest a steady floor.
const SETUP_REPEATS: usize = 40;
/// Graph the engine-layer replay runs on: the largest of the four.
const ENGINE_GRAPH: usize = 3;

/// Cell identity: (graph index, solver index into `PAPER_SET`).
type CellKey = (usize, usize);

/// One rung of a cell's answer: budget, picks, FR bits.
type Row = (usize, Vec<usize>, u64);

/// The paper's graphs for `seed`, in report order.
fn graphs(seed: u64) -> Vec<(&'static str, DiGraph, NodeId)> {
    let sparse = layered::generate(&layered::LayeredParams::paper_sparse(seed));
    let dense = layered::generate(&layered::LayeredParams::paper_dense(seed));
    let quote = quote_like::generate(&quote_like::QuoteLikeParams { nodes: 932, seed });
    let citation = citation_like::generate(&citation_like::CitationLikeParams {
        seed,
        ..Default::default()
    });
    vec![
        ("layered-sparse", sparse.graph, sparse.source),
        ("layered-dense", dense.graph, dense.source),
        ("quote", quote.graph, quote.source),
        ("citation", citation.graph, citation.source),
    ]
}

fn cell_span(kind: SolverKind) -> (&'static str, &'static str) {
    match kind {
        SolverKind::GreedyAll => ("algo.G_ALL.cell", "algo.G_ALL.cell_us"),
        SolverKind::GreedyMax => ("algo.G_Max.cell", "algo.G_Max.cell_us"),
        SolverKind::GreedyOne => ("algo.G_1.cell", "algo.G_1.cell_us"),
        SolverKind::GreedyL => ("algo.G_L.cell", "algo.G_L.cell_us"),
        SolverKind::RandW => ("algo.Rand_W.cell", "algo.Rand_W.cell_us"),
        SolverKind::RandI => ("algo.Rand_I.cell", "algo.Rand_I.cell_us"),
        SolverKind::RandK => ("algo.Rand_K.cell", "algo.Rand_K.cell_us"),
        SolverKind::LazyGreedyAll | SolverKind::Betweenness => ("algo.other.cell", ""),
    }
}

/// The run-store record of one cell.
fn record(kind: SolverKind, rows: &[Row]) -> SolverSeries {
    SolverSeries {
        label: kind.label().to_string(),
        points: rows
            .iter()
            .map(|&(k, _, fr)| (k, f64::from_bits(fr)))
            .collect(),
    }
}

/// Digest of a cell: every rung's answer plus the encoded record bytes.
fn cell_digest(rows: &[Row], encoded: &str) -> u64 {
    let mut h = Fnv64::new();
    for (k, picks, fr) in rows {
        h.update_u64(answer_digest(*k, picks.iter().copied(), *fr));
    }
    h.update(encoded.as_bytes());
    h.finish()
}

fn rows_of(ladder: Vec<(usize, FilterSet, f64)>) -> Vec<Row> {
    ladder
        .into_iter()
        .map(|(k, f, fr)| {
            (
                k,
                f.nodes().iter().map(|v| v.index()).collect(),
                fr.to_bits(),
            )
        })
        .collect()
}

/// One cell as `fp sweep` runs it: the ladder, then the record.
fn cell(problem: &Problem, kind: SolverKind, seed: u64) -> u64 {
    let rows = rows_of(problem.solve_ladder(kind, &KS, seed));
    let encoded = record(kind, &rows).to_json().to_compact();
    cell_digest(&rows, &encoded)
}

/// The same cell driven call by call through the solver session, with a
/// span around each public call, then the record encoded and parsed
/// back. Returns the digest and the encoded length.
fn cell_traced(problem: &Problem, kind: SolverKind, seed: u64, tr: &mut Tracer) -> (u64, usize) {
    let (span, _) = cell_span(kind);
    tr.span(span, |tr| {
        let solver = kind.build::<Wide128>();
        let mut session = tr.span("algo.session", |_| solver.session(problem.cgraph(), seed));
        let mut rows: Vec<Row> = Vec::with_capacity(KS.len());
        for (i, &k) in KS.iter().enumerate() {
            if kind.is_prefix_nested() {
                // Only Greedy_All rungs feed `algo.next_filter_us`: that is
                // the rung a serve session extends.
                let step = if kind == SolverKind::GreedyAll {
                    "algo.next_filter"
                } else {
                    "algo.step"
                };
                while session.placement().len() < k {
                    if tr.span(step, |_| session.next_filter()).is_none() {
                        break;
                    }
                }
            } else {
                tr.span("algo.advance_to", |_| session.advance_to(k));
            }
            let name = if i == 0 { "algo.warm" } else { "algo.fr" };
            let fr = tr.span(name, |_| session.fr());
            let picks = session
                .placement()
                .nodes()
                .iter()
                .map(|v| v.index())
                .collect();
            rows.push((k, picks, fr.to_bits()));
        }
        let series = record(kind, &rows);
        let encoded = tr.span("results.encode", |_| series.to_json().to_compact());
        let parsed = tr.span("results.parse", |_| {
            Json::parse(&encoded)
                .map_err(|e| format!("{e:?}"))
                .and_then(|j| SolverSeries::from_json(&j))
        });
        let round_trip = parsed.is_ok_and(|p| {
            p.label == series.label
                && p.points.len() == series.points.len()
                && p.points
                    .iter()
                    .zip(&series.points)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
        });
        // A record that does not survive its own parse cannot match.
        let digest = cell_digest(&rows, &encoded) ^ u64::from(!round_trip);
        (digest, encoded.len())
    })
}

/// Expected digests from the full-recompute oracle path, one solve per
/// budget, sharing no session or engine state with the ladder.
fn oracle_digests(problems: &[Problem], seed: u64) -> BTreeMap<CellKey, u64> {
    let mut out = BTreeMap::new();
    for (g, problem) in problems.iter().enumerate() {
        for (s, &kind) in SolverKind::PAPER_SET.iter().enumerate() {
            let rows: Vec<Row> = KS
                .iter()
                .map(|&k| {
                    let placement = problem.solve_oracle_seeded(kind, k, seed);
                    let fr = problem.filter_ratio(&placement);
                    let picks = placement.nodes().iter().map(|v| v.index()).collect();
                    (k, picks, fr.to_bits())
                })
                .collect();
            let encoded = record(kind, &rows).to_json().to_compact();
            out.insert((g, s), cell_digest(&rows, &encoded));
        }
    }
    out
}

/// Build every graph's `Problem` (the set-up), inside `core.problem_new`
/// spans; returns the inputs and problems.
fn set_up(seed: u64, tr: &mut Tracer) -> Result<Inputs, String> {
    let inputs = graphs(seed);
    let mut problems = Vec::with_capacity(inputs.len());
    for (name, g, source) in &inputs {
        let p = tr.span("core.problem_new", |_| Problem::new(g, *source));
        problems.push(p.map_err(|e| format!("{name}: {e}"))?);
    }
    Ok((inputs, problems))
}

/// The generated graphs and their problems.
type Inputs = (Vec<(&'static str, DiGraph, NodeId)>, Vec<Problem>);

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut tr = Tracer::new(args.trace);
    let mut report = Report::default();
    let set_up_timed = |report: &mut Report, tr: &mut Tracer| {
        let started = Instant::now();
        let built = set_up(args.seed, tr);
        report.setup_s.push(started.elapsed().as_secs_f64());
        built
    };
    let (mut inputs, mut problems) = set_up_timed(&mut report, &mut tr)?;

    // Passes of fixed work, each over every cell in the same order, with
    // the remaining set-ups spread between them; each set-up replaces the
    // problems the next pass solves.
    let mut answers: Vec<(CellKey, u64)> = Vec::new();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let phase = args.phase_len().as_secs_f64();
    loop {
        let done = passes.iter().flatten().sum::<f64>() / 1e6;
        while report.setup_s.len() < setups_due(SETUP_REPEATS, done / phase) {
            inputs.clear();
            problems.clear();
            (inputs, problems) = set_up_timed(&mut report, &mut tr)?;
        }
        if done >= phase {
            break;
        }
        let mut times = Vec::new();
        for (g, problem) in problems.iter().enumerate() {
            for (s, &kind) in SolverKind::PAPER_SET.iter().enumerate() {
                let t = Instant::now();
                let digest = cell(problem, kind, args.seed);
                let us = t.elapsed().as_secs_f64() * 1e6;
                report.ops.record(OpClass::Primary, us);
                times.push(us);
                answers.push(((g, s), digest));
            }
        }
        passes.push(times);
    }
    report.peak_rss_mb = peak_rss_mb()?;
    let cells = fastest_per_op(&passes);
    let best = cells.iter().sum::<f64>() / 1e6;
    report.ops_per_s = cells.len() as f64 / best;
    report.op_p50_us = median(&cells);
    let passes = passes.len();

    // Independent path, after the memory peak was read.
    let expected = oracle_digests(&problems, args.seed);

    if args.trace {
        let mut traced_passes = Vec::new();
        let mut record_bytes = 0;
        for _ in 0..passes {
            record_bytes = 0;
            let mut times = Vec::new();
            for (g, problem) in problems.iter().enumerate() {
                for (s, &kind) in SolverKind::PAPER_SET.iter().enumerate() {
                    let t = Instant::now();
                    let (digest, bytes) = cell_traced(problem, kind, args.seed, &mut tr);
                    times.push(t.elapsed().as_secs_f64() * 1e6);
                    answers.push(((g, s), digest));
                    record_bytes += bytes;
                }
            }
            traced_passes.push(times);
        }
        let traced = fastest_per_op(&traced_passes).iter().sum::<f64>() / 1e6;
        let layers = &mut report.layers;
        layers.insert("obs.trace_overhead", best / traced);
        for kind in SolverKind::PAPER_SET {
            let (span, metric) = cell_span(kind);
            layers.insert(metric, median(&tr.durations_us(span)));
        }
        let span_median = |name| median(&tr.durations_us(name));
        layers.insert("algo.warm_us", span_median("algo.warm"));
        layers.insert("algo.next_filter_us", span_median("algo.next_filter"));
        layers.insert("results.encode_us", span_median("results.encode"));
        layers.insert("results.parse_us", span_median("results.parse"));
        layers.insert("results.record_bytes", record_bytes as f64);
        layers.insert("core.problem_new_us", span_median("core.problem_new"));

        let mut freeze_s = 0.0;
        let mut identity = 0.0;
        for (_, g, source) in &inputs {
            let t = Instant::now();
            let cg = CGraph::new(g, *source).map_err(|e| e.to_string())?;
            freeze_s += t.elapsed().as_secs_f64();
            identity += engine::topo_identity_frac(&cg) / inputs.len() as f64;
        }
        layers.insert("graph.freeze_s", freeze_s);
        layers.insert("graph.topo_identity_frac", identity);

        // The harness's engine loop on the largest graph must pick what
        // the G_ALL ladder picked at k = 10.
        let cg = problems[ENGINE_GRAPH].cgraph();
        let mut scratch = EngineScratch::default();
        let picks = engine::measure(cg, 10, passes, &mut scratch, &mut tr, layers);
        let ladder = problems[ENGINE_GRAPH].solve_ladder(SolverKind::GreedyAll, &[10], args.seed);
        for p in picks {
            report.tally.check(p == ladder[0].1.nodes(), || {
                format!(
                    "engine replay picked {p:?}, ladder picked {:?}",
                    ladder[0].1.nodes()
                )
            });
        }
    }

    let mut tally = verify_digests(&answers, &expected);
    tally.add(report.tally);
    report.tally = tally;
    report.tracer = Some(tr);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1() -> Problem {
        let g = DiGraph::from_pairs(
            7,
            [
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (2, 4),
                (2, 5),
                (3, 6),
                (4, 6),
                (5, 6),
            ],
        )
        .unwrap();
        Problem::new(&g, NodeId::new(0)).unwrap()
    }

    #[test]
    fn cells_match_the_oracle_and_a_corrupted_one_fails() {
        let problems = vec![figure1()];
        let answers: Vec<(CellKey, u64)> = SolverKind::PAPER_SET
            .iter()
            .enumerate()
            .map(|(s, &kind)| ((0, s), cell(&problems[0], kind, 3)))
            .collect();
        let mut expected = oracle_digests(&problems, 3);
        assert_eq!(verify_digests(&answers, &expected).failed, 0);
        *expected.get_mut(&(0, 2)).unwrap() ^= 1;
        let tally = verify_digests(&answers, &expected);
        assert_eq!((tally.attempted, tally.failed), (7, 1));
    }

    #[test]
    fn traced_cells_reproduce_untraced_digests() {
        let p = figure1();
        let mut tr = Tracer::new(true);
        for kind in SolverKind::PAPER_SET {
            assert_eq!(
                cell_traced(&p, kind, 5, &mut tr).0,
                cell(&p, kind, 5),
                "{kind:?}"
            );
        }
        assert!(!tr.durations_us("algo.warm").is_empty());
    }
}
