//! `powerlaw-1m`: Greedy_All k=10 on a streamed 10^6-node power-law DAG.
//!
//! The only workload whose engine state (~10^8 bytes) dwarfs L2, and the
//! only one where ingest and CSR build do real work. Set-up streams the
//! generator through `Csr32::from_stream` and freezes with
//! `CGraph::from_csr`; one op is one `GreedyAll::place_with_scratch`
//! solve on the frozen graph.

use crate::report::{answer_digest, verify_digests, Report};
use crate::stats::{fastest, peak_rss_mb, OpClass};
use crate::trace::Tracer;
use crate::{engine, Args};
use fp_core::algorithms::GreedyAll;
use fp_core::datasets::power_law::{PowerLawParams, PowerLawStream};
use fp_core::graph::NodeId;
use fp_core::num::Wide128;
use fp_core::propagation::EngineScratch;
use std::collections::BTreeMap;
use std::time::Instant;

const NODES: usize = 1_000_000;
const MEAN_DEGREE: usize = 3;
const K: usize = 10;
const SETUP_REPEATS: usize = 3;

fn stream(seed: u64) -> PowerLawStream {
    PowerLawStream::new(&PowerLawParams {
        nodes: NODES,
        mean_degree: MEAN_DEGREE,
        seed,
    })
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut tr = Tracer::new(args.trace);
    let mut report = Report::default();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let started = Instant::now();
        built = Some(engine::build_streamed(
            &mut stream(args.seed),
            NodeId::new(0),
            &mut tr,
        )?);
        report.setup_s.push(started.elapsed().as_secs_f64());
    }
    let (cg, budget) = built.expect("at least one set-up");

    // One untimed solve allocates the engine's buffers, so timed solves
    // all run warm, as a batch of solves on one graph does.
    let (first, mut scratch) =
        GreedyAll::<Wide128>::place_with_scratch(&cg, K, EngineScratch::default());
    let mut answers: Vec<((), u64)> = Vec::new();
    let digest = |picks: &[NodeId]| answer_digest(K, picks.iter().map(|v| v.index()), 0);
    answers.push(((), digest(first.nodes())));

    // Repetitions of fixed work: one solve each.
    let mut solve_secs: Vec<f64> = Vec::new();
    while solve_secs.iter().sum::<f64>() < args.phase_len().as_secs_f64() {
        let t = Instant::now();
        let (filters, s) = GreedyAll::<Wide128>::place_with_scratch(&cg, K, scratch);
        let secs = t.elapsed().as_secs_f64();
        report.ops.record(OpClass::Primary, secs * 1e6);
        solve_secs.push(secs);
        scratch = s;
        answers.push(((), digest(filters.nodes())));
    }
    report.peak_rss_mb = peak_rss_mb()?;
    let best = fastest(&solve_secs);
    report.ops_per_s = 1.0 / best;
    report.op_p50_us = best * 1e6;

    // Independent path: the full-recompute oracle shares no state with
    // the incremental engine. Every solve must match it.
    let oracle = GreedyAll::<Wide128>::place_full_recompute(&cg, K);
    let expected: BTreeMap<(), u64> = [((), digest(oracle.nodes()))].into_iter().collect();
    report.tally = verify_digests(&answers, &expected);

    if args.trace {
        let layers = &mut report.layers;
        let picks = engine::measure(&cg, K, solve_secs.len(), &mut scratch, &mut tr, layers);
        let traced_secs: Vec<f64> = tr
            .durations_us("engine.solve")
            .iter()
            .map(|us| us / 1e6)
            .collect();
        layers.insert("obs.trace_overhead", best / fastest(&traced_secs));
        for p in picks {
            report.tally.check(expected[&()] == digest(&p), || {
                format!("engine replay picked {p:?}, oracle {:?}", oracle.nodes())
            });
        }
        engine::scale_layers(&mut stream(args.seed), &cg, &budget, &mut tr, layers)?;
    }
    report.tracer = Some(tr);
    Ok(report)
}
