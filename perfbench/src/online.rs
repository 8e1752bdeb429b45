//! `online-drift`: `OnlinePlacement` keeping k = 8 filters live on six
//! seeded full-scale twitter-like graphs (~90k nodes each, working set
//! near L2) under their `online::mutation_stream`s.
//!
//! The only workload on the engine's write path (`ImpactEngine::apply`:
//! CSR splice, dirty frontiers, filter removal). Repairs reuse the insert
//! path on a warm engine, so an insert change shows here and on
//! `powerlaw-1m`, while an apply change shows only here. One op is one
//! `apply_event` that did not repair; repairing events are the `repair`
//! class, and `ops_per_s` counts every event.

use crate::report::{answer_digest, Report, Tally};
use crate::stats::{fastest_per_op, median, peak_rss_mb, setups_due, OpClass, OpLog};
use crate::trace::Tracer;
use crate::{engine, Args};
use fp_core::datasets::twitter_like::{TwitterLikeParams, TwitterLikeStream};
use fp_core::num::Wide128;
use fp_core::online::{greedy_rebuild, mutation_stream, OnlineConfig, OnlinePlacement};
use fp_core::propagation::{CGraph, EngineScratch, FilterSet, ImpactEngine, Mutation};
use fp_core::scale::MemBudget;
use std::time::Instant;

const K: usize = 8;
/// Lowered from `OnlineConfig`'s default 0.05, which repaired only 8 times
/// in 10 s of events (seed 1): too few samples for a repair median. At
/// 0.001 one round (6,000 events over the instances) repaired 2 to 11
/// times on each of seeds 1 to 52, and a run of about 55 rounds times
/// several hundred repairs. At 0.0025 some seeds' rounds never repaired.
const DRIFT_THRESHOLD: f64 = 0.001;
/// Seeded instances (graph and event stream) per run. The cost of an
/// event depends on the graph it lands on and on how many events repair,
/// and one seed's events ran 25% slower than another's; a run spread over
/// several graphs holds its figures to the workload rather than to one
/// draw of it.
const INSTANCES: usize = 6;
/// Events per instance per round. A round is the unit of fixed work:
/// every round replays the same events from the same start, about 0.35 s,
/// so a 20 s phase gives each event some 55 times to take the fastest of.
/// Rounds of 4,000 events (1.5 s, 10 times per event in 15 s) let a slow stretch
/// of the host cover every time of many events, and the same code and
/// seed then read 13k or 17k events/s from one run to the next.
const ROUND_EVENTS: usize = 1_000;
/// Timed rounds at least, so every event has several times to take the
/// fastest of.
const MIN_ROUNDS: usize = 4;
/// A set-up of every instance takes about 0.3 s; this many, spread
/// through the timed phase, give the fastest a steady floor.
const SETUP_REPEATS: usize = 16;

fn config() -> OnlineConfig {
    OnlineConfig {
        k: K,
        drift_threshold: DRIFT_THRESHOLD,
    }
}

fn stream(seed: u64) -> TwitterLikeStream {
    TwitterLikeStream::new(&TwitterLikeParams { scale: 1.0, seed })
}

fn placement_digest(p: &FilterSet) -> u64 {
    answer_digest(p.len(), p.nodes().iter().map(|v| v.index()), 0)
}

/// What a pass over the event stream produced, for bit-for-bit
/// comparison between passes.
#[derive(Debug, Default, PartialEq, Eq)]
struct Trail {
    /// `(event index, placement digest)` after every repair.
    repairs: Vec<(usize, u64)>,
    /// Placement and Φ after the last event.
    final_placement: u64,
    final_phi: u128,
}

/// One round: `live`, fresh from the set-up state, applies every event
/// once, inside a span when `tr` records. Each event is timed on its own
/// into `ops` and the returned times, so checks between events never
/// count. With `check`, every repair is held to a cold `greedy_rebuild`.
fn round(
    live: &mut OnlinePlacement,
    events: &[Mutation],
    ops: &mut OpLog,
    tally: &mut Tally,
    check: bool,
    tr: &mut Tracer,
) -> (Trail, Vec<f64>) {
    let mut trail = Trail::default();
    let mut times = Vec::with_capacity(events.len());
    for (i, &m) in events.iter().enumerate() {
        let t = Instant::now();
        let outcome = tr.span("online.apply_event", |_| live.apply_event(m));
        let us = t.elapsed().as_secs_f64() * 1e6;
        times.push(us);
        let Ok(outcome) = outcome else {
            ops.record(OpClass::Primary, us);
            tally.op(false, || format!("event {i} {m:?}: {outcome:?}"));
            continue;
        };
        ops.record(OpClass::of_event(&outcome), us);
        tally.op(true, String::new);
        if !outcome.repaired {
            continue;
        }
        trail.repairs.push((i, placement_digest(live.placement())));
        if check {
            let rebuilt = greedy_rebuild(live.engine().cgraph(), K);
            tally.check(rebuilt.nodes() == live.placement().nodes(), || {
                format!(
                    "repair at event {i}: {:?}, rebuild {:?}",
                    live.placement().nodes(),
                    rebuilt.nodes()
                )
            });
        }
    }
    trail.final_placement = placement_digest(live.placement());
    trail.final_phi = live.engine().phi().get();
    (trail, times)
}

/// One seeded instance: its graph, the ledger that charged its build, and
/// the events every round replays on it.
struct Instance {
    seed: u64,
    cg: CGraph,
    budget: MemBudget,
    events: Vec<Mutation>,
    /// The placement the set-up made, which the next round starts from.
    start: Option<OnlinePlacement>,
}

/// Seed of instance `i` of a run seeded with `seed`.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(INSTANCES as u64).wrapping_add(i as u64)
}

/// Set up every instance (stream, build, freeze, initial placement).
/// The graphs and placements are deterministic, so a repeated set-up
/// rebuilds exactly what the first one built. Only instance 0's set-up
/// is traced, so its build layers pair with its own edge count.
fn set_up(seed: u64, tr: &mut Tracer) -> Result<Vec<Instance>, String> {
    let mut off = Tracer::new(false);
    (0..INSTANCES)
        .map(|i| {
            let tr = if i == 0 { &mut *tr } else { &mut off };
            let seed = instance_seed(seed, i);
            let mut stream = stream(seed);
            let source = stream.source();
            let (cg, budget) = engine::build_streamed(&mut stream, source, tr)?;
            let live = tr.span("online.place", |_| {
                OnlinePlacement::new(cg.clone(), config())
            });
            Ok(Instance {
                seed,
                cg,
                budget,
                events: Vec::new(),
                start: Some(live),
            })
        })
        .collect()
}

fn fresh(cg: &CGraph) -> OnlinePlacement {
    OnlinePlacement::new(cg.clone(), config())
}

/// One round over every instance, each from its set-up state; returns
/// every instance's trail and every event's time, instance by instance.
fn round_all(
    instances: &mut [Instance],
    ops: &mut OpLog,
    tally: &mut Tally,
    check: bool,
    tr: &mut Tracer,
) -> (Vec<Trail>, Vec<f64>, Vec<OnlinePlacement>) {
    let (mut trails, mut times, mut ended) = (Vec::new(), Vec::new(), Vec::new());
    for inst in instances {
        let mut live = inst.start.take().unwrap_or_else(|| fresh(&inst.cg));
        let (trail, t) = round(&mut live, &inst.events, ops, tally, check, tr);
        trails.push(trail);
        times.extend(t);
        ended.push(live);
    }
    (trails, times, ended)
}

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
    let mut instances = set_up_timed(&mut report, &mut tr)?;
    for inst in &mut instances {
        inst.events = mutation_stream(&inst.cg, ROUND_EVENTS, inst.seed);
    }
    let events: usize = instances.iter().map(|i| i.events.len()).sum();

    // Timed rounds, each the same events from the same start; every
    // round must leave the same trails. The remaining set-ups are spread
    // between rounds, each replacing the instances' graphs and start.
    let mut tally = Tally::default();
    let mut untraced = Tracer::new(false);
    let mut trails = None;
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let phase = args.phase_len().as_secs_f64();
    loop {
        let done = rounds.iter().flatten().sum::<f64>() / 1e6;
        while report.setup_s.len() < setups_due(SETUP_REPEATS, done / phase) {
            let events: Vec<Vec<Mutation>> = instances
                .iter_mut()
                .map(|i| std::mem::take(&mut i.events))
                .collect();
            instances.clear();
            instances = set_up_timed(&mut report, &mut tr)?;
            for (inst, ev) in instances.iter_mut().zip(events) {
                inst.events = ev;
            }
        }
        if rounds.len() >= MIN_ROUNDS && done >= phase {
            break;
        }
        let (left, times, _) = round_all(
            &mut instances,
            &mut report.ops,
            &mut tally,
            false,
            &mut untraced,
        );
        match &trails {
            None => trails = Some(left),
            Some(t) => tally.check(&left == t, || {
                format!("round trails {left:?} != first {t:?}")
            }),
        }
        rounds.push(times);
    }
    report.peak_rss_mb = peak_rss_mb()?;
    let trails = trails.expect("at least one round");
    if trails.iter().all(|t| t.repairs.is_empty()) {
        return Err("no repair in a round: the repair class went unmeasured".into());
    }
    let best = fastest_per_op(&rounds);
    let best_s = best.iter().sum::<f64>() / 1e6;
    report.ops_per_s = events as f64 / best_s;
    // Positions of the repairing events in a round's times.
    let mut repaired = std::collections::BTreeSet::new();
    let mut offset = 0;
    for (inst, trail) in instances.iter().zip(&trails) {
        repaired.extend(trail.repairs.iter().map(|r| offset + r.0));
        offset += inst.events.len();
    }
    let (mut repair_s, mut plain_us) = (0.0, Vec::new());
    for (i, &us) in best.iter().enumerate() {
        if repaired.contains(&i) {
            repair_s += us / 1e6;
        } else {
            plain_us.push(us);
        }
    }
    report.op_p50_us = median(&plain_us);

    // Verification, after the memory peak was read: one more round that
    // holds every repair to a cold `greedy_rebuild`.
    let (checked, _, ended) = round_all(
        &mut instances,
        &mut OpLog::default(),
        &mut tally,
        true,
        &mut untraced,
    );
    tally.check(checked == trails, || {
        format!("checked trails {checked:?} != timed {trails:?}")
    });

    if args.trace {
        let layers = &mut report.layers;
        let stats: Vec<_> = ended.iter().map(|p| p.stats()).collect();
        layers.insert(
            "online.repairs",
            stats.iter().map(|s| s.repairs).sum::<usize>() as f64,
        );
        layers.insert(
            "online.repair_picks",
            stats.iter().map(|s| s.repair_picks).sum::<usize>() as f64,
        );
        layers.insert("online.repair_share", repair_s / best_s);

        // Traced rounds: the same work must leave the same trails.
        let mut traced_rounds = Vec::new();
        for _ in 0..rounds.len() {
            let mut ops = OpLog::default();
            let (traced, times, _) =
                round_all(&mut instances, &mut ops, &mut tally, false, &mut tr);
            tally.check(traced == trails, || {
                format!("traced trails {traced:?} != {trails:?}")
            });
            traced_rounds.push(times);
        }
        let traced_s = fastest_per_op(&traced_rounds).iter().sum::<f64>() / 1e6;
        layers.insert("obs.trace_overhead", best_s / traced_s);

        // The engine alone on instance 0's stream, from its placement.
        let inst = &instances[0];
        let placed = fresh(&inst.cg).placement().nodes().to_vec();
        let mut bare = ImpactEngine::<Wide128>::from_owned(
            inst.cg.clone(),
            FilterSet::from_nodes(inst.cg.node_count(), placed.iter().copied()),
        );
        for &m in &inst.events {
            let ok = tr.span("engine.apply", |_| bare.apply(m)).is_ok();
            tally.check(ok, || format!("engine rejected {m:?}"));
        }
        layers.insert(
            "engine.apply_p50_us",
            median(&tr.durations_us("engine.apply")),
        );
        engine::scale_layers(
            &mut stream(inst.seed),
            &inst.cg,
            &inst.budget,
            &mut tr,
            layers,
        )?;

        // The harness's engine loop must pick the initial placement.
        let mut scratch = EngineScratch::default();
        for picks in engine::measure(&inst.cg, K, 10, &mut scratch, &mut tr, layers) {
            tally.check(picks == placed, || {
                format!("engine replay {picks:?} vs placement {placed:?}")
            });
        }
    }
    report.tally = tally;
    report.tracer = Some(tr);
    Ok(report)
}
