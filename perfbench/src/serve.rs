//! `serve-steady`: an in-process `fp serve` daemon answering warm
//! Greedy_All queries over persistent frame connections.
//!
//! Every query is a rung-cache hit, so the engine sits idle and
//! transport, routing, JSON and the session channel carry all the time:
//! the bypass workload for engine changes and the mechanism workload for
//! serve and protocol changes. Two phases, never mixed:
//!
//! * query phase: two client threads, one connection each, closed loop
//!   (each waits for its reply), cycling budgets 0..=kmax in whole
//!   cycles; one op is one query;
//! * mutation phase: a fixed number of ops, each an insert or a removal
//!   of the same seeded forward edge plus the re-query to kmax, so the
//!   graph ends where it started.

use crate::report::{answer_digest, Report, Tally};
use crate::stats::{median, peak_rss_mb, OpClass, OpLog};
use crate::trace::Tracer;
use crate::{engine, Args};
use fp_core::algorithms::SolverKind;
use fp_core::datasets::citation_like::{self, CitationLikeParams};
use fp_core::graph::{reachable_from, to_edge_list, NodeId};
use fp_core::propagation::{CGraph, EngineScratch};
use fp_core::registry::{GraphEntry, GraphRegistry};
use fp_core::results::protocol::{ServeCall, ServeReply};
use fp_core::results::Json;
use fp_core::serve::{ApiState, ServeClient, Server, ServerHandle};
use fp_core::Problem;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

const GRAPH: &str = "citation";
const SOLVER: SolverKind = SolverKind::GreedyAll;
const KMAX: usize = 16;
/// Client threads and connections: one per core of the reference box.
const CLIENTS: usize = 2;
/// Whole k-cycles each client runs per round: about 1000 queries, 30 to
/// 45 ms. Short rounds make the fastest one steady: with ~300 of them a
/// run holds quiet stretches even when the host is busy, while
/// 1 s rounds rarely ran quiet from end to end.
const CYCLES_PER_ROUND: usize = 30;
/// Mutate ops in the fixed-count mutation phase (inserts and removals
/// alternate, so the count is even).
const MUTATE_OPS: usize = 40;
/// Set-ups take 2 to 5 s, almost all of it the upload's JSON parse; each
/// is followed by a stretch of the query phase.
const SETUP_REPEATS: usize = 7;
/// Fresh connections the traced run opens and hangs up, one at a time.
const CONNECT_PROBES: usize = 1000;
/// A connect at least this slow waited out a SYN retransmission.
const CONNECT_STALL_US: f64 = 500_000.0;

/// Expected `(picks, FR bits)` per budget.
type Ladder = BTreeMap<usize, (Vec<usize>, u64)>;

/// How often each `(budget, answer digest)` came back; `None` for a
/// reply that was not a well-formed 200 row. Kept as counts, so holding
/// the answers for verification after the phase costs next to no memory.
type Answers = BTreeMap<(usize, Option<u64>), u64>;

/// A running daemon with one warm session and connected clients.
struct Live {
    server: ServerHandle,
    clients: Vec<ServeClient>,
    session: String,
    entry: Arc<GraphEntry>,
}

impl Live {
    fn stop(self) -> Result<(), String> {
        for c in self.clients {
            c.hang_up()?;
        }
        self.server.stop()
    }
}

fn call_ok(client: &mut ServeClient, call: ServeCall, want: u16) -> Result<ServeReply, String> {
    let what = format!("{call:?}");
    let reply = client.call(call)?;
    if reply.status != want {
        return Err(format!(
            "{what} answered {}: {}",
            reply.status,
            reply.body.to_compact()
        ));
    }
    Ok(reply)
}

/// Bind, connect, upload, open and warm the session. Returns the daemon
/// and the upload time.
fn setup(edges: &str, source: &str, seed: u64) -> Result<(Live, f64), String> {
    let server = Server::bind("127.0.0.1:0", ApiState::new(GraphRegistry::new(), None))?.spawn();
    let mut clients = (0..CLIENTS)
        .map(|_| ServeClient::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let c = &mut clients[0];
    let put = Instant::now();
    call_ok(
        c,
        ServeCall::GraphPut {
            name: GRAPH.into(),
            source: source.into(),
            edges_text: edges.into(),
        },
        201,
    )?;
    let put_s = put.elapsed().as_secs_f64();
    let open = call_ok(
        c,
        ServeCall::SessionOpen {
            graph: GRAPH.into(),
            solver: SOLVER,
            seed,
        },
        201,
    )?;
    let session = open
        .body
        .expect("session")?
        .as_str()
        .ok_or("session id missing")?
        .to_string();
    call_ok(c, query(&session, KMAX), 200)?;
    let entry = server
        .state()
        .registry()
        .get(GRAPH)
        .ok_or("uploaded graph missing")?;
    let live = Live {
        server,
        clients,
        session,
        entry,
    };
    Ok((live, put_s))
}

fn query(session: &str, k: usize) -> ServeCall {
    ServeCall::Query {
        session: session.to_string(),
        ks: vec![k],
        deadline_ms: None,
    }
}

/// The batch ladder for k = 0..=KMAX.
fn ladder(problem: &Problem, seed: u64) -> Ladder {
    let ks: Vec<usize> = (0..=KMAX).collect();
    problem
        .solve_ladder(SOLVER, &ks, seed)
        .into_iter()
        .map(|(k, f, fr)| {
            (
                k,
                (f.nodes().iter().map(|v| v.index()).collect(), fr.to_bits()),
            )
        })
        .collect()
}

/// The answer digest the ladder expects at `k`.
fn expected_digest(ladder: &Ladder, k: usize) -> Option<u64> {
    let (picks, fr_bits) = ladder.get(&k)?;
    Some(answer_digest(k, picks.iter().copied(), *fr_bits))
}

/// Digest of the one row a 200 reply to a query for `k` carries; `None`
/// when the reply is anything else.
fn reply_digest(reply: &ServeReply, k: usize) -> Option<u64> {
    if reply.status != 200 {
        return None;
    }
    let rows = reply.body.get("results").and_then(Json::as_array)?;
    let [row] = rows else {
        return None;
    };
    let placement: Vec<usize> = row
        .get("placement")
        .and_then(Json::as_array)?
        .iter()
        .map(Json::as_usize)
        .collect::<Option<_>>()?;
    let fr = row.get("fr").and_then(Json::as_f64)?;
    (row.get("k").and_then(Json::as_usize) == Some(k))
        .then(|| answer_digest(k, placement, fr.to_bits()))
}

/// Hold every counted answer to the ladder: each reply is one op.
fn verify_answers(answers: &Answers, expected: &Ladder) -> Tally {
    let mut tally = Tally::default();
    for (&(k, digest), &count) in answers {
        let want = expected_digest(expected, k);
        let ok = digest.is_some() && digest == want;
        for _ in 0..count {
            tally.op(ok, || {
                format!("query k={k}: answer {digest:x?}, ladder {want:x?}")
            });
        }
    }
    tally
}

/// How many rounds a query phase runs: until the rounds' summed time
/// reaches a budget, or exactly `n`.
#[derive(Clone, Copy)]
enum Stop {
    Budget(f64),
    Rounds(usize),
}

/// Round bookkeeping shared by the client threads.
struct Rounds {
    barrier: Barrier,
    more: AtomicBool,
    secs: Mutex<Vec<f64>>,
}

struct ClientRun {
    client: ServeClient,
    ops: OpLog,
    /// Primary-sample count at the end of each round.
    round_ends: Vec<usize>,
    answers: Answers,
    /// Replies that were not `Ok` (transport errors), or that did not
    /// survive a JSON round trip in the traced run.
    broken: Tally,
    tracer: Tracer,
}

/// One client's closed loop, in lock-step rounds: every client runs
/// `CYCLES_PER_ROUND` whole k-cycles per round, and client 0 times each
/// round from the start barrier to the end barrier, so a round's time
/// covers its slowest client. Client `i` starts its cycle at budget `i`.
fn drive(
    mut client: ServeClient,
    idx: usize,
    session: &str,
    stop: Stop,
    rounds: &Rounds,
    mut tracer: Tracer,
) -> ClientRun {
    let mut ops = OpLog::default();
    let mut round_ends = Vec::new();
    let mut answers = Answers::new();
    let mut broken = Tally::default();
    loop {
        rounds.barrier.wait();
        let started = Instant::now();
        for step in (0..CYCLES_PER_ROUND).flat_map(|_| 0..=KMAX) {
            let k = (idx + step) % (KMAX + 1);
            let call = query(session, k);
            let class = OpClass::of_call(&call);
            let sent = Instant::now();
            let reply = tracer.span("serve.call", |_| client.call(call));
            ops.record(class, sent.elapsed().as_secs_f64() * 1e6);
            match &reply {
                Ok(r) => {
                    if tracer.enabled() {
                        let text = tracer.span("results.encode", |_| r.body.to_compact());
                        let parsed = tracer.span("results.parse", |_| Json::parse(&text));
                        broken.check(parsed.is_ok_and(|j| j == r.body), || {
                            format!("query k={k}: reply does not survive a JSON round trip")
                        });
                    }
                    *answers.entry((k, reply_digest(r, k))).or_default() += 1;
                }
                Err(e) => broken.op(false, || format!("query k={k}: {e}")),
            }
        }
        round_ends.push(ops.samples(OpClass::Primary).len());
        rounds.barrier.wait();
        if idx == 0 {
            let mut secs = rounds.secs.lock().expect("round lock poisoned");
            secs.push(started.elapsed().as_secs_f64());
            let more = match stop {
                Stop::Budget(b) => secs.iter().sum::<f64>() < b,
                Stop::Rounds(n) => secs.len() < n,
            };
            rounds.more.store(more, Ordering::SeqCst);
        }
        rounds.barrier.wait();
        if !rounds.more.load(Ordering::SeqCst) {
            break;
        }
    }
    ClientRun {
        client,
        ops,
        round_ends,
        answers,
        broken,
        tracer,
    }
}

/// Run the query phase on every client; returns each round's time and
/// median query latency over all clients.
fn query_phase(
    live: &mut Live,
    stop: Stop,
    report_ops: &mut OpLog,
    answers: &mut Answers,
    tally: &mut Tally,
    tr: &mut Tracer,
) -> Result<Vec<(f64, f64)>, String> {
    let clients = std::mem::take(&mut live.clients);
    let session = live.session.as_str();
    let rounds = Rounds {
        barrier: Barrier::new(clients.len()),
        more: AtomicBool::new(true),
        secs: Mutex::new(Vec::new()),
    };
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let fork = tr.fork();
                let rounds = &rounds;
                scope.spawn(move || drive(c, i, session, stop, rounds, fork))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect::<Result<_, _>>()
    })?;
    let secs = rounds.secs.into_inner().expect("round lock poisoned");
    let per_round = secs
        .iter()
        .enumerate()
        .map(|(r, &s)| {
            let samples: Vec<f64> = runs
                .iter()
                .flat_map(|run| {
                    let start = if r == 0 { 0 } else { run.round_ends[r - 1] };
                    run.ops.samples(OpClass::Primary)[start..run.round_ends[r]].to_vec()
                })
                .collect();
            (s, median(&samples))
        })
        .collect();
    for run in runs {
        report_ops.extend(&run.ops);
        for (key, n) in run.answers {
            *answers.entry(key).or_default() += n;
        }
        tally.add(run.broken);
        tr.absorb(run.tracer);
        live.clients.push(run.client);
    }
    Ok(per_round)
}

/// A seeded forward edge between two nodes reachable from the source,
/// absent from the graph: inserting it keeps the graph acyclic, and
/// removing it again can never orphan a placed filter.
fn seeded_edge(cg: &CGraph, seed: u64) -> Result<(NodeId, NodeId), String> {
    let reach = reachable_from(cg.csr(), cg.source());
    let topo: Vec<NodeId> = cg
        .topo()
        .iter()
        .copied()
        .filter(|v| reach.contains(v.index()))
        .collect();
    let mut state = seed ^ 0x5eed_ed9e;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize
    };
    for _ in 0..10_000 {
        let (a, b) = (next() % topo.len(), next() % topo.len());
        let (u, v) = (topo[a.min(b)], topo[a.max(b)]);
        if a != b && u != cg.source() && !cg.csr().children(u).contains(&v) {
            return Ok((u, v));
        }
    }
    Err("no absent forward edge found".into())
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut tr = Tracer::new(args.trace);
    let mut report = Report::default();
    let citation = citation_like::generate(&CitationLikeParams {
        seed: args.seed,
        ..Default::default()
    });
    let edges = to_edge_list(&citation.graph);
    let source = citation.source.index().to_string();

    // Set-ups alternate with stretches of the query phase, so the set-up
    // times sample the whole run (see `setups_due`): each set-up stops
    // the previous daemon and starts the one the next stretch queries.
    let mut put_s = Vec::new();
    let mut live: Option<Live> = None;
    let mut answers = Answers::new();
    let mut rounds = Vec::new();
    let stretch = args.phase_len().as_secs_f64() / SETUP_REPEATS as f64;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = live.take() {
            old.stop()?;
        }
        let started = Instant::now();
        let (l, put) = setup(&edges, &source, args.seed)?;
        report.setup_s.push(started.elapsed().as_secs_f64());
        put_s.push(put);
        let l = live.insert(l);
        rounds.extend(query_phase(
            l,
            Stop::Budget(stretch),
            &mut report.ops,
            &mut answers,
            &mut report.tally,
            &mut Tracer::new(false),
        )?);
    }
    let mut live = live.expect("at least one set-up");
    let per_round = (CLIENTS * CYCLES_PER_ROUND * (KMAX + 1)) as f64;
    let (best, p50) = query_estimate(&rounds);
    report.ops_per_s = per_round / best;
    report.op_p50_us = p50;

    let traced = if args.trace {
        let handle_before = handle_hist();
        fp_obs::tracer().enable();
        let traced = query_phase(
            &mut live,
            Stop::Rounds(rounds.len()),
            &mut OpLog::default(),
            &mut answers,
            &mut report.tally,
            &mut tr,
        )?;
        fp_obs::tracer().disable();
        Some((traced, handle_hist(), handle_before))
    } else {
        None
    };

    // Rung-cache accounting covers the query phases only.
    let listing = call_ok(&mut live.clients[0], ServeCall::SessionList, 200)?;
    let stats = listing
        .body
        .get("sessions")
        .and_then(Json::as_array)
        .and_then(|s| s.first())
        .and_then(|s| s.get("stats"))
        .ok_or("session list carries no stats")?;
    let stat = |name| stats.get(name).and_then(Json::as_u64).unwrap_or(0) as f64;
    let hit_ratio = stat("rung_cache_hits") / stat("queries").max(1.0);

    let mutations = mutation_phase(&mut live, args.seed, &mut tr, &mut report)?;
    report.peak_rss_mb = peak_rss_mb()?;

    // Verification, after the memory peak was read: every query against
    // the batch ladder, every re-query after a mutation against a batch
    // solve on a locally mutated copy.
    let expected = ladder(&live.entry.problem, args.seed);
    report.tally.add(verify_answers(&answers, &expected));
    verify_mutations(&live, args.seed, &mutations, &expected, &mut report.tally)?;

    if let Some((traced, handle_after, handle_before)) = traced {
        let layers = &mut report.layers;
        layers.insert("obs.trace_overhead", best / query_estimate(&traced).0);
        let session_query: Vec<f64> = fp_obs::tracer()
            .records()
            .iter()
            .filter(|r| r.name == "session.query")
            .map(|r| r.dur_ns as f64 / 1e3)
            .collect();
        layers.insert("serve.session_query_us", median(&session_query));
        let handled = (handle_after.1 - handle_before.1).max(1) as f64;
        let handle_us = (handle_after.0 - handle_before.0) as f64 / handled;
        layers.insert("serve.handle_us", handle_us);
        let calls = tr.durations_us("serve.call");
        let mean_call = calls.iter().sum::<f64>() / calls.len().max(1) as f64;
        layers.insert("serve.wire_us", mean_call - handle_us);
        layers.insert(
            "results.encode_us",
            median(&tr.durations_us("results.encode")),
        );
        layers.insert(
            "results.parse_us",
            median(&tr.durations_us("results.parse")),
        );
        let mut connect_us = Vec::with_capacity(CONNECT_PROBES);
        for _ in 0..CONNECT_PROBES {
            let t = Instant::now();
            let c = ServeClient::connect(live.server.addr())?;
            connect_us.push(t.elapsed().as_secs_f64() * 1e6);
            c.hang_up()?;
        }
        layers.insert("serve.connect_p50_us", median(&connect_us));
        layers.insert(
            "serve.connect_max_us",
            connect_us.iter().copied().fold(0.0, f64::max),
        );
        let stalls = connect_us.iter().filter(|&&us| us >= CONNECT_STALL_US);
        layers.insert("serve.connect_stalls", stalls.count() as f64);
        let sample = call_ok(&mut live.clients[0], query(&live.session, KMAX), 200)?;
        layers.insert(
            "results.record_bytes",
            sample.body.to_compact().len() as f64,
        );
        layers.insert("serve.rung_cache_hit_ratio", hit_ratio);
        layers.insert("serve.put_s", median(&put_s));
        let (mutate_us, rewarm_us): (Vec<f64>, Vec<f64>) =
            mutations.iter().map(|m| (m.mutate_us, m.rewarm_us)).unzip();
        layers.insert("serve.mutate_us", median(&mutate_us));
        layers.insert("serve.rewarm_us", median(&rewarm_us));
        let retained: usize = mutations.iter().map(|m| m.retained).sum();
        layers.insert(
            "serve.retained_rung_ratio",
            retained as f64 / (MUTATE_OPS * KMAX) as f64,
        );
        let slow: usize = [OpClass::Primary, OpClass::Mutate]
            .iter()
            .filter_map(|&c| report.ops.summary(c))
            .map(|s| s.slow)
            .sum();
        layers.insert("serve.slow_ops", slow as f64);

        let t = Instant::now();
        let _problem = Problem::new(&citation.graph, citation.source).map_err(|e| e.to_string())?;
        layers.insert("core.problem_new_us", t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let cg = CGraph::new(&citation.graph, citation.source).map_err(|e| e.to_string())?;
        layers.insert("graph.freeze_s", t.elapsed().as_secs_f64());
        layers.insert("graph.topo_identity_frac", engine::topo_identity_frac(&cg));
        // The harness's engine loop must pick what the session served.
        let cg = live.entry.problem.cgraph();
        let mut scratch = EngineScratch::default();
        let picks = engine::measure(cg, KMAX, 10, &mut scratch, &mut tr, layers);
        let want = &expected[&KMAX].0;
        for p in picks {
            let got: Vec<usize> = p.iter().map(|v| v.index()).collect();
            report.tally.check(&got == want, || {
                format!("engine replay picked {got:?}, served {want:?}")
            });
        }
    }
    live.stop()?;
    report.tracer = Some(tr);
    Ok(report)
}

/// Throughput and latency estimate of a query phase: its fastest round's
/// time and that round's median query.
fn query_estimate(rounds: &[(f64, f64)]) -> (f64, f64) {
    rounds
        .iter()
        .copied()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or((f64::INFINITY, 0.0))
}

/// `(sum, count)` of the daemon's handle-time histogram.
fn handle_hist() -> (u64, u64) {
    fp_obs::registry()
        .snapshot()
        .histograms
        .iter()
        .find(|h| h.name == "fp_serve_handle_us")
        .map_or((0, 0), |h| (h.sum, h.count))
}

/// One mutate op as it was served.
struct MutateOp {
    insert: bool,
    /// Whether the mutation was answered 200.
    applied: bool,
    /// The re-query's answer digest (see [`reply_digest`]).
    requery: Option<u64>,
    mutate_us: f64,
    rewarm_us: f64,
    retained: usize,
}

/// A forward edge by node and by label.
type LabeledEdge = ((NodeId, NodeId), (String, String));

/// The graph's seeded forward edge, by node and by label.
fn edge(live: &Live, seed: u64) -> Result<LabeledEdge, String> {
    let (u, v) = seeded_edge(live.entry.problem.cgraph(), seed)?;
    let labels = &live.entry.labels;
    Ok((
        (u, v),
        (labels[u.index()].clone(), labels[v.index()].clone()),
    ))
}

/// The fixed-count mutation phase on client 0: each op inserts or
/// removes the seeded edge, then re-queries kmax.
fn mutation_phase(
    live: &mut Live,
    seed: u64,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<Vec<MutateOp>, String> {
    let (_, (from, to)) = edge(live, seed)?;
    let client = &mut live.clients[0];
    let mut served = Vec::with_capacity(MUTATE_OPS);
    for i in 0..MUTATE_OPS {
        let insert = i % 2 == 0;
        let call = ServeCall::Mutate {
            session: live.session.clone(),
            mutation: if insert { "insert_edge" } else { "remove_edge" }.into(),
            from: from.clone(),
            to: to.clone(),
        };
        let class = OpClass::of_call(&call);
        let started = Instant::now();
        let mutated = tr.span("serve.mutate", |_| client.call(call));
        let mid = Instant::now();
        let requery = tr.span("serve.rewarm", |_| client.call(query(&live.session, KMAX)));
        let done = Instant::now();
        report
            .ops
            .record(class, (done - started).as_secs_f64() * 1e6);
        let retained = mutated
            .as_ref()
            .ok()
            .and_then(|r| r.body.get("retained_rungs").and_then(Json::as_usize));
        served.push(MutateOp {
            insert,
            applied: mutated.as_ref().is_ok_and(|r| r.status == 200),
            requery: requery.as_ref().ok().and_then(|r| reply_digest(r, KMAX)),
            mutate_us: (mid - started).as_secs_f64() * 1e6,
            rewarm_us: (done - mid).as_secs_f64() * 1e6,
            retained: retained.unwrap_or(0),
        });
    }
    Ok(served)
}

/// Hold every mutate op to batch solves on a locally mutated copy of
/// the graph: applied, and re-queried to the copy's answer.
fn verify_mutations(
    live: &Live,
    seed: u64,
    served: &[MutateOp],
    original: &Ladder,
    tally: &mut Tally,
) -> Result<(), String> {
    let ((u, v), (from, to)) = edge(live, seed)?;
    let mut local = live.entry.problem.cgraph().clone();
    local
        .insert_edge(u, v)
        .map_err(|e| format!("local copy rejected {u:?} -> {v:?}: {e}"))?;
    let inserted = ladder(&Problem::from_cgraph(local.clone()), seed);
    local.remove_edge(u, v);
    let removed = ladder(&Problem::from_cgraph(local), seed);
    if removed != *original {
        return Err("removing the inserted edge did not restore the batch ladder".into());
    }
    for (i, op) in served.iter().enumerate() {
        let expected = if op.insert { &inserted } else { &removed };
        let want = expected_digest(expected, KMAX);
        let ok = op.applied && op.requery.is_some() && op.requery == want;
        tally.op(ok, || {
            format!(
                "mutate #{i} ({from} -> {to}): applied {}, re-query {:x?}, expected {want:x?}",
                op.applied, op.requery
            )
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_counted_reply_is_an_op_and_a_wrong_one_fails() {
        let expected: Ladder = [(0, (vec![], 0)), (1, (vec![5], 0.5f64.to_bits()))]
            .into_iter()
            .collect();
        let right = |k| expected_digest(&expected, k);
        let mut answers: Answers = [((0, right(0)), 3), ((1, right(1)), 4)]
            .into_iter()
            .collect();
        assert_eq!(
            verify_answers(&answers, &expected),
            Tally {
                attempted: 7,
                failed: 0
            }
        );
        // A corrupted answer and a malformed reply fail once per reply.
        answers.insert((1, right(1).map(|d| d ^ 1)), 2);
        answers.insert((0, None), 1);
        assert_eq!(
            verify_answers(&answers, &expected),
            Tally {
                attempted: 10,
                failed: 3
            }
        );
    }
}
