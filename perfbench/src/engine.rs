//! The harness's own Greedy_All loop over the engine's public calls,
//! one span per call, plus the engine-layer metrics it yields. Every
//! workload runs it in its traced phase on its own graph, so the engine
//! layer is measured on each working-set size. Also the streamed build
//! (fp-scale into fp-graph) that `online-drift` and `powerlaw-1m` share,
//! with its layer metrics.

use crate::trace::Tracer;
use fp_core::graph::NodeId;
use fp_core::num::Wide128;
use fp_core::propagation::{CGraph, EngineScratch, FilterSet, ImpactEngine};
use fp_core::scale::{for_each_edge, Csr32, EdgeStream, MemBudget};
use std::collections::BTreeMap;

const MIB: f64 = 1024.0 * 1024.0;

/// Stream → `Csr32::from_stream` → `CGraph::from_csr`, inside the spans
/// `scale.build` and `graph.freeze`; returns the graph and the ledger
/// that charged the build.
pub fn build_streamed<S: EdgeStream>(
    stream: &mut S,
    source: NodeId,
    tr: &mut Tracer,
) -> Result<(CGraph, MemBudget), String> {
    let budget = MemBudget::unlimited();
    let csr = tr
        .span("scale.build", |_| Csr32::from_stream(stream, &budget))
        .map_err(|e| format!("CSR build failed: {e}"))?;
    let cg = tr
        .span("graph.freeze", |_| CGraph::from_csr(csr.into_csr(), source))
        .map_err(|e| format!("freeze failed: {e}"))?;
    Ok((cg, budget))
}

/// The fp-scale and graph layers of the builds [`build_streamed`] made
/// into `tr`: median build and freeze time, build time per edge, the
/// ledger peak, topological identity, and one drain of `stream` inside
/// `scale.stream`, which must replay exactly the graph's edges.
pub fn scale_layers<S: EdgeStream>(
    stream: &mut S,
    cg: &CGraph,
    budget: &MemBudget,
    tr: &mut Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let median_s = |tr: &Tracer, name| crate::stats::median(&tr.durations_us(name)) / 1e6;
    let build_s = median_s(tr, "scale.build");
    layers.insert("scale.build_s", build_s);
    layers.insert(
        "scale.build_ns_per_edge",
        build_s * 1e9 / cg.edge_count() as f64,
    );
    layers.insert("scale.ledger_peak_mb", budget.peak() as f64 / MIB);
    layers.insert("graph.freeze_s", median_s(tr, "graph.freeze"));
    layers.insert("graph.topo_identity_frac", topo_identity_frac(cg));
    let mut chunk = Vec::new();
    let mut edges = 0usize;
    tr.span("scale.stream", |_| {
        for_each_edge(stream, &mut chunk, |_, _| {
            edges += 1;
            Ok(())
        })
    })
    .map_err(|e| format!("stream drain failed: {e}"))?;
    layers.insert("scale.stream_s", tr.total_s("scale.stream"));
    if edges != cg.edge_count() {
        return Err(format!(
            "stream replayed {edges} edges, the graph holds {}",
            cg.edge_count()
        ));
    }
    Ok(())
}

/// Registry names the engine's always-on instrumentation writes.
const FORWARD_HIST: &str = "fp_engine_forward_frontier_nodes";
const BACKWARD_HIST: &str = "fp_engine_backward_frontier_nodes";
const DENSE_FLIPS: &str = "fp_engine_dense_flips_total";

/// Greedy_All with budget `k`, step for step what
/// `GreedyAll::place_with_scratch` does (final-pick shortcut included),
/// so its picks must equal the library's.
pub fn greedy_all_traced(
    cg: &CGraph,
    k: usize,
    scratch: EngineScratch<Wide128>,
    tr: &mut Tracer,
) -> (Vec<NodeId>, EngineScratch<Wide128>) {
    let filters = FilterSet::empty(cg.node_count());
    let mut engine = tr.span("engine.init", |_| {
        ImpactEngine::<Wide128>::with_scratch(cg, filters, scratch)
    });
    for round in 0..k {
        let Some(best) = tr.span("engine.best_candidate", |_| engine.best_candidate()) else {
            break;
        };
        if round + 1 == k {
            let (mut filters, scratch) = engine.into_parts();
            filters.insert(best);
            return (filters.nodes().to_vec(), scratch);
        }
        tr.span("engine.insert_filter", |_| engine.insert_filter(best));
    }
    let (filters, scratch) = engine.into_parts();
    (filters.nodes().to_vec(), scratch)
}

/// The engine counters a solve moves, read from the metrics registry.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounts {
    forward_nodes: u64,
    backward_nodes: u64,
    dense_flips: u64,
}

impl EngineCounts {
    /// Current registry totals.
    pub fn now() -> Self {
        let snap = fp_obs::registry().snapshot();
        let hist_sum = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name)
                .map_or(0, |h| h.sum)
        };
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        Self {
            forward_nodes: hist_sum(FORWARD_HIST),
            backward_nodes: hist_sum(BACKWARD_HIST),
            dense_flips: counter(DENSE_FLIPS),
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            forward_nodes: self.forward_nodes - before.forward_nodes,
            backward_nodes: self.backward_nodes - before.backward_nodes,
            dense_flips: self.dense_flips - before.dense_flips,
        }
    }
}

/// Run [`greedy_all_traced`] `solves` times on `cg` and return the picks
/// of each solve. Per-solve engine layers go into `layers`: span sums
/// for init / argmax / insert, registry deltas for the frontier sizes
/// and dense flips, and insert time per touched node. `scratch` is
/// adopted and handed back, so a warm caller times warm solves. `tr`
/// must hold no other `engine.*` spans.
pub fn measure(
    cg: &CGraph,
    k: usize,
    solves: usize,
    scratch: &mut EngineScratch<Wide128>,
    tr: &mut Tracer,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Vec<Vec<NodeId>> {
    let before = EngineCounts::now();
    let mut picks = Vec::with_capacity(solves);
    for _ in 0..solves {
        let (p, s) = tr.span("engine.solve", |tr| {
            greedy_all_traced(cg, k, std::mem::take(scratch), tr)
        });
        *scratch = s;
        picks.push(p);
    }
    let counts = EngineCounts::now().since(before);
    let per = |x: f64| x / solves.max(1) as f64;
    let insert_s = per(tr.total_s("engine.insert_filter"));
    let touched = per((counts.forward_nodes + counts.backward_nodes) as f64);
    layers.insert("engine.init_s", per(tr.total_s("engine.init")));
    layers.insert("engine.argmax_s", per(tr.total_s("engine.best_candidate")));
    layers.insert("engine.insert_s", insert_s);
    layers.insert("engine.forward_nodes", per(counts.forward_nodes as f64));
    layers.insert("engine.backward_nodes", per(counts.backward_nodes as f64));
    layers.insert("engine.dense_flips", per(counts.dense_flips as f64));
    if touched > 0.0 {
        layers.insert("engine.ns_per_node", insert_s * 1e9 / touched);
    }
    picks
}

/// Share of topological positions `i` with `topo()[i] == i`: 1.0 when
/// index order is the frozen order, near 0 when every frontier pass
/// reads counters at scattered addresses.
pub fn topo_identity_frac(cg: &CGraph) -> f64 {
    let topo = cg.topo();
    let same = topo
        .iter()
        .enumerate()
        .filter(|&(i, v)| v.index() == i)
        .count();
    same as f64 / topo.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::algorithms::GreedyAll;
    use fp_core::graph::DiGraph;

    #[test]
    fn traced_loop_picks_what_the_library_picks() {
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
        let cg = CGraph::new(&g, NodeId::new(0)).unwrap();
        for k in 0..=4 {
            let (lib, _) =
                GreedyAll::<Wide128>::place_with_scratch(&cg, k, EngineScratch::default());
            let mut layers = BTreeMap::new();
            let ours = measure(
                &cg,
                k,
                2,
                &mut EngineScratch::default(),
                &mut Tracer::new(true),
                &mut layers,
            );
            assert_eq!(ours, vec![lib.nodes().to_vec(); 2], "k={k}");
        }
        assert!((0.0..=1.0).contains(&topo_identity_frac(&cg)));
    }
}
