//! Seeded benchmark inputs and their BFS ground truth.
//!
//! The graph is fixed: the AgroCyc stand-in at scale 1 with generator seed
//! 7 (13,969 vertices, 17,139 edges), as written by
//! `kreach generate AgroCyc --scale 1 --seed 7`. Everything the `--seed`
//! argument controls — query pairs, the update stream, the WAL debt — is
//! derived from it here, so one seed always yields one input set.

use kreach_baselines::{KHopReachability, OnlineBfs};
use kreach_datasets::workload::{QueryWorkload, WorkloadConfig};
use kreach_graph::{DiGraph, DynamicGraph, EdgeUpdate, GraphView, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Dataset behind every workload.
pub const DATASET: &str = "AgroCyc";
/// Generator seed of the dataset (the graph does not vary with `--seed`).
pub const GRAPH_SEED: u64 = 7;
/// Hop bound of every query; equal to the served index's k, so no query
/// takes the BFS fallback.
pub const K: u32 = 3;
/// Distinct read queries generated per run (requests cycle over them).
pub const QUERIES: usize = 200_000;
/// Acked, uncheckpointed updates the durable restart replays.
pub const WAL_DEBT: usize = 128;
/// Edges inserted by the writer and not yet removed never exceed this many,
/// which keeps the edge count stationary.
pub const MAX_LIVE_INSERTS: usize = 256;

/// The benchmark graph, exactly as `kreach generate` writes it.
pub fn generate_graph() -> DiGraph {
    kreach_datasets::registry::spec_by_name(DATASET)
        .expect("AgroCyc is a registered dataset")
        .scaled(1)
        .generate(GRAPH_SEED)
}

/// Independent RNG streams per input kind, all derived from `--seed`.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// Uniform random `(s, t)` pairs.
pub fn uniform_queries(g: &DiGraph, seed: u64, n: usize) -> Vec<(VertexId, VertexId)> {
    let config = WorkloadConfig {
        queries: n,
        seed: rng(seed, 1).gen(),
    };
    QueryWorkload::uniform(g, config).pairs().to_vec()
}

/// k-hop BFS ground truth (`kreach-baselines`), memoized so repeated pairs
/// cost one search.
pub fn bfs_truth<G: GraphView>(g: &G, pairs: &[(VertexId, VertexId)]) -> Vec<bool> {
    let bfs = OnlineBfs::new(g);
    let mut memo: HashMap<(VertexId, VertexId), bool> = HashMap::new();
    pairs
        .iter()
        .map(|&(s, t)| {
            *memo
                .entry((s, t))
                .or_insert_with(|| bfs.khop_reachable(s, t, K))
        })
        .collect()
}

/// The mutation inputs of one seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Updates {
    /// Inserts acked before the simulated crash and never checkpointed.
    /// Each one alone makes its `(u, v)` pair k-reachable in the graph
    /// after the whole debt, so a query on that pair shows whether it
    /// survived the restart.
    pub debt: Vec<EdgeUpdate>,
    /// The writer's stream after the restart: inserts of absent edges and
    /// removals of earlier inserts (the debt included), with at most
    /// [`MAX_LIVE_INSERTS`] inserts live at any time.
    pub stream: Vec<EdgeUpdate>,
}

impl Updates {
    /// Generates `debt` debt inserts and a `stream` of writer updates.
    pub fn generate(g: &DiGraph, seed: u64, debt: usize, stream: usize) -> Updates {
        let debt = debt_inserts(g, seed, debt);
        let mut shadow = DynamicGraph::new(g.clone());
        for &u in &debt {
            shadow.apply(u);
        }
        let mut live: Vec<(VertexId, VertexId)> = debt.iter().map(|u| u.endpoints()).collect();
        let mut rng = rng(seed, 3);
        let n = g.vertex_count() as u32;
        let mut out = Vec::with_capacity(stream);
        while out.len() < stream {
            let remove = match live.len() {
                0 => false,
                l if l >= MAX_LIVE_INSERTS => true,
                _ => rng.gen_bool(0.5),
            };
            let update = if remove {
                let (u, v) = live.swap_remove(rng.gen_range(0..live.len()));
                EdgeUpdate::Remove(u, v)
            } else {
                let (u, v) = absent_edge(&shadow, &mut rng, n);
                live.push((u, v));
                EdgeUpdate::Insert(u, v)
            };
            shadow.apply(update);
            out.push(update);
        }
        Updates { debt, stream: out }
    }
}

fn absent_edge(g: &DynamicGraph, rng: &mut StdRng, n: u32) -> (VertexId, VertexId) {
    loop {
        let (u, v) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
        if u != v && !g.has_edge(u, v) {
            return (u, v);
        }
    }
}

/// Picks `count` inserts whose pairs are k-unreachable without them, then
/// drops (and replaces) any whose pair another debt edge makes reachable,
/// until every debt edge is observable in the final graph on its own.
fn debt_inserts(g: &DiGraph, seed: u64, count: usize) -> Vec<EdgeUpdate> {
    let mut rng = rng(seed, 4);
    let n = g.vertex_count() as u32;
    let mut chosen: Vec<(VertexId, VertexId)> = Vec::new();
    loop {
        let mut shadow = DynamicGraph::new(g.clone());
        for &(u, v) in &chosen {
            shadow.insert_edge(u, v);
        }
        while chosen.len() < count {
            let (u, v) = absent_edge(&shadow, &mut rng, n);
            if !OnlineBfs::new(&shadow).khop_reachable(u, v, K) {
                shadow.insert_edge(u, v);
                chosen.push((u, v));
            }
        }
        let before = chosen.len();
        chosen.retain(|&(u, v)| {
            shadow.remove_edge(u, v);
            let flips = !OnlineBfs::new(&shadow).khop_reachable(u, v, K);
            shadow.insert_edge(u, v);
            flips
        });
        if chosen.len() == before {
            return chosen
                .into_iter()
                .map(|(u, v)| EdgeUpdate::Insert(u, v))
                .collect();
        }
    }
}

/// One update as a `POST /update` line.
pub fn update_line(update: EdgeUpdate) -> String {
    format!("{update}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_graph() -> DiGraph {
        kreach_graph::generators::erdos_renyi(400, 600, &mut StdRng::seed_from_u64(5))
    }

    #[test]
    fn benchmark_graph_has_the_documented_shape() {
        let g = generate_graph();
        assert_eq!((g.vertex_count(), g.edge_count()), (13_969, 17_139));
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        let g = small_graph();
        assert_eq!(uniform_queries(&g, 11, 500), uniform_queries(&g, 11, 500));
        assert_eq!(
            Updates::generate(&g, 11, 8, 300),
            Updates::generate(&g, 11, 8, 300)
        );
        assert_ne!(uniform_queries(&g, 11, 500), uniform_queries(&g, 12, 500));
        assert_ne!(
            Updates::generate(&g, 11, 8, 300).stream,
            Updates::generate(&g, 12, 8, 300).stream
        );
    }

    #[test]
    fn update_stream_is_effective_and_keeps_the_edge_count_stationary() {
        let g = small_graph();
        let updates = Updates::generate(&g, 3, 8, 4000);
        let mut shadow = DynamicGraph::new(g.clone());
        let m = g.edge_count();
        for &u in updates.debt.iter().chain(&updates.stream) {
            assert!(shadow.apply(u), "{u} must change the graph");
            let live = shadow.edge_count() - m;
            assert!(live <= MAX_LIVE_INSERTS, "{live} live inserts");
        }
        let removes = updates.stream.iter().filter(|u| !u.is_insert()).count();
        let share = removes as f64 / updates.stream.len() as f64;
        assert!((0.45..=0.55).contains(&share), "remove share {share}");
    }

    #[test]
    fn every_debt_insert_flips_its_own_pair_in_the_final_graph() {
        let g = small_graph();
        let updates = Updates::generate(&g, 9, 16, 0);
        assert_eq!(updates.debt.len(), 16);
        let mut shadow = DynamicGraph::new(g);
        for &u in &updates.debt {
            shadow.apply(u);
        }
        for &u in &updates.debt {
            let (s, t) = u.endpoints();
            assert!(OnlineBfs::new(&shadow).khop_reachable(s, t, K));
            shadow.remove_edge(s, t);
            assert!(!OnlineBfs::new(&shadow).khop_reachable(s, t, K));
            shadow.insert_edge(s, t);
        }
    }
}
