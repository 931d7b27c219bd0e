//! The parameterized neighborhood-sampling engine.
//!
//! One generic routine implements node-wise sampling with every design choice
//! of the paper's Figure-2 exploration exposed as a parameter:
//!
//! * the global→local [`IdMap`] implementation (type parameter `M`);
//! * the without-replacement [`NeighborSet`] implementation (type
//!   parameter `S`);
//! * fused versus two-phase MFG construction ([`EngineOpts::fused`]);
//! * capacity pre-reservation ([`EngineOpts::reserve`]);
//! * the without-replacement algorithm ([`SampleAlgo`]).
//!
//! Whatever the choices, every destination gets exactly
//! `min(degree, fanout)` distinct neighbours, each subset equally likely.
//!
//! The tuned production path ([`crate::FastSampler`]) is this engine
//! monomorphized at the winning configuration.

#![expect(
    clippy::indexing_slicing,
    reason = "frontier indices are below the node count mapped so far; picks are positions below the row's length; a write at node_ids[len] is checked against node_capacity's bound and panics rather than grows"
)]

use crate::mfg::{MessageFlowGraph, MfgLayer};
use crate::structures::{IdMap, NeighborSet};
use salient_tensor::rng::Rng;
use salient_graph::{CsrGraph, NodeId};

/// Algorithm for drawing `d` distinct neighbor positions out of `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SampleAlgo {
    /// Repeatedly draw a uniform index and reject duplicates via the
    /// [`NeighborSet`]. This is what PyG's C++ sampler does.
    Rejection,
    /// A partial Fisher–Yates shuffle over a *virtual* index array, tracking
    /// displaced entries in a small association list — no O(degree) copy, no
    /// rejection loop.
    PartialFisherYates,
    /// Floyd's algorithm: for `j` in `degree − d .. degree` draw `t` uniform
    /// in `0..=j` and take `t`, or `j` if `t` is already taken — exactly one
    /// bounded draw per position, no retry. When `2·fanout > degree` it
    /// draws the `degree − fanout` positions to *leave out* and keeps the
    /// rest (the complement of a uniform subset is a uniform subset). Up to
    /// 64 neighbours the taken set is a `u64` in a register and "already
    /// taken?" a select, not a branch; the [`NeighborSet`] serves only
    /// longer adjacency lists.
    Floyd,
}

/// Non-type design choices of the sampling engine.
#[derive(Clone, Copy, Debug)]
pub struct EngineOpts {
    /// Map globals to locals while sampling (`true`) or in a second pass
    /// over a neighbor buffer (`false`).
    pub fused: bool,
    /// Pre-reserve the id map for the expected frontier growth each hop.
    pub reserve: bool,
    /// Without-replacement sampling algorithm.
    pub algo: SampleAlgo,
}

impl Default for EngineOpts {
    fn default() -> Self {
        EngineOpts {
            fused: true,
            reserve: false,
            algo: SampleAlgo::Floyd,
        }
    }
}

/// Rejection variant: appends `fanout` distinct positions in `0..degree`.
#[inline]
fn sample_rejection<S: NeighborSet>(
    degree: usize,
    fanout: usize,
    set: &mut S,
    rng: &mut impl Rng,
    picks: &mut Vec<u32>,
) {
    set.clear();
    while picks.len() < fanout {
        let idx = rng.random_range(0..degree as u32);
        if set.insert(idx) {
            picks.push(idx);
        }
    }
}

/// Partial Fisher–Yates over a virtual `0..degree` array: `swaps` records
/// displaced values sparsely.
#[inline]
fn sample_partial_fy(
    degree: usize,
    fanout: usize,
    swaps: &mut Vec<(u32, u32)>,
    rng: &mut impl Rng,
    picks: &mut Vec<u32>,
) {
    swaps.clear();
    let lookup = |swaps: &[(u32, u32)], i: u32| {
        swaps
            .iter()
            .rev()
            .find(|&&(k, _)| k == i)
            .map(|&(_, v)| v)
            .unwrap_or(i)
    };
    for i in 0..fanout as u32 {
        let j = rng.random_range(i..degree as u32);
        let vj = lookup(swaps, j);
        let vi = lookup(swaps, i);
        // Virtual swap: position j takes i's value; position i's value (vj)
        // is the one drawn.
        swaps.push((j, vi));
        picks.push(vj);
    }
}

/// Floyd's algorithm with the complement rule (see [`SampleAlgo::Floyd`]).
/// Requires `fanout < degree`.
///
/// Most adjacency lists are short: up to [`MASK_BITS`] positions the taken
/// set is a register, there is nothing to clear, and the mask itself is the
/// result, read out in ascending order; only longer lists go through the
/// [`NeighborSet`] into `picks`.
#[inline]
fn sample_floyd<S: NeighborSet>(
    degree: usize,
    fanout: usize,
    set: &mut S,
    rng: &mut impl Rng,
    picks: &mut Vec<u32>,
) -> Drawn {
    // Draw the smaller side: the positions to keep, or those to leave out.
    let complement = 2 * fanout > degree;
    let draws = if complement { degree - fanout } else { fanout };
    // Step j takes a uniform t in 0..=j, or j itself (never taken before
    // this step) when t is: every draws-subset is equally likely.
    let steps = (degree - draws) as u32..degree as u32;
    if degree <= MASK_BITS {
        let mut mask = 0u64;
        for j in steps {
            let t = rng.random_range(0..=j);
            mask |= 1 << std::hint::select_unpredictable(mask & (1 << t) != 0, j, t);
        }
        if complement {
            mask = !mask & (u64::MAX >> (MASK_BITS - degree));
        }
        Drawn::Mask(mask)
    } else {
        set.clear();
        for j in steps {
            let t = rng.random_range(0..=j);
            if set.insert(t) {
                picks.push(t);
            } else {
                set.insert(j);
                picks.push(j);
            }
        }
        if complement {
            // What was drawn is what to leave out, and the set holds it:
            // `insert` answers "was it left in?" for each position in turn
            // (that it also fills the set is harmless, the next node clears
            // it).
            picks.clear();
            picks.extend((0..degree as u32).filter(|&idx| set.insert(idx)));
        }
        Drawn::Listed
    }
}

/// Adjacency lists up to this long are deduplicated in a `u64`.
const MASK_BITS: usize = 64;

/// How many frontier nodes ahead of the one being sampled the adjacency row
/// is prefetched. The rows of a frontier are scattered over the whole edge
/// array, so on a graph beyond the caches each is a miss the draw would
/// otherwise wait for.
const PREFETCH_AHEAD: usize = 4;

/// How many frontier nodes ahead the row pointers are prefetched: the
/// adjacency prefetch reads `indptr[v]` to find its row, and would wait on
/// that load if the pointers were not already on their way.
const ROW_PTR_AHEAD: usize = 2 * PREFETCH_AHEAD;

/// Hints the row pointers of frontier node `i + ROW_PTR_AHEAD` and the
/// adjacency row of node `i + PREFETCH_AHEAD`, those that exist.
#[inline]
fn prefetch_ahead(graph: &CsrGraph, node_ids: &[NodeId], i: usize) {
    if let Some(&v) = node_ids.get(i + ROW_PTR_AHEAD) {
        graph.prefetch_row_ptr(v);
    }
    if let Some(&v) = node_ids.get(i + PREFETCH_AHEAD) {
        graph.prefetch_neighbors(v);
    }
}

/// Starts a hop's prefetch at its first node: what [`prefetch_ahead`] would
/// have hinted for the nodes before the first, so no node of the hop is
/// sampled unhinted.
#[inline]
fn prefetch_hop_start(graph: &CsrGraph, node_ids: &[NodeId]) {
    for &v in node_ids.iter().take(ROW_PTR_AHEAD) {
        graph.prefetch_row_ptr(v);
    }
    for &v in node_ids.iter().take(PREFETCH_AHEAD) {
        graph.prefetch_neighbors(v);
    }
}

/// Where [`draw`] left a destination's positions.
#[derive(Clone, Copy, Debug)]
enum Drawn {
    /// All of `0..degree`: the fanout covers the whole neighbourhood.
    All(u32),
    /// The set bits of a mask, ascending: Floyd's draw up to degree 64.
    Mask(u64),
    /// The `picks` buffer.
    Listed,
}

/// Draws `min(degree, fanout)` distinct positions in `0..degree` with the
/// chosen algorithm. Every position of a destination is drawn before any is
/// mapped to a local id, so the id-map probes of one node (independent
/// loads) are not serialised behind its RNG draws. Most destinations leave
/// their positions in a register (a whole neighbourhood, or Floyd's mask);
/// the rest in `picks`.
#[inline]
fn draw<S: NeighborSet>(
    algo: SampleAlgo,
    degree: usize,
    fanout: usize,
    set: &mut S,
    swaps: &mut Vec<(u32, u32)>,
    rng: &mut impl Rng,
    picks: &mut Vec<u32>,
) -> Drawn {
    if degree <= fanout {
        return Drawn::All(degree as u32);
    }
    picks.clear();
    match algo {
        SampleAlgo::Rejection => sample_rejection(degree, fanout, set, rng, picks),
        SampleAlgo::PartialFisherYates => sample_partial_fy(degree, fanout, swaps, rng, picks),
        SampleAlgo::Floyd => return sample_floyd(degree, fanout, set, rng, picks),
    }
    Drawn::Listed
}

/// Calls `f` with each position of `drawn`, in the order drawn.
#[inline(always)]
fn for_each_position(drawn: Drawn, picks: &[u32], mut f: impl FnMut(u32)) {
    match drawn {
        Drawn::All(degree) => (0..degree).for_each(f),
        Drawn::Mask(mut mask) => {
            while mask != 0 {
                f(mask.trailing_zeros());
                mask &= mask - 1;
            }
        }
        Drawn::Listed => picks.iter().for_each(|&idx| f(idx)),
    }
}

/// Scratch buffers reused across batches to avoid allocation churn.
#[derive(Debug, Default)]
pub struct EngineScratch {
    /// Two-phase neighbor buffer: `(dst_local, neighbor_global)` pairs.
    pairs: Vec<(u32, NodeId)>,
    /// Fisher–Yates displaced-entry association list.
    swaps: Vec<(u32, u32)>,
    /// Positions drawn for one destination, before they are mapped.
    picks: Vec<u32>,
}

/// Room for every node a batch can reach, plus the slot the unconditional
/// write of a neighbour needs once every node is mapped. Each hop samples
/// from every node so far, so it multiplies the count by at most
/// `fanout + 1`, and no MFG holds more nodes than the graph.
fn node_capacity(batch: usize, fanouts: &[usize], num_nodes: usize) -> usize {
    let reach = fanouts.iter().fold(batch, |n, &f| n.saturating_mul(f.saturating_add(1)));
    reach.min(num_nodes) + 1
}

/// Samples a multi-hop MFG for `batch` with the given per-hop `fanouts`
/// (PyG order: `fanouts[0]` expands the batch nodes).
///
/// # Panics
///
/// Panics if `batch` is empty, contains duplicates, or `fanouts` is empty.
pub fn sample_with<M: IdMap, S: NeighborSet>(
    graph: &CsrGraph,
    batch: &[NodeId],
    fanouts: &[usize],
    opts: EngineOpts,
    map: &mut M,
    set: &mut S,
    scratch: &mut EngineScratch,
    rng: &mut impl Rng,
) -> MessageFlowGraph {
    sample_hinting(graph, batch, fanouts, opts, map, set, scratch, rng, |_| {})
}

/// [`sample_with`], calling `on_new(v)` for each node `v` that gets a local
/// id, seeds included, once the destination that reached it is mapped.
/// `on_new` may only hint (prefetch what the caller reads next): the MFG and
/// the RNG stream are those of `sample_with`.
///
/// A neighbour is mapped without a branch on whether it is new: its id is
/// written at `node_ids[len]` and `len` advances by the map's answer, so
/// both lengths stay in registers and `node_ids` is allocated once, at its
/// bound ([`node_capacity`]), and written in place; each hop's edge lists
/// are allocated once at `frontier × fanout` edges and filled one
/// destination at a time.
pub(crate) fn sample_hinting<M: IdMap, S: NeighborSet>(
    graph: &CsrGraph,
    batch: &[NodeId],
    fanouts: &[usize],
    opts: EngineOpts,
    map: &mut M,
    set: &mut S,
    scratch: &mut EngineScratch,
    rng: &mut impl Rng,
    mut on_new: impl FnMut(NodeId),
) -> MessageFlowGraph {
    assert!(!batch.is_empty(), "cannot sample an empty batch");
    assert!(!fanouts.is_empty(), "need at least one fanout");
    let EngineScratch { pairs, swaps, picks } = scratch;

    map.begin(graph.num_nodes());
    // Every slot below `len` holds a mapped node; the one at `len` is free
    // to be written, and a bounds-checked write catches a map that claims
    // more new nodes than the bound allows.
    let mut node_ids: Vec<NodeId> = vec![0; node_capacity(batch.len(), fanouts, graph.num_nodes())];
    let mut len = 0usize;
    for &v in batch {
        let (_, new) = map.get_or_insert(v, len as u32);
        assert!(new, "duplicate node {v} in batch");
        node_ids[len] = v;
        len += 1;
        on_new(v);
    }

    let mut layers_rev: Vec<MfgLayer> = Vec::with_capacity(fanouts.len());
    let mut frontier_len = len;

    for &fanout in fanouts {
        if opts.reserve {
            map.reserve(frontier_len * fanout);
        }
        // A destination keeps at most `fanout` neighbours and at most all of
        // them, so a hop has at most that many edges.
        let edge_cap = frontier_len.saturating_mul(fanout).min(graph.num_edges());
        let mut edge_src: Vec<u32> = Vec::with_capacity(edge_cap);
        let mut edge_dst: Vec<u32> = Vec::with_capacity(edge_cap);

        prefetch_hop_start(graph, &node_ids[..frontier_len]);
        if opts.fused {
            let mut ne = 0usize;
            let src = edge_src.spare_capacity_mut();
            let dst = edge_dst.spare_capacity_mut();
            for i in 0..frontier_len {
                prefetch_ahead(graph, &node_ids[..frontier_len], i);
                let neighbors = graph.neighbors(node_ids[i]);
                let drawn = draw(opts.algo, neighbors.len(), fanout, set, swaps, rng, picks);
                let first_new = len;
                for_each_position(drawn, picks, |idx| {
                    let u = neighbors[idx as usize];
                    let (local, new) = map.get_or_insert(u, len as u32);
                    node_ids[len] = u;
                    len += usize::from(new);
                    src[ne].write(local);
                    dst[ne].write(i as u32);
                    ne += 1;
                });
                node_ids[first_new..len].iter().for_each(|&u| on_new(u));
            }
            // SAFETY: the loop wrote src[..ne] and dst[..ne], each write checked against capacity.
            unsafe {
                edge_src.set_len(ne);
                edge_dst.set_len(ne);
            }
        } else {
            // Phase A: sample into a (dst, neighbor) buffer.
            pairs.clear();
            for i in 0..frontier_len {
                prefetch_ahead(graph, &node_ids[..frontier_len], i);
                let neighbors = graph.neighbors(node_ids[i]);
                let drawn = draw(opts.algo, neighbors.len(), fanout, set, swaps, rng, picks);
                for_each_position(drawn, picks, |idx| pairs.push((i as u32, neighbors[idx as usize])));
            }
            // Phase B: map globals to locals and build edge lists.
            let first_new = len;
            edge_src.extend(pairs.iter().map(|&(_, u)| {
                let (local, new) = map.get_or_insert(u, len as u32);
                node_ids[len] = u;
                len += usize::from(new);
                local
            }));
            edge_dst.extend(pairs.iter().map(|&(dst, _)| dst));
            node_ids[first_new..len].iter().for_each(|&u| on_new(u));
        }

        layers_rev.push(MfgLayer {
            edge_src,
            edge_dst,
            n_src: len,
            n_dst: frontier_len,
        });
        frontier_len = len;
    }
    node_ids.truncate(len);
    map.end(&node_ids);

    // Hops were built output-side first; forward order is the reverse, and
    // each layer's n_src must be the final node count of the *next* sampled
    // hop. After reversal that is already encoded: layer k (forward) was
    // sampled at step L-1-k and its n_src equals the node count at that
    // point... except earlier hops were recorded before later hops extended
    // `node_ids`. Fix up: forward layer 0 reads the full node list.
    layers_rev.reverse();
    let mut expected_src = node_ids.len();
    for layer in &mut layers_rev {
        layer.n_src = expected_src;
        expected_src = layer.n_dst;
    }

    MessageFlowGraph {
        node_ids,
        layers: layers_rev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structures::{ArrayNeighborSet, FlatIdMap, StdIdMap, StdNeighborSet};
    use salient_graph::DatasetConfig;

    fn line_graph() -> CsrGraph {
        // 0 - 1 - 2 - 3 (undirected)
        CsrGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)])
    }

    #[test]
    fn one_hop_full_fanout_takes_all_neighbors() {
        let g = line_graph();
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(0);
        let mfg = sample_with(
            &g,
            &[1],
            &[10],
            EngineOpts::default(),
            &mut FlatIdMap::default(),
            &mut ArrayNeighborSet::new(),
            &mut EngineScratch::default(),
            &mut rng,
        );
        mfg.validate().unwrap();
        assert_eq!(mfg.batch_size(), 1);
        assert_eq!(mfg.node_ids[0], 1);
        // Node 1 has neighbors {0, 2}.
        let mut rest = mfg.node_ids[1..].to_vec();
        rest.sort_unstable();
        assert_eq!(rest, vec![0, 2]);
        assert_eq!(mfg.layers[0].num_edges(), 2);
    }

    #[test]
    fn two_hop_expansion_chains() {
        let g = line_graph();
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(0);
        let mfg = sample_with(
            &g,
            &[0],
            &[5, 5],
            EngineOpts::default(),
            &mut FlatIdMap::default(),
            &mut ArrayNeighborSet::new(),
            &mut EngineScratch::default(),
            &mut rng,
        );
        mfg.validate().unwrap();
        // 0 -> 1 -> {0, 2}: nodes {0, 1, 2}.
        assert_eq!(mfg.num_nodes(), 3);
        assert_eq!(mfg.layers.len(), 2);
        assert_eq!(mfg.layers[0].n_src, 3);
        assert_eq!(mfg.layers.last().unwrap().n_dst, 1);
    }

    #[test]
    fn fanout_bounds_respected_and_no_duplicate_edges() {
        let ds = DatasetConfig::tiny(3).build();
        let batch: Vec<NodeId> = ds.splits.train[..32].to_vec();
        for algo in [SampleAlgo::Rejection, SampleAlgo::PartialFisherYates, SampleAlgo::Floyd] {
            for fused in [true, false] {
                let mut rng = salient_tensor::rng::StdRng::seed_from_u64(9);
                let mfg = sample_with(
                    &ds.graph,
                    &batch,
                    &[7, 4],
                    EngineOpts {
                        fused,
                        reserve: true,
                        algo,
                    },
                    &mut FlatIdMap::default(),
                    &mut ArrayNeighborSet::new(),
                    &mut EngineScratch::default(),
                    &mut rng,
                );
                mfg.validate().unwrap();
                for (layer, cap) in mfg.layers.iter().rev().zip([7usize, 4]) {
                    let mut per_dst = std::collections::HashMap::new();
                    for (&s, &d) in layer.edge_src.iter().zip(layer.edge_dst.iter()) {
                        let entry: &mut Vec<u32> = per_dst.entry(d).or_default();
                        assert!(!entry.contains(&s), "duplicate sampled neighbor");
                        entry.push(s);
                    }
                    for (d, ns) in per_dst {
                        let global = mfg.node_ids[d as usize];
                        let degree = ds.graph.degree(global);
                        assert!(
                            ns.len() <= cap.min(degree),
                            "dst {d}: {} sampled, cap {cap}, degree {degree}",
                            ns.len()
                        );
                        // Degree >= fanout must yield exactly fanout samples.
                        if degree >= cap {
                            assert_eq!(ns.len(), cap);
                        } else {
                            assert_eq!(ns.len(), degree, "low degree takes all");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sampled_edges_exist_in_graph() {
        let ds = DatasetConfig::tiny(4).build();
        let batch: Vec<NodeId> = ds.splits.train[..16].to_vec();
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(2);
        let mfg = sample_with(
            &ds.graph,
            &batch,
            &[10, 5],
            EngineOpts::default(),
            &mut FlatIdMap::default(),
            &mut ArrayNeighborSet::new(),
            &mut EngineScratch::default(),
            &mut rng,
        );
        for layer in &mfg.layers {
            for (&s, &d) in layer.edge_src.iter().zip(layer.edge_dst.iter()) {
                let gs = mfg.node_ids[s as usize];
                let gd = mfg.node_ids[d as usize];
                assert!(
                    ds.graph.neighbors(gd).binary_search(&gs).is_ok(),
                    "edge ({gs} -> {gd}) not in graph"
                );
            }
        }
    }

    #[test]
    fn variants_agree_on_node_set_for_full_expansion() {
        // With fanouts >= max degree every variant must produce the exact
        // L-hop neighborhood, independent of data structures and RNG.
        let ds = DatasetConfig::tiny(5).build();
        let batch: Vec<NodeId> = ds.splits.train[..8].to_vec();
        let big = vec![10_000usize; 2];
        let sorted_nodes = |mfg: &MessageFlowGraph| {
            let mut v = mfg.node_ids.clone();
            v.sort_unstable();
            v
        };
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(0);
        let a = sample_with(
            &ds.graph,
            &batch,
            &big,
            EngineOpts::default(),
            &mut FlatIdMap::default(),
            &mut ArrayNeighborSet::new(),
            &mut EngineScratch::default(),
            &mut rng,
        );
        let b = sample_with(
            &ds.graph,
            &batch,
            &big,
            EngineOpts {
                fused: false,
                reserve: false,
                algo: SampleAlgo::Rejection,
            },
            &mut StdIdMap::new(),
            &mut StdNeighborSet::new(),
            &mut EngineScratch::default(),
            &mut rng,
        );
        assert_eq!(sorted_nodes(&a), sorted_nodes(&b));
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn duplicate_batch_rejected() {
        let g = line_graph();
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(0);
        sample_with(
            &g,
            &[1, 1],
            &[2],
            EngineOpts::default(),
            &mut FlatIdMap::default(),
            &mut ArrayNeighborSet::new(),
            &mut EngineScratch::default(),
            &mut rng,
        );
    }

    #[test]
    fn partial_fy_is_uniform_without_replacement() {
        // Statistical check: sampling 2 of 4 positions ~ each position hit
        // with probability 1/2.
        let mut rng = salient_tensor::rng::StdRng::seed_from_u64(11);
        let mut counts = [0usize; 4];
        let mut swaps = Vec::new();
        let trials = 40_000;
        for _ in 0..trials {
            let mut seen = Vec::new();
            sample_partial_fy(4, 2, &mut swaps, &mut rng, &mut seen);
            assert_eq!(seen.len(), 2);
            assert_ne!(seen[0], seen[1], "without replacement");
            for &i in &seen {
                counts[i as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = c as f64 / trials as f64;
            assert!((p - 0.5).abs() < 0.02, "position {i} probability {p}");
        }
    }
}
