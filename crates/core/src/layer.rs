//! Phase 2 — layering each partition (paper Figure 3).
//!
//! For every partition `i`, a multi-source BFS from the partition boundary
//! labels each vertex with the *closest foreign partition* `L₀(v)` (eq. 8)
//! and its distance ("level"). Level-0 vertices pick the foreign partition
//! with the most incident cross-edges; deeper vertices take the majority
//! tag of their already-labelled neighbours one level closer to the
//! boundary — exactly the counting scheme of Figure 3. Ties break to the
//! smaller partition id (the paper breaks them arbitrarily).
//!
//! The products are `λ_ij` (how many vertices of `i` may migrate to `j`)
//! and per-vertex `(tag, level)` so the balancing phase can drain vertices
//! in boundary-first order.

use igp_graph::{CsrGraph, NodeId, PartId, NO_PART};
use rayon::prelude::*;

/// Result of layering all partitions.
#[derive(Clone, Debug)]
pub struct Layering {
    /// Number of partitions.
    pub num_parts: usize,
    /// `tag[v]` = closest foreign partition of `v` (`NO_PART` if none is
    /// reachable inside `v`'s partition subgraph).
    pub tag: Vec<PartId>,
    /// BFS level of `v` from its partition boundary (`u32::MAX` untagged).
    pub level: Vec<u32>,
    /// Dense `P×P` row-major movability counts: `lambda[i·P + j] = λ_ij`.
    pub lambda: Vec<u64>,
    /// Edge scans actually performed (one per neighbour visited), the
    /// cost model's work units.
    pub work: u64,
}

impl Layering {
    /// `λ_ij`.
    #[inline]
    pub fn lambda(&self, i: PartId, j: PartId) -> u64 {
        self.lambda[i as usize * self.num_parts + j as usize]
    }

    /// Ordered movement buckets: for each `(i, j)` the vertices of `i`
    /// tagged `j`, sorted by `(level, id)` — the boundary-first order the
    /// multilevel balancer drains (phase 3 collects only the buckets its
    /// LP drains, see `balance`).
    pub fn buckets(&self, assign: &[PartId]) -> Vec<Vec<NodeId>> {
        let p = self.num_parts;
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); p * p];
        // Collect (level, v) then sort each bucket.
        let mut tmp: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); p * p];
        for (v, (&t, &l)) in self.tag.iter().zip(&self.level).enumerate() {
            if t != NO_PART {
                tmp[assign[v] as usize * p + t as usize].push((l, v as NodeId));
            }
        }
        for (b, mut list) in buckets.iter_mut().zip(tmp) {
            list.sort_unstable();
            *b = list.into_iter().map(|(_, v)| v).collect();
        }
        buckets
    }
}

/// Member lists of every partition (ascending ids) plus one shared
/// index: `local_of[v]` is `v`'s position in its own partition's list.
/// Partitions are disjoint, so a single n-sized array serves all of them.
pub(crate) fn member_index(assign: &[PartId], p: usize) -> (Vec<Vec<NodeId>>, Vec<u32>) {
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); p];
    let mut local_of = vec![0u32; assign.len()];
    for (v, &q) in assign.iter().enumerate() {
        local_of[v] = members[q as usize].len() as u32;
        members[q as usize].push(v as NodeId);
    }
    (members, local_of)
}

/// Layer every partition (in parallel over partitions via rayon).
pub fn layer_partitions(g: &CsrGraph, assign: &[PartId], p: usize) -> Layering {
    debug_assert_eq!(assign.len(), g.num_vertices());
    let (members, local_of) = member_index(assign, p);
    let per_part: Vec<PartLayerOutput> = members
        .par_iter()
        .enumerate()
        .map(|(i, mem)| layer_one(g, assign, &local_of, i as PartId, mem))
        .collect();
    let n = g.num_vertices();
    let mut out = Layering {
        num_parts: p,
        tag: vec![NO_PART; n],
        level: vec![u32::MAX; n],
        lambda: vec![0; p * p],
        work: 0,
    };
    for (i, (labels, work)) in per_part.into_iter().enumerate() {
        out.work += work;
        for (v, t, l) in labels {
            out.tag[v as usize] = t;
            out.level[v as usize] = l;
            if t != NO_PART {
                out.lambda[i * p + t as usize] += 1;
            }
        }
    }
    out
}

/// One partition's layering result: `(vertex, tag, level)` labels plus
/// the work performed.
pub(crate) type PartLayerOutput = (Vec<(NodeId, PartId, u32)>, u64);

/// Layer a single partition `i` with members `members` (ascending) and
/// the shared position index `local_of` from [`member_index`]. Exposed
/// crate-wide so the SPMD driver can layer its owned partitions with the
/// identical kernel.
pub(crate) fn layer_one(
    g: &CsrGraph,
    assign: &[PartId],
    local_of: &[u32],
    i: PartId,
    members: &[NodeId],
) -> PartLayerOutput {
    let p_sentinel = u32::MAX;
    let mut work = 0u64;
    // Per-member state lives in dense arrays indexed by position in
    // `members`. A neighbour `u` is a member iff `assign[u] == i`, and then
    // `local_of[u]` is its position; the index is shared by all
    // partitions, so layering allocates nothing n-sized per partition.
    let m = members.len();
    let mut tag = vec![p_sentinel; m];
    let mut level = vec![u32::MAX; m];
    // Tag tally, indexed by partition id and grown on demand; every
    // entry is zeroed again right after the vertex that raised it.
    let mut counts: Vec<u32> = Vec::new();
    let mut touched: Vec<PartId> = Vec::new();

    // Level 0: boundary vertices pick the foreign partition with the most
    // incident edges (weighted by edge multiplicity = count of edges).
    let mut frontier: Vec<NodeId> = Vec::new();
    for (k, &v) in members.iter().enumerate() {
        let mut best: Option<(u32, PartId)> = None; // (count, part)
        touched.clear();
        for &u in g.neighbors(v) {
            work += 1;
            let q = assign[u as usize];
            if q != i {
                let qi = q as usize;
                if qi >= counts.len() {
                    counts.resize(qi + 1, 0);
                }
                if counts[qi] == 0 {
                    touched.push(q);
                }
                counts[qi] += 1;
            }
        }
        for &q in &touched {
            let c = counts[q as usize];
            counts[q as usize] = 0;
            match best {
                None => best = Some((c, q)),
                Some((bc, bq)) => {
                    if c > bc || (c == bc && q < bq) {
                        best = Some((c, q));
                    }
                }
            }
        }
        if let Some((_, q)) = best {
            tag[k] = q;
            level[k] = 0;
            frontier.push(v);
        }
    }

    // Inward sweep: untagged members adjacent to the frontier take the
    // majority tag of their level-L neighbours.
    let mut lvl = 0u32;
    let mut candidates: Vec<NodeId> = Vec::new();
    let mut in_candidates = vec![false; m];
    while !frontier.is_empty() {
        candidates.clear();
        for &v in &frontier {
            for &u in g.neighbors(v) {
                work += 1;
                if assign[u as usize] != i {
                    continue;
                }
                let lu = local_of[u as usize] as usize;
                if tag[lu] == p_sentinel && !in_candidates[lu] {
                    in_candidates[lu] = true;
                    candidates.push(u);
                }
            }
        }
        frontier.clear();
        for &v in &candidates {
            let k = local_of[v as usize] as usize;
            in_candidates[k] = false;
            let mut best: Option<(u32, PartId)> = None;
            touched.clear();
            // A candidate is interior (any vertex with a foreign
            // neighbour was tagged at level 0), so every neighbour is a
            // member.
            for &u in g.neighbors(v) {
                work += 1;
                debug_assert_eq!(assign[u as usize], i);
                let lu = local_of[u as usize] as usize;
                if level[lu] == lvl {
                    let q = tag[lu];
                    let qi = q as usize;
                    if qi >= counts.len() {
                        counts.resize(qi + 1, 0);
                    }
                    if counts[qi] == 0 {
                        touched.push(q);
                    }
                    counts[qi] += 1;
                }
            }
            for &q in &touched {
                let c = counts[q as usize];
                counts[q as usize] = 0;
                match best {
                    None => best = Some((c, q)),
                    Some((bc, bq)) => {
                        if c > bc || (c == bc && q < bq) {
                            best = Some((c, q));
                        }
                    }
                }
            }
            let (_, q) = best.expect("candidate must have a levelled neighbour");
            tag[k] = q;
            level[k] = lvl + 1;
            frontier.push(v);
        }
        lvl += 1;
    }

    let labels = members
        .iter()
        .enumerate()
        .map(|(k, &v)| {
            let t = if tag[k] == p_sentinel {
                NO_PART
            } else {
                tag[k]
            };
            (v, t, level[k])
        })
        .collect();
    (labels, work)
}

#[cfg(test)]
// Bucket/assignment indices are written `row * stride + col` even when
// the row is 0, keeping the flat-matrix layout visible.
#[allow(clippy::identity_op, clippy::erasing_op)]
mod tests {
    use super::*;
    use crate::testkit;
    use igp_graph::{generators, Partitioning};
    use proptest::prelude::*;

    /// The layering this module replaced: each partition builds its own
    /// n-sized position map (reference for the shared-index kernel).
    fn layer_partitions_reference(g: &CsrGraph, assign: &[PartId], p: usize) -> Layering {
        debug_assert_eq!(assign.len(), g.num_vertices());
        // Member lists.
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); p];
        for (v, &q) in assign.iter().enumerate() {
            members[q as usize].push(v as NodeId);
        }
        let per_part: Vec<PartLayerOutput> = members
            .par_iter()
            .enumerate()
            .map(|(i, mem)| layer_one_reference(g, assign, i as PartId, mem))
            .collect();
        let n = g.num_vertices();
        let mut out = Layering {
            num_parts: p,
            tag: vec![NO_PART; n],
            level: vec![u32::MAX; n],
            lambda: vec![0; p * p],
            work: 0,
        };
        for (i, (labels, work)) in per_part.into_iter().enumerate() {
            out.work += work;
            for (v, t, l) in labels {
                out.tag[v as usize] = t;
                out.level[v as usize] = l;
                if t != NO_PART {
                    out.lambda[i * p + t as usize] += 1;
                }
            }
        }
        out
    }

    fn layer_one_reference(
        g: &CsrGraph,
        assign: &[PartId],
        i: PartId,
        members: &[NodeId],
    ) -> PartLayerOutput {
        let p_sentinel = u32::MAX;
        let mut work = 0u64;
        // Local state, keyed by position in `members` via a lookup map over
        // vertex ids (index into dense arrays by vertex id; the graph is shared
        // so this wastes no per-partition allocation on big graphs only for
        // tags of foreign vertices — acceptable: one u32 + one u8 per vertex
        // would be n-sized per partition. Instead use a compact local index.)
        let local_of = {
            // Sparse position map: only member vertices get a slot.
            let mut map = vec![u32::MAX; g.num_vertices()];
            for (k, &v) in members.iter().enumerate() {
                map[v as usize] = k as u32;
            }
            map
        };
        let m = members.len();
        let mut tag = vec![p_sentinel; m];
        let mut level = vec![u32::MAX; m];
        let mut counts: Vec<u32> = Vec::new(); // scratch per-vertex tag counter
        let num_parts_hint = 64; // counts sized lazily below

        // Level 0: boundary vertices pick the foreign partition with the most
        // incident edges (weighted by edge multiplicity = count of edges).
        let mut frontier: Vec<NodeId> = Vec::new();
        for (k, &v) in members.iter().enumerate() {
            let mut best: Option<(u32, PartId)> = None; // (count, part)
            counts.clear();
            counts.resize(num_parts_hint, 0);
            let mut touched: Vec<PartId> = Vec::new();
            for &u in g.neighbors(v) {
                work += 1;
                let q = assign[u as usize];
                if q != i {
                    let qi = q as usize;
                    if qi >= counts.len() {
                        counts.resize(qi + 1, 0);
                    }
                    if counts[qi] == 0 {
                        touched.push(q);
                    }
                    counts[qi] += 1;
                }
            }
            for &q in &touched {
                let c = counts[q as usize];
                counts[q as usize] = 0;
                match best {
                    None => best = Some((c, q)),
                    Some((bc, bq)) => {
                        if c > bc || (c == bc && q < bq) {
                            best = Some((c, q));
                        }
                    }
                }
            }
            if let Some((_, q)) = best {
                tag[k] = q;
                level[k] = 0;
                frontier.push(v);
            }
        }

        // Inward sweep: untagged members adjacent to the frontier take the
        // majority tag of their level-L neighbours.
        let mut lvl = 0u32;
        let mut candidates: Vec<NodeId> = Vec::new();
        let mut in_candidates = vec![false; m];
        while !frontier.is_empty() {
            candidates.clear();
            for &v in &frontier {
                for &u in g.neighbors(v) {
                    work += 1;
                    let lu = local_of[u as usize];
                    if lu != u32::MAX
                        && tag[lu as usize] == p_sentinel
                        && !in_candidates[lu as usize]
                    {
                        in_candidates[lu as usize] = true;
                        candidates.push(u);
                    }
                }
            }
            frontier.clear();
            for &v in &candidates {
                let k = local_of[v as usize] as usize;
                in_candidates[k] = false;
                let mut best: Option<(u32, PartId)> = None;
                let mut touched: Vec<PartId> = Vec::new();
                for &u in g.neighbors(v) {
                    work += 1;
                    let lu = local_of[u as usize];
                    if lu != u32::MAX && level[lu as usize] == lvl {
                        let q = tag[lu as usize];
                        let qi = q as usize;
                        if qi >= counts.len() {
                            counts.resize(qi + 1, 0);
                        }
                        if counts[qi] == 0 {
                            touched.push(q);
                        }
                        counts[qi] += 1;
                    }
                }
                for &q in &touched {
                    let c = counts[q as usize];
                    counts[q as usize] = 0;
                    match best {
                        None => best = Some((c, q)),
                        Some((bc, bq)) => {
                            if c > bc || (c == bc && q < bq) {
                                best = Some((c, q));
                            }
                        }
                    }
                }
                let (_, q) = best.expect("candidate must have a levelled neighbour");
                tag[k] = q;
                level[k] = lvl + 1;
                frontier.push(v);
            }
            lvl += 1;
        }

        let labels = members
            .iter()
            .enumerate()
            .map(|(k, &v)| {
                let t = if tag[k] == p_sentinel {
                    NO_PART
                } else {
                    tag[k]
                };
                (v, t, level[k])
            })
            .collect();
        (labels, work)
    }

    proptest! {
        #![proptest_config(testkit::config(96))]

        /// The shared-index kernel labels every vertex, counts every λ and
        /// scans every edge exactly as the per-partition-map reference,
        /// on grids and on sparse random geometric graphs whose small
        /// components leave some partitions with unreachable vertices
        /// (`NO_PART`).
        #[test]
        fn layering_equals_reference(
            family in 0usize..2,
            n in 8usize..160,
            parts in 2usize..7,
            seed in any::<u64>(),
        ) {
            let g = match family {
                0 => generators::grid(n / 8 + 1, 8),
                _ => generators::random_geometric(n, 0.12, seed),
            };
            let assign = testkit::jagged_assign(g.num_vertices(), parts, 5, seed);
            let fast = layer_partitions(&g, &assign, parts);
            let slow = layer_partitions_reference(&g, &assign, parts);
            prop_assert_eq!(&fast.tag, &slow.tag);
            prop_assert_eq!(&fast.level, &slow.level);
            prop_assert_eq!(&fast.lambda, &slow.lambda);
            prop_assert_eq!(fast.work, slow.work);
        }
    }

    #[test]
    fn reference_corpus_reaches_no_part() {
        // The property's geometric family must really exercise NO_PART.
        let g = generators::random_geometric(120, 0.12, 7);
        let assign: Vec<PartId> = (0..120).map(|v| (v * 3 / 120) as PartId).collect();
        let lay = layer_partitions(&g, &assign, 3);
        assert!(lay.tag.contains(&NO_PART));
    }

    /// 1×8 path split in the middle.
    fn path_setup() -> (CsrGraph, Vec<PartId>) {
        let g = generators::path(8);
        (g, vec![0, 0, 0, 0, 1, 1, 1, 1])
    }

    #[test]
    fn path_levels_count_from_boundary() {
        let (g, assign) = path_setup();
        let lay = layer_partitions(&g, &assign, 2);
        // Partition 0: vertex 3 is boundary (level 0), 2 → 1, 1 → 2, 0 → 3.
        assert_eq!(lay.level[3], 0);
        assert_eq!(lay.level[2], 1);
        assert_eq!(lay.level[1], 2);
        assert_eq!(lay.level[0], 3);
        // All of partition 0 is movable only to partition 1.
        assert!(lay.tag[..4].iter().all(|&t| t == 1));
        assert!(lay.tag[4..].iter().all(|&t| t == 0));
        assert_eq!(lay.lambda(0, 1), 4);
        assert_eq!(lay.lambda(1, 0), 4);
        assert_eq!(lay.lambda(0, 0), 0);
    }

    #[test]
    fn grid_three_parts_majority_tags() {
        // 3×9 grid in three vertical bands of 3 columns each.
        let g = generators::grid(3, 9);
        let assign: Vec<PartId> = (0..27).map(|v| ((v % 9) / 3) as PartId).collect();
        let lay = layer_partitions(&g, &assign, 3);
        // Middle band borders both 0 and 2: columns 3 tag→0, column 5 tag→2.
        for r in 0..3 {
            assert_eq!(lay.tag[r * 9 + 3], 0);
            assert_eq!(lay.tag[r * 9 + 5], 2);
            assert_eq!(lay.level[r * 9 + 3], 0);
            assert_eq!(lay.level[r * 9 + 5], 0);
        }
        // λ row sums cover every vertex (graph fully layered).
        let total: u64 = lay.lambda.iter().sum();
        assert_eq!(total, 27);
        // Partition 0 can only send to 1 (not adjacent to 2).
        assert_eq!(lay.lambda(0, 2), 0);
        assert!(lay.lambda(0, 1) > 0);
    }

    #[test]
    fn level_zero_iff_boundary() {
        let g = generators::grid(6, 6);
        let assign: Vec<PartId> = (0..36).map(|v| if v % 6 < 3 { 0 } else { 1 }).collect();
        let part = Partitioning::from_assignment(&g, 2, assign.clone());
        let lay = layer_partitions(&g, &assign, 2);
        for v in g.vertices() {
            let is_boundary = part.is_boundary(&g, v);
            assert_eq!(
                lay.level[v as usize] == 0,
                is_boundary,
                "vertex {v}: level {} boundary {is_boundary}",
                lay.level[v as usize]
            );
        }
    }

    #[test]
    fn boundary_tag_picks_heaviest_cross_partition() {
        // Vertex 0 in part 0 with one neighbour in part 1 and two in part 2.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let assign = vec![0, 1, 2, 2];
        let lay = layer_partitions(&g, &assign, 3);
        assert_eq!(lay.tag[0], 2);
    }

    #[test]
    fn tie_breaks_to_smaller_partition() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let assign = vec![0, 2, 1];
        let lay = layer_partitions(&g, &assign, 3);
        assert_eq!(lay.tag[0], 1);
    }

    #[test]
    fn unreachable_interior_gets_no_part() {
        // Partition 0 = {0,1} ∪ {4,5} where {4,5} is a separate component
        // with no cross edges.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let assign = vec![0, 0, 1, 1, 0, 0];
        let lay = layer_partitions(&g, &assign, 2);
        assert_eq!(lay.tag[4], NO_PART);
        assert_eq!(lay.tag[5], NO_PART);
        assert_eq!(lay.level[4], u32::MAX);
        // λ only counts taggable vertices.
        assert_eq!(lay.lambda(0, 1), 2);
    }

    #[test]
    fn buckets_sorted_by_level() {
        let (g, assign) = path_setup();
        let lay = layer_partitions(&g, &assign, 2);
        let buckets = lay.buckets(&assign);
        // Bucket (0 → 1): vertices 3,2,1,0 in boundary-first order.
        assert_eq!(buckets[0 * 2 + 1], vec![3, 2, 1, 0]);
        assert_eq!(buckets[1 * 2 + 0], vec![4, 5, 6, 7]);
    }

    #[test]
    fn work_accounted() {
        let (g, assign) = path_setup();
        let lay = layer_partitions(&g, &assign, 2);
        assert!(lay.work >= 2 * g.num_edges() as u64);
    }
}
