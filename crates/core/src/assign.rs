//! Phase 1 — assign an initial partition to the new vertices.
//!
//! Paper §2.1: every surviving vertex keeps its partition (`M'(v) = M(v)`),
//! and every new vertex takes the partition of the *nearest old vertex*
//! in `G'` (eq. 7). New vertices in components containing no old vertex
//! are clustered and each cluster goes to the least-loaded partition
//! (the paper's fallback strategy).

use igp_graph::traversal::{clusters_of, UNREACHABLE};
use igp_graph::{CsrGraph, IncrementalGraph, NodeId, PartId, Partitioning, NO_PART};

/// Statistics from the assignment phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AssignReport {
    /// Number of newly added vertices assigned.
    pub new_vertices: usize,
    /// Vertices assigned through the disconnected-cluster fallback.
    pub clustered: usize,
    /// Largest BFS distance from a new vertex to its seeding old vertex.
    pub max_dist: u32,
    /// Edge scans actually performed (one per neighbour visited) — feeds
    /// the cost model.
    pub work: u64,
}

/// Compute the initial mapping `M'` on the new graph.
///
/// Returns the full (total) assignment vector plus the report. The old
/// partitioning must cover `inc.old()`.
pub fn assign_new_vertices(
    inc: &IncrementalGraph,
    old_part: &Partitioning,
) -> (Vec<PartId>, AssignReport) {
    let g = inc.new_graph();
    let p = old_part.num_parts();
    let mut assign = igp_graph::partition::transfer_assignment(inc, old_part);
    let added: Vec<NodeId> = (0..g.num_vertices() as NodeId)
        .filter(|&v| assign[v as usize] == NO_PART)
        .collect();
    let mut report = AssignReport {
        new_vertices: added.len(),
        ..Default::default()
    };
    // The first partition to reach a new vertex claims it (= nearest old
    // vertex, eq. 7).
    let (owner, dist, work) = nearest_old_owner(g, &assign, &added);
    report.work = work;
    let mut orphans = false;
    for (k, &v) in added.iter().enumerate() {
        if owner[k] == NO_PART {
            orphans = true;
        } else {
            assign[v as usize] = owner[k];
            report.max_dist = report.max_dist.max(dist[k]);
        }
    }
    // Fallback: clusters of new vertices unreachable from any old vertex
    // go, whole, to the currently least-loaded partition.
    if orphans {
        let mut counts: Vec<u64> = vec![0; p];
        for &q in &assign {
            if q != NO_PART {
                counts[q as usize] += 1;
            }
        }
        let orphan: Vec<bool> = assign.iter().map(|&q| q == NO_PART).collect();
        for cluster in clusters_of(g, &orphan) {
            let target = counts
                .iter()
                .enumerate()
                .min_by_key(|&(q, &c)| (c, q))
                .map(|(q, _)| q)
                .unwrap();
            counts[target] += cluster.len() as u64;
            report.clustered += cluster.len();
            for v in cluster {
                assign[v as usize] = target as PartId;
            }
        }
    }
    debug_assert!(assign.iter().all(|&q| (q as usize) < p));
    (assign, report)
}

/// Nearest old owner of each added vertex: the multi-source BFS of
/// `igp_graph::traversal::nearest_owner_bfs` seeded from every old
/// vertex, restricted to where it can change anything. Every old vertex
/// sits at distance 0, so an added vertex's predecessors at distance 1
/// are its old neighbours, and at distance ≥ 2 they are added vertices:
/// the search starts from the added vertices' old neighbours and never
/// enters an old vertex. Ties keep the smaller part id, as there.
///
/// `added` lists the vertices with `assign == NO_PART`, ascending.
/// Returns `(owner, dist)` aligned with `added` (`NO_PART` and
/// [`UNREACHABLE`] where no old vertex is reachable) and the edge scans
/// performed.
fn nearest_old_owner(
    g: &CsrGraph,
    assign: &[PartId],
    added: &[NodeId],
) -> (Vec<PartId>, Vec<u32>, u64) {
    let mut owner = vec![NO_PART; added.len()];
    let mut dist = vec![UNREACHABLE; added.len()];
    let mut work = 0u64;
    // Distance 1: the smallest part among the old neighbours (added
    // neighbours carry `NO_PART`, the largest id).
    let mut frontier: Vec<usize> = Vec::new();
    for (k, &v) in added.iter().enumerate() {
        for &u in g.neighbors(v) {
            work += 1;
            owner[k] = owner[k].min(assign[u as usize]);
        }
        if owner[k] != NO_PART {
            dist[k] = 1;
            frontier.push(k);
        }
    }
    // Distance ≥ 2, through added vertices only; a vertex keeps the
    // smallest owner among its predecessors one level closer.
    let mut next: Vec<usize> = Vec::new();
    let mut level = 1u32;
    while !frontier.is_empty() {
        level += 1;
        for &k in &frontier {
            let lab = owner[k];
            for &u in g.neighbors(added[k]) {
                work += 1;
                if assign[u as usize] != NO_PART {
                    continue;
                }
                let j = added.binary_search(&u).expect("unassigned vertex is added");
                if dist[j] == UNREACHABLE {
                    dist[j] = level;
                    owner[j] = lab;
                    next.push(j);
                } else if dist[j] == level && owner[j] > lab {
                    owner[j] = lab;
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    (owner, dist, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use igp_graph::traversal::nearest_owner_bfs;
    use igp_graph::{generators, GraphDelta};
    use proptest::prelude::*;

    /// The assignment this module replaced: the owner BFS seeded from
    /// every old vertex, a sweep of the whole new graph.
    fn assign_new_vertices_reference(
        inc: &IncrementalGraph,
        old_part: &Partitioning,
    ) -> (Vec<PartId>, AssignReport) {
        let g = inc.new_graph();
        let p = old_part.num_parts();
        let mut assign = igp_graph::partition::transfer_assignment(inc, old_part);
        let seeds: Vec<(NodeId, u32)> = assign
            .iter()
            .enumerate()
            .filter(|&(_, &q)| q != NO_PART)
            .map(|(v, &q)| (v as NodeId, q))
            .collect();
        let mut report = AssignReport {
            new_vertices: g.num_vertices() - seeds.len(),
            ..Default::default()
        };
        if !seeds.is_empty() {
            let (owner, dist) = nearest_owner_bfs(g, &seeds);
            report.work = 2 * g.num_edges() as u64;
            for v in g.vertices() {
                let vi = v as usize;
                if assign[vi] == NO_PART && owner[vi] != u32::MAX {
                    assign[vi] = owner[vi];
                    report.max_dist = report.max_dist.max(dist[vi]);
                }
            }
        }
        if assign.contains(&NO_PART) {
            let mut counts: Vec<u64> = vec![0; p];
            for &q in &assign {
                if q != NO_PART {
                    counts[q as usize] += 1;
                }
            }
            let orphan: Vec<bool> = assign.iter().map(|&q| q == NO_PART).collect();
            for cluster in clusters_of(g, &orphan) {
                let target = counts
                    .iter()
                    .enumerate()
                    .min_by_key(|&(q, &c)| (c, q))
                    .map(|(q, _)| q)
                    .unwrap();
                counts[target] += cluster.len() as u64;
                report.clustered += cluster.len();
                for v in cluster {
                    assign[v as usize] = target as PartId;
                }
            }
        }
        (assign, report)
    }

    /// A delta on `g` of one of four shapes: localized growth, random
    /// churn with vertex and edge removals, new vertices each tied to
    /// two old vertices in different parts at equal distance, and new
    /// clusters with no edge to any old vertex.
    fn shaped_delta(g: &CsrGraph, assign: &[PartId], shape: usize, seed: u64) -> GraphDelta {
        let n = g.num_vertices();
        let pick = |i: u64| ((seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % n;
        match shape {
            0 => generators::localized_growth_delta(g, pick(0) as NodeId, 1 + pick(1) % 12, seed),
            1 => generators::random_churn_delta(g, 1 + pick(2) % 10, pick(3) % 6, seed),
            2 => {
                // Chains hanging between two parts: the owner is the tie.
                let mut d = GraphDelta::default();
                for c in 0..1 + pick(4) % 4 {
                    let a = pick(10 + c as u64) as NodeId;
                    let b = (0..n as NodeId)
                        .find(|&u| assign[u as usize] != assign[a as usize])
                        .unwrap_or((a + 1) % n as NodeId);
                    let len = 1 + pick(20 + c as u64) % 3;
                    let first = (n + d.add_vertices.len()) as NodeId;
                    d.add_vertices.extend(std::iter::repeat_n(1, len));
                    for i in 1..len as NodeId {
                        d.add_edges.push((first + i - 1, first + i, 1));
                    }
                    d.add_edges.push((a, first, 1));
                    if b != a {
                        d.add_edges.push((b, first + len as NodeId - 1, 1));
                    }
                }
                d
            }
            _ => {
                // One reachable vertex plus orphan clusters (a path and
                // a singleton).
                let k = 1 + pick(5) % 3;
                let first = n as NodeId;
                let mut d = GraphDelta {
                    add_vertices: vec![1; k + 2],
                    add_edges: vec![(pick(6) as NodeId, first, 1)],
                    ..Default::default()
                };
                for i in 1..k as NodeId {
                    d.add_edges.push((first + i, first + i + 1, 1));
                }
                d
            }
        }
    }

    proptest! {
        #![proptest_config(testkit::config(128))]

        /// The delta-seeded owner BFS gives every added vertex the owner
        /// and distance of the BFS seeded from all old vertices, and the
        /// whole assignment (max distance and cluster fallback included)
        /// equals the reference's.
        #[test]
        fn delta_seeded_assign_equals_full_sweep(
            family in 0usize..2,
            side in 3usize..12,
            parts in 2usize..6,
            shape in 0usize..4,
            seed in any::<u64>(),
        ) {
            let g = match family {
                0 => generators::grid(side, side + 2),
                _ => generators::random_geometric(side * side, 0.2, seed),
            };
            let assign = testkit::jagged_assign(g.num_vertices(), parts, 5, seed);
            let old = Partitioning::from_assignment(&g, parts, assign.clone());
            let d = shaped_delta(&g, &assign, shape, seed);
            let inc = d.apply(&g);

            let moved = igp_graph::partition::transfer_assignment(&inc, &old);
            let added: Vec<NodeId> =
                (0..moved.len() as NodeId).filter(|&v| moved[v as usize] == NO_PART).collect();
            let (owner, dist, _) = nearest_old_owner(inc.new_graph(), &moved, &added);
            let seeds: Vec<(NodeId, u32)> = moved
                .iter()
                .enumerate()
                .filter(|&(_, &q)| q != NO_PART)
                .map(|(v, &q)| (v as NodeId, q))
                .collect();
            let (ref_owner, ref_dist) = nearest_owner_bfs(inc.new_graph(), &seeds);
            for (k, &v) in added.iter().enumerate() {
                let want = if ref_owner[v as usize] == u32::MAX { NO_PART } else { ref_owner[v as usize] };
                prop_assert_eq!(owner[k], want, "owner of {}", v);
                prop_assert_eq!(dist[k], ref_dist[v as usize], "distance of {}", v);
            }

            let (fast, fast_rep) = assign_new_vertices(&inc, &old);
            let (slow, slow_rep) = assign_new_vertices_reference(&inc, &old);
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(
                (fast_rep.new_vertices, fast_rep.clustered, fast_rep.max_dist),
                (slow_rep.new_vertices, slow_rep.clustered, slow_rep.max_dist)
            );
            let deg_sum: u64 = added.iter().map(|&v| inc.new_graph().degree(v) as u64).sum();
            prop_assert!(fast_rep.work <= 2 * deg_sum);
        }
    }

    #[test]
    fn shaped_corpus_reaches_ties_and_orphans() {
        // The property's shapes must really exercise the fallback and
        // equidistant ties.
        let g = generators::grid(6, 8);
        let assign = testkit::jagged_assign(48, 3, 5, 11);
        let old = Partitioning::from_assignment(&g, 3, assign.clone());
        let (_, rep) = assign_new_vertices(&shaped_delta(&g, &assign, 3, 11).apply(&g), &old);
        assert!(rep.clustered > 0);
        let ties = (0..64u64).any(|seed| {
            let inc = shaped_delta(&g, &assign, 2, seed).apply(&g);
            let moved = igp_graph::partition::transfer_assignment(&inc, &old);
            inc.new_graph().vertices().any(|v| {
                moved[v as usize] == NO_PART && {
                    let mut parts: Vec<PartId> = inc
                        .new_graph()
                        .neighbors(v)
                        .iter()
                        .map(|&u| moved[u as usize])
                        .filter(|&q| q != NO_PART)
                        .collect();
                    parts.sort_unstable();
                    parts.dedup();
                    parts.len() > 1
                }
            })
        });
        assert!(ties, "no added vertex sees two parts at distance 1");
    }

    fn two_part_path() -> (CsrGraph, Partitioning) {
        let g = generators::path(6);
        let p = Partitioning::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]);
        (g, p)
    }

    #[test]
    fn survivors_keep_partitions() {
        let (g, p) = two_part_path();
        let delta = GraphDelta {
            add_vertices: vec![1],
            add_edges: vec![(5, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, rep) = assign_new_vertices(&inc, &p);
        assert_eq!(&assign[..6], &[0, 0, 0, 1, 1, 1]);
        assert_eq!(rep.new_vertices, 1);
        assert_eq!(rep.clustered, 0);
    }

    #[test]
    fn new_vertex_takes_nearest_partition() {
        let (g, p) = two_part_path();
        // One new vertex attached at each end.
        let delta = GraphDelta {
            add_vertices: vec![1, 1],
            add_edges: vec![(0, 6, 1), (5, 7, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, rep) = assign_new_vertices(&inc, &p);
        assert_eq!(assign[6], 0);
        assert_eq!(assign[7], 1);
        assert_eq!(rep.max_dist, 1);
    }

    #[test]
    fn chain_of_new_vertices_propagates() {
        let (g, p) = two_part_path();
        // Chain 6-7-8 hanging off vertex 5 (partition 1).
        let delta = GraphDelta {
            add_vertices: vec![1, 1, 1],
            add_edges: vec![(5, 6, 1), (6, 7, 1), (7, 8, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, rep) = assign_new_vertices(&inc, &p);
        assert_eq!(&assign[6..9], &[1, 1, 1]);
        assert_eq!(rep.max_dist, 3);
    }

    #[test]
    fn equidistant_tie_breaks_to_smaller_partition() {
        let (g, p) = two_part_path();
        // New vertex adjacent to both 2 (part 0) and 3 (part 1).
        let delta = GraphDelta {
            add_vertices: vec![1],
            add_edges: vec![(2, 6, 1), (3, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, _) = assign_new_vertices(&inc, &p);
        assert_eq!(assign[6], 0);
    }

    #[test]
    fn disconnected_cluster_goes_to_least_loaded() {
        let g = generators::path(5);
        // Partition 1 is smaller (2 vs 3).
        let p = Partitioning::from_assignment(&g, 2, vec![0, 0, 0, 1, 1]);
        // Two new vertices forming their own component.
        let delta = GraphDelta {
            add_vertices: vec![1, 1],
            add_edges: vec![(5, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, rep) = assign_new_vertices(&inc, &p);
        assert_eq!(assign[5], 1);
        assert_eq!(assign[6], 1);
        assert_eq!(rep.clustered, 2);
    }

    #[test]
    fn multiple_orphan_clusters_spread() {
        let g = generators::path(4);
        let p = Partitioning::from_assignment(&g, 2, vec![0, 0, 1, 1]);
        // Two separate orphan clusters of different sizes.
        let delta = GraphDelta {
            add_vertices: vec![1, 1, 1],
            add_edges: vec![(4, 5, 1)], // cluster {4,5}; cluster {6}
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, rep) = assign_new_vertices(&inc, &p);
        assert_eq!(rep.clustered, 3);
        // First cluster {4,5} → part 0 (tie, lower id); then {6} → part 1.
        assert_eq!(assign[4], 0);
        assert_eq!(assign[5], 0);
        assert_eq!(assign[6], 1);
    }

    #[test]
    fn vertex_deletion_handled() {
        let (g, p) = two_part_path();
        let delta = GraphDelta {
            remove_vertices: vec![0],
            add_vertices: vec![1],
            add_edges: vec![(3, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, _) = assign_new_vertices(&inc, &p);
        // New graph: old 1..5 → new 0..4, new vertex = id 5, attached to
        // old 3 (new 2, part 1).
        assert_eq!(assign.len(), 6);
        assert_eq!(assign[5], 1);
    }
}
