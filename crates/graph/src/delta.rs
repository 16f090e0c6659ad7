//! The paper's incremental-graph model.
//!
//! Ou & Ranka define the incremental graph as
//! `G'(V', E')` with `V' = V ∪ V₁ − V₂` and `E' = E ∪ E₁ − E₂`: a small
//! number of vertices and edges are added and/or deleted. The partitioner
//! consumes an [`IncrementalGraph`]: the old graph, the new graph, and the
//! identity map tying surviving vertices together. [`GraphDelta`] is the
//! edit-list form, convertible in both directions.

use crate::csr::CsrGraph;
use crate::{NodeId, Weight, INVALID_NODE};
use std::sync::Arc;

/// Why a [`GraphDelta`] is malformed with respect to a graph of `n_old`
/// vertices.
///
/// [`GraphDelta::validate`] reports these *before* anything is applied:
/// the service boundary turns them into protocol errors instead of
/// letting [`GraphDelta::apply`] panic deep inside a step. Everything
/// checkable from `n_old` alone is covered; existence of removed edges
/// in the concrete old graph is the one condition that still needs the
/// graph itself (checked by `apply`, and by
/// [`crate::coalesce::DeltaCoalescer`] for edges created inside a
/// queued sequence).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// `remove_vertices` is not strictly ascending (unsorted or
    /// duplicated entries).
    RemoveVerticesUnsorted,
    /// A removed vertex id is not a vertex of the old graph.
    RemoveVertexOutOfRange { v: NodeId, n_old: usize },
    /// An edge endpoint is outside the id space allowed for its list
    /// (`n_old + add_vertices.len()` for added edges, `n_old` for
    /// removed edges, which may only name old-graph edges).
    EdgeOutOfRange {
        u: NodeId,
        v: NodeId,
        bound: usize,
        list: &'static str,
    },
    /// An edge with both endpoints equal.
    SelfLoop { v: NodeId, list: &'static str },
    /// An added or removed edge touches a vertex named in
    /// `remove_vertices` (incident edges of removed vertices are
    /// implicit; naming them is ambiguous).
    EdgeTouchesRemovedVertex {
        u: NodeId,
        v: NodeId,
        list: &'static str,
    },
    /// The same undirected edge appears twice in `add_edges`.
    DuplicateAddEdge { u: NodeId, v: NodeId },
    /// The same undirected edge appears twice in `remove_edges`.
    DuplicateRemoveEdge { u: NodeId, v: NodeId },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DeltaError::RemoveVerticesUnsorted => {
                write!(f, "remove_vertices must be strictly ascending")
            }
            DeltaError::RemoveVertexOutOfRange { v, n_old } => {
                write!(f, "removed vertex {v} out of range (n_old = {n_old})")
            }
            DeltaError::EdgeOutOfRange { u, v, bound, list } => {
                write!(f, "{list} edge {{{u},{v}}} out of range (bound {bound})")
            }
            DeltaError::SelfLoop { v, list } => write!(f, "{list} self-loop at {v}"),
            DeltaError::EdgeTouchesRemovedVertex { u, v, list } => {
                write!(f, "{list} edge {{{u},{v}}} touches a removed vertex")
            }
            DeltaError::DuplicateAddEdge { u, v } => {
                write!(f, "edge {{{u},{v}}} added twice")
            }
            DeltaError::DuplicateRemoveEdge { u, v } => {
                write!(f, "edge {{{u},{v}}} removed twice")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// An edit list transforming an old graph into a new one.
///
/// Vertex addressing: survivors and removed vertices use *old* ids; the
/// `i`-th added vertex is addressed as `n_old + i`. Edges may reference any
/// of those.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Weights of the added vertices (the `i`-th gets id `n_old + i`).
    pub add_vertices: Vec<Weight>,
    /// Old ids of removed vertices (sorted, unique). Their incident edges
    /// are removed implicitly.
    pub remove_vertices: Vec<NodeId>,
    /// Added undirected edges, in the extended old-id space.
    pub add_edges: Vec<(NodeId, NodeId, Weight)>,
    /// Removed undirected edges (old ids; must exist and not touch removed
    /// vertices — those are implicit).
    pub remove_edges: Vec<(NodeId, NodeId)>,
}

impl GraphDelta {
    /// True if the delta performs no edits.
    pub fn is_empty(&self) -> bool {
        self.add_vertices.is_empty()
            && self.remove_vertices.is_empty()
            && self.add_edges.is_empty()
            && self.remove_edges.is_empty()
    }

    /// Summary string like `+25v -0v +71e -46e` (used in reports).
    pub fn summary(&self) -> String {
        format!(
            "+{}v -{}v +{}e -{}e",
            self.add_vertices.len(),
            self.remove_vertices.len(),
            self.add_edges.len(),
            self.remove_edges.len()
        )
    }

    /// Check the delta against a graph of `n_old` vertices, returning the
    /// first structural violation as a typed [`DeltaError`].
    ///
    /// Everything checkable without the concrete graph is verified:
    /// id ranges, `remove_vertices` ordering, self-loops, duplicate edge
    /// entries, and edges naming removed vertices. A delta that passes
    /// can still be wrong about *edge existence* (removing an edge the
    /// old graph does not have, or re-adding one it does); those are
    /// caught by [`GraphDelta::apply`]'s assertions and, for queued
    /// sequences, by [`crate::coalesce::DeltaCoalescer::push`].
    pub fn validate(&self, n_old: usize) -> Result<(), DeltaError> {
        if !self.remove_vertices.windows(2).all(|w| w[0] < w[1]) {
            return Err(DeltaError::RemoveVerticesUnsorted);
        }
        if let Some(&v) = self.remove_vertices.last() {
            if (v as usize) >= n_old {
                return Err(DeltaError::RemoveVertexOutOfRange { v, n_old });
            }
        }
        let removed = |v: NodeId| self.remove_vertices.binary_search(&v).is_ok();
        let check_edge = |u: NodeId, v: NodeId, bound: usize, list: &'static str| {
            if (u as usize) >= bound || (v as usize) >= bound {
                return Err(DeltaError::EdgeOutOfRange { u, v, bound, list });
            }
            if u == v {
                return Err(DeltaError::SelfLoop { v, list });
            }
            if removed(u) || removed(v) {
                return Err(DeltaError::EdgeTouchesRemovedVertex { u, v, list });
            }
            Ok(())
        };
        let n_ext = n_old + self.add_vertices.len();
        let mut seen: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.add_edges.len());
        for &(u, v, _) in &self.add_edges {
            check_edge(u, v, n_ext, "added")?;
            seen.push(if u < v { (u, v) } else { (v, u) });
        }
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(DeltaError::DuplicateAddEdge {
                u: w[0].0,
                v: w[0].1,
            });
        }
        seen.clear();
        for &(u, v) in &self.remove_edges {
            // Removed edges must name *old-graph* edges; added vertices
            // cannot have pre-existing edges.
            check_edge(u, v, n_old, "removed")?;
            seen.push(if u < v { (u, v) } else { (v, u) });
        }
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(DeltaError::DuplicateRemoveEdge {
                u: w[0].0,
                v: w[0].1,
            });
        }
        Ok(())
    }

    /// Apply the delta to `old`, producing the incremental-graph pair.
    ///
    /// The new CSR is spliced row by row rather than rebuilt: compacting
    /// ids is monotone, so each surviving row stays sorted after its
    /// removed neighbours are filtered out, and the few added half-edges
    /// (sorted once) merge into it. O(n + m + a·log a) for `a` added
    /// edges, with no per-row sort.
    ///
    /// The pair keeps a copy of `old`; a caller that already holds its
    /// graph in an [`Arc`] shares it through [`GraphDelta::apply_shared`]
    /// instead.
    pub fn apply(&self, old: &CsrGraph) -> IncrementalGraph {
        self.apply_shared(Arc::new(old.clone()))
    }

    /// [`GraphDelta::apply`] on a shared old graph: the pair holds
    /// `old` by reference count instead of copying it. A malformed delta
    /// panics before the pair exists, leaving the caller's graph as it
    /// was. The pair also records the vertices whose adjacency changed
    /// ([`IncrementalGraph::edited_vertices`]).
    pub fn apply_shared(&self, old: Arc<CsrGraph>) -> IncrementalGraph {
        let n_old = old.num_vertices();
        let n_ext = n_old + self.add_vertices.len();
        // Extended-id space: old ids ∪ added ids; mark removals.
        let mut removed = vec![false; n_ext];
        for &v in &self.remove_vertices {
            assert!((v as usize) < n_old, "remove_vertices id out of range");
            assert!(!removed[v as usize], "vertex {v} removed twice");
            removed[v as usize] = true;
        }
        // Compact to new ids.
        let mut new_of_ext = vec![INVALID_NODE; n_ext];
        let mut next: NodeId = 0;
        for (i, slot) in new_of_ext.iter_mut().enumerate() {
            if !removed[i] {
                *slot = next;
                next += 1;
            }
        }
        let n_new = next as usize;
        // Explicit removals as sorted half-edges in old ids.
        let mut kill: Vec<(NodeId, NodeId)> = self
            .remove_edges
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        kill.sort_unstable();
        kill.dedup();
        assert_eq!(
            kill.len(),
            self.remove_edges.len(),
            "duplicate edge removal"
        );
        for &e in &kill {
            assert!(
                old.has_edge(e.0, e.1),
                "remove_edges names a non-existent edge {{{},{}}}",
                e.0,
                e.1
            );
        }
        let mut kill_half: Vec<(NodeId, NodeId)> =
            kill.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        kill_half.sort_unstable();
        // Added edges as sorted half-edges in new ids.
        let mut added: Vec<(NodeId, NodeId, Weight)> = Vec::with_capacity(2 * self.add_edges.len());
        for &(u, v, w) in &self.add_edges {
            let (nu, nv) = (new_of_ext[u as usize], new_of_ext[v as usize]);
            assert!(
                nu != INVALID_NODE && nv != INVALID_NODE,
                "added edge touches removed vertex"
            );
            assert!(nu != nv, "self loop {nu}");
            added.push((nu, nv, w));
            added.push((nv, nu, w));
        }
        added.sort_unstable_by_key(|&(a, b, _)| (a, b));

        let mut xadj: Vec<u32> = Vec::with_capacity(n_new + 1);
        xadj.push(0);
        let cap = old.adjacency().len() + added.len();
        let mut adj: Vec<NodeId> = Vec::with_capacity(cap);
        let mut ewgt: Vec<Weight> = Vec::with_capacity(cap);
        let mut vwgt: Vec<Weight> = Vec::with_capacity(n_new);
        // Append `u` to row `v`; the merge emits ascending ids, so an id
        // equal to the previous one is a duplicate edge.
        let mut push = |adj: &mut Vec<NodeId>, row_start: usize, v: NodeId, u: NodeId, w| {
            if adj.len() > row_start && adj[adj.len() - 1] == u {
                panic!("duplicate edge {{{v},{u}}}");
            }
            adj.push(u);
            ewgt.push(w);
        };
        let mut edited: Vec<NodeId> = Vec::new();
        let (mut a, mut k) = (0usize, 0usize);
        for ext in 0..n_ext {
            if removed[ext] {
                continue;
            }
            let v = new_of_ext[ext];
            let row_start = adj.len();
            let added_from = a;
            // An added vertex is edited; an old row is edited when it
            // loses a half-edge or gains one (checked after the merge).
            let mut row_edited = ext >= n_old;
            if ext < n_old {
                let x = ext as NodeId;
                vwgt.push(old.vertex_weight(x));
                while k < kill_half.len() && kill_half[k].0 < x {
                    k += 1;
                }
                for (u, w) in old.edges_of(x) {
                    while k < kill_half.len() && kill_half[k].0 == x && kill_half[k].1 < u {
                        k += 1;
                    }
                    if k < kill_half.len() && kill_half[k] == (x, u) {
                        k += 1;
                        row_edited = true;
                        continue;
                    }
                    if removed[u as usize] {
                        row_edited = true;
                        continue;
                    }
                    let nu = new_of_ext[u as usize];
                    while a < added.len() && added[a].0 == v && added[a].1 < nu {
                        push(&mut adj, row_start, v, added[a].1, added[a].2);
                        a += 1;
                    }
                    push(&mut adj, row_start, v, nu, w);
                }
            } else {
                vwgt.push(self.add_vertices[ext - n_old]);
            }
            while a < added.len() && added[a].0 == v {
                push(&mut adj, row_start, v, added[a].1, added[a].2);
                a += 1;
            }
            if row_edited || a != added_from {
                edited.push(v);
            }
            xadj.push(adj.len() as u32);
        }
        let new = CsrGraph::from_parts(xadj, adj, ewgt, vwgt);
        let mut old_of_new = vec![INVALID_NODE; n_new];
        for v in 0..n_old {
            if new_of_ext[v] != INVALID_NODE {
                old_of_new[new_of_ext[v] as usize] = v as NodeId;
            }
        }
        new_of_ext.truncate(n_old);
        IncrementalGraph {
            old,
            new,
            old_of_new,
            new_of_old: new_of_ext,
            edited: Some(edited),
        }
    }
}

/// An old/new graph pair with vertex identity between them.
///
/// `old_of_new[v']` is the old id of the surviving vertex `v'`, or
/// [`INVALID_NODE`] if `v'` is newly added; `new_of_old` is the inverse
/// (with [`INVALID_NODE`] for deleted vertices). The old graph is held
/// by reference count, so a pair made by [`GraphDelta::apply_shared`]
/// shares it with its owner.
#[derive(Clone, Debug)]
pub struct IncrementalGraph {
    old: Arc<CsrGraph>,
    new: CsrGraph,
    old_of_new: Vec<NodeId>,
    new_of_old: Vec<NodeId>,
    /// New ids of the vertices whose adjacency changed, ascending; only
    /// known when the pair came from an edit list.
    edited: Option<Vec<NodeId>>,
}

impl IncrementalGraph {
    /// Build from the old graph, new graph and the `old_of_new` map.
    ///
    /// Panics unless the map is a partial injection from new ids onto old
    /// ids (each old id used at most once, all in range).
    pub fn new(old: CsrGraph, new: CsrGraph, old_of_new: Vec<NodeId>) -> Self {
        assert_eq!(
            old_of_new.len(),
            new.num_vertices(),
            "old_of_new length mismatch"
        );
        let mut new_of_old = vec![INVALID_NODE; old.num_vertices()];
        for (v_new, &v_old) in old_of_new.iter().enumerate() {
            if v_old != INVALID_NODE {
                assert!((v_old as usize) < old.num_vertices(), "old id out of range");
                assert_eq!(
                    new_of_old[v_old as usize], INVALID_NODE,
                    "old vertex {v_old} mapped twice"
                );
                new_of_old[v_old as usize] = v_new as NodeId;
            }
        }
        IncrementalGraph {
            old: Arc::new(old),
            new,
            old_of_new,
            new_of_old,
            edited: None,
        }
    }

    /// Pair two [`crate::DynGraph::snapshot`] results taken from the same
    /// evolving graph: slots shared by both snapshots are the survivors.
    pub fn from_snapshots(
        old: CsrGraph,
        old_map: &[NodeId],
        new: CsrGraph,
        new_map: &[NodeId],
    ) -> Self {
        let mut old_of_new = vec![INVALID_NODE; new.num_vertices()];
        for (slot, &v_old) in old_map.iter().enumerate() {
            if v_old == INVALID_NODE {
                continue;
            }
            if let Some(&v_new) = new_map.get(slot) {
                if v_new != INVALID_NODE {
                    old_of_new[v_new as usize] = v_old;
                }
            }
        }
        Self::new(old, new, old_of_new)
    }

    /// The graph before the incremental change.
    #[inline]
    pub fn old(&self) -> &CsrGraph {
        &self.old
    }

    /// The graph after the incremental change.
    #[inline]
    pub fn new_graph(&self) -> &CsrGraph {
        &self.new
    }

    /// Consume the pair, keeping only the graph after the change.
    pub fn into_new_graph(self) -> CsrGraph {
        self.new
    }

    /// New ids (ascending) of the vertices whose adjacency the increment
    /// changed: every added vertex, every survivor that gained or lost
    /// an edge, and every survivor that lost a removed neighbour. Known
    /// only for pairs made from an edit list ([`GraphDelta::apply`],
    /// [`GraphDelta::apply_shared`]), whose survivors also keep their
    /// relative order with the added vertices after them; `None` for
    /// pairs built from two graphs.
    pub fn edited_vertices(&self) -> Option<&[NodeId]> {
        self.edited.as_deref()
    }

    /// Old id of new vertex `v`, or [`INVALID_NODE`] if `v` was added.
    #[inline]
    pub fn old_of_new(&self, v: NodeId) -> NodeId {
        self.old_of_new[v as usize]
    }

    /// New id of old vertex `v`, or [`INVALID_NODE`] if `v` was deleted.
    #[inline]
    pub fn new_of_old(&self, v: NodeId) -> NodeId {
        self.new_of_old[v as usize]
    }

    /// True if new-graph vertex `v` was added by the increment.
    #[inline]
    pub fn is_added(&self, v: NodeId) -> bool {
        self.old_of_new[v as usize] == INVALID_NODE
    }

    /// New ids of all added vertices (increasing order).
    pub fn added_vertices(&self) -> Vec<NodeId> {
        self.new.vertices().filter(|&v| self.is_added(v)).collect()
    }

    /// Old ids of all deleted vertices (increasing order).
    pub fn removed_vertices(&self) -> Vec<NodeId> {
        self.old
            .vertices()
            .filter(|&v| self.new_of_old[v as usize] == INVALID_NODE)
            .collect()
    }

    /// Count of surviving vertices.
    pub fn num_survivors(&self) -> usize {
        self.old_of_new
            .iter()
            .filter(|&&v| v != INVALID_NODE)
            .count()
    }

    /// Recover the edit list (for reporting and tests).
    pub fn diff(&self) -> GraphDelta {
        let added_v: Vec<NodeId> = self.added_vertices();
        let removed_v = self.removed_vertices();
        // Extended-id addressing for added vertices: n_old + rank.
        let n_old = self.old.num_vertices() as NodeId;
        let ext_of_new = |v: NodeId| -> NodeId {
            let o = self.old_of_new[v as usize];
            if o != INVALID_NODE {
                o
            } else {
                n_old + added_v.binary_search(&v).unwrap() as NodeId
            }
        };
        let mut add_edges = Vec::new();
        for (u, v, w) in self.new.undirected_edges() {
            let (ou, ov) = (self.old_of_new[u as usize], self.old_of_new[v as usize]);
            let existed = ou != INVALID_NODE && ov != INVALID_NODE && self.old.has_edge(ou, ov);
            if !existed {
                let (a, b) = (ext_of_new(u), ext_of_new(v));
                add_edges.push(if a < b { (a, b, w) } else { (b, a, w) });
            }
        }
        let mut remove_edges = Vec::new();
        for (u, v, _) in self.old.undirected_edges() {
            let (nu, nv) = (self.new_of_old[u as usize], self.new_of_old[v as usize]);
            if nu == INVALID_NODE || nv == INVALID_NODE {
                continue; // implicit via vertex removal
            }
            if !self.new.has_edge(nu, nv) {
                remove_edges.push((u, v));
            }
        }
        add_edges.sort_unstable();
        remove_edges.sort_unstable();
        GraphDelta {
            add_vertices: added_v.iter().map(|&v| self.new.vertex_weight(v)).collect(),
            remove_vertices: removed_v,
            add_edges,
            remove_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;
    use crate::generators;
    use proptest::prelude::*;

    /// The full-rebuild `apply` the splice replaced: every surviving and
    /// added edge goes through [`CsrBuilder`], which re-sorts every row.
    fn apply_by_rebuild(d: &GraphDelta, old: &CsrGraph) -> IncrementalGraph {
        let n_old = old.num_vertices();
        let n_ext = n_old + d.add_vertices.len();
        // Extended-id space: old ids ∪ added ids; mark removals.
        let mut removed = vec![false; n_ext];
        for &v in &d.remove_vertices {
            assert!((v as usize) < n_old, "remove_vertices id out of range");
            assert!(!removed[v as usize], "vertex {v} removed twice");
            removed[v as usize] = true;
        }
        // Compact to new ids.
        let mut new_of_ext = vec![INVALID_NODE; n_ext];
        let mut next: NodeId = 0;
        for (i, slot) in new_of_ext.iter_mut().enumerate() {
            if !removed[i] {
                *slot = next;
                next += 1;
            }
        }
        let n_new = next as usize;
        let mut b = CsrBuilder::new(n_new);
        // Vertex weights.
        for v in 0..n_old {
            if !removed[v] {
                b.set_vertex_weight(new_of_ext[v], old.vertex_weight(v as NodeId));
            }
        }
        for (i, &w) in d.add_vertices.iter().enumerate() {
            b.set_vertex_weight(new_of_ext[n_old + i], w);
        }
        // Surviving old edges minus explicit removals.
        let mut kill: Vec<(NodeId, NodeId)> = d
            .remove_edges
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        kill.sort_unstable();
        kill.dedup();
        assert_eq!(kill.len(), d.remove_edges.len(), "duplicate edge removal");
        for (u, v, w) in old.undirected_edges() {
            if removed[u as usize] || removed[v as usize] {
                continue;
            }
            if kill.binary_search(&(u, v)).is_ok() {
                continue;
            }
            b.add_edge(new_of_ext[u as usize], new_of_ext[v as usize], w);
        }
        for &e in &kill {
            assert!(
                old.has_edge(e.0, e.1),
                "remove_edges names a non-existent edge {{{},{}}}",
                e.0,
                e.1
            );
        }
        // Added edges.
        for &(u, v, w) in &d.add_edges {
            let (nu, nv) = (new_of_ext[u as usize], new_of_ext[v as usize]);
            assert!(
                nu != INVALID_NODE && nv != INVALID_NODE,
                "added edge touches removed vertex"
            );
            b.add_edge(nu, nv, w);
        }
        let new = b.build();
        let mut old_of_new = vec![INVALID_NODE; n_new];
        for v in 0..n_old {
            if new_of_ext[v] != INVALID_NODE {
                old_of_new[new_of_ext[v] as usize] = v as NodeId;
            }
        }
        IncrementalGraph::new(old.clone(), new, old_of_new)
    }

    /// A triangulated `rows × cols` grid (each cell split by one
    /// diagonal): the smallest graph shaped like the paper's meshes.
    fn tri_mesh(rows: usize, cols: usize) -> CsrGraph {
        let mut b = CsrBuilder::new(rows * cols);
        let id = |r: usize, c: usize| (r * cols + c) as NodeId;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    b.add_edge(id(r, c), id(r, c + 1), 1);
                }
                if r + 1 < rows {
                    b.add_edge(id(r, c), id(r + 1, c), 1);
                }
                if r + 1 < rows && c + 1 < cols {
                    b.add_edge(id(r, c), id(r + 1, c + 1), 1);
                }
            }
        }
        b.build()
    }

    fn assert_same_increment(a: &IncrementalGraph, b: &IncrementalGraph) -> TestCaseResult {
        prop_assert_eq!(a.new_graph(), b.new_graph());
        prop_assert_eq!(&a.old_of_new, &b.old_of_new);
        prop_assert_eq!(&a.new_of_old, &b.new_of_old);
        Ok(())
    }

    /// The splice's edited rows cover every vertex whose neighbour set
    /// changed (added vertices included) and name nothing else but the
    /// endpoints of explicitly added or removed edges.
    fn assert_edited_rows(d: &GraphDelta, inc: &IncrementalGraph) -> TestCaseResult {
        let edited = inc
            .edited_vertices()
            .expect("an applied delta knows its edited rows");
        prop_assert!(edited.windows(2).all(|w| w[0] < w[1]));
        let (old, new) = (inc.old(), inc.new_graph());
        let mut endpoints = vec![false; new.num_vertices()];
        let n_old = old.num_vertices();
        let new_of_ext = |x: NodeId| {
            if (x as usize) < n_old {
                inc.new_of_old(x)
            } else {
                (inc.num_survivors() + x as usize - n_old) as NodeId
            }
        };
        let explicit = d.add_edges.iter().map(|&(u, v, _)| (u, v));
        for (u, v) in explicit.chain(d.remove_edges.iter().copied()) {
            endpoints[new_of_ext(u) as usize] = true;
            endpoints[new_of_ext(v) as usize] = true;
        }
        for v in new.vertices() {
            let o = inc.old_of_new(v);
            let changed = o == INVALID_NODE || {
                let mut now: Vec<NodeId> = new
                    .neighbors(v)
                    .iter()
                    .map(|&u| inc.old_of_new(u))
                    .collect();
                now.sort_unstable();
                now != old.neighbors(o)
            };
            let marked = edited.binary_search(&v).is_ok();
            prop_assert!(!changed || marked, "vertex {} changed but not edited", v);
            prop_assert!(
                !marked || changed || endpoints[v as usize],
                "vertex {} edited",
                v
            );
        }
        Ok(())
    }

    /// The panic message of `f`, or `None` if it returned.
    fn panic_message(f: impl FnOnce() -> IncrementalGraph) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().copied().unwrap_or("?").to_string(),
        })
    }

    fn splice_config() -> ProptestConfig {
        ProptestConfig {
            cases: 96,
            max_shrink_iters: 0,
            failure_persistence: Some(std::path::PathBuf::from("tests/regressions")),
        }
    }

    proptest! {
        #![proptest_config(splice_config())]

        /// The splice equals the rebuild on chains of growth and churn
        /// deltas (vertex and edge removals included, added edges with
        /// mixed weights) over grids, triangulated meshes and random
        /// geometric graphs, and reports exactly the rows it edited.
        #[test]
        fn splice_equals_rebuild(family in 0usize..3, side in 2usize..12, seed in any::<u64>()) {
            let mut g = match family {
                0 => generators::grid(side, side + 1),
                1 => tri_mesh(side, side),
                _ => generators::random_geometric(4 * side * side, 0.25, seed),
            };
            for step in 0..4u64 {
                let s = seed.wrapping_add(step);
                let mut d = if s.is_multiple_of(2) {
                    let center = (s % g.num_vertices() as u64) as NodeId;
                    generators::localized_growth_delta(&g, center, 1 + (s % 7) as usize, s)
                } else {
                    let n = g.num_vertices();
                    generators::random_churn_delta(&g, n / 8 + 1, n / 10, s)
                };
                for (i, e) in d.add_edges.iter_mut().enumerate() {
                    e.2 = 1 + ((s >> 3).wrapping_add(i as u64) % 5) as Weight;
                }
                let inc = d.apply(&g);
                assert_same_increment(&inc, &apply_by_rebuild(&d, &g))?;
                assert_edited_rows(&d, &inc)?;
                g = inc.into_new_graph();
            }
        }

        /// Every malformed delta the rebuild refused is refused by the
        /// splice with the same message.
        #[test]
        fn splice_panics_like_rebuild(side in 3usize..8, seed in any::<u64>()) {
            let g = tri_mesh(side, side + 1);
            let n = g.num_vertices() as NodeId;
            let x = (seed % n as u64) as NodeId;
            let y = (x + 1 + (seed >> 8) as NodeId % (n - 1)) % n;
            let nbr = g.neighbors(x)[(seed >> 16) as usize % g.degree(x)];
            let non_nbr = (0..n).find(|&u| u != x && !g.has_edge(x, u)).unwrap();
            let faults = [
                GraphDelta { remove_vertices: vec![x, x], ..Default::default() },
                GraphDelta { remove_vertices: vec![n], ..Default::default() },
                GraphDelta { remove_edges: vec![(x, nbr), (nbr, x)], ..Default::default() },
                GraphDelta { remove_edges: vec![(x, non_nbr)], ..Default::default() },
                GraphDelta {
                    remove_vertices: vec![x],
                    add_edges: vec![(y, x, 1)],
                    ..Default::default()
                },
                GraphDelta { add_edges: vec![(y, y, 1)], ..Default::default() },
                GraphDelta { add_edges: vec![(nbr, x, 2)], ..Default::default() },
                GraphDelta {
                    add_edges: vec![(x, non_nbr, 1), (non_nbr, x, 1)],
                    ..Default::default()
                },
                GraphDelta {
                    add_vertices: vec![1],
                    add_edges: vec![(x, n, 1), (n, y, 1), (y, n, 3)],
                    ..Default::default()
                },
            ];
            for d in &faults {
                let want = panic_message(|| apply_by_rebuild(d, &g));
                prop_assert!(want.is_some(), "reference accepted {:?}", d);
                prop_assert_eq!(panic_message(|| d.apply(&g)), want, "{:?}", d);
            }
        }
    }

    fn path5() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn apply_pure_growth() {
        // Append vertices 5, 6 hanging off vertex 4.
        let delta = GraphDelta {
            add_vertices: vec![1, 1],
            add_edges: vec![(4, 5, 1), (5, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&path5());
        assert_eq!(inc.new_graph().num_vertices(), 7);
        assert_eq!(inc.new_graph().num_edges(), 6);
        assert_eq!(inc.added_vertices(), vec![5, 6]);
        assert_eq!(inc.old_of_new(3), 3);
        assert!(inc.is_added(6));
        assert_eq!(inc.num_survivors(), 5);
        inc.new_graph().validate().unwrap();
    }

    #[test]
    fn apply_with_removals() {
        // Remove vertex 2 (splitting the path), bridge with a new edge 1-3,
        // and drop edge 3-4.
        let delta = GraphDelta {
            add_vertices: vec![],
            remove_vertices: vec![2],
            add_edges: vec![(1, 3, 1)],
            remove_edges: vec![(3, 4)],
        };
        let inc = delta.apply(&path5());
        let g = inc.new_graph();
        assert_eq!(g.num_vertices(), 4);
        // Edges: 0-1 (kept), 1-3 (added). 1-2/2-3 die with vertex 2, 3-4 removed.
        assert_eq!(g.num_edges(), 2);
        assert_eq!(inc.new_of_old(2), INVALID_NODE);
        assert_eq!(inc.new_of_old(3), 2);
        assert_eq!(inc.new_of_old(4), 3);
        assert_eq!(inc.removed_vertices(), vec![2]);
        g.validate().unwrap();
    }

    #[test]
    fn diff_inverts_apply() {
        let delta = GraphDelta {
            add_vertices: vec![7, 9],
            remove_vertices: vec![0],
            add_edges: vec![(1, 5, 2), (5, 6, 3)],
            remove_edges: vec![(2, 3)],
        };
        let inc = delta.apply(&path5());
        let back = inc.diff();
        assert_eq!(back.add_vertices, delta.add_vertices);
        assert_eq!(back.remove_vertices, delta.remove_vertices);
        assert_eq!(back.remove_edges, vec![(2, 3)]);
        let mut expect = delta.add_edges.clone();
        expect.sort_unstable();
        assert_eq!(back.add_edges, expect);
    }

    #[test]
    fn empty_delta_is_identity() {
        let delta = GraphDelta::default();
        assert!(delta.is_empty());
        let inc = delta.apply(&path5());
        assert_eq!(inc.new_graph(), inc.old());
        assert!(inc.diff().is_empty());
    }

    #[test]
    fn apply_shared_shares_and_rejection_keeps_old() {
        let g = Arc::new(path5());
        let grow = GraphDelta {
            add_vertices: vec![1],
            add_edges: vec![(4, 5, 1)],
            ..Default::default()
        };
        let inc = grow.apply_shared(Arc::clone(&g));
        assert!(
            std::ptr::eq(inc.old(), &*g),
            "the old graph is shared, not copied"
        );
        assert_eq!(inc.new_graph(), grow.apply(&g).new_graph());
        assert_eq!(inc.edited_vertices(), Some(&[4, 5][..]));
        drop(inc);
        let bad = GraphDelta {
            remove_edges: vec![(0, 4)],
            ..Default::default()
        };
        let shared = Arc::clone(&g);
        let refused = std::panic::catch_unwind(move || bad.apply_shared(shared));
        assert!(refused.is_err());
        assert_eq!(Arc::strong_count(&g), 1);
        assert_eq!(*g, path5());
    }

    #[test]
    #[should_panic(expected = "non-existent edge")]
    fn removing_missing_edge_panics() {
        let delta = GraphDelta {
            remove_edges: vec![(0, 4)],
            ..Default::default()
        };
        delta.apply(&path5());
    }

    #[test]
    fn from_snapshots_identity() {
        use crate::dyn_graph::DynGraph;
        let mut dg = DynGraph::with_vertices(3);
        dg.add_edge(0, 1, 1);
        let (old, old_map) = dg.snapshot();
        dg.add_vertex(1);
        dg.add_edge(2, 3, 1);
        dg.remove_vertex(1);
        let (new, new_map) = dg.snapshot();
        let inc = IncrementalGraph::from_snapshots(old, &old_map, new, &new_map);
        // Survivors: slots 0 and 2. Slot 1 deleted, slot 3 added.
        assert_eq!(inc.num_survivors(), 2);
        assert_eq!(inc.removed_vertices(), vec![1]);
        assert_eq!(inc.added_vertices().len(), 1);
        assert_eq!(inc.old_of_new(0), 0); // slot 0
        assert_eq!(inc.old_of_new(1), 2); // slot 2 was old id 2, new id 1
    }

    #[test]
    fn validate_accepts_well_formed() {
        let delta = GraphDelta {
            add_vertices: vec![7, 9],
            remove_vertices: vec![0, 2],
            add_edges: vec![(1, 5, 2), (5, 6, 3)],
            remove_edges: vec![(3, 4)],
        };
        delta.validate(5).unwrap();
    }

    #[test]
    fn validate_typed_errors() {
        let n = 5;
        let unsorted = GraphDelta {
            remove_vertices: vec![2, 1],
            ..Default::default()
        };
        assert_eq!(
            unsorted.validate(n),
            Err(DeltaError::RemoveVerticesUnsorted)
        );
        let dup_rm_v = GraphDelta {
            remove_vertices: vec![1, 1],
            ..Default::default()
        };
        assert_eq!(
            dup_rm_v.validate(n),
            Err(DeltaError::RemoveVerticesUnsorted)
        );
        let oor_v = GraphDelta {
            remove_vertices: vec![5],
            ..Default::default()
        };
        assert_eq!(
            oor_v.validate(n),
            Err(DeltaError::RemoveVertexOutOfRange { v: 5, n_old: 5 })
        );
        // Added edges may use extended ids; removed edges may not.
        let ext_add = GraphDelta {
            add_vertices: vec![1],
            add_edges: vec![(0, 5, 1)],
            ..Default::default()
        };
        ext_add.validate(n).unwrap();
        let ext_rm = GraphDelta {
            add_vertices: vec![1],
            remove_edges: vec![(0, 5)],
            ..Default::default()
        };
        assert_eq!(
            ext_rm.validate(n),
            Err(DeltaError::EdgeOutOfRange {
                u: 0,
                v: 5,
                bound: 5,
                list: "removed"
            })
        );
        let loop_e = GraphDelta {
            add_edges: vec![(3, 3, 1)],
            ..Default::default()
        };
        assert_eq!(
            loop_e.validate(n),
            Err(DeltaError::SelfLoop {
                v: 3,
                list: "added"
            })
        );
        let touches = GraphDelta {
            remove_vertices: vec![2],
            add_edges: vec![(2, 4, 1)],
            ..Default::default()
        };
        assert_eq!(
            touches.validate(n),
            Err(DeltaError::EdgeTouchesRemovedVertex {
                u: 2,
                v: 4,
                list: "added"
            })
        );
        let dup_add = GraphDelta {
            add_edges: vec![(1, 3, 1), (3, 1, 2)],
            ..Default::default()
        };
        assert_eq!(
            dup_add.validate(n),
            Err(DeltaError::DuplicateAddEdge { u: 1, v: 3 })
        );
        let dup_rm = GraphDelta {
            remove_edges: vec![(4, 0), (0, 4)],
            ..Default::default()
        };
        assert_eq!(
            dup_rm.validate(n),
            Err(DeltaError::DuplicateRemoveEdge { u: 0, v: 4 })
        );
    }

    #[test]
    fn summary_format() {
        let delta = GraphDelta {
            add_vertices: vec![1, 1, 1],
            add_edges: vec![(0, 5, 1)],
            ..Default::default()
        };
        assert_eq!(delta.summary(), "+3v -0v +1e -0e");
    }
}
