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
//!
//! The layering is a pure function of (graph, assignment), so a layering
//! kept from the previous balance stage or session step can be repaired
//! where its inputs changed instead of recomputed: [`CarriedLayering`].

use igp_graph::{CsrGraph, IncrementalGraph, NodeId, PartId, INVALID_NODE, NO_PART};
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
    let mut tally = Tally::default();

    // Level 0: boundary vertices pick the foreign partition with the most
    // incident edges (weighted by edge multiplicity = count of edges).
    let mut frontier: Vec<NodeId> = Vec::new();
    for (k, &v) in members.iter().enumerate() {
        work += g.degree(v) as u64;
        if let Some(q) = tally.foreign_majority(g, assign, v) {
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
            // A candidate is interior (any vertex with a foreign
            // neighbour was tagged at level 0), so every neighbour is a
            // member.
            for &u in g.neighbors(v) {
                work += 1;
                debug_assert_eq!(assign[u as usize], i);
                let lu = local_of[u as usize] as usize;
                if level[lu] == lvl {
                    tally.add(tag[lu]);
                }
            }
            tag[k] = tally
                .majority()
                .expect("candidate must have a levelled neighbour");
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

/// Majority counting over partition ids: ties go to the smaller id.
/// The tally is indexed by partition id and grown on demand; every entry
/// is zeroed again when the majority is taken.
#[derive(Debug, Default)]
struct Tally {
    counts: Vec<u32>,
    touched: Vec<PartId>,
}

impl Tally {
    #[inline]
    fn add(&mut self, q: PartId) {
        let qi = q as usize;
        if qi >= self.counts.len() {
            self.counts.resize(qi + 1, 0);
        }
        if self.counts[qi] == 0 {
            self.touched.push(q);
        }
        self.counts[qi] += 1;
    }

    /// The most counted id (the smaller on ties), or `None` when nothing
    /// was counted; resets the tally.
    #[inline]
    fn majority(&mut self) -> Option<PartId> {
        let mut best: Option<(u32, PartId)> = None;
        for &q in &self.touched {
            let c = std::mem::take(&mut self.counts[q as usize]);
            if best.is_none_or(|(bc, bq)| c > bc || (c == bc && q < bq)) {
                best = Some((c, q));
            }
        }
        self.touched.clear();
        best.map(|(_, q)| q)
    }

    /// The level-0 rule: the foreign part with the most edges to `v`, or
    /// `None` when `v` has no foreign neighbour (it is interior).
    #[inline]
    fn foreign_majority(&mut self, g: &CsrGraph, assign: &[PartId], v: NodeId) -> Option<PartId> {
        let i = assign[v as usize];
        for &u in g.neighbors(v) {
            let q = assign[u as usize];
            if q != i {
                self.add(q);
            }
        }
        self.majority()
    }
}

/// When the vertices to repair from (part or adjacency changed) exceed
/// `n / FULL_RELAYER_DIVISOR`, [`CarriedLayering::layer`] runs a fresh
/// [`layer_partitions`] instead. A repair costs about its seeds times
/// the depth of the parts around them; the fresh layering costs `n + m`,
/// spread over parts in parallel. Measured on a 2-vCPU host, repair over
/// full time: 0.12 at 0.1% seeds and 1.46 at 0.7% on a 632² grid in 16
/// strips (parts ~20 levels deep); 0.16 at 2–4% and 0.36 at 4–6% on a
/// 100² grid under churn (P = 16); 0.37 at 6–8%, 0.51 at 8–12%, 0.75 at
/// 12–20% and 1.04 above 20% on a 10k-vertex mesh (P = 32). One
/// sixteenth keeps the small-increment steps of all three on the repair.
/// What a single constant costs: between about 0.7% and 6.25% seeds,
/// parts as deep as the strips' repair slower than a fresh layering,
/// and shallow mesh parts above it layer afresh although the repair
/// would still win up to about 20%.
const FULL_RELAYER_DIVISOR: usize = 16;

/// Per-vertex repair flags (`Scratch::flags`); every flagged vertex is
/// in the log, through which the flags are cleared after each repair.
const LOGGED: u8 = 1;
/// Part or adjacency changed since the kept layering.
const SEED: u8 = 2;
/// A seed or a neighbour of one: boundary status and level-0 tag may
/// have changed.
const REGION: u8 = 4;
/// Queued for the support check.
const CHECK: u8 = 8;
/// Queued for the tag recompute.
const RETAG: u8 = 16;

/// A layering carried across balance stages and session steps, repaired
/// around what changed instead of recomputed.
///
/// It keeps the last layering, the assignment it describes, and the
/// vertices whose adjacency changed since. [`CarriedLayering::layer`]
/// diffs the kept assignment against the current one, and repairs from
/// the changed vertices:
///
/// 1. *Level 0.* Boundary status and level-0 tag are re-derived for the
///    seeds and their neighbours.
/// 2. *Invalidation.* In increasing kept level, a vertex that lost its
///    last same-part neighbour one level closer is invalidated, and its
///    dependents one level deeper are checked in turn (Ramalingam–Reps).
/// 3. *Levels.* The invalidated and every vertex that may have gained a
///    shorter path are re-levelled with a BFS bucketed by level, from
///    the kept levels, which are upper bounds.
/// 4. *Tags.* In increasing level, tags are recomputed where a level
///    changed or a next-shallower neighbour's `(level, tag)` did.
/// 5. *λ.* Counts move for every vertex whose `(part, tag)` changed.
///
/// The result equals [`layer_partitions`] of the same input: that is
/// property-tested, and asserted after every repair in debug and test
/// builds. A cold cache, a seed set above `n / 16` and an increment
/// built without an edit list take the full layering instead.
#[derive(Debug, Default)]
pub struct CarriedLayering {
    kept: Option<Kept>,
    scratch: Scratch,
    /// Repairs and full layerings performed (test observability).
    #[cfg(test)]
    counts: [usize; 2],
}

/// The kept layering and what it describes.
#[derive(Debug)]
struct Kept {
    layering: Layering,
    /// The assignment layered (`NO_PART` for vertices added since).
    assign: Vec<PartId>,
    /// Vertices whose adjacency changed since (may repeat).
    edited: Vec<NodeId>,
}

/// Repair state reused across repairs; `flags` is all zero between them.
#[derive(Debug, Default)]
struct Scratch {
    flags: Vec<u8>,
    /// Position of a logged vertex in `log`.
    slot: Vec<u32>,
    /// `(v, part, level, tag)` of every vertex the repair touched, as
    /// they were before it.
    log: Vec<(NodeId, PartId, u32, PartId)>,
    seeds: Vec<NodeId>,
    region: Vec<NodeId>,
    queue: LevelQueue,
    tally: Tally,
}

/// A queue popped in increasing level, for passes where a vertex at
/// level `l` only queues vertices at `l + 1`: entries queued before the
/// first pop are sorted once, later ones join the next level's list.
/// Within a level the order is unspecified.
#[derive(Debug, Default)]
struct LevelQueue {
    sorted: Vec<(u32, NodeId)>,
    pos: usize,
    popping: bool,
    level: u32,
    cur: Vec<NodeId>,
    next: Vec<NodeId>,
}

impl LevelQueue {
    fn clear(&mut self) {
        self.sorted.clear();
        self.pos = 0;
        self.popping = false;
        self.cur.clear();
        self.next.clear();
    }

    /// Queue `v` at level `l`: any level before the first pop, the level
    /// after the one being popped afterwards.
    #[inline]
    fn push(&mut self, l: u32, v: NodeId) {
        if self.popping {
            debug_assert_eq!(l, self.level + 1);
            self.next.push(v);
        } else {
            self.sorted.push((l, v));
        }
    }

    fn pop(&mut self) -> Option<(u32, NodeId)> {
        if !self.popping {
            self.popping = true;
            self.sorted.sort_unstable();
        }
        loop {
            if let Some(v) = self.cur.pop() {
                return Some((self.level, v));
            }
            // Advance to the shallowest non-empty level: the next list
            // holds `level + 1`, and the sorted rest starts above `level`.
            let head = self.sorted.get(self.pos).map(|&(l, _)| l);
            self.level = match (self.next.is_empty(), head) {
                (true, None) => return None,
                (true, Some(l)) => l,
                (false, _) => {
                    std::mem::swap(&mut self.cur, &mut self.next);
                    self.level + 1
                }
            };
            while let Some(&(l, v)) = self.sorted.get(self.pos) {
                if l != self.level {
                    break;
                }
                self.cur.push(v);
                self.pos += 1;
            }
        }
    }
}

impl CarriedLayering {
    /// An empty carrier: its first layering is a full one.
    pub fn new() -> Self {
        Self::default()
    }

    /// Follow an increment: renumber the kept layering to the new graph
    /// and record the vertices whose adjacency changed. A pair built
    /// without an edit list drops the kept layering.
    pub fn follow(&mut self, inc: &IncrementalGraph) {
        let Some(kept) = self.kept.as_mut() else {
            return;
        };
        let n_old = inc.old().num_vertices();
        let Some(edited) = inc.edited_vertices() else {
            self.kept = None;
            return;
        };
        if kept.assign.len() != n_old {
            self.kept = None;
            return;
        }
        let n_new = inc.new_graph().num_vertices();
        let p = kept.layering.num_parts;
        let lay = &mut kept.layering;
        // An edit list keeps survivors in order ahead of the added
        // vertices, so the last old vertex maps to itself iff nothing
        // was removed.
        let mut survivors = n_old;
        if n_old > 0 && inc.new_of_old(n_old as NodeId - 1) != n_old as NodeId - 1 {
            for o in 0..n_old {
                if inc.new_of_old(o as NodeId) == INVALID_NODE {
                    survivors -= 1;
                    let (q, t) = (kept.assign[o], lay.tag[o]);
                    if q != NO_PART && t != NO_PART {
                        lay.lambda[q as usize * p + t as usize] -= 1;
                    }
                }
            }
            for v in 0..survivors {
                let o = inc.old_of_new(v as NodeId) as usize;
                debug_assert!(o >= v && o < n_old);
                lay.tag[v] = lay.tag[o];
                lay.level[v] = lay.level[o];
                kept.assign[v] = kept.assign[o];
            }
            kept.edited.retain_mut(|v| {
                *v = inc.new_of_old(*v);
                *v != INVALID_NODE
            });
        }
        debug_assert!((survivors..n_new).all(|v| inc.is_added(v as NodeId)));
        lay.tag.truncate(survivors);
        lay.tag.resize(n_new, NO_PART);
        lay.level.truncate(survivors);
        lay.level.resize(n_new, u32::MAX);
        kept.assign.truncate(survivors);
        kept.assign.resize(n_new, NO_PART);
        kept.edited.extend_from_slice(edited);
        // Steps that do not layer keep appending; past the repair limit,
        // deduplicate, and drop the kept layering once the distinct
        // edited rows alone would send the next layering down the full
        // path.
        let limit = n_new / FULL_RELAYER_DIVISOR;
        if kept.edited.len() > limit {
            kept.edited.sort_unstable();
            kept.edited.dedup();
            if kept.edited.len() > limit {
                self.kept = None;
            }
        }
    }

    /// The layering of `assign` on `g` with `p` parts, and the assignment
    /// it describes (a copy of `assign`, kept for the next repair).
    ///
    /// `g` must be the graph the carrier followed to: the graph of its
    /// last layering with every [`CarriedLayering::follow`]ed increment
    /// applied.
    pub fn layer(&mut self, g: &CsrGraph, assign: &[PartId], p: usize) -> (&Layering, &[PartId]) {
        debug_assert_eq!(assign.len(), g.num_vertices());
        let m = crate::obs::metrics();
        let repaired = match self.kept.as_mut() {
            Some(kept) if kept.assign.len() == assign.len() && kept.layering.num_parts == p => {
                self.scratch.repair(g, assign, kept)
            }
            _ => None,
        };
        match repaired {
            Some(examined) => {
                m.layerings_repair.inc();
                m.layering_repair_vertices.observe(examined as u64);
            }
            None => {
                m.layerings_full.inc();
                self.kept = Some(Kept {
                    layering: layer_partitions(g, assign, p),
                    assign: assign.to_vec(),
                    edited: Vec::new(),
                });
            }
        }
        #[cfg(test)]
        {
            self.counts[usize::from(repaired.is_none())] += 1;
        }
        let kept = self.kept.as_ref().expect("layered");
        if cfg!(any(test, debug_assertions)) && repaired.is_some() {
            let fresh = layer_partitions(g, assign, p);
            assert!(
                kept.layering.tag == fresh.tag
                    && kept.layering.level == fresh.level
                    && kept.layering.lambda == fresh.lambda,
                "repaired layering differs from a fresh one"
            );
        }
        (&kept.layering, &kept.assign)
    }

    /// `(repairs, full layerings)` performed so far.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> (usize, usize) {
        (self.counts[0], self.counts[1])
    }
}

impl Scratch {
    /// Record `v`'s kept state before the repair first touches it.
    #[inline]
    fn record(&mut self, kept: &Kept, v: NodeId) {
        let vi = v as usize;
        if self.flags[vi] & LOGGED == 0 {
            self.flags[vi] |= LOGGED;
            self.slot[vi] = self.log.len() as u32;
            let lay = &kept.layering;
            self.log
                .push((v, kept.assign[vi], lay.level[vi], lay.tag[vi]));
        }
    }

    /// Log, flag and queue `v` at `level` unless it carries `flag`.
    #[inline]
    fn enqueue(&mut self, kept: &Kept, v: NodeId, level: u32, flag: u8) {
        if self.flags[v as usize] & flag == 0 {
            self.record(kept, v);
            self.flags[v as usize] |= flag;
            self.queue.push(level, v);
        }
    }

    /// Repair `kept` to the layering of `assign` on `g`. Returns the
    /// number of vertices examined, or `None` (nothing changed) when the
    /// seed set is too large for a repair to pay.
    fn repair(&mut self, g: &CsrGraph, assign: &[PartId], kept: &mut Kept) -> Option<usize> {
        let n = assign.len();
        if self.flags.len() != n {
            self.flags.clear();
            self.flags.resize(n, 0);
        }
        self.slot.resize(n, 0);
        self.log.clear();
        self.seeds.clear();
        self.region.clear();
        self.queue.clear();

        // Seeds: adjacency changed, or part changed (one sequential
        // compare against the kept assignment, a chunk at a time).
        let limit = n / FULL_RELAYER_DIVISOR;
        let flags = &mut self.flags;
        let changed = kept
            .assign
            .chunks(64)
            .zip(assign.chunks(64))
            .enumerate()
            .filter(|(_, (was, now))| was != now)
            .flat_map(|(c, (was, now))| {
                let differ = was.iter().zip(now.iter()).map(|(a, b)| a != b);
                (c * 64..)
                    .zip(differ)
                    .filter(|&(_, d)| d)
                    .map(|(v, _)| v as NodeId)
            });
        for v in kept.edited.iter().copied().chain(changed) {
            if flags[v as usize] & SEED == 0 {
                flags[v as usize] |= SEED;
                self.seeds.push(v);
                if self.seeds.len() > limit {
                    for &s in &self.seeds {
                        flags[s as usize] = 0;
                    }
                    return None;
                }
            }
        }
        let mut work = 0u64;

        // Region: the seeds and their neighbours.
        for k in 0..self.seeds.len() {
            let s = self.seeds[k];
            for v in std::iter::once(s).chain(g.neighbors(s).iter().copied()) {
                if self.flags[v as usize] & REGION == 0 {
                    self.record(kept, v);
                    self.flags[v as usize] |= REGION;
                    self.region.push(v);
                }
            }
            work += g.degree(s) as u64;
        }

        // 1. Level 0 for the region. Invalid levels become `u32::MAX`: a
        // non-boundary vertex that moved (or was added) has none; one that
        // left the boundary loses its level, and its level-1 dependents
        // need a check. Other levels are checked in step 2.
        for k in 0..self.region.len() {
            let v = self.region[k];
            let vi = v as usize;
            work += g.degree(v) as u64;
            let l = kept.layering.level[vi];
            if let Some(q) = self.tally.foreign_majority(g, assign, v) {
                kept.layering.level[vi] = 0;
                kept.layering.tag[vi] = q;
            } else if kept.assign[vi] != assign[vi] {
                kept.layering.level[vi] = u32::MAX;
            } else if l == 0 {
                kept.layering.level[vi] = u32::MAX;
                work += self.queue_dependents(g, assign, kept, v, 0, CHECK);
            } else if l != u32::MAX {
                self.enqueue(kept, v, l, CHECK);
            }
        }

        // 2. Invalidation, in increasing kept level: a vertex keeps its
        // level while a same-part neighbour keeps the level one closer.
        while let Some((l, v)) = self.queue.pop() {
            let vi = v as usize;
            if kept.layering.level[vi] != l {
                continue;
            }
            work += g.degree(v) as u64;
            let supported = g.neighbors(v).iter().any(|&u| {
                assign[u as usize] == assign[vi] && kept.layering.level[u as usize] == l - 1
            });
            if !supported {
                kept.layering.level[vi] = u32::MAX;
                work += self.queue_dependents(g, assign, kept, v, l, CHECK);
            }
        }

        // 3. Levels: every kept level is now an upper bound. The region's
        // boundary vertices, and every region or invalidated vertex that
        // a neighbour offers a shorter distance, start a BFS bucketed by
        // level.
        self.queue.clear();
        for k in 0..self.log.len() {
            let v = self.log[k].0;
            let vi = v as usize;
            let lv = kept.layering.level[vi];
            if self.flags[vi] & REGION == 0 && lv != u32::MAX {
                continue;
            }
            if lv == 0 {
                self.queue.push(0, v);
                continue;
            }
            work += g.degree(v) as u64;
            let lay = &kept.layering;
            let best = g
                .neighbors(v)
                .iter()
                .filter(|&&u| assign[u as usize] == assign[vi])
                .map(|&u| lay.level[u as usize])
                .min()
                .unwrap_or(u32::MAX);
            if best != u32::MAX && best + 1 < lv {
                kept.layering.level[vi] = best + 1;
                self.queue.push(best + 1, v);
            }
        }
        while let Some((d, v)) = self.queue.pop() {
            if kept.layering.level[v as usize] != d {
                continue;
            }
            for &w in g.neighbors(v) {
                work += 1;
                let wi = w as usize;
                if assign[wi] == assign[v as usize] && kept.layering.level[wi] > d + 1 {
                    self.record(kept, w);
                    kept.layering.level[wi] = d + 1;
                    self.queue.push(d + 1, w);
                }
            }
        }

        // 4. Tags, in increasing level, from every touched vertex. The
        // dependents a vertex had at its old level are touched already:
        // invalidation queued them if the level rose, the level BFS
        // lowered them if it fell.
        self.queue.clear();
        for k in 0..self.log.len() {
            let v = self.log[k].0;
            let l = kept.layering.level[v as usize];
            if l == u32::MAX {
                kept.layering.tag[v as usize] = NO_PART;
            } else {
                self.enqueue(kept, v, l, RETAG);
            }
        }
        while let Some((l, v)) = self.queue.pop() {
            let vi = v as usize;
            if l > 0 {
                // Interior: every neighbour is in v's part.
                work += g.degree(v) as u64;
                for &u in g.neighbors(v) {
                    if kept.layering.level[u as usize] == l - 1 {
                        self.tally.add(kept.layering.tag[u as usize]);
                    }
                }
                kept.layering.tag[vi] = self.tally.majority().expect("a levelled neighbour");
            } else {
                debug_assert!(
                    self.flags[vi] & REGION != 0,
                    "only the region changes level 0"
                );
            }
            let (_, _, old_level, old_tag) = self.log[self.slot[vi] as usize];
            if (l, kept.layering.tag[vi]) != (old_level, old_tag) {
                work += self.queue_dependents(g, assign, kept, v, l, RETAG);
            }
        }

        // 5. λ, and the kept assignment, for every touched vertex.
        let p = kept.layering.num_parts;
        for &(v, old_part, _, old_tag) in &self.log {
            let vi = v as usize;
            let (part, tag) = (assign[vi], kept.layering.tag[vi]);
            if (part, tag) != (old_part, old_tag) {
                let lambda = &mut kept.layering.lambda;
                if old_part != NO_PART && old_tag != NO_PART {
                    lambda[old_part as usize * p + old_tag as usize] -= 1;
                }
                if tag != NO_PART {
                    lambda[part as usize * p + tag as usize] += 1;
                }
                kept.assign[vi] = part;
            }
            self.flags[vi] = 0;
        }
        kept.edited.clear();
        kept.layering.work = work;
        Some(self.log.len())
    }

    /// Queue (with `flag`) `v`'s same-part neighbours at level `l + 1`,
    /// the vertices that count `v` as one level closer. Returns the edge
    /// scans.
    fn queue_dependents(
        &mut self,
        g: &CsrGraph,
        assign: &[PartId],
        kept: &Kept,
        v: NodeId,
        l: u32,
        flag: u8,
    ) -> u64 {
        for &w in g.neighbors(v) {
            let wi = w as usize;
            if assign[wi] == assign[v as usize] && kept.layering.level[wi] == l + 1 {
                self.enqueue(kept, w, l + 1, flag);
            }
        }
        g.degree(v) as u64
    }
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

    /// A random history step on (`g`, `assign`), followed by `carried`:
    /// growth, churn with vertex and edge removals, random moves,
    /// wholesale replacement, a component folded into one part (no
    /// boundary: `NO_PART`), or an overload drained by a multi-stage
    /// balance that repairs on every stage.
    fn history_step(
        g: &mut CsrGraph,
        assign: &mut Vec<PartId>,
        parts: usize,
        carried: &mut CarriedLayering,
        op: u64,
        h: u64,
    ) {
        use crate::balance::balance_carried;
        use crate::config::IgpConfig;
        use igp_graph::traversal::{bfs_distances, connected_components};
        let n = g.num_vertices();
        let pick = |i: u64| ((h ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize;
        match op % 6 {
            op @ (0 | 1) => {
                let d = if op == 0 {
                    generators::localized_growth_delta(
                        g,
                        (pick(1) % n) as NodeId,
                        1 + pick(2) % 6,
                        h,
                    )
                } else {
                    generators::random_churn_delta(g, pick(3) % 4, 1 + pick(4) % 3, h)
                };
                let inc = d.apply(g);
                carried.follow(&inc);
                let mut next = vec![0; inc.new_graph().num_vertices()];
                for (v, slot) in next.iter_mut().enumerate() {
                    let o = inc.old_of_new(v as NodeId);
                    *slot = if o == INVALID_NODE {
                        (pick(v as u64) % parts) as PartId
                    } else {
                        assign[o as usize]
                    };
                }
                *assign = next;
                *g = inc.into_new_graph();
            }
            2 => {
                for k in 0..1 + pick(5) % 8 {
                    assign[pick(10 + k as u64) % n] = (pick(30 + k as u64) % parts) as PartId;
                }
            }
            3 => *assign = testkit::jagged_assign(n, parts, 3 + h % 5, h),
            4 => {
                // A small component where there is one.
                let (k, comp) = connected_components(g);
                let mut size = vec![0usize; k];
                for &c in &comp {
                    size[c as usize] += 1;
                }
                let mut c = comp[pick(6) % n];
                if size[c as usize] > n / 8 {
                    c = (0..k as u32).min_by_key(|&c| size[c as usize]).unwrap();
                }
                let q = (pick(7) % parts) as PartId;
                for v in 0..n {
                    if comp[v] == c {
                        assign[v] = q;
                    }
                }
            }
            _ => {
                let dist = bfs_distances(g, &[(pick(8) % n) as NodeId]);
                for v in 0..n {
                    if dist[v] <= 2 {
                        assign[v] = 0;
                    }
                }
                let mut cfg = IgpConfig::new(parts);
                cfg.max_stages = 6;
                let mut part = Partitioning::from_assignment(g, parts, assign.clone());
                balance_carried(g, &mut part, &cfg, carried);
                *assign = part.assignment().to_vec();
            }
        }
    }

    /// The graph families the carried-layering properties run on: grids,
    /// sparse random geometric graphs (small components that reach no
    /// boundary) and thin ladders, whose caps force multi-stage funnels.
    fn history_graph(family: usize, n: usize, seed: u64) -> CsrGraph {
        match family {
            0 => generators::grid(n / 24 + 2, 24),
            1 => generators::random_geometric(n, 0.06, seed),
            _ => generators::grid(2, n / 2 + 2),
        }
    }

    proptest! {
        #![proptest_config(testkit::config(64))]

        /// After a random history, the carried layering (repaired where
        /// the seed share allows, recomputed otherwise) has the tags,
        /// levels and λ of a fresh `layer_partitions` of the same graph
        /// and assignment, and keeps that assignment.
        #[test]
        fn repaired_layering_equals_fresh(
            family in 0usize..3,
            n in 300usize..1200,
            parts in 2usize..7,
            steps in 1usize..10,
            seed in any::<u64>(),
        ) {
            let mut g = history_graph(family, n, seed);
            let mut assign = testkit::jagged_assign(g.num_vertices(), parts, 40, seed);
            let mut carried = CarriedLayering::new();
            let mut h = seed;
            for _ in 0..steps {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                history_step(&mut g, &mut assign, parts, &mut carried, h >> 40, h);
                let fresh = layer_partitions(&g, &assign, parts);
                let (lay, kept) = carried.layer(&g, &assign, parts);
                prop_assert_eq!(&lay.tag, &fresh.tag);
                prop_assert_eq!(&lay.level, &fresh.level);
                prop_assert_eq!(&lay.lambda, &fresh.lambda);
                prop_assert_eq!(kept, &assign[..]);
            }
        }
    }

    #[test]
    fn history_corpus_reaches_every_path() {
        // The property's histories must really repair (on every op but
        // the wholesale replacement), fall back to full layerings, and
        // reach NO_PART.
        let mut repaired_ops = [false; 6];
        let (mut fulls, mut no_part) = (0, false);
        for seed in 0..48u64 {
            let family = (seed % 3) as usize;
            let mut g = history_graph(family, 600, seed);
            let mut assign = testkit::jagged_assign(g.num_vertices(), 4, 40, seed);
            let mut carried = CarriedLayering::new();
            carried.layer(&g, &assign, 4);
            for step in 0..6u64 {
                let op = (seed + step) % 6;
                let before = carried.counts().0;
                history_step(&mut g, &mut assign, 4, &mut carried, op, seed * 31 + step);
                let (lay, _) = carried.layer(&g, &assign, 4);
                no_part |= lay.tag.contains(&NO_PART);
                repaired_ops[op as usize] |= carried.counts().0 > before;
            }
            fulls += carried.counts().1;
        }
        let want = [true, true, true, false, true, true];
        assert_eq!(repaired_ops, want, "an op never took the repair path");
        assert!(fulls > 48, "no history fell back to a full layering");
        assert!(no_part);
    }

    /// Increments that are followed without a layering in between
    /// accumulate edited rows: repeated edits of the same rows keep the
    /// carrier, distinct rows past the repair limit drop it.
    #[test]
    fn edited_rows_accumulate_up_to_the_limit() {
        use igp_graph::GraphDelta;
        let mut g = generators::grid(20, 20);
        let assign = testkit::jagged_assign(400, 4, 40, 3);
        let mut carried = CarriedLayering::new();
        carried.layer(&g, &assign, 4);
        for k in 0..40 {
            // Toggle one far edge: the same two rows every time.
            let d = if k % 2 == 0 {
                GraphDelta {
                    add_edges: vec![(0, 399, 1)],
                    ..Default::default()
                }
            } else {
                GraphDelta {
                    remove_edges: vec![(0, 399)],
                    ..Default::default()
                }
            };
            let inc = d.apply(&g);
            carried.follow(&inc);
            g = inc.into_new_graph();
        }
        carried.layer(&g, &assign, 4);
        assert_eq!(carried.counts(), (1, 1), "repeated rows keep the carrier");
        for k in 0..30u32 {
            // Distinct rows: 60 > 400 / 16.
            let d = GraphDelta {
                add_edges: vec![(k, 399 - k, 1)],
                ..Default::default()
            };
            let inc = d.apply(&g);
            carried.follow(&inc);
            g = inc.into_new_graph();
        }
        carried.layer(&g, &assign, 4);
        assert_eq!(
            carried.counts(),
            (1, 2),
            "distinct rows past the limit drop it"
        );
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
