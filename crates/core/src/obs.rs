//! Core-layer metrics: repartition wall-clock per driver, simplex pivot
//! totals, coalesced-batch sizes, edge-cut before/after, from-scratch
//! signals, and which path each layering took. Registered into the
//! global igp-obs registry (naming per DESIGN.md §10.1).
//!
//! Everything here is timing and counting only — the instrumentation
//! must never influence the repartition result, which the replay
//! determinism contract requires to be a pure function of
//! (graph, partitioning, config).

use std::sync::{Arc, OnceLock};

use igp_obs::{registry, Counter, Gauge, Histogram};

/// All core-layer metric handles; one instance per process.
pub struct CoreMetrics {
    /// `igp_core_repartition_us{driver="sequential"}` — wall time of one
    /// sequential repartition.
    pub repartition_us_seq: Arc<Histogram>,
    /// `igp_core_repartition_us{driver="parallel"}`.
    pub repartition_us_par: Arc<Histogram>,
    /// `igp_core_repartitions_total{driver=…}`.
    pub repartitions_total_seq: Arc<Counter>,
    /// See [`Self::repartitions_total_seq`].
    pub repartitions_total_par: Arc<Counter>,
    /// `igp_core_pivots_total` — simplex pivots across all LP solves.
    pub pivots_total: Arc<Counter>,
    /// `igp_core_moved_vertices_total` — vertices moved by balancing +
    /// refinement (the remap cost the paper prices).
    pub moved_vertices_total: Arc<Counter>,
    /// `igp_core_coalesced_batch_deltas` — deltas folded per flush.
    pub coalesced_batch_deltas: Arc<Histogram>,
    /// `igp_core_coalesced_delta_ops` — net edit ops per flushed batch.
    pub coalesced_delta_ops: Arc<Histogram>,
    /// `igp_core_edge_cut_before` — cut entering the last repartition.
    pub edge_cut_before: Arc<Gauge>,
    /// `igp_core_edge_cut_after` — cut leaving the last repartition.
    pub edge_cut_after: Arc<Gauge>,
    /// `igp_core_scratch_signals_total` — steps that raised the paper's
    /// repartition-from-scratch signal (capped balancing infeasible).
    pub scratch_signals_total: Arc<Counter>,
    /// `igp_core_layerings_total{mode="repair"}` — balance-stage
    /// layerings repaired from the carried one.
    pub layerings_repair: Arc<Counter>,
    /// `igp_core_layerings_total{mode="full"}` — layerings computed from
    /// scratch (cold start, large change, stateless callers).
    pub layerings_full: Arc<Counter>,
    /// `igp_core_layering_repair_vertices` — vertices a repair examined.
    pub layering_repair_vertices: Arc<Histogram>,
}

/// The core layer's registered metric handles.
pub fn metrics() -> &'static CoreMetrics {
    static M: OnceLock<CoreMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = registry();
        let rep_us = |driver: &str| {
            r.histogram(
                "igp_core_repartition_us",
                "Repartition wall time, all four phases (microseconds)",
                vec![("driver", driver.to_string())],
            )
        };
        let rep_n = |driver: &str| {
            r.counter(
                "igp_core_repartitions_total",
                "Incremental repartitions executed",
                vec![("driver", driver.to_string())],
            )
        };
        let layerings = |mode: &str| {
            r.counter(
                "igp_core_layerings_total",
                "Balance-stage layerings, repaired or computed in full",
                vec![("mode", mode.to_string())],
            )
        };
        CoreMetrics {
            repartition_us_seq: rep_us("sequential"),
            repartition_us_par: rep_us("parallel"),
            repartitions_total_seq: rep_n("sequential"),
            repartitions_total_par: rep_n("parallel"),
            pivots_total: r.counter(
                "igp_core_pivots_total",
                "Simplex pivots across every LP solve",
                vec![],
            ),
            moved_vertices_total: r.counter(
                "igp_core_moved_vertices_total",
                "Vertices moved by balancing and refinement",
                vec![],
            ),
            coalesced_batch_deltas: r.histogram(
                "igp_core_coalesced_batch_deltas",
                "Queued deltas folded into one increment per flush",
                vec![],
            ),
            coalesced_delta_ops: r.histogram(
                "igp_core_coalesced_delta_ops",
                "Net edit operations in a flushed coalesced delta",
                vec![],
            ),
            edge_cut_before: r.gauge(
                "igp_core_edge_cut_before",
                "Edge cut entering the most recent repartition",
                vec![],
            ),
            edge_cut_after: r.gauge(
                "igp_core_edge_cut_after",
                "Edge cut leaving the most recent repartition",
                vec![],
            ),
            scratch_signals_total: r.counter(
                "igp_core_scratch_signals_total",
                "Steps where capped balancing gave up (from-scratch signal)",
                vec![],
            ),
            layerings_repair: layerings("repair"),
            layerings_full: layerings("full"),
            layering_repair_vertices: r.histogram(
                "igp_core_layering_repair_vertices",
                "Vertices examined by one layering repair",
                vec![],
            ),
        }
    })
}
