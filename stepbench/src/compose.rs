//! The traced step: the same computation `IgpSession::queue_delta` +
//! `IgpSession::flush` performs, composed here from the crates' public
//! functions so each layer call can be wrapped in a span.
//!
//! Order of calls, as in the session (with metric recording on, the
//! default):
//! coalescer push per delta (the ack) → `net()` + `GraphDelta::apply` →
//! cut before → assign → balance (its layering stages inside) → refine →
//! the repartition report's cut → the step summary's cut → adoption
//! (identity-map compose, new graph and partition taken).
//!
//! Every step is checked against `IncrementalPartitioner::repartition`
//! on the same increment, bit for bit, outside the spans (and, by the
//! caller, against an untraced session on the same stream). A layering
//! probe (one `layer_partitions` call on the post-assign partition) is
//! timed outside the step too, because layering runs inside `balance`
//! where the harness cannot reach it.

use crate::report::{num, Report};
use crate::stats::Samples;
use crate::trace::Tracer;
use igp_core::assign::assign_new_vertices;
use igp_core::balance::balance;
use igp_core::layer::layer_partitions;
use igp_core::refine::refine;
use igp_core::{IgpConfig, IncrementalPartitioner};
use igp_graph::{
    CsrGraph, CutMetrics, DeltaCoalescer, GraphDelta, NodeId, Partitioning, INVALID_NODE,
};

/// Counts and timings gathered along the traced steps.
#[derive(Default)]
pub struct LayerStats {
    pub coalesce_us: Samples,
    pub delta_ops: Samples,
    pub step_ms: Samples,
    pub session_ms: Samples,
    pub assign_work: Samples,
    pub layer_ms: Samples,
    pub layer_work: Samples,
    pub balance_stages: Samples,
    pub balance_moved: Samples,
    pub balance_vars: Samples,
    pub balance_rows: Samples,
    pub pivots: Samples,
    pub refine_iters: Samples,
    pub refine_rollbacks: Samples,
    pub refine_work: Samples,
    pub work_per_touched: Samples,
    /// Per step, the self time of each layer in the step (edit, assign,
    /// balance, refine, report cut, session) and what no span covers.
    pub edit_ms: Samples,
    pub assign_ms: Samples,
    pub balance_ms: Samples,
    pub refine_ms: Samples,
    pub report_cut_ms: Samples,
    pub unspanned_ms: Samples,
    /// The same steps untraced, interleaved with the traced ones by the
    /// caller: the other side of the tracing overhead.
    pub untraced_step_ms: Samples,
}

/// Session state mirrored by the harness.
pub struct Composer {
    pub graph: CsrGraph,
    pub part: Partitioning,
    base_of_current: Vec<NodeId>,
    cfg: IgpConfig,
    reference: IncrementalPartitioner,
    pending: Option<DeltaCoalescer>,
    pub stats: LayerStats,
    /// Steps whose composition differed from the reference.
    pub mismatches: Vec<String>,
}

pub fn ops(d: &GraphDelta) -> usize {
    d.add_vertices.len() + d.remove_vertices.len() + d.add_edges.len() + d.remove_edges.len()
}

impl Composer {
    pub fn new(graph: CsrGraph, part: Partitioning, cfg: IgpConfig) -> Self {
        let base_of_current = (0..graph.num_vertices() as NodeId).collect();
        Composer {
            graph,
            part,
            base_of_current,
            reference: IncrementalPartitioner::igpr(cfg.clone()),
            cfg,
            pending: None,
            stats: LayerStats::default(),
            mismatches: Vec::new(),
        }
    }

    /// Queue one delta (the ack path of `IgpSession::queue_delta`).
    pub fn ack(&mut self, tr: &mut Tracer, step: usize, d: &GraphDelta) -> Result<(), String> {
        let graph = &self.graph;
        let pending = &mut self.pending;
        let (r, ms) = tr.time("graph.coalesce", 0, step, || {
            pending
                .get_or_insert_with(|| DeltaCoalescer::new(graph.num_vertices()))
                .push_verified(d, graph)
        });
        self.stats.coalesce_us.push(ms * 1e3);
        self.stats.delta_ops.push(ops(d) as f64);
        r.map_err(|e| format!("delta refused: {e}"))
    }

    /// Apply everything queued as one step (the path of
    /// `IgpSession::flush`). Returns `(cut, imbalance, moved)`.
    pub fn step(&mut self, tr: &mut Tracer, k: usize) -> (u64, f64, u64) {
        let co = self.pending.take().expect("step without queued deltas");
        let p = self.cfg.num_parts;

        let root = tr.begin("step", 0, k);
        let ((net_ops, inc), edit_ms) = tr.time("graph.edit", root, k, || {
            let net = co.net();
            (ops(&net), net.apply(&self.graph))
        });
        let (_, cut_before_ms) = tr.time("graph.cut", root, k, || {
            CutMetrics::compute(inc.old(), &self.part)
        });
        let g = inc.new_graph();
        let ((mut part, assign), assign_ms) = tr.time("core.assign", root, k, || {
            let (a, r) = assign_new_vertices(&inc, &self.part);
            (Partitioning::from_assignment(g, p, a), r)
        });
        let (bal, balance_ms) =
            tr.time("core.balance", root, k, || balance(g, &mut part, &self.cfg));
        let (refined, refine_ms) =
            tr.time("core.refine", root, k, || refine(g, &mut part, &self.cfg));
        let (metrics, report_cut_ms) =
            tr.time("graph.cut", root, k, || CutMetrics::compute(g, &part));
        let (summary, summary_cut_ms) =
            tr.time("graph.cut", root, k, || CutMetrics::compute(g, &part));
        // Adopt the step as the session does: compose the identity map,
        // take the new graph and partition. The old ones are freed after
        // the span, once the reference has used them.
        let ((_old_graph, old_part), adopt_ms) = tr.time("core.session", root, k, || {
            let mut base = vec![INVALID_NODE; inc.new_graph().num_vertices()];
            for (v, slot) in base.iter_mut().enumerate() {
                let old = inc.old_of_new(v as NodeId);
                if old != INVALID_NODE {
                    *slot = self.base_of_current[old as usize];
                }
            }
            self.base_of_current = base;
            (
                std::mem::replace(&mut self.graph, inc.new_graph().clone()),
                std::mem::replace(&mut self.part, part),
            )
        });
        let step_ms = tr.end(root);

        let s = &mut self.stats;
        let session_ms = cut_before_ms + summary_cut_ms + adopt_ms;
        let layers_ms = [
            edit_ms,
            assign_ms,
            balance_ms,
            refine_ms,
            report_cut_ms,
            session_ms,
        ];
        s.step_ms.push(step_ms);
        s.session_ms.push(session_ms);
        for (samples, ms) in [
            &mut s.edit_ms,
            &mut s.assign_ms,
            &mut s.balance_ms,
            &mut s.refine_ms,
            &mut s.report_cut_ms,
        ]
        .into_iter()
        .zip(layers_ms)
        {
            samples.push(ms);
        }
        s.unspanned_ms.push(step_ms - layers_ms.iter().sum::<f64>());
        s.assign_work.push(assign.work as f64);
        s.layer_work
            .push(bal.stages.iter().map(|st| st.layer_work).sum::<u64>() as f64);
        s.balance_stages.push(bal.stages.len() as f64);
        s.balance_moved.push(bal.total_moved as f64);
        for st in &bal.stages {
            s.balance_vars.push(st.lp.vars as f64);
            s.balance_rows.push(st.lp.constraints as f64);
        }
        let pivots: usize = bal.stages.iter().map(|st| st.lp.pivots).sum::<usize>()
            + refined.iters.iter().map(|it| it.lp.pivots).sum::<usize>();
        s.pivots.push(pivots as f64);
        s.refine_iters.push(refined.iters.len() as f64);
        s.refine_rollbacks
            .push(refined.iters.iter().filter(|it| it.rolled_back).count() as f64);
        s.refine_work.push(refined.work as f64);
        let boundary: u64 = metrics
            .per_part
            .iter()
            .map(|c| c.boundary_vertices as u64)
            .sum();
        let work = assign.work + bal.work + refined.work;
        s.work_per_touched
            .push(work as f64 / (net_ops as u64 + boundary).max(1) as f64);

        // Outside the spans: the reference repartition on the same
        // increment, and the layering probe.
        let (ref_part, ref_report) = self.reference.repartition(&inc, &old_part);
        let (post_assign, _) = assign_new_vertices(&inc, &old_part);
        let (_, layer_ms) = tr.time("core.layer", 0, k, || {
            layer_partitions(inc.new_graph(), &post_assign, p)
        });
        s.layer_ms.push(layer_ms);
        let moved = bal.total_moved + refined.total_moved;
        if ref_part.assignment() != self.part.assignment()
            || ref_report.total_moved() != moved
            || ref_report.metrics != metrics
        {
            self.mismatches.push(format!(
                "step {k}: composition cut={} moved={moved} vs repartition cut={} moved={}",
                metrics.total_cut_edges,
                ref_report.metrics.total_cut_edges,
                ref_report.total_moved()
            ));
        }
        (summary.total_cut_edges, summary.count_imbalance, moved)
    }

    /// The per-layer metrics of the composition, from its spans and
    /// reports, plus the output check on every step.
    pub fn report(&self, tr: &Tracer, r: &mut Report) {
        let st = tr.self_times();
        let span = |name: &str| st.get(name).cloned().unwrap_or_default();
        let s = &self.stats;
        r.timing("graph.edit_ms_p50", &span("graph.edit"), None, "ms");
        r.timing("graph.cut_ms_p50", &span("graph.cut"), None, "ms");
        r.timing("graph.coalesce_us_p50", &s.coalesce_us, None, "us");
        r.metric("graph.delta_ops_mean", s.delta_ops.mean(), "count");
        r.timing("core.assign_ms_p50", &span("core.assign"), None, "ms");
        r.metric("core.assign_work_mean", s.assign_work.mean(), "count");
        r.timing("core.layer_ms_p50", &s.layer_ms, None, "ms");
        r.metric("core.layer_work_mean", s.layer_work.mean(), "count");
        r.timing("core.balance_ms_p50", &span("core.balance"), None, "ms");
        r.metric("core.balance_stages_mean", s.balance_stages.mean(), "count");
        r.metric("core.balance_moved_mean", s.balance_moved.mean(), "count");
        r.timing("core.refine_ms_p50", &span("core.refine"), None, "ms");
        r.metric("core.refine_iters_mean", s.refine_iters.mean(), "count");
        r.metric(
            "core.refine_rollbacks_total",
            s.refine_rollbacks.sum(),
            "count",
        );
        r.metric("core.refine_work_mean", s.refine_work.mean(), "count");
        r.timing("core.session_ms_p50", &s.session_ms, None, "ms");
        r.metric("core.work_per_touched", s.work_per_touched.mean(), "ratio");
        r.metric("lp.balance_vars_mean", s.balance_vars.mean(), "count");
        r.metric("lp.balance_rows_mean", s.balance_rows.mean(), "count");
        r.metric("lp.pivots_mean", s.pivots.mean(), "count");
        r.timing("trace.step_ms_p50", &s.step_ms, None, "ms");
        let untraced = s.untraced_step_ms.p50();
        r.info_samples("traced_step_ms", &s.step_ms);
        r.info_samples("untraced_step_ms", &s.untraced_step_ms);
        // How much of a step the per-layer self times account for. Per
        // step they sum to the traced step less what no span covers;
        // medians do not add, so the sum of the layer medians is given
        // next to the sum of the layer means (which do).
        let layers = [
            &s.edit_ms,
            &s.assign_ms,
            &s.balance_ms,
            &s.refine_ms,
            &s.report_cut_ms,
            &s.session_ms,
        ];
        let overhead = s.step_ms.p50() - untraced;
        let mut paired = Samples::default();
        for (t, u) in s.step_ms.values().iter().zip(s.untraced_step_ms.values()) {
            paired.push(t - u);
        }
        r.info(
            "self_time_accounting",
            format!(
                "{{\"layers_p50_sum_ms\": {}, \"layers_mean_sum_ms\": {}, \"unspanned_mean_ms\": {}, \"traced_step_mean_ms\": {}, \"untraced_step_mean_ms\": {}, \"untraced_step_p50_ms\": {}, \"paired_overhead_p50_ms\": {}}}",
                num(layers.iter().map(|l| l.p50()).sum()),
                num(layers.iter().map(|l| l.mean()).sum()),
                num(s.unspanned_ms.mean()),
                num(s.step_ms.mean()),
                num(s.untraced_step_ms.mean()),
                num(untraced),
                num(paired.p50())
            ),
        );
        r.metric("trace.overhead_ms", overhead, "ms");
        r.check(
            "composition == IncrementalPartitioner::repartition",
            self.mismatches.is_empty() && !s.step_ms.is_empty(),
            match self.mismatches.first() {
                Some(m) => format!(
                    "{} of {} steps differ; first: {m}",
                    self.mismatches.len(),
                    s.step_ms.len()
                ),
                None => format!("{} steps bit-identical", s.step_ms.len()),
            },
        );
        r.check(
            "final partition valid (composition)",
            self.part.validate(&self.graph).is_ok(),
            format!("n={}", self.graph.num_vertices()),
        );
    }
}
