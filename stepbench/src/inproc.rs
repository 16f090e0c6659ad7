//! The in-process workloads' measured loop, untraced and traced.
//!
//! Each step submits one delta through `IgpSession::queue_delta` (the
//! ack: validated and queued, no repartition), steps with
//! `IgpSession::flush` (one `apply_delta` of the queued delta plus the
//! repartition) and reads the partition back as the member list of each
//! part (`Partitioning::all_members`, what a solver needs to migrate its
//! data). Input generation happens between the timed calls.

use crate::alloc;
use crate::compose::Composer;
use crate::report::{Quality, Report};
use crate::stats::Samples;
use crate::trace::Tracer;
use igp_core::session::IgpSession;
use igp_core::IgpConfig;
use igp_graph::{CsrGraph, GraphDelta, Partitioning};
use std::time::Instant;

/// Produces step `k`'s delta against the current graph.
pub type Stream<'a> = dyn FnMut(&CsrGraph, usize) -> GraphDelta + 'a;

/// The untraced run. `setup` builds a fresh session and is timed `reps`
/// times, spread evenly over the run so the set-up samples see the same
/// host as the steps: the first session is the one stepped, the others
/// are dropped at once and kept out of the program's memory figure.
pub fn untraced(
    r: &mut Report,
    reps: usize,
    mut setup: impl FnMut() -> IgpSession,
    next: &mut Stream,
    steps: usize,
) {
    let mut setup_s = Samples::default();
    let t = Instant::now();
    let mut s = alloc::program(&mut setup);
    setup_s.push(t.elapsed().as_secs_f64());
    let (mut ack, mut step, mut read) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut q = Quality::default();
    let mut extra = 1;
    for k in 0..steps {
        if extra < reps && k >= extra * steps / reps {
            extra += 1;
            alloc::as_harness(|| {
                let t = Instant::now();
                let spare = setup();
                setup_s.push(t.elapsed().as_secs_f64());
                drop(spare);
            });
        }
        let d = next(s.graph(), k);
        r.attempted += 3;
        let t = Instant::now();
        let queued = alloc::program(|| s.queue_delta(&d));
        ack.push_ms(t.elapsed());
        if let Err(e) = queued {
            r.failed += 3;
            r.check(format!("step {k} delta accepted"), false, e.to_string());
            continue;
        }
        let t = Instant::now();
        let summary = alloc::program(|| s.flush());
        step.push_ms(t.elapsed());
        let Some(summary) = summary else {
            r.failed += 2;
            r.check(format!("step {k} stepped"), false, "flush was a no-op");
            continue;
        };
        if !summary.balanced {
            r.failed += 1;
        }
        let t = Instant::now();
        let members = alloc::program(|| s.partitioning().all_members());
        read.push_ms(t.elapsed());
        drop(std::hint::black_box(members));
        q.record(summary.cut, summary.imbalance, summary.moved);
        r.host.sample();
    }
    r.memory();
    r.timing("setup_s", &setup_s, None, "s");
    r.timing("step_ms_p50", &step, None, "ms");
    r.timing("step_ms_p90", &step, Some(0.9), "ms");
    r.timing("ack_ms_p50", &ack, None, "ms");
    r.timing("ack_ms_p90", &ack, Some(0.9), "ms");
    r.timing("read_ms_p50", &read, None, "ms");
    q.report(r);
    for (key, samples) in [
        ("setup_s", &setup_s),
        ("step_ms", &step),
        ("ack_ms", &ack),
        ("read_ms", &read),
    ] {
        r.info_samples(key, samples);
    }
    r.check(
        "final partition valid",
        s.partitioning().validate(s.graph()).is_ok(),
        format!("n={} steps={}", s.graph().num_vertices(), s.steps()),
    );
    r.check(
        "every step balanced",
        s.history().iter().all(|h| h.balanced),
        format!("{} steps", s.history().len()),
    );
}

/// The traced run: the same stream through the phase-by-phase
/// composition and, interleaved on the same deltas, through an untraced
/// `IgpSession` from `graph` partitioned as `part`. The composition must
/// end every step where the session does; the session's steps are the
/// untraced side of the tracing overhead.
pub fn traced(
    r: &mut Report,
    tr: &mut Tracer,
    graph: CsrGraph,
    part: Partitioning,
    cfg: IgpConfig,
    next: &mut Stream,
    steps: usize,
) {
    let mut session = IgpSession::new(graph.clone(), part.clone(), cfg.clone(), true);
    let mut c = Composer::new(graph, part, cfg);
    let mut q = Quality::default();
    for k in 0..steps {
        let d = next(&c.graph, k);
        r.attempted += 2;
        // Alternate which side runs first, so neither always finds the
        // caches the other left.
        let mut traced = None;
        if k % 2 == 1 {
            traced = Some(compose_step(tr, &mut c, k, &d));
        }
        let queued = session.queue_delta(&d).is_ok();
        let (stepped, ms) = tr.time("untraced.flush", 0, k, || session.flush().is_some());
        c.stats.untraced_step_ms.push(ms);
        let stepped = queued && stepped;
        let traced = traced.unwrap_or_else(|| compose_step(tr, &mut c, k, &d));
        let Some((cut, imbalance, moved)) = traced.ok().filter(|_| stepped) else {
            r.failed += 2;
            r.check(format!("step {k} stepped"), false, "delta refused");
            break;
        };
        if session.partitioning().assignment() != c.part.assignment() {
            c.mismatches
                .push(format!("step {k}: composition != IgpSession::flush"));
        }
        q.record(cut, imbalance, moved);
        r.host.sample();
    }
    c.report(tr, r);
    r.info("traced_quality", q.to_json());
}

fn compose_step(
    tr: &mut Tracer,
    c: &mut Composer,
    k: usize,
    d: &GraphDelta,
) -> Result<(u64, f64, u64), String> {
    c.ack(tr, k, d)?;
    Ok(c.step(tr, k))
}
