//! The step benchmark: end-to-end and per-layer timing of incremental
//! repartitioning on three workloads. See `stepbench/NOTES.md`.
//!
//! ```text
//! cargo run --release --manifest-path stepbench/Cargo.toml -- \
//!     --workload trickle-400k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints one line per output check and metric, then the result as one
//! JSON line; writes an artifact (and, traced, a span file) under
//! `.bench_build/stepbench-out/`. Exits 1 if any output check fails.

mod alloc;
mod compose;
mod inproc;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{available_parallelism, handoff_ref_us, json_str, num, online_cpus, Report, OUT_DIR};
use std::process::ExitCode;
use trace::Tracer;
use workloads::{burst, churn, trickle};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The end-to-end metrics every untraced run prints, with units. The
/// ack timings are measured too but only written to the artifact: on
/// trickle-400k they are too unsteady to gate (see NOTES.md).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p90", "ms"),
    ("read_ms_p50", "ms"),
    ("edge_cut", "count"),
    ("imbalance_max", "ratio"),
    ("moved_mean", "count"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics of the daemon, scraped from its `/metrics`.
const DAEMON_LAYERS: &[(&str, &str)] = &[
    ("service.delta_us_p50", "us"),
    ("service.delta_us_p90", "us"),
    ("service.part_us_p50", "us"),
    ("net.pool_queue_wait_us_p90", "us"),
    ("net.loop_iter_us_p90", "us"),
    ("core.repartition_us_p50", "us"),
    ("store.wal_append_us_p50", "us"),
    ("store.snapshot_ms_p50", "ms"),
    ("store.snapshots_total", "count"),
];

/// The per-layer metrics every traced run prints, with units. A layer a
/// workload never calls reports 0 (see `bypassed`).
const PER_LAYER: &[(&str, &str)] = &[
    ("graph.edit_ms_p50", "ms"),
    ("graph.cut_ms_p50", "ms"),
    ("graph.coalesce_us_p50", "us"),
    ("graph.delta_ops_mean", "count"),
    ("core.assign_ms_p50", "ms"),
    ("core.assign_work_mean", "count"),
    ("core.layer_ms_p50", "ms"),
    ("core.layer_work_mean", "count"),
    ("core.balance_ms_p50", "ms"),
    ("core.balance_stages_mean", "count"),
    ("core.balance_moved_mean", "count"),
    ("core.refine_ms_p50", "ms"),
    ("core.refine_iters_mean", "count"),
    ("core.refine_rollbacks_total", "count"),
    ("core.refine_work_mean", "count"),
    ("core.session_ms_p50", "ms"),
    ("core.work_per_touched", "ratio"),
    ("lp.balance_vars_mean", "count"),
    ("lp.balance_rows_mean", "count"),
    ("lp.pivots_mean", "count"),
    ("spectral.rsb_s", "s"),
    ("service.delta_us_p50", "us"),
    ("service.delta_us_p90", "us"),
    ("service.part_us_p50", "us"),
    ("net.pool_queue_wait_us_p90", "us"),
    ("net.loop_iter_us_p90", "us"),
    ("core.repartition_us_p50", "us"),
    ("store.wal_append_us_p50", "us"),
    ("store.snapshot_ms_p50", "ms"),
    ("store.snapshots_total", "count"),
    ("trace.step_ms_p50", "ms"),
    ("trace.overhead_ms", "ms"),
    ("host_ref_ms", "ms"),
];

/// Per-layer metrics of layers the workload never calls.
fn bypassed(workload: &str) -> Vec<(&'static str, &'static str)> {
    match workload {
        "trickle-400k" => [("spectral.rsb_s", "s")]
            .into_iter()
            .chain(DAEMON_LAYERS.iter().copied())
            .collect(),
        "burst-mesh" => DAEMON_LAYERS.to_vec(),
        _ => Vec::new(),
    }
}

/// A workload: fills the report from `(tracer, seed, steps)`.
type Workload = fn(&mut Report, Option<&mut Tracer>, u64, usize);

struct Args {
    workload: String,
    seed: u64,
    seconds: usize,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20usize, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds: seconds.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "stepbench: {e}\nusage: --workload trickle-400k|burst-mesh|serve-churn \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let (run, rate): (Workload, usize) = match args.workload.as_str() {
        "trickle-400k" => (trickle::run, trickle::STEPS_PER_SECOND),
        "burst-mesh" => (burst::run, burst::STEPS_PER_SECOND),
        "serve-churn" => (churn::run, churn::STEPS_PER_SECOND),
        other => {
            eprintln!("stepbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    // The step budget scales with --seconds, so a seed always yields the
    // same inputs and the same quality counts.
    let steps = args.seconds * rate;

    alloc::harness();
    let mut r = Report::default();
    let kept = alloc::keep_freed_memory();
    let handoff_start = handoff_ref_us();
    let mut tracer = args.trace.then(Tracer::new);
    run(&mut r, tracer.as_mut(), args.seed, steps);
    let handoff_end = handoff_ref_us();
    let host_ref = std::mem::take(&mut r.host.samples);
    r.metric("host_ref_ms", host_ref.p50(), "ms");
    r.info_samples("host_ref_ms", &host_ref);
    r.at_nominal_host_speed(host_ref.p50());

    r.info("workload", json_str(&args.workload));
    r.info("seed", args.seed.to_string());
    r.info("steps", steps.to_string());
    r.info("trace", args.trace.to_string());
    r.info("allocator_keeps_freed_memory", kept.to_string());
    r.info(
        "host",
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"handoff_ref_us_start\": {}, \"handoff_ref_us_end\": {}}}",
            online_cpus(),
            available_parallelism(),
            handoff_start.map_or("null".to_string(), num),
            handoff_end.map_or("null".to_string(), num)
        ),
    );
    r.info(
        "thread_plan",
        json_str(&format!(
            "harness: 1 thread driving every call; layering forks available_parallelism() = {} \
             scoped threads per call; serve-churn adds the daemon's event loop + 1 pool worker \
             and 1 client connection",
            available_parallelism()
        )),
    );

    let declared = if args.trace {
        for (name, unit) in bypassed(&args.workload) {
            r.metric(name, 0.0, unit);
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    let file = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    if let Some(tr) = &tracer {
        let spans = std::path::Path::new(OUT_DIR).join(format!("{file}.spans.tsv"));
        if let Err(e) =
            std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&spans, tr.to_tsv()))
        {
            eprintln!("stepbench: cannot write {}: {e}", spans.display());
        }
    }
    for &(name, unit) in declared {
        let found = r.metrics.iter().find(|m| m.name == name);
        r.check(
            format!("metric {name}"),
            found.is_some_and(|m| m.unit == unit && m.value.is_finite()),
            found.map_or("missing".to_string(), |m| {
                format!("{} {}", num(m.value), m.unit)
            }),
        );
    }
    match r.write_artifact(&format!("{file}.json")) {
        Ok(path) => eprintln!("stepbench: artifact {}", path.display()),
        Err(e) => eprintln!("stepbench: cannot write artifact: {e}"),
    }
    r.metrics
        .retain(|m| declared.iter().any(|&(name, _)| name == m.name));
    r.metrics
        .sort_by_key(|m| declared.iter().position(|&(name, _)| name == m.name));
    r.print();
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .expect("field present")
                + key.len()
                + 5;
            entry[at..]
                .split('"')
                .next()
                .expect("quoted value")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }
}
