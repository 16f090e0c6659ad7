//! `serve-churn`: the `igp-serve` daemon in-process on loopback, one
//! pool worker, durable data directory, one closed-loop client on one
//! connection. The client opens a 100×100 grid session (`init=rsb`,
//! `policy=every:4`, P = 16), streams `random_churn_delta`s and reads
//! `PART` after each step. Three DELTAs of four are queued acks; the
//! fourth repartitions (and may write a snapshot inline).

use crate::compose::Composer;
use crate::report::{Quality, Report, OUT_DIR};
use crate::stats::Samples;
use crate::trace::Tracer;
use igp_core::IgpConfig;
use igp_graph::{generators, CsrGraph, GraphDelta, PartId, Partitioning};
use igp_service::{
    serve, DeltaAck, IgpClient, Ingest, InitPartition, RepartitionPolicy, ServeOptions,
    ServerHandle, ServiceSession, SessionConfig,
};
use igp_spectral::rsb::{recursive_spectral_bisection, RsbOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SIDE: usize = 100;
const PARTS: usize = 16;
const BATCH: usize = 4;
const ADDS: usize = 10;
const REMOVES: usize = 10;
const SID: &str = "bench";
/// Steps (batches of four DELTAs) per second of `--seconds`.
pub const STEPS_PER_SECOND: usize = 20;

fn session_config() -> SessionConfig {
    SessionConfig {
        policy: RepartitionPolicy::EveryK(BATCH),
        init: InitPartition::Rsb,
        ..SessionConfig::new(PARTS)
    }
}

/// `len` churn deltas, each addressing the graph its predecessors make.
fn churn_stream(graph: &CsrGraph, seed: u64, len: usize) -> Vec<GraphDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = graph.clone();
    (0..len)
        .map(|_| {
            let d = generators::random_churn_delta(&g, ADDS, REMOVES, rng.gen());
            g = d.apply(&g).new_graph().clone();
            d
        })
        .collect()
}

/// A `/metrics` scrape, keyed by series (`name{labels}`).
fn scrape(client: &mut IgpClient) -> Result<BTreeMap<String, f64>, String> {
    let text = client.metrics().map_err(|e| format!("METRICS: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (key, value) = l.rsplit_once(' ')?;
            Some((key.to_string(), value.parse().ok()?))
        })
        .collect())
}

fn series(m: &BTreeMap<String, f64>, key: &str) -> Result<f64, String> {
    m.get(key)
        .copied()
        .ok_or_else(|| format!("scrape lacks `{key}`"))
}

fn boot(dir: &Path, graph: &CsrGraph) -> Result<(ServerHandle, IgpClient), String> {
    let opts = ServeOptions {
        workers: 1,
        data_dir: Some(dir.to_path_buf()),
        ..ServeOptions::default()
    };
    let handle =
        crate::alloc::program(|| serve("127.0.0.1:0", opts)).map_err(|e| format!("serve: {e}"))?;
    let mut client = IgpClient::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .open(SID, graph, &session_config())
        .map_err(|e| format!("OPEN: {e}"))?;
    Ok((handle, client))
}

pub fn run(r: &mut Report, tr: Option<&mut Tracer>, seed: u64, steps: usize) {
    let dir = PathBuf::from(OUT_DIR).join(format!("serve-{}", std::process::id()));
    let result = measure(r, tr, seed, steps, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = result {
        r.failed += 1;
        r.check("serve-churn ran", false, e);
    }
}

fn measure(
    r: &mut Report,
    tr: Option<&mut Tracer>,
    seed: u64,
    steps: usize,
    dir: &Path,
) -> Result<(), String> {
    let graph = generators::grid(SIDE, SIDE);
    let stream = churn_stream(&graph, seed, steps * BATCH);

    // Set-up: boot + OPEN round trip, three times untraced (the last
    // daemon serves the stream), once traced.
    let reps = if tr.is_some() { 1 } else { 3 };
    let mut setup_s = Samples::default();
    let mut live: Option<(ServerHandle, IgpClient)> = None;
    for rep in 0..reps {
        if let Some((mut handle, _client)) = live.take() {
            handle.shutdown();
        }
        let t = Instant::now();
        live = Some(boot(&dir.join(format!("rep{rep}")), &graph)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut handle, mut client) = live.expect("at least one set-up");

    let before = scrape(&mut client)?;
    let (mut ack, mut step, mut read) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut q = Quality::default();
    let mut last_part: Vec<PartId> = Vec::new();
    for (i, d) in stream.iter().enumerate() {
        r.attempted += 1;
        let t = Instant::now();
        let reply = client.delta(SID, d);
        let took = t.elapsed();
        match reply {
            Ok(DeltaAck::Queued { .. }) => ack.push_ms(took),
            Ok(DeltaAck::Stepped(info)) => {
                step.push_ms(took);
                q.record(info.cut, info.imbalance, info.moved);
                if !info.balanced {
                    r.failed += 1;
                }
                r.attempted += 1;
                let t = Instant::now();
                match client.partition(SID) {
                    Ok(p) => {
                        read.push_ms(t.elapsed());
                        last_part = p;
                        r.host.sample();
                    }
                    Err(e) => {
                        r.failed += 1;
                        r.check(format!("PART after delta {i}"), false, e.to_string());
                    }
                }
            }
            Err(e) => {
                r.failed += 1;
                r.check(format!("DELTA {i}"), false, e.to_string());
            }
        }
    }
    let after = scrape(&mut client)?;
    r.memory();
    drop(client);
    handle.shutdown();

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
    daemon_layers(r, &before, &after, stream.len())?;

    // Replay determinism: the same stream through an in-process
    // ServiceSession must leave the partition the daemon served last.
    // Traced, the traced composition runs the stream too, interleaved
    // batch by batch with the replay, from the same RSB partition the
    // daemon computed at OPEN; the replay's stepping ingests are the
    // untraced side of the tracing overhead.
    let mut replay = ServiceSession::open(graph.clone(), session_config());
    let initial = replay.assignment().to_vec();
    let mut traced = match tr {
        Some(tr) => {
            let (part, rsb_ms) = tr.time("spectral.rsb", 0, 0, || {
                recursive_spectral_bisection(&graph, PARTS, RsbOptions::default())
            });
            r.metric("spectral.rsb_s", rsb_ms / 1e3, "s");
            r.check(
                "RSB partition == the session's initial partition",
                part.assignment() == initial,
                format!("n={}", initial.len()),
            );
            Some((tr, Composer::new(graph, part, IgpConfig::new(PARTS))))
        }
        None => None,
    };
    let mut untraced_step_ms = Samples::default();
    for (k, batch) in stream.chunks(BATCH).enumerate() {
        let order = if k % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for composed in order {
            if !composed {
                for (j, d) in batch.iter().enumerate() {
                    let t = Instant::now();
                    let ingested = replay.ingest(d);
                    let took = t.elapsed();
                    match ingested {
                        Ok(Ingest::Stepped { .. }) => untraced_step_ms.push_ms(took),
                        Ok(_) => {}
                        Err(e) => {
                            return Err(format!("replay refused delta {}: {e}", k * BATCH + j))
                        }
                    }
                }
            } else if let Some((tr, c)) = traced.as_mut() {
                for d in batch {
                    c.ack(tr, k, d)?;
                }
                c.step(tr, k);
            }
        }
    }
    r.check(
        "last PART == ServiceSession replay",
        !last_part.is_empty() && last_part == replay.assignment(),
        format!("n={} steps={}", last_part.len(), replay.steps()),
    );
    let final_graph = replay.inner().graph();
    r.check(
        "last PART is a valid partition",
        last_part.len() == final_graph.num_vertices()
            && Partitioning::from_assignment(final_graph, PARTS, last_part.clone())
                .validate(final_graph)
                .is_ok(),
        format!("n={}", final_graph.num_vertices()),
    );

    if let Some((tr, mut c)) = traced {
        c.stats.untraced_step_ms = untraced_step_ms;
        c.report(tr, r);
        r.check(
            "composition replay == last PART",
            c.part.assignment() == last_part,
            format!("{} steps", stream.len() / BATCH),
        );
    }
    Ok(())
}

/// The daemon's own histograms and counters, scraped before and after
/// the stream. Quantiles cover the daemon's life (set-up traffic is one
/// OPEN per boot); counts are differences over the stream.
fn daemon_layers(
    r: &mut Report,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    deltas: usize,
) -> Result<(), String> {
    let q = |name: &str, labels: &str, q: &str| {
        let key = if labels.is_empty() {
            format!("{name}{{quantile=\"{q}\"}}")
        } else {
            format!("{name}{{{labels},quantile=\"{q}\"}}")
        };
        series(after, &key)
    };
    let delta_count = "igp_service_request_us_count{verb=\"delta\"}";
    let counted = series(after, delta_count)? - before.get(delta_count).copied().unwrap_or(0.0);
    r.check(
        "daemon counted every DELTA",
        counted as usize == deltas,
        format!("{counted} of {deltas}"),
    );
    let snapshots =
        series(after, "igp_store_snapshots_total")? - series(before, "igp_store_snapshots_total")?;
    let layers = [
        (
            "service.delta_us_p50",
            q("igp_service_request_us", "verb=\"delta\"", "0.5")?,
            "us",
        ),
        (
            "service.delta_us_p90",
            q("igp_service_request_us", "verb=\"delta\"", "0.9")?,
            "us",
        ),
        (
            "service.part_us_p50",
            q("igp_service_request_us", "verb=\"part\"", "0.5")?,
            "us",
        ),
        (
            "net.pool_queue_wait_us_p90",
            q("igp_service_pool_queue_wait_us", "", "0.9")?,
            "us",
        ),
        (
            "net.loop_iter_us_p90",
            q("igp_service_loop_iter_us", "", "0.9")?,
            "us",
        ),
        (
            "core.repartition_us_p50",
            q("igp_core_repartition_us", "driver=\"sequential\"", "0.5")?,
            "us",
        ),
        (
            "store.wal_append_us_p50",
            q("igp_store_wal_append_us", "", "0.5")?,
            "us",
        ),
        (
            "store.snapshot_ms_p50",
            q("igp_store_snapshot_us", "", "0.5")? / 1e3,
            "ms",
        ),
        ("store.snapshots_total", snapshots, "count"),
    ];
    for (name, value, unit) in layers {
        r.metric(name, value, unit);
    }
    Ok(())
}
