//! What a run reports: its metrics, output checks, host facts and the
//! files it leaves under the output directory.

use crate::stats::Samples;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

/// Where runs leave their artifacts, span files and daemon data,
/// relative to the checkout root the benchmark runs from.
pub const OUT_DIR: &str = ".bench_build/stepbench-out";

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (timings), for the human-readable report.
    pub samples: Option<usize>,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// `(check, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Extra facts for the artifact file (already JSON-encoded values).
    pub info: Vec<(String, String)>,
    pub host: HostRef,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    /// A timing summary: its median or nearest-rank percentile `q`
    /// (`None` = median), with the sample count.
    pub fn timing(&mut self, name: &'static str, s: &Samples, q: Option<f64>, unit: &'static str) {
        let value = q.map_or_else(|| s.p50(), |q| s.quantile(q));
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples: Some(s.len()),
        });
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    pub fn info(&mut self, key: impl Into<String>, json_value: impl Into<String>) {
        self.info.push((key.into(), json_value.into()));
    }

    /// Record a sample set's size and tail for the artifact: the highest
    /// percentile with at least ten samples beyond it.
    pub fn info_samples(&mut self, key: &str, s: &Samples) {
        let tail = match s.tail() {
            Some((label, v)) => format!("{{\"percentile\": \"{label}\", \"value\": {}}}", num(v)),
            None => "null".to_string(),
        };
        self.info(
            key,
            format!(
                "{{\"samples\": {}, \"p50\": {}, \"tail\": {tail}}}",
                s.len(),
                num(s.p50())
            ),
        );
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The human-readable lines, then the one-line JSON result (which
    /// must be the last line of standard output).
    pub fn print(&self) {
        for (name, ok, detail) in &self.checks {
            println!(
                "check {name}: {} {detail}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        for m in &self.metrics {
            match m.samples {
                Some(n) => println!("{:<32} {:>14.4} {:<6} (n={n})", m.name, m.value, m.unit),
                None => println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit),
            }
        }
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
    }

    /// Write the run's artifact (every metric with its sample count,
    /// every check and every recorded fact) as JSON.
    pub fn write_artifact(&self, file: &str) -> std::io::Result<PathBuf> {
        let mut s = String::from("{\n  \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let n = m.samples.map_or("null".to_string(), |n| n.to_string());
            let _ = write!(
                s,
                "{sep}\n    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {n}}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        s.push_str("\n  },\n  \"checks\": [");
        for (i, (name, ok, detail)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    {{\"check\": {}, \"ok\": {ok}, \"detail\": {}}}",
                json_str(name),
                json_str(detail)
            );
        }
        let _ = write!(
            s,
            "\n  ],\n  \"attempted\": {},\n  \"failed\": {}",
            self.attempted, self.failed
        );
        for (k, v) in &self.info {
            let _ = write!(s, ",\n  {}: {v}", json_str(k));
        }
        s.push_str("\n}\n");
        let path = PathBuf::from(OUT_DIR).join(file);
        std::fs::create_dir_all(OUT_DIR)?;
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// The host reference's median on the nominal host. End-to-end timings
/// are reported as they would read on a host that runs the reference
/// kernel in this time: each run's measured timings are scaled by
/// `NOMINAL_HOST_REF_MS / host_ref_ms` of that run (see NOTES.md).
pub const NOMINAL_HOST_REF_MS: f64 = 1.5;

/// The end-to-end timings scaled to the nominal host speed.
const HOST_SCALED: &[&str] = &[
    "setup_s",
    "step_ms_p50",
    "step_ms_p90",
    "ack_ms_p50",
    "ack_ms_p90",
    "read_ms_p50",
];

impl Report {
    /// Scale the end-to-end timings to the nominal host speed, given
    /// this run's host reference; the measured values stay in the
    /// artifact. A run without reference samples stays as measured.
    pub fn at_nominal_host_speed(&mut self, host_ref_ms: f64) {
        if host_ref_ms <= 0.0 {
            return;
        }
        let scale = NOMINAL_HOST_REF_MS / host_ref_ms;
        let mut measured = String::new();
        for m in self.metrics.iter_mut() {
            if HOST_SCALED.contains(&m.name) {
                let sep = if measured.is_empty() { "" } else { ", " };
                let _ = write!(measured, "{sep}\"{}\": {}", m.name, num(m.value));
                m.value *= scale;
            }
        }
        self.info("measured_timings", format!("{{{measured}}}"));
        self.info("host_scale", num(scale));
    }
}

/// A finite number as JSON (non-finite values become 0 and fail the
/// run's `finite` check upstream).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Quality of the steps taken: the cut after each step, the worst
/// imbalance, the vertices each step moved. Exact for a given seed.
#[derive(Default)]
pub struct Quality {
    cut: Samples,
    imbalance_max: f64,
    moved: Samples,
}

impl Quality {
    pub fn record(&mut self, cut: u64, imbalance: f64, moved: u64) {
        self.cut.push(cut as f64);
        self.imbalance_max = self.imbalance_max.max(imbalance);
        self.moved.push(moved as f64);
    }

    pub fn report(&self, r: &mut Report) {
        r.metric("edge_cut", self.cut.mean(), "count");
        r.metric("imbalance_max", self.imbalance_max, "ratio");
        r.metric("moved_mean", self.moved.mean(), "count");
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"edge_cut\": {}, \"imbalance_max\": {}, \"moved_mean\": {}}}",
            num(self.cut.mean()),
            num(self.imbalance_max),
            num(self.moved.mean())
        )
    }
}

impl Report {
    /// Memory so far: the program's live-heap high-water mark; for the
    /// artifact, the harness's and the resident set's (which also moves
    /// with allocator fragmentation).
    pub fn memory(&mut self) {
        let (program, harness) = crate::alloc::peak_heap_mb();
        self.metric("peak_heap_mb", program, "MiB");
        self.metric("harness_peak_heap_mb", harness, "MiB");
        self.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    }
}

/// Peak resident set size of this process (MiB), from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host reference: a fixed kernel in the benchmark's own code (an
/// integer hash chain over a 256 KiB table, about 1 ms), timed by the
/// harness after every step, so its samples cover the whole run. Their
/// median tracks how fast the host ran the run; it gates nothing.
#[derive(Default)]
pub struct HostRef {
    table: Vec<u32>,
    pub samples: Samples,
}

impl HostRef {
    pub fn sample(&mut self) {
        if self.table.is_empty() {
            self.table = (0..65_536u32)
                .map(|i| i.wrapping_mul(2_654_435_761) >> 16)
                .collect();
        }
        let t = Instant::now();
        let mut x = 1u32;
        for _ in 0..200_000 {
            x = self.table[(x as usize) & 0xffff] ^ x.wrapping_mul(2_654_435_761).rotate_left(5);
        }
        std::hint::black_box(x);
        self.samples.push_ms(t.elapsed());
    }
}

/// The hand-off reference: the median round trip (µs) of one byte
/// between this thread and a helper thread over loopback TCP, the
/// kind of cross-thread wake-up every daemon request pays several of.
/// On a VM its cost depends on how fast the host runs an idle vCPU
/// again, which the CPU-bound host reference cannot see. Recorded
/// next to it; gates nothing. `None` if loopback is unavailable.
pub fn handoff_ref_us() -> Option<f64> {
    const ROUND_TRIPS: usize = 2_000;
    let listener = TcpListener::bind("127.0.0.1:0").ok()?;
    let addr = listener.local_addr().ok()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut b = [0u8; 1];
        for _ in 0..ROUND_TRIPS {
            peer.read_exact(&mut b)?;
            peer.write_all(&b)?;
        }
        Ok(())
    });
    let mut trips = Samples::default();
    let measured = (|| -> std::io::Result<()> {
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let mut b = [7u8; 1];
        for _ in 0..ROUND_TRIPS {
            let t = Instant::now();
            conn.write_all(&b)?;
            conn.read_exact(&mut b)?;
            trips.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    })();
    let echoed = echo.join().ok()?;
    (measured.is_ok() && echoed.is_ok()).then(|| trips.p50())
}

/// Online CPUs, from `/proc/cpuinfo` (what `nproc --all` prints).
pub fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
