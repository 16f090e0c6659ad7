//! `burst-mesh`: a DIME-style Delaunay mesh of the paper's domain B
//! (10 000 base points), P = 32, RSB initial partition. Step `k` adds a
//! 200-point burst in a disc at a seeded random place and removes the
//! burst added at step `k − 2`, so the mesh stays near 10 400 points
//! while every step mixes vertex additions, removals and the edge flips
//! of re-triangulation.

use crate::inproc::{self, Stream};
use crate::report::Report;
use crate::trace::Tracer;
use igp_core::session::IgpSession;
use igp_core::IgpConfig;
use igp_graph::{CsrGraph, GraphDelta};
use igp_mesh::domain::{paper_domain_b, Difference};
use igp_mesh::geometry::centroid;
use igp_mesh::sequence::mixed_inc;
use igp_mesh::{Delaunay, Disc, Domain, MeshBuilder, Point, TriMesh};
use igp_spectral::rsb::{recursive_spectral_bisection, RsbOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BASE_POINTS: usize = 10_000;
/// The base mesh is the same for every seed; the seed moves the bursts.
const MESH_SEED: u64 = 1994;
const PARTS: usize = 32;
const BURST: usize = 200;
const RADIUS: f64 = 0.3;
/// Steps per second of `--seconds`.
pub const STEPS_PER_SECOND: usize = 14;
/// Set-ups per untraced run (about 2 s each), spread over the run.
const SETUPS: usize = 5;

/// The node graph of the Delaunay triangulation of `points` (inserted
/// in id order), keeping triangles whose centroid lies in `domain` —
/// the rule `MeshBuilder` applies.
fn node_graph(domain: &Difference, points: &[Point]) -> CsrGraph {
    let (lo, hi) = domain.bounding_box();
    let mut del = Delaunay::new(lo, hi);
    for &p in points {
        del.insert(p);
    }
    let tris = del
        .triangles()
        .into_iter()
        .filter(|t| {
            domain.contains(centroid(
                points[t[0] as usize],
                points[t[1] as usize],
                points[t[2] as usize],
            ))
        })
        .collect();
    TriMesh {
        points: points.to_vec(),
        tris,
    }
    .node_graph()
}

struct BurstMesh {
    domain: Difference,
    points: Vec<Point>,
    /// 0 for base points, `k + 1` for points of step `k`'s burst.
    burst: Vec<usize>,
    graph: CsrGraph,
    rng: StdRng,
}

impl BurstMesh {
    fn new(seed: u64) -> Self {
        let domain = paper_domain_b();
        let points = MeshBuilder::generate(domain.clone(), BASE_POINTS, MESH_SEED)
            .mesh()
            .points;
        let graph = node_graph(&domain, &points);
        BurstMesh {
            burst: vec![0; points.len()],
            domain,
            points,
            graph,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn sample_in(&mut self, region: Option<&Disc>) -> Point {
        let (lo, hi) = self.domain.bounding_box();
        let (lo, hi) = match region {
            Some(d) => (
                Point::new(d.center.x - d.radius, d.center.y - d.radius),
                Point::new(d.center.x + d.radius, d.center.y + d.radius),
            ),
            None => (lo, hi),
        };
        loop {
            let p = Point::new(
                self.rng.gen_range(lo.x..hi.x),
                self.rng.gen_range(lo.y..hi.y),
            );
            if self.domain.contains(p) && region.is_none_or(|d| d.contains(p)) {
                return p;
            }
        }
    }

    /// Step `k`'s delta: drop burst `k − 2`, add burst `k`.
    fn next(&mut self, k: usize) -> GraphDelta {
        let removed: Vec<u32> = (0..self.points.len() as u32)
            .filter(|&v| k >= 2 && self.burst[v as usize] == k - 1)
            .collect();
        let keep = |v: &usize| removed.binary_search(&(*v as u32)).is_err();
        let mut points: Vec<Point> = (0..self.points.len())
            .filter(keep)
            .map(|v| self.points[v])
            .collect();
        let mut burst: Vec<usize> = (0..self.points.len())
            .filter(keep)
            .map(|v| self.burst[v])
            .collect();
        let disc = Disc::new(self.sample_in(None), RADIUS);
        for _ in 0..BURST {
            points.push(self.sample_in(Some(&disc)));
            burst.push(k + 1);
        }
        let graph = node_graph(&self.domain, &points);
        let old = std::mem::replace(&mut self.graph, graph.clone());
        self.points = points;
        self.burst = burst;
        mixed_inc(old, graph, &removed, BURST).diff()
    }
}

pub fn run(r: &mut Report, tr: Option<&mut Tracer>, seed: u64, steps: usize) {
    let mut mesh = BurstMesh::new(seed);
    let base = mesh.graph.clone();
    let mut next = |_: &CsrGraph, k: usize| mesh.next(k);
    let next: &mut Stream = &mut next;
    match tr {
        None => inproc::untraced(
            r,
            SETUPS,
            || {
                let part = recursive_spectral_bisection(&base, PARTS, RsbOptions::default());
                IgpSession::new(base.clone(), part, IgpConfig::new(PARTS), true)
            },
            next,
            steps,
        ),
        Some(tr) => {
            let (part, rsb_ms) = tr.time("spectral.rsb", 0, 0, || {
                recursive_spectral_bisection(&base, PARTS, RsbOptions::default())
            });
            r.metric("spectral.rsb_s", rsb_ms / 1e3, "s");
            inproc::traced(r, tr, base, part, IgpConfig::new(PARTS), next, steps);
        }
    }
}
