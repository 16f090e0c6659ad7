//! `trickle-400k`: 50-vertex localized growth on a 632×632 grid
//! (399 424 vertices), P = 16, from a strip partition. The delta is
//! 0.01% of the graph, so the whole-graph passes are nearly all of a
//! step while the LP stays one small stage.

use crate::inproc::{self, Stream};
use crate::report::Report;
use crate::trace::Tracer;
use igp_core::session::IgpSession;
use igp_core::IgpConfig;
use igp_graph::{generators, CsrGraph, NodeId, PartId, Partitioning};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIDE: usize = 632;
const PARTS: usize = 16;
const GROWTH: usize = 50;
/// Steps per second of `--seconds`.
pub const STEPS_PER_SECOND: usize = 5;
/// Set-ups per untraced run (about 20 ms each), spread over the run.
const SETUPS: usize = 64;

/// Vertical strips of equal width: the starting partition.
fn strips() -> Vec<PartId> {
    (0..SIDE * SIDE)
        .map(|v| ((v % SIDE) * PARTS / SIDE) as PartId)
        .collect()
}

pub fn run(r: &mut Report, tr: Option<&mut Tracer>, seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next = |g: &CsrGraph, _k: usize| {
        let center = rng.gen_range(0..g.num_vertices() as NodeId);
        generators::localized_growth_delta(g, center, GROWTH, rng.gen())
    };
    let next: &mut Stream = &mut next;
    match tr {
        None => inproc::untraced(
            r,
            SETUPS,
            || {
                let g = generators::grid(SIDE, SIDE);
                let part = Partitioning::from_assignment(&g, PARTS, strips());
                IgpSession::new(g, part, IgpConfig::new(PARTS), true)
            },
            next,
            steps,
        ),
        Some(tr) => {
            let g = generators::grid(SIDE, SIDE);
            let part = Partitioning::from_assignment(&g, PARTS, strips());
            inproc::traced(r, tr, g, part, IgpConfig::new(PARTS), next, steps);
        }
    }
}
