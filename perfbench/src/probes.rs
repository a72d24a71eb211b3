//! Layer probes for the traced run: bare `Sim::launch` kernels for gpu-sim
//! and an uncontended EigenBench run per STM variant for gpu-stm. Each
//! gives host time per operation next to simulated cycles per operation.

use crate::fig2;
use crate::stats::median;
use crate::Metric;
use gpu_sim::{AtomicOp, LaunchConfig, Sim, SimConfig, WarpCtx};
use std::time::Instant;
use workloads::eigenbench;

const REPS: usize = 9;
/// Operations each probe warp issues per launch.
const ROUNDS: u32 = 64;

/// Times `REPS` launches of `kernel`, whose warps each issue `ops`
/// operations, on one simulator. Returns the median host ns per warp
/// operation and the simulated cycles per operation of one warp.
fn probe<F, Fut>(
    grid: LaunchConfig,
    ops: u32,
    words: u32,
    kernel: impl Fn(gpu_sim::Addr) -> F,
) -> (f64, f64)
where
    F: Fn(WarpCtx) -> Fut + 'static,
    Fut: std::future::Future<Output = ()> + 'static,
{
    let mut sim = Sim::new(SimConfig::with_memory(1 << 20));
    let buf = sim.alloc(words).expect("probe buffer fits");
    let warp_ops = f64::from(grid.blocks * grid.warps_per_block() * ops);
    let mut ns = Vec::with_capacity(REPS);
    let mut cycles = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let report = sim.launch(grid, kernel(buf)).expect("probe kernel runs");
        ns.push(t.elapsed().as_nanos() as f64 / warp_ops);
        cycles = report.cycles;
    }
    (median(&ns), cycles as f64 / f64::from(ops))
}

fn memory_probe(stride: u32) -> (f64, f64) {
    let words = 32 * 32 * stride;
    probe(LaunchConfig::new(16, 128), ROUNDS, words, move |buf| {
        move |ctx: WarpCtx| async move {
            let mask = ctx.id().launch_mask;
            for round in 0..ROUNDS {
                let addrs =
                    std::array::from_fn(|l| buf.offset((l as u32 * stride + round * 32) % words));
                std::hint::black_box(ctx.load(mask, &addrs).await);
            }
        }
    })
}

fn atomic_probe(words: u32) -> (f64, f64) {
    probe(LaunchConfig::new(16, 128), ROUNDS, words, move |buf| {
        move |ctx: WarpCtx| async move {
            let mask = ctx.id().launch_mask;
            let base = ctx.id().thread_id(0);
            for _ in 0..ROUNDS {
                let addrs = std::array::from_fn(|l| buf.offset((base + l as u32) % words));
                std::hint::black_box(ctx.atomic_rmw(mask, AtomicOp::Add, &addrs, &[1; 32]).await);
            }
        }
    })
}

fn fence_probe() -> (f64, f64) {
    probe(LaunchConfig::new(16, 128), ROUNDS, 1, |_| {
        |ctx: WarpCtx| async move {
            for _ in 0..ROUNDS {
                ctx.fence(ctx.id().launch_mask).await;
            }
        }
    })
}

fn idle_probe() -> (f64, f64) {
    probe(LaunchConfig::new(16, 128), ROUNDS, 1, |_| {
        |ctx: WarpCtx| async move {
            for _ in 0..ROUNDS {
                ctx.idle(100).await;
            }
        }
    })
}

/// Warp scheduling at `warps` resident warps (4 per block).
fn occupancy_probe(warps: u32) -> f64 {
    probe(LaunchConfig::new((warps / 4).max(1), 128), ROUNDS / 16, 64, |counter| {
        move |ctx: WarpCtx| async move {
            let mask = ctx.id().launch_mask;
            for i in 0..ROUNDS / 16 {
                ctx.atomic_add_uniform(mask, counter.offset(ctx.id().block % 64), i).await;
            }
        }
    })
    .0
}

/// Host microseconds per launch of a one-warp, one-instruction kernel:
/// the fixed cost a small tm-serve batch pays per launch.
fn launch_us() -> f64 {
    let mut sim = Sim::new(SimConfig::with_memory(1 << 12));
    let mut us = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        sim.launch(LaunchConfig::new(1, 32), |ctx: WarpCtx| async move {
            ctx.alu(ctx.id().launch_mask).await;
        })
        .expect("launch probe runs");
        us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    median(&us)
}

pub fn gpu_sim() -> Vec<Metric> {
    let mut out = Vec::new();
    let kinds = [
        ("load_coalesced", memory_probe(1)),
        ("load_strided", memory_probe(32)),
        ("atomic_contended", atomic_probe(1)),
        ("atomic_spread", atomic_probe(1024)),
        ("fence", fence_probe()),
        ("idle", idle_probe()),
    ];
    for (name, (ns, cyc)) in kinds {
        out.push(Metric::new(format!("gpu_sim.ns.{name}"), ns, "ns"));
        out.push(Metric::new(format!("gpu_sim.cyc.{name}"), cyc, "cycles"));
    }
    for warps in [16, 256, 1024] {
        out.push(Metric::new(
            format!("gpu_sim.ns.occupancy_{warps}"),
            occupancy_probe(warps),
            "ns",
        ));
    }
    out.push(Metric::new("gpu_sim.launch_us", launch_us(), "us"));
    out
}

/// Per-variant commit cost on uncontended EigenBench. Returns the metrics
/// and any run that failed.
pub fn gpu_stm(seed: u64) -> (Vec<Metric>, Vec<String>) {
    let (params, grid, cfg) = fig2::eigenbench_probe(seed);
    let mut out = Vec::new();
    let mut problems = Vec::new();
    for v in fig2::CONTROLS {
        let mut ns = Vec::new();
        let mut cyc = 0.0;
        for _ in 0..REPS {
            let t = Instant::now();
            match eigenbench::run(&params, v, grid, &cfg) {
                Ok(o) => {
                    ns.push(t.elapsed().as_nanos() as f64 / o.tx.commits.max(1) as f64);
                    cyc = o.cycles() as f64 / f64::from(params.txs_per_thread);
                }
                Err(e) => {
                    problems.push(format!("eigenbench probe under {}: {e}", v.short_name()));
                    break;
                }
            }
        }
        if ns.is_empty() {
            continue;
        }
        let name = v.short_name();
        out.push(Metric::new(format!("gpu_stm.ns_per_commit.{name}"), median(&ns), "ns"));
        out.push(Metric::new(format!("gpu_stm.cyc_per_commit.{name}"), cyc, "cycles"));
    }
    (out, problems)
}
