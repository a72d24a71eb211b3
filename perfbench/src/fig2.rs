//! The Figure 2 workloads: every kernel under CGL and the six Figure 2
//! STM variants, at the harness default scale (data ÷64, threads ÷16).
//!
//! The scale arithmetic is copied from the figure harness and pinned here,
//! so a change to the harness defaults cannot silently change what the
//! benchmark measures.

use crate::spans::{traced, Tracer};
use crate::stats::Fnv;
use crate::Pass;
use gpu_sim::{LaunchConfig, SimStats};
use gpu_stm::TxStats;
use workloads::eigenbench::EbParams;
use workloads::genome::{self, GnParams};
use workloads::ht::{self, HtParams};
use workloads::kmeans::{self, KmParams};
use workloads::labyrinth::{self, LbParams};
use workloads::ra::{self, RaParams};
use workloads::{RunConfig, RunError, RunOutcome, Variant};

const DATA_SCALE: u64 = 64;
const THREAD_SCALE: u64 = 16;
/// Paper sizes before scaling: version locks, RA array, LB grid, RA/HT threads.
const PAPER_LOCKS: u64 = 1 << 20;
const PAPER_RA_SHARED: u64 = 8 << 20;
const PAPER_LB_SHARED: u64 = 1_750_000;
const PAPER_THREADS: u64 = 256 * 256;

/// CGL plus the six Figure 2 STM variants, in the figure's order.
pub const CONTROLS: [Variant; 7] = [
    Variant::Cgl,
    Variant::Egpgv,
    Variant::Vbv,
    Variant::TbvSorting,
    Variant::HvBackoff,
    Variant::HvSorting,
    Variant::Optimized,
];

#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Kernel {
    Ra,
    Ht,
    Gn,
    Lb,
    Km,
}

impl Kernel {
    pub const MICRO: [Kernel; 2] = [Kernel::Ra, Kernel::Ht];
    pub const STAMP: [Kernel; 3] = [Kernel::Gn, Kernel::Lb, Kernel::Km];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Ra => "ra",
            Kernel::Ht => "ht",
            Kernel::Gn => "gn",
            Kernel::Lb => "lb",
            Kernel::Km => "km",
        }
    }

    /// Span name: the entry point the cell calls.
    pub fn entry(self) -> &'static str {
        match self {
            Kernel::Ra => "workloads::ra::run",
            Kernel::Ht => "workloads::ht::run",
            Kernel::Gn => "workloads::genome::run",
            Kernel::Lb => "workloads::labyrinth::run",
            Kernel::Km => "workloads::kmeans::run",
        }
    }
}

/// A kernel's generated inputs and launch geometry.
#[derive(Clone)]
pub enum Input {
    Ra(RaParams, LaunchConfig),
    Ht(HtParams, LaunchConfig),
    Gn(GnParams, LaunchConfig, LaunchConfig),
    Lb(LbParams, LaunchConfig),
    Km(KmParams, LaunchConfig),
}

/// One figure cell: a kernel under one control.
#[derive(Clone)]
pub struct Cell {
    pub kernel: Kernel,
    pub variant: Variant,
    pub input: Input,
    pub cfg: RunConfig,
}

/// What one cell's run produced.
pub struct CellResult {
    pub cycles: u64,
    pub launches: u64,
    pub sim: SimStats,
    pub tx: TxStats,
}

fn n_locks() -> u32 {
    scaled_pow2(PAPER_LOCKS)
}

fn scaled_pow2(paper: u64) -> u32 {
    ((paper / DATA_SCALE).max(1024) as u32).next_power_of_two()
}

fn threads() -> u64 {
    (PAPER_THREADS / THREAD_SCALE).max(64)
}

/// Roughly square `blocks × threads_per_block` with at most 256 per block.
fn square_grid(threads: u64) -> LaunchConfig {
    let threads = threads.max(32);
    let tpb = ((threads as f64).sqrt() as u64).clamp(32, 256).next_power_of_two().min(256) as u32;
    LaunchConfig::new(threads.div_ceil(u64::from(tpb)).max(1) as u32, tpb)
}

fn run_config(data_words: u64, threads: u64) -> RunConfig {
    let mem = data_words + u64::from(n_locks()) + threads * 64 + (1 << 16);
    RunConfig::with_memory(mem as usize).with_locks(n_locks())
}

/// Builds a kernel's inputs from the benchmark seed. Parameters are filled
/// from `Default` even where every field is set today, so a field added
/// later keeps its default instead of breaking the benchmark's build.
#[allow(clippy::needless_update)]
pub fn input(kernel: Kernel, seed: u64) -> (Input, RunConfig) {
    match kernel {
        Kernel::Ra => {
            let p = RaParams {
                shared_words: scaled_pow2(PAPER_RA_SHARED),
                seed,
                ..RaParams::default()
            };
            let grid = square_grid(threads());
            (Input::Ra(p, grid), run_config(u64::from(p.shared_words), grid.total_threads()))
        }
        Kernel::Ht => {
            let grid = square_grid(threads());
            let p = HtParams {
                table_words: (grid.total_threads() as u32 * 4 * 8).next_power_of_two(),
                inserts_per_tx: 4,
                txs_per_thread: 1,
                seed,
                ..HtParams::default()
            };
            (Input::Ht(p, grid), run_config(u64::from(p.table_words), grid.total_threads()))
        }
        Kernel::Gn => {
            let n = threads() as u32;
            let p = GnParams {
                n_segments: n,
                value_space: n / 2,
                table_words: (n * 8).next_power_of_two(),
                seed,
                ..GnParams::default()
            };
            let (g1, g2) = (square_grid(u64::from(n)), square_grid(u64::from(n / 2)));
            (Input::Gn(p, g1, g2), run_config(u64::from(p.table_words), g1.total_threads()))
        }
        Kernel::Lb => {
            let side = (((PAPER_LB_SHARED / DATA_SCALE) as f64).sqrt() as u32).max(128);
            let span = (side / 8).max(8);
            let p = LbParams {
                width: side,
                height: side,
                max_span: span,
                n_paths: (side * side / (10 * span)).max(24),
                seed,
                ..LbParams::default()
            };
            let grid = LaunchConfig::new(14, 32);
            (Input::Lb(p, grid), run_config(u64::from(side * side), grid.total_threads()))
        }
        Kernel::Km => {
            // KM keeps its own default seed. Its cost is bimodal in the seed:
            // the seeded centroids either share the points or make one
            // cluster hot, and every STM cell then runs about 2× longer
            // (tbv-sorting: ~6.0M vs ~11M cycles). No pass length the
            // benchmark can afford averages that out.
            let p = KmParams { points_per_thread: 8, ..KmParams::default() };
            let grid = LaunchConfig::new(64, 2);
            (Input::Km(p, grid), run_config(u64::from(p.shared_words()), grid.total_threads()))
        }
    }
}

/// Every cell of the given kernels, in figure order.
pub fn cells(kernels: &[Kernel], seed: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for &kernel in kernels {
        let (input, cfg) = input(kernel, seed);
        for variant in CONTROLS {
            out.push(Cell { kernel, variant, input: input.clone(), cfg: cfg.clone() });
        }
    }
    out
}

fn merged(kernels: &[gpu_sim::RunReport]) -> SimStats {
    let mut s = SimStats::new();
    for k in kernels {
        s.merge(&k.stats);
    }
    s
}

fn simple(out: RunOutcome) -> CellResult {
    CellResult {
        cycles: out.cycles(),
        launches: out.kernels.len() as u64,
        sim: merged(&out.kernels),
        tx: out.tx,
    }
}

/// Runs one cell. The workloads verify their own results and report a
/// failed check as [`RunError::Verification`].
pub fn run_cell(cell: &Cell) -> Result<CellResult, RunError> {
    let v = cell.variant;
    match &cell.input {
        Input::Ra(p, g) => ra::run(p, v, *g, &cell.cfg).map(simple),
        Input::Ht(p, g) => ht::run(p, v, *g, &cell.cfg).map(simple),
        Input::Km(p, g) => kmeans::run(p, v, *g, &cell.cfg).map(simple),
        Input::Lb(p, g) => labyrinth::run(p, v, *g, &cell.cfg).map(|o| simple(o.base)),
        Input::Gn(p, g1, g2) => genome::run(p, v, *g1, *g2, &cell.cfg).map(|o| {
            let mut sim = merged(&o.k1.kernels);
            sim.merge(&merged(&o.k2.kernels));
            let mut tx = o.k1.tx.clone();
            add_tx(&mut tx, &o.k2.tx);
            CellResult {
                cycles: o.k1.cycles() + o.k2.cycles(),
                launches: (o.k1.kernels.len() + o.k2.kernels.len()) as u64,
                sim,
                tx,
            }
        }),
    }
}

/// Accumulates `b` into `a` (counts add, the breakdown merges).
pub fn add_tx(a: &mut TxStats, b: &TxStats) {
    a.commits += b.commits;
    a.read_only_commits += b.read_only_commits;
    a.aborts += b.aborts;
    a.aborts_read_validation += b.aborts_read_validation;
    a.aborts_commit_tbv += b.aborts_commit_tbv;
    a.aborts_commit_vbv += b.aborts_commit_vbv;
    a.aborts_pre_vbv += b.aborts_pre_vbv;
    a.aborts_lock_busy += b.aborts_lock_busy;
    a.lock_retries += b.lock_retries;
    a.false_conflicts_filtered += b.false_conflicts_filtered;
    a.escalations += b.escalations;
    a.breakdown.merge(&b.breakdown);
}

/// Layer totals of one pass, for the traced run.
pub struct Totals {
    /// Simulator counters over every cell.
    pub sim: SimStats,
    /// Transaction counters over the STM cells (CGL excluded).
    pub tx: TxStats,
    /// Host seconds inside the workload entry points.
    pub host_s: f64,
    /// Kernel launches over every cell.
    pub launches: u64,
}

/// Runs every cell once. A cell the variant cannot run (EGPGV beyond its
/// per-block metadata, as the paper reports) is recorded as unsupported.
pub fn pass(cells: &[Cell], mut tr: Option<&mut Tracer>) -> (Pass, Totals) {
    let mut pass = Pass::default();
    let mut fp = Fnv::new();
    let mut totals = Totals { sim: SimStats::new(), tx: TxStats::new(), host_s: 0.0, launches: 0 };
    let mut cell_kcycles = Vec::new();
    for cell in cells {
        let (result, secs) = pass.unit(|| traced(&mut tr, cell.kernel.entry(), || run_cell(cell)));
        totals.host_s += secs;
        pass.attempted += 1;
        fp.str(cell.kernel.name());
        fp.str(cell.variant.short_name());
        match result {
            Ok(r) => {
                fp.u64(r.cycles);
                fp.str(&format!("{:?}", r.sim));
                fp.str(&format!("{:?}", r.tx));
                totals.sim.merge(&r.sim);
                totals.launches += r.launches;
                cell_kcycles.push(r.cycles as f64 / 1000.0);
                if cell.variant != Variant::Cgl {
                    add_tx(&mut totals.tx, &r.tx);
                }
            }
            Err(RunError::Unsupported(why)) => fp.str(why),
            Err(e) => pass.problems.push(format!(
                "{} under {}: {e}",
                cell.kernel.name(),
                cell.variant.short_name()
            )),
        }
    }
    pass.fingerprint = fp.finish();
    let tx = &totals.tx;
    pass.failed_frac = tx.aborts as f64 / (tx.commits + tx.aborts).max(1) as f64;
    if cell_kcycles.is_empty() {
        pass.problems.push("no cell ran".into());
    } else {
        pass.sim_metrics.push((
            "sim_kcycles_geomean".into(),
            crate::stats::geomean(&cell_kcycles),
            "kcycles",
        ));
    }
    (pass, totals)
}

/// Uncontended EigenBench inputs for the per-variant commit-cost probe:
/// every transaction touches only its thread's private mild words.
pub fn eigenbench_probe(seed: u64) -> (EbParams, LaunchConfig, RunConfig) {
    let p = EbParams {
        hot_words: 1024,
        hot_reads: 0,
        hot_writes: 0,
        mild_words: 8,
        mild_ops: 4,
        cold_words: 8,
        cold_ops: 0,
        txs_per_thread: 8,
        seed,
    };
    let grid = LaunchConfig::new(4, 32);
    let data =
        u64::from(p.hot_words) + grid.total_threads() * u64::from(p.mild_words + p.cold_words);
    (p, grid, RunConfig::with_memory((data + (1 << 16)) as usize).with_locks(1 << 12))
}
