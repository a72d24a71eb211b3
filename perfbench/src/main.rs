//! The repository benchmark: one command per workload, printing every
//! end-to-end metric (untraced) or every per-layer metric (traced) as the
//! last line of standard output, and exiting nonzero when any output is
//! wrong.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig2-micro --seed 1 --seconds 20 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and the layer
//! map.

mod fig2;
mod layers;
mod probes;
mod serve;
mod spans;
mod stats;
mod verify;

use stats::{median, peak_rss_mb, CALIB_REF_S};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tm_serve::{MemStore, ServeConfig};
use tm_verify::VerifyConfig;

/// Set-up repetitions per run; `setup_s` is their median. Each repetition
/// repeats the set-up back to back for at least `SETUP_REP_TIME` and takes
/// the mean, so a microsecond set-up is not lost in timer noise.
const SETUP_REPS: usize = 5;
const SETUP_REP_TIME: Duration = Duration::from_millis(20);
/// Fewest measured passes per run, so `wall_s` is a median of at least three.
const MIN_PASSES: usize = 3;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    Fig2Micro,
    Fig2Stamp,
    ServeMixed,
    VerifyLitmus,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Fig2Micro, Workload::Fig2Stamp, Workload::ServeMixed, Workload::VerifyLitmus];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Micro => "fig2-micro",
            Workload::Fig2Stamp => "fig2-stamp",
            Workload::ServeMixed => "serve-mixed",
            Workload::VerifyLitmus => "verify-litmus",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// What one pass over a workload produced.
#[derive(Default)]
pub struct Pass {
    /// Host seconds per unit of the pass (fig2 cell, service run,
    /// exploration), in a fixed order.
    pub unit_secs: Vec<f64>,
    /// Seconds of the calibration loop around each unit: the mean of the
    /// samples timed right before and right after it.
    pub unit_calib: Vec<f64>,
    /// The latest calibration sample, which is the next unit's "before".
    last_calib: Option<f64>,
    /// FNV over every simulated statistic the pass produced.
    pub fingerprint: u64,
    /// Operations attempted: cells, offered requests or schedules run.
    pub attempted: u64,
    /// Correctness-gate failures.
    pub problems: Vec<String>,
    /// Attempts that failed or were refused, over attempts: aborted
    /// transaction attempts (fig2), rejected requests (serve) or runs that
    /// repeated an already-seen trace (verify).
    pub failed_frac: f64,
    /// Simulated-clock results (deterministic for a seed).
    pub sim_metrics: Vec<(String, f64, &'static str)>,
}

impl Pass {
    /// Runs one unit of the pass. Records its host seconds, which are also
    /// returned, and the machine's speed around it.
    pub fn unit<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.last_calib.unwrap_or_else(stats::calibrate);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let after = stats::calibrate();
        self.last_calib = Some(after);
        self.unit_secs.push(secs);
        self.unit_calib.push((before + after) / 2.0);
        (out, secs)
    }

    /// Host seconds of `unit`, at the reference speed.
    pub fn scaled_secs(&self, unit: usize) -> f64 {
        self.unit_secs[unit] * CALIB_REF_S / self.unit_calib[unit]
    }
}

/// A workload's generated inputs.
pub enum Inputs {
    Fig2(Vec<fig2::Cell>),
    Serve(Vec<ServeConfig>),
    Verify(Vec<VerifyConfig>),
}

/// Builds every input of one pass: cell parameters and run configs,
/// validated service configs, or litmus configs plus the TXL compilation
/// and footprint analysis that make the stripes litmus prunable.
pub fn setup(w: Workload, seed: u64) -> Result<Inputs, String> {
    Ok(match w {
        Workload::Fig2Micro => Inputs::Fig2(fig2::cells(&fig2::Kernel::MICRO, seed)),
        Workload::Fig2Stamp => Inputs::Fig2(fig2::cells(&fig2::Kernel::STAMP, seed)),
        Workload::ServeMixed => {
            let cfgs = serve::configs(seed);
            for c in &cfgs {
                c.validate().map_err(|e| e.to_string())?;
            }
            Inputs::Serve(cfgs)
        }
        Workload::VerifyLitmus => {
            let cfgs = verify::configs();
            for c in &cfgs {
                if c.litmus.workload == tm_verify::Workload::Stripes
                    && tm_verify::footprint_filter(&c.litmus).is_none()
                {
                    return Err("stripes litmus lost its footprint filter".into());
                }
            }
            Inputs::Verify(cfgs)
        }
    })
}

/// One untraced pass.
pub fn pass(inputs: &Inputs) -> Pass {
    match inputs {
        Inputs::Fig2(cells) => fig2::pass(cells, None).0,
        Inputs::Serve(cfgs) => serve::pass(cfgs, MemStore::shared, None, false).0,
        Inputs::Verify(cfgs) => verify::pass(cfgs, None).0,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// Result of one benchmark invocation.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub problems: Vec<String>,
    /// Lines printed before the result: fingerprints and simulated results.
    pub notes: Vec<String>,
}

/// The untraced run: set up `SETUP_REPS` times, then measure passes for
/// `seconds` (at least `MIN_PASSES`), checking every pass's simulated
/// fingerprint against the first.
fn measured_run(args: &Args) -> Outcome {
    let mut problems = Vec::new();
    let mut setup_secs = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut n = 0u32;
        while n == 0 || t.elapsed() < SETUP_REP_TIME {
            inputs = Some(std::hint::black_box(setup(args.workload, args.seed)));
            n += 1;
        }
        let secs = t.elapsed().as_secs_f64() / f64::from(n);
        setup_secs.push(secs * CALIB_REF_S / stats::calibrate());
    }
    let inputs = match inputs.expect("at least one set-up") {
        Ok(i) => i,
        Err(e) => {
            return Outcome { metrics: Vec::new(), attempted: 1, problems: vec![e], notes: vec![] }
        }
    };

    // Stop before a pass that would likely overrun the budget, so a run
    // lasts about `seconds` unless `MIN_PASSES` need longer.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES
        || start.elapsed() + start.elapsed() / passes.len() as u32 <= budget
    {
        let p = pass(&inputs);
        if let Some(first) = passes.first() {
            if p.fingerprint != first.fingerprint {
                problems.push(format!(
                    "pass {} simulated fingerprint {:016x} differs from the first pass's {:016x}",
                    passes.len() + 1,
                    p.fingerprint,
                    first.fingerprint
                ));
            }
        }
        problems.extend(p.problems.iter().cloned());
        passes.push(p);
        if !problems.is_empty() {
            break;
        }
    }

    // Each unit's host time at the reference speed, its median across
    // passes, summed over units: one slow stretch of a shared machine moves
    // a single unit's sample, not the whole pass.
    let units = passes[0].unit_secs.len();
    let unit_median = |f: &dyn Fn(&Pass, usize) -> f64| -> f64 {
        (0..units).map(|u| median(&passes.iter().map(|p| f(p, u)).collect::<Vec<_>>())).sum()
    };
    let wall_s = unit_median(&|p, u| p.scaled_secs(u));
    let raw_s = unit_median(&|p, u| p.unit_secs[u]);
    let calib: Vec<f64> = passes.iter().flat_map(|p| p.unit_calib.iter().copied()).collect();
    let first = &passes[0];
    let mut notes = vec![
        format!("passes {}", passes.len()),
        format!(
            "host wall {raw_s} s per pass unscaled; calibration median {} ms (reference {} ms)",
            median(&calib) * 1e3,
            CALIB_REF_S * 1e3
        ),
        format!(
            "fingerprint {} seed={} {:016x}",
            args.workload.name(),
            args.seed,
            first.fingerprint
        ),
    ];
    for (name, value, unit) in &first.sim_metrics {
        notes.push(format!("sim {name} {value} {unit}"));
    }
    Outcome {
        metrics: vec![
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("setup_s", median(&setup_secs), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
            Metric::new("failed_frac", first.failed_frac, "ratio"),
        ],
        attempted: passes.iter().map(|p| p.attempted).sum(),
        problems,
        notes,
    }
}

fn json_result(out: &Outcome) -> String {
    let correct = out.problems.is_empty();
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.problems.len()
    );
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fig2-micro|fig2-stamp|serve-mixed|verify-litmus \
                 --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::machine_fingerprint()
    );
    let mut out =
        if args.trace { layers::traced_run(args.workload, args.seed) } else { measured_run(&args) };
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.problems.push(format!("metric {} is not finite", m.name));
        }
    }
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("FAILED {p}");
    }
    let ok = out.problems.is_empty();
    out.metrics.retain(|m| m.value.is_finite());
    println!("{}", json_result(&out));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
