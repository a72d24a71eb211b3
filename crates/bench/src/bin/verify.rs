//! Bounded model checking of the STM variants: DPOR schedule exploration
//! over the tm-verify litmus workloads, with machine-readable exploration
//! stats and `.sched` repro files for any violation found.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin verify                 # full matrix
//! cargo run -p bench --release --bin verify -- \
//!     --workload bank --variant hv-sorting --bound 2        # one cell
//! cargo run -p bench --release --bin verify -- \
//!     --mutant unsorted_locks --variant hv-sorting          # witness hunt
//! cargo run -p bench --release --bin verify -- \
//!     --replay witness.sched                                # reproduce
//! ```
//!
//! Exit status is nonzero when any violation is found (or a `--replay`
//! does not reproduce one), so the bin doubles as a CI gate.

#![forbid(unsafe_code)]

use bench::print_table;
use gpu_sim::json::JsonWriter;
use gpu_stm::Mutation;
use std::process::ExitCode;
use tm_verify::{
    finding_to_sched, minimize_finding, parse, replay, verify, ExploreStats, Litmus, VerifyConfig,
    Workload,
};
use workloads::Variant;

struct Args {
    workloads: Vec<Workload>,
    variants: Vec<Variant>,
    blocks: u32,
    warps: u32,
    bound: u32,
    max_schedules: u64,
    mutant: Option<(&'static str, Mutation)>,
    json: Option<String>,
    sched_dir: String,
    replay: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: verify [--workload bank|hashtable|stripes|all] [--variant <name>|all]\n\
         \x20             [--blocks N] [--warps N] [--bound N] [--max-schedules N]\n\
         \x20             [--mutant skip_validation|unsorted_locks|late_writeback]\n\
         \x20             [--json FILE] [--sched-dir DIR] [--replay FILE.sched]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        variants: Variant::ALL.to_vec(),
        blocks: 1,
        warps: 2,
        bound: 2,
        max_schedules: 3000,
        mutant: None,
        json: None,
        sched_dir: ".".into(),
        replay: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                let v = val();
                args.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    w => vec![Workload::parse(w).unwrap_or_else(|| usage())],
                };
            }
            "--variant" => {
                let v = val();
                args.variants = match v.as_str() {
                    "all" => Variant::ALL.to_vec(),
                    s => vec![Variant::parse(s).unwrap_or_else(|| usage())],
                };
            }
            "--blocks" => args.blocks = val().parse().unwrap_or_else(|_| usage()),
            "--warps" => args.warps = val().parse().unwrap_or_else(|_| usage()),
            "--bound" => args.bound = val().parse().unwrap_or_else(|_| usage()),
            "--max-schedules" => args.max_schedules = val().parse().unwrap_or_else(|_| usage()),
            "--mutant" => args.mutant = Some(parse_mutant(&val()).unwrap_or_else(|| usage())),
            "--json" => args.json = Some(val()),
            "--sched-dir" => args.sched_dir = val(),
            "--replay" => args.replay = Some(val()),
            _ => usage(),
        }
    }
    args
}

fn parse_mutant(s: &str) -> Option<(&'static str, Mutation)> {
    match s {
        "skip_validation" => {
            Some(("skip_validation", Mutation { skip_validation: true, ..Default::default() }))
        }
        "unsorted_locks" => {
            Some(("unsorted_locks", Mutation { unsorted_locks: true, ..Default::default() }))
        }
        "late_writeback" => {
            Some(("late_writeback", Mutation { late_writeback: true, ..Default::default() }))
        }
        _ => None,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(path) = &args.replay {
        return replay_file(path);
    }

    println!("GPU-STM reproduction — bounded DPOR model checking");
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut violations = 0u64;

    for &wl in &args.workloads {
        for &variant in &args.variants {
            let mut litmus = Litmus::new(wl, variant, args.blocks, args.warps);
            if let Some((_, m)) = args.mutant {
                if !matches!(
                    variant,
                    Variant::TbvSorting
                        | Variant::HvSorting
                        | Variant::HvBackoff
                        | Variant::TbvBackoff
                ) {
                    continue; // mutations exist only in the lock-based runtime
                }
                litmus.mutation = m;
            }
            let cfg = VerifyConfig {
                litmus,
                max_preemptions: args.bound,
                max_schedules: args.max_schedules,
                stop_on_finding: args.mutant.is_some(),
            };
            eprint!("[verify] {wl}/{variant} bound={}...", args.bound);
            let t = std::time::Instant::now();
            let report = verify(&cfg);
            let dt = t.elapsed();
            eprintln!(" {} schedules in {dt:?}", report.stats.schedules_run);

            let verdict = if let Some(u) = &report.unsupported {
                format!("unsupported: {u}")
            } else if report.is_clean() {
                if report.stats.cap_hit {
                    "clean (capped)".into()
                } else {
                    "clean".into()
                }
            } else {
                violations += report.findings.len() as u64;
                let f = &report.findings[0];
                let min = minimize_finding(&litmus, f);
                let file = format!(
                    "{}/{}-{}-{}.sched",
                    args.sched_dir,
                    wl.name(),
                    variant.short_name(),
                    f.violation.kind
                );
                let text = finding_to_sched(&litmus, f, &min);
                if let Err(e) = std::fs::write(&file, text) {
                    eprintln!("[verify] cannot write {file}: {e}");
                }
                format!("{} ({} choices) -> {file}", f.violation.kind, min.choices.len())
            };
            rows.push(vec![
                wl.name().to_string(),
                variant.short_name().to_string(),
                report.stats.schedules_run.to_string(),
                report.stats.backtracks_queued.to_string(),
                report.stats.sleep_pruned.to_string(),
                (report.stats.traces_deduped + report.stats.states_deduped).to_string(),
                report.stats.footprint_invisible_events.to_string(),
                verdict.clone(),
            ]);
            cells.push((wl, variant, report.stats.clone(), verdict));
        }
    }

    print_table(
        &format!(
            "schedule exploration (bound {}, {}x{} warps{})",
            args.bound,
            args.blocks,
            args.warps,
            args.mutant.map(|(n, _)| format!(", mutant {n}")).unwrap_or_default()
        ),
        &[
            "workload",
            "variant",
            "schedules",
            "backtracks",
            "pruned",
            "deduped",
            "fp-invis",
            "verdict",
        ],
        &rows,
    );

    if let Some(path) = &args.json {
        let json = stats_json(&args, &cells);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("[verify] cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }

    if violations > 0 {
        println!("\n{violations} violation(s) found");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn stats_json(args: &Args, cells: &[(Workload, Variant, ExploreStats, String)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_u64("bound", u64::from(args.bound));
    w.field_u64("blocks", u64::from(args.blocks));
    w.field_u64("warps_per_block", u64::from(args.warps));
    w.field_u64("max_schedules", args.max_schedules);
    w.key("cells");
    w.begin_array();
    for (wl, variant, s, verdict) in cells {
        w.begin_object();
        w.field_str("workload", wl.name());
        w.field_str("variant", variant.short_name());
        w.field_str("verdict", verdict);
        w.field_u64("schedules_run", s.schedules_run);
        w.field_u64("traces_deduped", s.traces_deduped);
        w.field_u64("states_deduped", s.states_deduped);
        w.field_u64("backtracks_queued", s.backtracks_queued);
        w.field_u64("backtracks_deferred", s.backtracks_deferred);
        w.field_u64("sleep_pruned", s.sleep_pruned);
        w.field_u64("schedules_deduped", s.schedules_deduped);
        w.field_u64("footprint_invisible_events", s.footprint_invisible_events);
        w.field_u64("max_trace_len", s.max_trace_len as u64);
        w.field_bool("cap_hit", s.cap_hit);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn replay_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let (schedule, meta) = match parse(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let litmus = match litmus_from_meta(&meta) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {path}: {}/{} {}x{} warps, {} forced choices",
        litmus.workload,
        litmus.variant,
        litmus.blocks,
        litmus.warps_per_block,
        schedule.choices.len()
    );
    let out = replay(&litmus, &schedule);
    if out.violations.is_empty() {
        println!("no violation reproduced");
        return ExitCode::FAILURE;
    }
    for v in &out.violations {
        println!("reproduced: {} {}", v.kind, v.message);
    }
    ExitCode::SUCCESS
}

fn litmus_from_meta(meta: &[(String, String)]) -> Result<Litmus, String> {
    let get = |k: &str| {
        meta.iter()
            .find(|(mk, _)| mk == k)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("missing `meta {k}` (was this .sched written by tm-verify?)"))
    };
    let workload =
        Workload::parse(get("workload")?).ok_or_else(|| "unknown workload".to_string())?;
    let variant = Variant::parse(get("variant")?).ok_or_else(|| "unknown variant".to_string())?;
    let blocks: u32 = get("blocks")?.parse().map_err(|_| "bad blocks".to_string())?;
    let warps: u32 = get("warps_per_block")?.parse().map_err(|_| "bad warps".to_string())?;
    let mut litmus = Litmus::new(workload, variant, blocks, warps);
    if let Ok(m) = get("mutation") {
        for tok in m.split_whitespace() {
            match tok.split_once('=') {
                Some(("skip_validation", v)) => litmus.mutation.skip_validation = v == "true",
                Some(("unsorted_locks", v)) => litmus.mutation.unsorted_locks = v == "true",
                Some(("late_writeback", v)) => litmus.mutation.late_writeback = v == "true",
                _ => return Err(format!("bad mutation token {tok:?}")),
            }
        }
    }
    Ok(litmus)
}
