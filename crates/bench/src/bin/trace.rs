//! tm-trace: capture a cycle-accurate trace of one workload × variant run
//! and export it as Chrome-trace JSON (loadable in Perfetto / `chrome://
//! tracing`) plus a contention profile.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin trace -- \
//!     --workload ht --variant hv-sorting --threads 256 \
//!     --out trace.json --profile contention.json
//! ```
//!
//! All flags are optional: the default is the hashtable workload under
//! STM-HV-Sorting at a small deterministic scale, writing `trace.json`.
//! `--capacity N` bounds both ring buffers (default 1 << 20 events each);
//! when a buffer overflows the *oldest* events are dropped and the drop
//! count is reported. The suite scaling flags (`--data-scale`,
//! `--thread-scale`) apply as in every other bench binary.

#![forbid(unsafe_code)]

use bench::runner::{run_workload_traced, TraceHooks, Workload};
use bench::{thousands, Suite};
use gpu_sim::trace_sink;
use gpu_stm::{chrome_trace, tx_trace_sink, ContentionProfile};
use workloads::Variant;

struct Args {
    workload: Workload,
    variant: Variant,
    threads: Option<u64>,
    out: String,
    profile: Option<String>,
    capacity: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::Ht,
        variant: Variant::HvSorting,
        threads: Some(256),
        out: "trace.json".to_string(),
        profile: None,
        capacity: 1 << 20,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" if i + 1 < argv.len() => {
                args.workload = Workload::parse(&argv[i + 1])
                    .unwrap_or_else(|| die(&format!("unknown workload `{}`", argv[i + 1])));
                i += 1;
            }
            "--variant" if i + 1 < argv.len() => {
                args.variant = Variant::parse(&argv[i + 1])
                    .unwrap_or_else(|| die(&format!("unknown variant `{}`", argv[i + 1])));
                i += 1;
            }
            "--threads" if i + 1 < argv.len() => {
                args.threads = Some(argv[i + 1].parse().expect("--threads wants a number"));
                i += 1;
            }
            "--out" if i + 1 < argv.len() => {
                args.out = argv[i + 1].clone();
                i += 1;
            }
            "--profile" if i + 1 < argv.len() => {
                args.profile = Some(argv[i + 1].clone());
                i += 1;
            }
            "--capacity" if i + 1 < argv.len() => {
                args.capacity = argv[i + 1].parse().expect("--capacity wants a number");
                i += 1;
            }
            "--help" | "-h" => {
                eprintln!(
                    "tm-trace: --workload ra|ht|eb|gn|lb|km --variant <short-name> \
                     --threads N --out FILE --profile FILE --capacity N \
                     [--data-scale N --thread-scale N]"
                );
                std::process::exit(0);
            }
            _ => {}
        }
        i += 1;
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("tm-trace: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    let suite = Suite::from_args();

    let sim_sink = trace_sink(args.capacity);
    let tx_sink = tx_trace_sink(args.capacity);
    let hooks = TraceHooks { sim: Some(sim_sink.clone()), tx: Some(tx_sink.clone()) };

    eprintln!("[tm-trace] {} under {} ...", args.workload.label(), args.variant.label());
    let out = match run_workload_traced(&suite, args.workload, args.variant, args.threads, &hooks) {
        Ok(out) => out,
        Err(e) => die(&format!("run failed: {e}")),
    };

    let sim_events = sim_sink.borrow().snapshot();
    let tx_events = tx_sink.borrow().snapshot();
    let json = chrome_trace(&sim_events, &tx_events);
    if let Err(e) = std::fs::write(&args.out, &json) {
        die(&format!("cannot write {}: {e}", args.out));
    }

    let profile = ContentionProfile::from_events(&tx_events);
    println!(
        "{} under {}: {} cycles, {} commits, {} aborts (rate {:.3})",
        args.workload.label(),
        args.variant.label(),
        thousands(out.cycles),
        thousands(out.tx.commits),
        thousands(out.tx.aborts),
        out.tx.abort_rate()
    );
    println!(
        "events: {} machine ({} dropped), {} transaction ({} dropped)",
        sim_sink.borrow().emitted(),
        sim_sink.borrow().dropped(),
        tx_sink.borrow().emitted(),
        tx_sink.borrow().dropped()
    );
    println!(
        "trace written to {} ({} bytes) — open in Perfetto or chrome://tracing",
        args.out,
        json.len()
    );

    if profile.total_conflicts() > 0 || profile.total_aborts() > 0 {
        println!("\ncontention heatmap (stripes × time, '@' = hottest):");
        print!("{}", profile.heatmap(8));
        let hot = profile.hottest_stripes(5);
        if !hot.is_empty() {
            println!("hottest stripes:");
            for (stripe, count) in hot {
                println!("  stripe {stripe:>8}: {} conflicts", thousands(count));
            }
        }
    } else {
        println!("\nno lock conflicts or aborts observed — contention heatmap omitted");
    }
    if let Some(path) = &args.profile {
        if let Err(e) = std::fs::write(path, profile.to_json()) {
            die(&format!("cannot write {path}: {e}"));
        }
        println!("contention report written to {path}");
    }
}
