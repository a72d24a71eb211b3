//! Machine-readable run reports: executes a matrix of workloads ×
//! variants and writes one `BENCH_<name>.json` file with per-variant
//! cycles, abort rates, cycle breakdowns and simulator counters — the
//! telemetry consumed by CI artifacts and offline analysis.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin report -- \
//!     --name paper --threads 256 [--only ht] [--data-scale N]
//! ```
//!
//! Writes `BENCH_<name>.json` (default name `report`) at the workspace
//! root (override with `BENCH_OUT_DIR`). The default matrix covers RA
//! and HT (the paper's two microbenchmarks) under every variant;
//! `--full` adds GN, LB and KM.

#![forbid(unsafe_code)]

use bench::runner::{run_workload, Workload};
use bench::Suite;
use gpu_sim::JsonWriter;
use workloads::Variant;

fn main() {
    let suite = Suite::from_args();
    let argv: Vec<String> = std::env::args().collect();
    let mut name = "report".to_string();
    let mut threads: Option<u64> = Some(256);
    let mut full = false;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--name" if i + 1 < argv.len() => {
                name = argv[i + 1].clone();
                i += 1;
            }
            "--threads" if i + 1 < argv.len() => {
                threads = Some(argv[i + 1].parse().expect("--threads wants a number"));
                i += 1;
            }
            "--full" => full = true,
            _ => {}
        }
        i += 1;
    }

    let workloads: &[Workload] = if full {
        &[Workload::Ra, Workload::Ht, Workload::Gn, Workload::Lb, Workload::Km]
    } else {
        &[Workload::Ra, Workload::Ht]
    };

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "gpu-stm-bench-report/1");
    w.key("suite");
    w.begin_object();
    w.field_u64("data_scale", suite.data_scale);
    w.field_u64("thread_scale", suite.thread_scale);
    w.field_u64("n_locks", suite.n_locks() as u64);
    w.end_object();
    w.key("timing");
    gpu_sim::SimConfig::default().timing.write_json(&mut w);
    w.key("workloads");
    w.begin_array();
    for &wl in workloads {
        if !suite.selected(wl.short()) {
            continue;
        }
        w.begin_object();
        w.field_str("workload", wl.short());
        w.field_str("label", wl.label());
        w.key("variants");
        w.begin_array();
        for variant in Variant::ALL {
            eprint!("[report] {} under {} ...", wl.label(), variant.label());
            w.begin_object();
            w.field_str("variant", variant.short_name());
            w.field_str("label", variant.label());
            match run_workload(&suite, wl, variant, threads) {
                Ok(out) => {
                    eprintln!(" {} cycles", out.cycles);
                    w.field_bool("ok", true);
                    w.field_u64("cycles", out.cycles);
                    w.key("kernel_cycles");
                    w.begin_array();
                    for c in &out.kernel_cycles {
                        w.u64(*c);
                    }
                    w.end_array();
                    w.key("grid");
                    w.begin_object();
                    w.field_u64("blocks", out.grid.blocks as u64);
                    w.field_u64("threads_per_block", out.grid.threads_per_block as u64);
                    w.end_object();
                    w.key("tx");
                    out.tx.write_json(&mut w);
                    w.key("sim");
                    out.sim.write_json(&mut w);
                }
                Err(e) => {
                    eprintln!(" failed: {e}");
                    w.field_bool("ok", false);
                    w.field_str("error", &e.to_string());
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();

    let path = bench::bench_output_path(&name);
    let json = w.finish();
    std::fs::write(&path, &json).expect("write report");
    println!("report written to {} ({} bytes)", path.display(), json.len());
}
