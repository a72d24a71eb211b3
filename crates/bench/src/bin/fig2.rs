//! Figure 2: performance comparison between STM variants and
//! coarse-grained locking (CGL) on the GPU.
//!
//! For each workload, every STM variant's transaction-kernel cycles are
//! reported as a speedup over CGL. Expected shape (paper Section 4.2):
//! STM-Optimized fastest or tied; STM-EGPGV limited by per-block
//! concurrency; STM-VBV poor on many-transaction workloads; HV beats TBV
//! where shared data exceeds the lock table (RA, LB); KM gains nothing.
//!
//! Usage: `cargo run -p bench --release --bin fig2 [--data-scale N]
//! [--thread-scale N] [--only ra|ht|gn|lb|km]`

#![forbid(unsafe_code)]

use bench::runner::{run_workload, Workload};
use bench::{print_table, speedup, thousands, Suite};
use workloads::Variant;

fn main() {
    let suite = Suite::from_args();
    println!(
        "GPU-STM reproduction — Figure 2 (speedup over CGL)\n\
         data-scale 1/{}, thread-scale 1/{}, {} global version locks",
        suite.data_scale,
        suite.thread_scale,
        thousands(suite.n_locks() as u64)
    );

    let mut rows = Vec::new();
    for w in Workload::FIGURE2 {
        if !suite.selected(w.short()) {
            continue;
        }
        eprint!("[fig2] {} CGL...", w.label());
        let cgl = match run_workload(&suite, w, Variant::Cgl, None) {
            Ok(out) => out,
            Err(e) => {
                eprintln!(" failed: {e}");
                continue;
            }
        };
        eprintln!(" {} cycles", thousands(cgl.cycles));
        let mut row = vec![
            w.label().to_string(),
            format!("{}x{}", cgl.grid.blocks, cgl.grid.threads_per_block),
            thousands(cgl.cycles),
        ];
        for v in Variant::FIGURE2 {
            eprint!("[fig2] {} {}...", w.label(), v);
            match run_workload(&suite, w, v, None) {
                Ok(out) => {
                    eprintln!(" {} cycles", thousands(out.cycles));
                    row.push(format!("{:.2}", speedup(cgl.cycles, out.cycles)));
                }
                Err(workloads::RunError::Unsupported(_)) => {
                    eprintln!(" unsupported");
                    row.push("✗".to_string());
                }
                Err(e) => {
                    eprintln!(" failed: {e}");
                    row.push("err".to_string());
                }
            }
        }
        rows.push(row);
    }

    let headers = [
        "workload",
        "grid",
        "CGL cycles",
        "EGPGV",
        "VBV",
        "TBV-Sort",
        "HV-Backoff",
        "HV-Sort",
        "Optimized",
    ];
    print_table("Figure 2 — speedup over CGL (higher is better)", &headers, &rows);
    println!(
        "\n(✗ = configuration unsupported by the variant, as the paper reports for \
         STM-EGPGV beyond per-block-transaction capacity)"
    );
}
