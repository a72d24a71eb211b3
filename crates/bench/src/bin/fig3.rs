//! Figure 3: scalability of the STM variants — speedup over CGL as the
//! thread count grows.
//!
//! Expected shape: lock-table-based variants scale with threads until
//! hardware residency and conflicts saturate; STM-VBV plateaus early
//! (single-sequence-lock contention); STM-EGPGV stops running at larger
//! grids ("crashes" in the paper) because it lacks per-thread
//! transactions.
//!
//! Usage: `cargo run -p bench --release --bin fig3 [--only ra|ht|gn|lb|km]`

#![forbid(unsafe_code)]

use bench::runner::{run_workload, Workload};
use bench::{print_table, speedup, Suite};
use workloads::Variant;

fn main() {
    let suite = Suite::from_args();
    let threads: Vec<u64> = vec![64, 256, 1024, 4096];
    println!("GPU-STM reproduction — Figure 3 (speedup over CGL vs. thread count)");

    for w in Workload::FIGURE2 {
        if !suite.selected(w.short()) {
            continue;
        }
        let mut rows = Vec::new();
        for &t in &threads {
            eprint!("[fig3] {} @ {t} threads: CGL", w.label());
            let cgl = match run_workload(&suite, w, Variant::Cgl, Some(t)) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!(" failed: {e}");
                    continue;
                }
            };
            let mut row = vec![t.to_string()];
            for v in Variant::FIGURE2 {
                eprint!(" {v}");
                match run_workload(&suite, w, v, Some(t)) {
                    Ok(out) => row.push(format!("{:.2}", speedup(cgl.cycles, out.cycles))),
                    Err(workloads::RunError::Unsupported(_)) => row.push("✗".to_string()),
                    Err(_) => row.push("err".to_string()),
                }
            }
            eprintln!();
            rows.push(row);
        }
        let headers = ["threads", "EGPGV", "VBV", "TBV-Sort", "HV-Backoff", "HV-Sort", "Optimized"];
        print_table(
            &format!("Figure 3 — {} scalability (speedup over CGL)", w.label()),
            &headers,
            &rows,
        );
    }
    println!("\n(✗ = unsupported: STM-EGPGV does not support per-thread transactions at scale)");
}
