//! Load sweep for the sharded transaction service (`tm-serve`).
//!
//! Runs the service over a matrix of traffic mixes × shard counts ×
//! STM variants at a **fixed total batch capacity** (so the shard axis
//! measures contention isolation, not extra hardware), then writes one
//! deterministic `BENCH_<name>.json` at the workspace root and prints a
//! console table with the wall-clock scaling figures.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin serve                  # full sweep
//! cargo run -p bench --release --bin serve -- --smoke       # CI sweep
//! cargo run -p bench --release --bin serve -- --shards 4    # single run
//! ```
//!
//! Single-run mode (`--shards N`) accepts `--mix bank|ht|mixed|blocking`
//! (`blocking` turns on parking admission with its bursty preset),
//! `--variant`, `--mode plain|scheduled|robust`, `--requests`,
//! `--workers`, `--queue-cap`, `--total-warps` and `--seed`.
//!
//! `--recovery` switches to the kill-and-restart sweep instead: it runs
//! an uncrashed durable baseline, then kills each shard worker at each
//! WAL lifecycle point (`--smoke` restricts to two points) and checks
//! the recovered run is byte-identical — report *and* blob store — to
//! the baseline, finishing with a replicated run that demotes an
//! injected divergent replica. Results land in `BENCH_recovery.json`
//! plus a standalone `recovery-report.json`, and the process exits
//! nonzero if any recovery diverges.
//!
//! Everything inside the JSON is virtual (simulated cycles, counters,
//! FNV hashes): for a fixed seed the file is byte-identical regardless
//! of worker-thread count or host speed. Wall-clock throughput is
//! printed on the console only.

#![forbid(unsafe_code)]

use bench::{bench_output_path, print_table};
use gpu_sim::JsonWriter;
use tm_serve::{
    store_fingerprint, CrashPlan, CrashPoint, DurabilityConfig, EngineMode, MemStore, MixConfig,
    ReplicaFault, ServeConfig, ServeReport, Service,
};
use workloads::Variant;

struct Args {
    name: String,
    shards: Option<usize>,
    workers: usize,
    variant: Variant,
    mode: EngineMode,
    mix: String,
    requests: u64,
    queue_cap: usize,
    total_warps: u32,
    seed: u64,
    smoke: bool,
    recovery: bool,
    accounts: u32,
    locality_pct: Option<u32>,
    hot_pct: Option<u32>,
    hot_keys: Option<u32>,
}

impl Args {
    fn parse() -> Args {
        let argv: Vec<String> = std::env::args().collect();
        let mut a = Args {
            name: "serve".to_string(),
            shards: None,
            workers: 0,
            variant: Variant::Vbv,
            // Plain by default: the AIMD scheduler deliberately damps the
            // contention collapse this sweep measures along the shard
            // axis. `--mode scheduled` benches the production setup.
            mode: EngineMode::Plain,
            mix: "bank".to_string(),
            requests: 16384,
            queue_cap: 0,
            total_warps: 64,
            seed: 42,
            smoke: false,
            recovery: false,
            accounts: 256,
            locality_pct: None,
            hot_pct: None,
            hot_keys: None,
        };
        let mut i = 1;
        while i < argv.len() {
            let take =
                |i: usize| argv.get(i + 1).unwrap_or_else(|| panic!("{} wants a value", argv[i]));
            match argv[i].as_str() {
                "--name" => {
                    a.name = take(i).clone();
                    i += 1;
                }
                "--shards" => {
                    a.shards = Some(take(i).parse().expect("--shards wants a number"));
                    i += 1;
                }
                "--workers" => {
                    a.workers = take(i).parse().expect("--workers wants a number");
                    i += 1;
                }
                "--variant" => {
                    a.variant = Variant::parse(take(i)).expect("unknown --variant");
                    i += 1;
                }
                "--mode" => {
                    a.mode = EngineMode::parse(take(i)).expect("unknown --mode");
                    i += 1;
                }
                "--mix" => {
                    a.mix = take(i).clone();
                    i += 1;
                }
                "--requests" => {
                    a.requests = take(i).parse().expect("--requests wants a number");
                    i += 1;
                }
                "--queue-cap" => {
                    a.queue_cap = take(i).parse().expect("--queue-cap wants a number");
                    i += 1;
                }
                "--total-warps" => {
                    a.total_warps = take(i).parse().expect("--total-warps wants a number");
                    i += 1;
                }
                "--seed" => {
                    a.seed = take(i).parse().expect("--seed wants a number");
                    i += 1;
                }
                "--accounts" => {
                    a.accounts = take(i).parse().expect("--accounts wants a number");
                    i += 1;
                }
                "--locality" => {
                    a.locality_pct = Some(take(i).parse().expect("--locality wants a percent"));
                    i += 1;
                }
                "--hot-pct" => {
                    a.hot_pct = Some(take(i).parse().expect("--hot-pct wants a percent"));
                    i += 1;
                }
                "--hot-keys" => {
                    a.hot_keys = Some(take(i).parse().expect("--hot-keys wants a number"));
                    i += 1;
                }
                "--smoke" => a.smoke = true,
                "--recovery" => a.recovery = true,
                _ => {}
            }
            i += 1;
        }
        a
    }
}

/// Builds the service config for one sweep point. The total batch
/// capacity (`total_warps` × 32 lanes) is held constant across shard
/// counts: one shard runs all lanes in one conflict domain, `n` shards
/// split the same lanes into `n` independent domains.
fn config(args: &Args, mix_name: &str, variant: Variant, shards: usize) -> ServeConfig {
    let mut mix = MixConfig::parse(mix_name).expect("unknown --mix");
    mix.requests = args.requests;
    // Saturating arrivals: the sweep measures service throughput, not
    // idle time waiting for an open-loop trickle.
    mix.mean_interarrival = 4;
    if mix_name == "bank" {
        // Bench defaults for the bank mix: mostly-local traffic with a
        // light hot set — the regime where shard isolation pays most
        // (DESIGN.md §12). The service preset keeps the hotter mix.
        mix.locality_pct = 90;
        mix.hot_pct = 10;
    }
    if let Some(p) = args.locality_pct {
        mix.locality_pct = p;
    }
    if let Some(p) = args.hot_pct {
        mix.hot_pct = p;
    }
    if let Some(k) = args.hot_keys {
        mix.hot_keys = k;
    }
    // The blocking mix keeps its bursty preset arrivals and a bounded
    // queue: overflow is the point — admission parks on the capacity
    // condition instead of rejecting.
    let blocking = mix_name == "blocking";
    if blocking {
        mix.mean_interarrival = MixConfig::blocking().mean_interarrival;
    }
    let queue_cap = if args.queue_cap > 0 {
        args.queue_cap
    } else if blocking {
        ServeConfig::default().queue_capacity
    } else {
        args.requests as usize + 8
    };
    ServeConfig {
        shards,
        workers: args.workers,
        variant,
        mode: args.mode,
        mix,
        seed: args.seed,
        accounts: args.accounts,
        batch_warps: (args.total_warps / shards as u32).max(1),
        queue_capacity: queue_cap,
        blocking,
        ..ServeConfig::default()
    }
}

fn run(cfg: &ServeConfig, mix_name: &str) -> ServeReport {
    eprint!(
        "[serve] mix={} variant={} shards={} ...",
        mix_name,
        cfg.variant.short_name(),
        cfg.shards
    );
    let report = Service::run(cfg).unwrap_or_else(|e| panic!("serve run failed: {e}"));
    eprintln!(
        " {} completed in {:.2}s ({} virtual kcycles)",
        report.completed,
        report.wall_seconds,
        report.virtual_cycles / 1000
    );
    report
}

/// One durable service config for the recovery sweep. Small and hot:
/// the sweep measures healing fidelity, not throughput, so a compact
/// fixed-seed run that still crosses several snapshot boundaries is
/// ideal.
fn recovery_config(args: &Args, dur: DurabilityConfig) -> ServeConfig {
    ServeConfig {
        shards: args.shards.unwrap_or(2),
        workers: args.workers,
        mix: MixConfig { requests: 96, ..MixConfig::mixed() },
        seed: args.seed,
        accounts: 64,
        table_words: 256,
        txl_words: 16,
        batch_warps: 1,
        n_locks: 1 << 10,
        durability: Some(dur),
        ..ServeConfig::default()
    }
}

/// Kill-and-restart sweep: every (shard × crash point) cell must heal
/// back to the uncrashed baseline byte-for-byte. Writes
/// `BENCH_<name>.json` and `recovery-report.json`; exits nonzero on any
/// divergence so CI fails loudly.
fn run_recovery(args: &Args) {
    let durability = DurabilityConfig { segment_batches: 2, ..DurabilityConfig::default() };
    let points: &[CrashPoint] = if args.smoke {
        // The two most distinctive repair paths: torn-tail truncation
        // and verified replay of an already-sealed batch.
        &[CrashPoint::WalAppend, CrashPoint::PostPrepare]
    } else {
        &CrashPoint::ALL
    };

    let base_cfg = recovery_config(args, durability);
    let shards = base_cfg.shards;
    eprintln!("[recovery] baseline: {} shards, seed {} ...", shards, args.seed);
    let base_store = MemStore::shared();
    let (baseline, _) = Service::run_durable(&base_cfg, base_store.clone())
        .unwrap_or_else(|e| panic!("baseline durable run failed: {e}"));
    let baseline_json = baseline.to_json();
    let (base_fnv, base_bytes) = store_fingerprint(&base_store);

    struct Cell {
        shard: usize,
        point: CrashPoint,
        identical: bool,
        rec: tm_serve::RecoveryReport,
    }
    let mut cells: Vec<Cell> = Vec::new();
    let mut diverged_cells = 0usize;
    for shard in 0..shards {
        for &point in points {
            let dur =
                DurabilityConfig { crash: Some(CrashPlan::at(shard, point, 1)), ..durability };
            let store = MemStore::shared();
            let (report, rec) = Service::run_durable(&recovery_config(args, dur), store.clone())
                .unwrap_or_else(|e| panic!("kill shard {shard} at {point}: {e}"));
            let identical = report.to_json() == baseline_json
                && store_fingerprint(&store) == (base_fnv, base_bytes);
            if !identical {
                diverged_cells += 1;
            }
            eprintln!(
                "[recovery] shard {shard} at {point}: {}",
                if identical { "byte-identical" } else { "DIVERGED" }
            );
            cells.push(Cell { shard, point, identical, rec });
        }
    }

    // Replicated run with an injected single-commit loss: the quorum
    // must demote exactly the faulted replica and keep the rest.
    let rep_dur = DurabilityConfig {
        replicas: 2,
        replica_fault: Some(ReplicaFault { shard: 0, replica: 1, at_commit: 3 }),
        ..durability
    };
    let (rep_report, rep_rec) =
        Service::run_durable(&recovery_config(args, rep_dur), MemStore::shared())
            .unwrap_or_else(|e| panic!("replicated run failed: {e}"));
    assert!(rep_report.conserved, "replica fault must never touch the primary");

    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "gpu-stm-recovery/1");
    w.field_u64("shards", shards as u64);
    w.field_u64("seed", args.seed);
    w.key("baseline");
    w.begin_object();
    w.field_str("store_fnv", &format!("{base_fnv:016x}"));
    w.field_u64("store_bytes", base_bytes);
    w.field_u64("completed", baseline.completed);
    w.field_bool("conserved", baseline.conserved);
    w.end_object();
    w.key("crashes");
    w.begin_array();
    for cell in &cells {
        w.begin_object();
        w.field_u64("shard", cell.shard as u64);
        w.field_str("point", cell.point.short_name());
        w.field_bool("byte_identical", cell.identical);
        w.key("recovery");
        cell.rec.write_json(&mut w);
        w.end_object();
    }
    w.end_array();
    w.key("replication");
    rep_rec.write_json(&mut w);
    w.end_object();
    // `--name` still overrides, but the default artifact name is
    // `recovery` here so the load sweep's BENCH_serve.json survives.
    let name = if args.name == "serve" { "recovery" } else { args.name.as_str() };
    let path = bench_output_path(name);
    let json = w.finish();
    std::fs::write(&path, &json).expect("write recovery report");

    // Standalone artifact: the replicated run's structured recovery
    // report (replica census + divergence incidents), for CI upload.
    // Routed like every other artifact so `BENCH_OUT_DIR` moves it too.
    let rec_path = bench::artifact_output_path("recovery-report.json");
    std::fs::write(&rec_path, rep_rec.to_json()).expect("write recovery-report.json");

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            let s = &c.rec.recoveries[0];
            vec![
                c.shard.to_string(),
                c.point.to_string(),
                if c.identical { "yes" } else { "NO" }.to_string(),
                s.snapshot_seq.to_string(),
                s.torn_truncated.to_string(),
                s.replayed.to_string(),
                s.reexecuted.to_string(),
            ]
        })
        .collect();
    print_table(
        "tm-serve kill-and-restart sweep",
        &["shard", "point", "byte-identical", "snap-seq", "torn", "replayed", "re-exec"],
        &rows,
    );
    println!(
        "\nreplication: {}/{} replicas healthy, {} divergence incident(s)",
        rep_rec.replicas_healthy,
        rep_rec.replicas_per_shard * shards as u64,
        rep_rec.diverged.len()
    );
    println!("report written to {} ({} bytes)", path.display(), json.len());
    if diverged_cells > 0 {
        eprintln!("[recovery] {diverged_cells} cell(s) diverged from the baseline");
        std::process::exit(1);
    }
}

fn main() {
    let args = Args::parse();
    if args.recovery {
        run_recovery(&args);
        return;
    }

    // (mix, report) per sweep point, in deterministic sweep order.
    let mut runs: Vec<(String, ServeReport)> = Vec::new();
    if let Some(shards) = args.shards {
        let cfg = config(&args, &args.mix, args.variant, shards);
        runs.push((args.mix.clone(), run(&cfg, &args.mix)));
    } else {
        let mixes = ["bank", "ht"];
        let shard_axis: &[usize] = if args.smoke { &[1, 2] } else { &[1, 2, 4] };
        let variants = [Variant::Vbv, Variant::HvSorting];
        let sweep_requests = if args.smoke { args.requests.min(192) } else { args.requests };
        for mix in mixes {
            for &variant in &variants {
                for &shards in shard_axis {
                    let mut cfg = config(&args, mix, variant, shards);
                    cfg.mix.requests = sweep_requests;
                    cfg.queue_capacity = sweep_requests as usize + 8;
                    runs.push((mix.to_string(), run(&cfg, mix)));
                }
            }
        }
    }

    // Deterministic artifact: stable field order, virtual metrics only.
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "gpu-stm-serve/1");
    w.key("runs");
    w.begin_array();
    for (mix, report) in &runs {
        w.begin_object();
        w.field_str("mix", mix);
        w.key("report");
        report.write_json(&mut w);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let path = bench_output_path(&args.name);
    let json = w.finish();
    std::fs::write(&path, &json).expect("write serve report");

    // Console table: wall-clock columns live here and only here.
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (mix, r) in &runs {
        let baseline = runs
            .iter()
            .find(|(m, b)| m == mix && b.variant == r.variant && b.shards == 1)
            .map(|(_, b)| b.wall_throughput());
        let wall_x = match baseline {
            Some(base) if base > 0.0 => format!("{:.2}x", r.wall_throughput() / base),
            _ => "-".to_string(),
        };
        rows.push(vec![
            mix.clone(),
            r.variant.clone(),
            r.shards.to_string(),
            r.completed.to_string(),
            r.rejected.to_string(),
            r.shard_reports.iter().map(|s| s.aborts).sum::<u64>().to_string(),
            r.p50().to_string(),
            format!("{:.3}", r.sim_throughput()),
            format!("{:.0}", r.wall_throughput()),
            wall_x,
        ]);
    }
    print_table(
        "tm-serve load sweep",
        &[
            "mix",
            "variant",
            "shards",
            "completed",
            "rejected",
            "aborts",
            "p50(cyc)",
            "tx/kcycle",
            "tx/s",
            "wall-x",
        ],
        &rows,
    );
    println!("\nreport written to {} ({} bytes)", path.display(), json.len());
}
