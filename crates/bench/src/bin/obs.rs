//! Load-and-fault sweep for the live-observability subsystem
//! (`tm-serve::obs`).
//!
//! Drives the service through three deterministic scenarios and records
//! what the metrics registry, health state machines and flight recorder
//! saw:
//!
//! 1. **load** — a hot, contended mix under the AIMD scheduler, sized
//!    to push shards through abort-storm incidents and several metric
//!    windows.
//! 2. **crash** — a durable run with a seeded worker kill and an
//!    asynchronous recovery window (`recovery_rounds > 0`): the shard
//!    must pass Healthy → Recovering → Healthy and cut a crash bundle.
//! 3. **divergence** — a replicated run with a seeded single-commit
//!    drop in one replica: the quorum demotes it and the shard degrades.
//!
//! The artifact (`BENCH_obs.json` by default) embeds each scenario's
//! final `MetricsSnapshot`, its incident log and bundle summaries, plus
//! an FNV-64 of the Prometheus text exposition — the full scrape is
//! checked by hash rather than inlined. Everything is virtual, so the
//! file is byte-identical for any worker count and any host.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin obs                    # full sweep
//! cargo run -p bench --release --bin obs -- --smoke         # CI sweep
//! cargo run -p bench --release --bin obs -- --bundles DIR   # dump bundles
//! cargo run -p bench --release --bin obs -- --prom          # print scrape
//! ```

#![forbid(unsafe_code)]

use bench::{artifact_output_path, bench_output_path, print_table};
use gpu_sim::{Fnv, JsonWriter};
use tm_serve::{
    CrashPlan, CrashPoint, DurabilityConfig, EngineMode, MemStore, MixConfig, ObsConfig,
    RecoveryReport, ReplicaFault, ServeConfig, ServeReport, Service,
};
use workloads::Variant;

struct Args {
    name: String,
    seed: u64,
    workers: usize,
    smoke: bool,
    prom: bool,
    bundles: Option<std::path::PathBuf>,
}

impl Args {
    fn parse() -> Args {
        let argv: Vec<String> = std::env::args().collect();
        let mut a = Args {
            name: "obs".to_string(),
            seed: 42,
            workers: 0,
            smoke: false,
            prom: false,
            bundles: None,
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
                "--seed" => {
                    a.seed = take(i).parse().expect("--seed wants a number");
                    i += 1;
                }
                "--workers" => {
                    a.workers = take(i).parse().expect("--workers wants a number");
                    i += 1;
                }
                "--bundles" => {
                    a.bundles = Some(std::path::PathBuf::from(take(i)));
                    i += 1;
                }
                "--smoke" => a.smoke = true,
                "--prom" => a.prom = true,
                _ => {}
            }
            i += 1;
        }
        a
    }
}

/// Observability knobs shared by every scenario: a window narrow enough
/// that short runs cross several boundaries, event capture on so
/// bundles carry replayable traces, and `storm_open: 1` so a single
/// storming batch is incident-worthy — the AIMD scheduler damps storms
/// quickly, so waiting for consecutive ones would miss most of them.
fn obs_cfg() -> ObsConfig {
    ObsConfig {
        window_cycles: 1 << 14,
        flight_epochs: 4,
        flight_events: 4096,
        storm_open: 1,
        ..ObsConfig::default()
    }
}

/// Scenario 1: hot contended load under the AIMD scheduler. Few
/// accounts, a dense hot set and saturating arrivals — the regime where
/// abort storms fire and the storm hysteresis has work to do.
fn load_config(args: &Args, requests: u64) -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers: args.workers,
        variant: Variant::Vbv,
        mode: EngineMode::Scheduled,
        mix: MixConfig {
            requests,
            mean_interarrival: 2,
            locality_pct: 100,
            hot_pct: 80,
            hot_keys: 4,
            ..MixConfig::bank()
        },
        seed: args.seed,
        accounts: 16,
        batch_warps: 4,
        queue_capacity: requests as usize / 2,
        obs: obs_cfg(),
        ..ServeConfig::default()
    }
}

/// Scenarios 2 and 3: the compact durable mix from the recovery sweep,
/// with observability on.
fn fault_config(args: &Args, dur: DurabilityConfig) -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers: args.workers,
        mix: MixConfig { requests: 96, ..MixConfig::mixed() },
        seed: args.seed,
        accounts: 64,
        table_words: 256,
        txl_words: 16,
        batch_warps: 1,
        n_locks: 1 << 10,
        durability: Some(dur),
        obs: obs_cfg(),
        ..ServeConfig::default()
    }
}

struct Scenario {
    name: &'static str,
    report: ServeReport,
    rec: Option<RecoveryReport>,
}

fn write_scenario(w: &mut JsonWriter, sc: &Scenario) {
    w.begin_object();
    w.field_str("scenario", sc.name);
    w.key("snapshot");
    sc.report.obs.snapshot.write_json(w);
    w.key("incidents");
    w.begin_array();
    for inc in &sc.report.obs.incidents {
        inc.write_json(w);
    }
    if let Some(rec) = &sc.rec {
        for inc in &rec.incidents {
            inc.write_json(w);
        }
    }
    w.end_array();
    w.key("bundles");
    w.begin_array();
    for b in &sc.report.obs.bundles {
        b.write_json(w);
    }
    if let Some(rec) = &sc.rec {
        for b in &rec.bundles {
            b.write_json(w);
        }
    }
    w.end_array();
    // Pins the whole Prometheus scrape without inlining kilobytes of text.
    let mut prometheus = Fnv::new();
    prometheus.bytes(sc.report.obs.snapshot.to_prometheus().as_bytes());
    w.field_str("prometheus_fnv", &format!("{:016x}", prometheus.finish()));
    w.end_object();
}

fn main() {
    let args = Args::parse();
    let requests = if args.smoke { 192 } else { 768 };

    eprintln!("[obs] load: hot bank mix, scheduled mode, seed {} ...", args.seed);
    let load = Service::run(&load_config(&args, requests))
        .unwrap_or_else(|e| panic!("load scenario failed: {e}"));

    eprintln!("[obs] crash: seeded kill + async recovery window ...");
    let crash_dur = DurabilityConfig {
        segment_batches: 2,
        recovery_rounds: 2,
        crash: Some(CrashPlan::at(0, CrashPoint::PostPrepare, 1)),
        ..DurabilityConfig::default()
    };
    let (crash_report, crash_rec) =
        Service::run_durable(&fault_config(&args, crash_dur), MemStore::shared())
            .unwrap_or_else(|e| panic!("crash scenario failed: {e}"));

    eprintln!("[obs] divergence: seeded replica corruption ...");
    let div_dur = DurabilityConfig {
        segment_batches: 2,
        replicas: 2,
        replica_fault: Some(ReplicaFault { shard: 0, replica: 1, at_commit: 3 }),
        ..DurabilityConfig::default()
    };
    let (div_report, div_rec) =
        Service::run_durable(&fault_config(&args, div_dur), MemStore::shared())
            .unwrap_or_else(|e| panic!("divergence scenario failed: {e}"));

    let scenarios = [
        Scenario { name: "load", report: load, rec: None },
        Scenario { name: "crash", report: crash_report, rec: Some(crash_rec) },
        Scenario { name: "divergence", report: div_report, rec: Some(div_rec) },
    ];

    // The crash scenario must actually exercise the state machine.
    let crash_sc = &scenarios[1];
    let rec = crash_sc.rec.as_ref().expect("crash scenario is durable");
    assert!(
        crash_sc.report.obs.incidents.iter().any(|i| i.close_epoch.is_some()),
        "crash scenario must open and close a recovery incident"
    );
    assert!(!rec.bundles.is_empty(), "crash scenario must cut a flight-recorder bundle");

    // Deterministic artifact: stable field order, virtual metrics only.
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "gpu-stm-obs/1");
    w.field_u64("seed", args.seed);
    w.key("scenarios");
    w.begin_array();
    for sc in &scenarios {
        write_scenario(&mut w, sc);
    }
    w.end_array();
    w.end_object();
    let path = bench_output_path(&args.name);
    let json = w.finish();
    std::fs::write(&path, &json).expect("write obs report");

    // Optional bundle dump: every flight-recorder bundle the scenarios
    // cut, as replayable `<name>.json` + `<name>.trace.json` pairs.
    if let Some(dir) = &args.bundles {
        let dir = if dir.is_absolute() { dir.clone() } else { artifact_output_path(".").join(dir) };
        std::fs::create_dir_all(&dir).expect("create bundle dir");
        let mut written = 0usize;
        for sc in &scenarios {
            for b in sc.report.obs.bundles.iter().chain(sc.rec.iter().flat_map(|r| &r.bundles)) {
                b.write_to(&dir).expect("write bundle");
                written += 1;
            }
        }
        eprintln!("[obs] {written} bundle(s) written to {}", dir.display());
    }

    // Optional scrape dump: the load scenario's final exposition, as a
    // Prometheus endpoint would serve it.
    if args.prom {
        print!("{}", scenarios[0].report.obs.snapshot.to_prometheus());
    }

    let rows: Vec<Vec<String>> = scenarios
        .iter()
        .map(|sc| {
            let snap = &sc.report.obs.snapshot;
            let incidents =
                sc.report.obs.incidents.len() + sc.rec.as_ref().map_or(0, |r| r.incidents.len());
            let bundles =
                sc.report.obs.bundles.len() + sc.rec.as_ref().map_or(0, |r| r.bundles.len());
            let health: Vec<String> =
                snap.shards.iter().map(|s| s.health.label().to_string()).collect();
            vec![
                sc.name.to_string(),
                snap.window.to_string(),
                incidents.to_string(),
                bundles.to_string(),
                health.join(","),
            ]
        })
        .collect();
    print_table(
        "tm-serve observability sweep",
        &["scenario", "windows", "incidents", "bundles", "final health"],
        &rows,
    );
    println!("report written to {} ({} bytes)", path.display(), json.len());
}
