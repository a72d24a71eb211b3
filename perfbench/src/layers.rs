//! The traced run: every workload once more under in-memory host spans
//! (one pass id each), plus the layer probes, recorded tm-check histories
//! and the counting blob store. It prints the per-layer metrics and its own
//! overhead against an untraced pass of the named workload. Spans are
//! written to `perfbench/traces/` when the run ends.

use crate::fig2::{self, Kernel};
use crate::serve::{self, CountingStore, LADDER};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{probes, setup, verify, Inputs, Metric, Outcome, Pass, Workload};
use gpu_stm::{Phase, TxStats};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;
use tm_serve::MemStore;
use tm_verify::{replay, Schedule, STRIPES_SRC};

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// Runs `workload`'s pass under the tracer with a fresh pass id. Returns
/// the pass and the id.
fn traced_pass(tr: &mut Tracer, w: Workload, f: impl FnOnce(&mut Tracer) -> Pass) -> (Pass, u32) {
    let id = tr.begin_pass();
    (tr.span(&format!("pass {}", w.name()), f), id)
}

/// A pass's host seconds at the reference speed.
fn scaled_total(p: &Pass) -> f64 {
    (0..p.unit_secs.len()).map(|u| p.scaled_secs(u)).sum()
}

fn inputs(w: Workload, seed: u64, problems: &mut Vec<String>) -> Option<Inputs> {
    setup(w, seed).map_err(|e| problems.push(format!("{}: set-up: {e}", w.name()))).ok()
}

/// Simulator counters and host speed over the fig2 cells.
fn gpu_sim_metrics(m: &mut Vec<Metric>, s: &gpu_sim::SimStats, launches: u64, host_s: f64) {
    for (name, v) in [
        ("winstr", s.instructions),
        ("loads", s.loads),
        ("stores", s.stores),
        ("atomics", s.atomics),
        ("fences", s.fences),
        ("launches", launches),
    ] {
        m.push(Metric::new(format!("gpu_sim.{name}"), v as f64, "count"));
    }
    m.push(Metric::new("gpu_sim.idle_kcycles", s.idle_cycles as f64 / 1e3, "kcycles"));
    m.push(Metric::new(
        "gpu_sim.mem_txn_per_winstr",
        ratio(s.mem_transactions, s.instructions),
        "ratio",
    ));
    m.push(Metric::new("gpu_sim.l2_hit_rate", s.l2_hit_rate(), "ratio"));
    m.push(Metric::new("gpu_sim.simt_eff", s.simt_efficiency(), "ratio"));
    m.push(Metric::new("gpu_sim.winstr_per_s", s.instructions as f64 / host_s, "1/s"));
    m.push(Metric::new("gpu_sim.host_ns_per_winstr", host_s * 1e9 / s.instructions as f64, "ns"));
}

fn gpu_stm_metrics(m: &mut Vec<Metric>, tx: &TxStats) {
    for (name, v) in [
        ("commits", tx.commits),
        ("aborts", tx.aborts),
        ("read_only_commits", tx.read_only_commits),
        ("lock_retries", tx.lock_retries),
        ("false_conflicts_filtered", tx.false_conflicts_filtered),
        ("escalations", tx.escalations),
        ("aborts.read_validation", tx.aborts_read_validation),
        ("aborts.commit_tbv", tx.aborts_commit_tbv),
        ("aborts.commit_vbv", tx.aborts_commit_vbv),
        ("aborts.pre_vbv", tx.aborts_pre_vbv),
        ("aborts.lock_busy", tx.aborts_lock_busy),
    ] {
        m.push(Metric::new(format!("gpu_stm.{name}"), v as f64, "count"));
    }
    m.push(Metric::new("gpu_stm.commit_ratio", ratio(tx.commits, tx.commits + tx.aborts), "ratio"));
    for (name, phase) in [
        ("native", Phase::Native),
        ("init", Phase::Init),
        ("buffering", Phase::Buffering),
        ("consistency", Phase::Consistency),
        ("locking", Phase::Locking),
        ("commit", Phase::Commit),
        ("aborted", Phase::Aborted),
        ("parked", Phase::Parked),
    ] {
        m.push(Metric::new(
            format!("gpu_stm.kcyc.{name}"),
            tx.breakdown.get(phase) / 1e3,
            "kcycles",
        ));
    }
}

/// Records an hv-sorting history of `kernel` and checks it for opacity.
/// Returns (host seconds in `check_history`, transactions checked).
fn check_history(
    tr: &mut Tracer,
    kernel: Kernel,
    seed: u64,
    problems: &mut Vec<String>,
) -> (f64, u64) {
    let (input, mut cfg) = fig2::input(kernel, seed);
    let rec = gpu_stm::recorder();
    cfg.recorder = Some(rec.clone());
    let cell = fig2::Cell { kernel, variant: workloads::Variant::HvSorting, input, cfg };
    if let Err(e) = tr.span(kernel.entry(), |_| fig2::run_cell(&cell)) {
        problems.push(format!("recorded {} run: {e}", kernel.name()));
        return (0.0, 0);
    }
    let h = rec.borrow();
    let t = Instant::now();
    let report = tr.span("tm_check::check_history", |_| tm_check::check_history(&h, |_| 0));
    let secs = t.elapsed().as_secs_f64();
    if !report.is_ok() {
        problems.push(format!(
            "{} hv-sorting history is not opaque: {}",
            kernel.name(),
            report.violations[0]
        ));
    }
    (secs, (report.writers + report.read_only) as u64)
}

fn fig2_layers(
    tr: &mut Tracer,
    seed: u64,
    m: &mut Vec<Metric>,
    problems: &mut Vec<String>,
    passes: &mut Vec<(Workload, Pass)>,
) {
    let mut sim = gpu_sim::SimStats::new();
    let mut tx = TxStats::new();
    let (mut host_s, mut launches) = (0.0, 0);
    let mut kernel_s = Vec::new();
    for (w, kernels) in
        [(Workload::Fig2Micro, &Kernel::MICRO[..]), (Workload::Fig2Stamp, &Kernel::STAMP[..])]
    {
        let Some(Inputs::Fig2(cells)) = inputs(w, seed, problems) else { continue };
        let mut totals = None;
        let (pass, pass_id) = traced_pass(tr, w, |tr| {
            let (p, t) = fig2::pass(&cells, Some(tr));
            totals = Some(t);
            p
        });
        let t = totals.expect("pass ran");
        for &k in kernels {
            kernel_s.push((k, tr.total(k.entry(), Some(pass_id))));
        }
        sim.merge(&t.sim);
        fig2::add_tx(&mut tx, &t.tx);
        host_s += t.host_s;
        launches += t.launches;
        for (name, v, unit) in &pass.sim_metrics {
            m.push(Metric::new(format!("{}.{name}", w.name()), *v, unit));
        }
        passes.push((w, pass));
    }
    gpu_sim_metrics(m, &sim, launches, host_s);
    gpu_stm_metrics(m, &tx);
    for (k, secs) in kernel_s {
        m.push(Metric::new(format!("workloads.{}.host_s", k.name()), secs, "s"));
    }
    let (micro_s, micro_n) = check_history(tr, Kernel::Ra, seed, problems);
    let (stamp_s, stamp_n) = check_history(tr, Kernel::Km, seed, problems);
    m.push(Metric::new("tm_check.host_ms", (micro_s + stamp_s) * 1e3, "ms"));
    m.push(Metric::new("tm_check.txs_checked", (micro_n + stamp_n) as f64, "count"));
}

fn serve_layers(
    tr: &mut Tracer,
    seed: u64,
    m: &mut Vec<Metric>,
    problems: &mut Vec<String>,
    passes: &mut Vec<(Workload, Pass)>,
) {
    let w = Workload::ServeMixed;
    let Some(Inputs::Serve(cfgs)) = inputs(w, seed, problems) else { return };
    let mut counters: Vec<Arc<CountingStore>> = Vec::new();
    let mut runs = Vec::new();
    let (pass, _) = traced_pass(tr, w, |tr| {
        let (p, r) = serve::pass(
            &cfgs,
            || {
                let (c, h) = serve::counting_store();
                counters.push(c);
                h
            },
            Some(tr),
            true,
        );
        runs = r;
        p
    });
    for (name, v, unit) in &pass.sim_metrics {
        m.push(Metric::new(format!("{}.{name}", w.name()), *v, unit));
    }
    passes.push((w, pass));
    if runs.len() != cfgs.len() {
        return; // the failed run is already reported
    }

    // The counting store must not change what the WAL writes, and
    // durability must not change what the service reports.
    let (plain, plain_runs) = serve::pass(&cfgs, MemStore::shared, None, true);
    problems.extend(plain.problems.iter().map(|e| format!("plain-store pass: {e}")));
    if plain.fingerprint != passes.last().map_or(0, |(_, p)| p.fingerprint) {
        problems.push("serve-mixed: counting-store pass simulated other results".into());
    }
    for (i, (run, p)) in runs.iter().zip(&plain_runs).enumerate() {
        if run.store != p.store {
            problems.push(format!(
                "rate {} seed {}: counting store holds other bytes than MemStore",
                serve::rate_of(i),
                cfgs[i].seed
            ));
        }
    }
    let volatile = serve::volatile(&cfgs);
    let (mut durable_s, mut volatile_s) = (0.0, 0.0);
    for (i, run) in runs.iter().enumerate() {
        let rate = serve::rate_of(i);
        match &volatile[i] {
            Ok((v, secs)) => {
                durable_s += plain_runs.get(i).map_or(run.host_s, |p| p.host_s);
                volatile_s += secs;
                if v.to_json() != run.report.to_json() {
                    problems.push(format!("rate {rate}: durable report differs from volatile"));
                }
            }
            Err(e) => problems.push(format!("rate {rate} volatile: {e}")),
        }
    }

    let sum =
        |f: &dyn Fn(&tm_serve::ServeReport) -> u64| runs.iter().map(|r| f(&r.report)).sum::<u64>();
    let rounds = sum(&|r| r.rounds);
    let commits = sum(&|r| r.shard_reports.iter().map(|s| s.commits).sum());
    let aborts = sum(&|r| r.shard_reports.iter().map(|s| s.aborts).sum());
    let span_s = tr.total("tm_serve::Service::run_durable", None);
    for (name, v, unit) in [
        ("rounds", rounds as f64, "count"),
        ("cross_shard", sum(&|r| r.cross_shard) as f64, "count"),
        ("rollbacks", sum(&|r| r.rollbacks) as f64, "count"),
        ("rejected", sum(&|r| r.rejected) as f64, "count"),
        (
            "queue_peak",
            runs.iter()
                .flat_map(|r| r.report.shard_reports.iter().map(|s| s.queue_peak))
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        (
            "storm_rounds",
            sum(&|r| r.shard_reports.iter().map(|s| s.storm_rounds).sum()) as f64,
            "count",
        ),
        ("abort_rate", ratio(aborts, commits + aborts), "ratio"),
        ("obs_incidents", sum(&|r| r.obs.incidents.len() as u64) as f64, "count"),
        ("host_us_per_round", span_s * 1e6 / rounds.max(1) as f64, "us"),
    ] {
        m.push(Metric::new(format!("tm_serve.{name}"), v, unit));
    }
    for (slot, &(_, name)) in LADDER.iter().enumerate() {
        let Some(name) = name else { continue };
        let at_rate = || (slot..runs.len()).step_by(LADDER.len());
        let completed: u64 = at_rate().map(|i| runs[i].report.completed).sum();
        let offered: u64 = at_rate().map(|i| runs[i].report.offered).sum();
        let slots: u64 = at_rate()
            .map(|i| {
                let r = &runs[i].report;
                r.shard_reports.iter().map(|s| s.launches).sum::<u64>() * r.batch_capacity
            })
            .sum();
        let host_s: f64 = at_rate().map(|i| runs[i].host_s).sum();
        let bytes: u64 = at_rate().map(|i| counters[i].bytes_written()).sum();
        m.push(Metric::new(
            format!("tm_serve.batch_fill.{name}"),
            ratio(completed, slots),
            "ratio",
        ));
        m.push(Metric::new(format!("tm_serve.req_per_s.{name}"), completed as f64 / host_s, "1/s"));
        m.push(Metric::new(
            format!("wal.bytes_per_request.{name}"),
            ratio(bytes, offered),
            "B/req",
        ));
    }
    let c = |f: &dyn Fn(&CountingStore) -> u64| counters.iter().map(|s| f(s)).sum::<u64>();
    m.push(Metric::new("wal.appends", c(&|s| s.appends.load(Relaxed)) as f64, "count"));
    m.push(Metric::new("wal.append_bytes", c(&|s| s.append_bytes.load(Relaxed)) as f64, "B"));
    m.push(Metric::new("wal.snapshot_puts", c(&|s| s.snapshot_puts.load(Relaxed)) as f64, "count"));
    m.push(Metric::new("wal.snapshot_bytes", c(&|s| s.snapshot_bytes.load(Relaxed)) as f64, "B"));
    m.push(Metric::new("wal.store_busy_s", c(&|s| s.busy_ns.load(Relaxed)) as f64 * 1e-9, "s"));
    let final_bytes: u64 = runs.iter().filter_map(|r| r.store).map(|(_, bytes)| bytes).sum();
    m.push(Metric::new("wal.final_store_bytes", final_bytes as f64, "B"));
    m.push(Metric::new("wal.overhead_s", durable_s - volatile_s, "s"));
}

fn verify_layers(
    tr: &mut Tracer,
    seed: u64,
    m: &mut Vec<Metric>,
    problems: &mut Vec<String>,
    passes: &mut Vec<(Workload, Pass)>,
) {
    let w = Workload::VerifyLitmus;
    let Some(Inputs::Verify(cfgs)) = inputs(w, seed, problems) else { return };
    let mut all = Vec::new();
    let (pass, _) = traced_pass(tr, w, |tr| {
        let (p, s) = verify::pass(&cfgs, Some(tr));
        all = s;
        p
    });
    passes.push((w, pass));
    let sum = |f: &dyn Fn(&tm_verify::ExploreStats) -> u64| all.iter().map(f).sum::<u64>();
    let schedules = sum(&|s| s.schedules_run);
    for (name, v) in [
        ("schedules_run", schedules),
        ("traces_deduped", sum(&|s| s.traces_deduped)),
        ("states_deduped", sum(&|s| s.states_deduped)),
        ("backtracks_queued", sum(&|s| s.backtracks_queued)),
        ("sleep_pruned", sum(&|s| s.sleep_pruned)),
        ("schedules_deduped", sum(&|s| s.schedules_deduped)),
        ("footprint_invisible_events", sum(&|s| s.footprint_invisible_events)),
        ("max_trace_len", all.iter().map(|s| s.max_trace_len as u64).max().unwrap_or(0)),
    ] {
        m.push(Metric::new(format!("tm_verify.{name}"), v as f64, "count"));
    }
    let explore_s = tr.total("tm_verify::verify", None);
    m.push(Metric::new("tm_verify.schedules_per_s", schedules as f64 / explore_s, "1/s"));

    // Default-schedule replays of the first instance (bank, hv-sorting).
    let litmus = cfgs[0].litmus;
    let mut us = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let outcome = tr.span("tm_verify::replay", |_| replay(&litmus, &Schedule::default()));
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if !outcome.violations.is_empty() {
            problems.push(format!("replay: {}", outcome.violations[0].message));
            break;
        }
    }
    m.push(Metric::new("tm_verify.replay_us", median(&us), "us"));

    let stripes_threads = cfgs
        .iter()
        .find(|c| c.litmus.workload == tm_verify::Workload::Stripes)
        .map_or(1, |c| c.litmus.actors());
    let mut compile_us = Vec::new();
    let mut footprint_us = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        let program = txl::compile(STRIPES_SRC);
        compile_us.push(t.elapsed().as_secs_f64() * 1e6);
        let Some(kernel) = program.as_ref().ok().and_then(|p| p.kernel("stripes")) else {
            problems.push("stripes source no longer compiles".into());
            return;
        };
        let threads = stripes_threads;
        let t = Instant::now();
        for tid in 0..threads {
            std::hint::black_box(txl::thread_footprint(kernel, tid, threads));
        }
        footprint_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    m.push(Metric::new("txl.compile_us", median(&compile_us), "us"));
    m.push(Metric::new("txl.footprint_us", median(&footprint_us), "us"));
}

/// The traced run. The named workload is also run once untraced, so the
/// trace reports its own overhead.
pub fn traced_run(named: Workload, seed: u64) -> Outcome {
    let mut problems = Vec::new();
    let mut m = Vec::new();
    let mut tr = Tracer::new();
    let mut passes = Vec::new();
    fig2_layers(&mut tr, seed, &mut m, &mut problems, &mut passes);
    serve_layers(&mut tr, seed, &mut m, &mut problems, &mut passes);
    verify_layers(&mut tr, seed, &mut m, &mut problems, &mut passes);
    m.extend(probes::gpu_sim());
    let (stm, stm_problems) = probes::gpu_stm(seed);
    m.extend(stm);
    problems.extend(stm_problems);

    // The untraced twin runs after the traced passes, so neither side
    // pays the process's cold start.
    let untraced = inputs(named, seed, &mut problems).map(|i| crate::pass(&i));

    let mut notes = Vec::new();
    let mut attempted = 0;
    for (w, p) in &passes {
        notes.push(format!("fingerprint {} seed={seed} {:016x}", w.name(), p.fingerprint));
        attempted += p.attempted;
        problems.extend(p.problems.iter().map(|e| format!("{}: {e}", w.name())));
    }
    if let Some(base) = untraced {
        problems.extend(base.problems.iter().cloned());
        match passes.iter().find(|(w, _)| *w == named) {
            Some((_, p)) => {
                if p.fingerprint != base.fingerprint {
                    problems.push(format!("{}: traced pass simulated other results", named.name()));
                }
                let overhead = scaled_total(p) / scaled_total(&base) - 1.0;
                m.push(Metric::new("trace.overhead_frac", overhead, "ratio"));
            }
            None => problems.push(format!("{}: no traced pass", named.name())),
        }
    }

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let file = dir.join(format!("{}-seed{seed}.jsonl", named.name()));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, tr.to_jsonl()))
    {
        problems.push(format!("cannot write spans to {}: {e}", file.display()));
    } else {
        notes.push(format!("spans {} written to {}", tr.spans.len(), file.display()));
    }
    Outcome { metrics: m, attempted, problems, notes }
}
