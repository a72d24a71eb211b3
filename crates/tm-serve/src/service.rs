//! The multi-threaded transaction service: admission, routing, batch
//! sealing, the 2PC coordinator and the deterministic round loop.
//!
//! ## Determinism argument
//!
//! The coordinator advances a *virtual epoch clock* measured in
//! simulated cycles. Each round it (1) admits every request that has
//! arrived by the current epoch, (2) seals at most one warp-aligned
//! batch per shard (phase-2 entries first, then the admission queue in
//! FIFO order), (3) dispatches the batches to worker threads and
//! barriers on all of them, then (4) advances the epoch by the *maximum*
//! batch cycle count of the round — the shards ran concurrently in
//! virtual time — and processes outcomes in shard-index order. Every
//! step depends only on the request stream (seeded), routing (seeded
//! hash) and per-shard simulated cycle counts (deterministic per
//! engine), never on wall-clock time or thread interleaving: worker
//! threads are a pure execution resource. Hence a fixed seed yields a
//! byte-identical committed history and report for any worker count.

use crate::crash::{CrashPlan, ReplicaFault, ResolvedCrash};
use crate::engine::{
    BatchReport, DurableOutcome, EngineConfig, Entry, ShardEngine, ShardOp, ShardSummary, WalParams,
};
use crate::error::ServeError;
use crate::obs::{ObsConfig, ObsState};
use crate::recovery::{self, RecoveryStats};
use crate::replica::ReplicaGroup;
use crate::report::{ClassTotals, RecoveryReport, ServeReport, ShardReport};
use crate::request::{self, MixConfig, Op, Request};
use crate::stm::EngineMode;
use crate::wal::{append_decision, store_fingerprint, BatchSeal, MemStore, StoreHandle, WalRecord};
use gpu_stm::Variant;
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc;

/// One batch's committed stream plus its seal, shipped to the
/// coordinator for replica ingestion.
type Feed = (Vec<WalRecord>, BatchSeal);

/// Replica re-base payload: `(span_base, span_words, log_fnv, applied)`.
type Resync = (u32, Vec<u32>, u64, u64);

/// Full service configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of shards (engine instances).
    pub shards: usize,
    /// Worker threads carrying the shards (`0` = one per shard).
    pub workers: usize,
    /// STM variant every shard runs.
    pub variant: Variant,
    /// Wrapper mode (default: AIMD-scheduled).
    pub mode: EngineMode,
    /// Request mix and arrival process.
    pub mix: MixConfig,
    /// Service seed: routing, request generation, initial state.
    pub seed: u64,
    /// Bank account keyspace.
    pub accounts: u32,
    /// Hashtable slots per shard.
    pub table_words: u32,
    /// TXL counters per shard.
    pub txl_words: u32,
    /// Warps per sealed batch.
    pub batch_warps: u32,
    /// Bound on each shard's admission queue.
    pub queue_capacity: usize,
    /// Blocking admission: a request that would be rejected with
    /// [`ServeError::Overloaded`] parks in a coordinator-side FIFO
    /// instead and is re-offered each round until queue capacity
    /// frees — the serving-layer analogue of `gpu_stm::park`'s
    /// `retry()` (clients wait on the capacity condition rather than
    /// polling with retry-after hints). Parked depth is exported as a
    /// per-shard gauge and sustained depth opens a
    /// [`crate::obs::IncidentCause::ParkStorm`] incident.
    pub blocking: bool,
    /// Initial balance per owned account.
    pub initial_balance: u32,
    /// Credit ceiling for cross-shard prepare-credit votes.
    pub credit_cap: u32,
    /// Global version locks per shard STM.
    pub n_locks: u32,
    /// Safety cap on coordinator rounds.
    pub max_rounds: u64,
    /// Durability: write-ahead logging, snapshots, crash injection and
    /// replica groups. `None` serves from volatile state only.
    pub durability: Option<DurabilityConfig>,
    /// Live-observability knobs (windowed metrics, health incidents,
    /// flight recorder). The defaults are always-on and cheap.
    pub obs: ObsConfig,
}

/// Durability knobs for the service.
#[derive(Copy, Clone, Debug)]
pub struct DurabilityConfig {
    /// Batches per WAL segment; every `segment_batches`-th batch also
    /// snapshots the shard and rolls to a fresh segment.
    pub segment_batches: u64,
    /// Delete pre-snapshot segments at each roll.
    pub compact: bool,
    /// Host-side replicas per shard applying the committed stream
    /// (0 = replication off).
    pub replicas: usize,
    /// Coordinator rounds a crashed shard stays down before recovery
    /// runs. `0` recovers synchronously inside the crash round, which
    /// keeps the final report byte-identical to an uncrashed run; `> 0`
    /// opens a window in which admissions to the shard are rejected
    /// with [`ServeError::ShardUnavailable`].
    pub recovery_rounds: u64,
    /// Seeded kill-a-worker injection.
    pub crash: Option<CrashPlan>,
    /// Seeded silent-corruption injection into one replica.
    pub replica_fault: Option<ReplicaFault>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            segment_batches: 8,
            compact: true,
            replicas: 0,
            recovery_rounds: 0,
            crash: None,
            replica_fault: None,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            workers: 0,
            variant: Variant::HvSorting,
            mode: EngineMode::Scheduled,
            mix: MixConfig::mixed(),
            seed: 42,
            accounts: 256,
            table_words: 1 << 10,
            txl_words: 64,
            batch_warps: 2,
            queue_capacity: 64,
            blocking: false,
            initial_balance: 1000,
            credit_cap: u32::MAX,
            n_locks: 1 << 12,
            max_rounds: 1 << 20,
            durability: None,
            obs: ObsConfig::default(),
        }
    }
}

impl ServeConfig {
    /// Engine config for `shard`. `crash` arms the injected kill for
    /// the initial worker fleet; recovery rebuilds with `None` so the
    /// same crash cannot re-fire on replay.
    fn engine_config(&self, shard: usize, crash: Option<ResolvedCrash>) -> EngineConfig {
        EngineConfig {
            shard,
            shards: self.shards,
            seed: self.seed,
            variant: self.variant,
            mode: self.mode,
            accounts: self.accounts,
            table_words: self.table_words,
            txl_words: self.txl_words,
            batch_warps: self.batch_warps,
            initial_balance: self.initial_balance,
            credit_cap: self.credit_cap,
            n_locks: self.n_locks,
            trace_events: self.obs.flight_events,
            wal: self.durability.as_ref().map(|d| WalParams {
                segment_batches: d.segment_batches,
                compact: d.compact,
                crash,
            }),
        }
    }

    /// Checks the configuration without running it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] naming the offending knob.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::BadConfig("shards must be ≥ 1".into()));
        }
        if self.batch_warps == 0 {
            return Err(ServeError::BadConfig("batch_warps must be ≥ 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::BadConfig("queue_capacity must be ≥ 1".into()));
        }
        if self.accounts < 2 {
            return Err(ServeError::BadConfig("need at least 2 accounts".into()));
        }
        if let Some(d) = &self.durability {
            if d.segment_batches == 0 {
                return Err(ServeError::BadConfig("segment_batches must be ≥ 1".into()));
            }
            if d.replicas > self.shards {
                return Err(ServeError::BadConfig(format!(
                    "{} replicas per shard exceed the {}-shard budget",
                    d.replicas, self.shards
                )));
            }
            if let Some(plan) = &d.crash {
                if let Some(shard) = plan.shard {
                    if shard >= self.shards {
                        return Err(ServeError::BadConfig(format!(
                            "crash plan pins shard {shard}, but only {} shards exist",
                            self.shards
                        )));
                    }
                }
                if plan.after_batches == Some(u64::MAX) {
                    return Err(ServeError::BadConfig(
                        "crash plan after_batches overflows the batch sequence".into(),
                    ));
                }
            }
            if let Some(f) = &d.replica_fault {
                if f.shard >= self.shards {
                    return Err(ServeError::BadConfig(format!(
                        "replica fault targets shard {}, but only {} shards exist",
                        f.shard, self.shards
                    )));
                }
                if f.replica >= d.replicas {
                    return Err(ServeError::BadConfig(format!(
                        "replica fault targets replica {}, but groups have {}",
                        f.replica, d.replicas
                    )));
                }
                if f.at_commit == 0 {
                    return Err(ServeError::BadConfig(
                        "replica fault at_commit is 1-based; 0 never fires".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Validating constructor: returns the config only if
    /// [`validate`](Self::validate) passes.
    ///
    /// # Errors
    ///
    /// Propagates the validation failure.
    pub fn try_new(cfg: ServeConfig) -> Result<ServeConfig, ServeError> {
        cfg.validate()?;
        Ok(cfg)
    }

    /// Applies a `txl analyze` static profile to this config: the
    /// per-shard STM variant becomes the profile's top-ranked variant
    /// and the lock-table size its stripe recommendation — the acting
    /// half of the obs layer's sense/act split, applied before any
    /// traffic arrives.
    pub fn seed_from_profile(mut self, profile: &txl::StaticProfile) -> Self {
        if let Some(v) = Variant::parse(profile.recommended().short_name()) {
            self.variant = v;
        }
        self.n_locks = profile.stripes;
        self
    }

    /// Statically analyzes `src` at this config's modeled concurrency
    /// (`batch_warps` warps of 32 lanes) and seeds variant/stripes from
    /// the result via [`seed_from_profile`](Self::seed_from_profile).
    /// Pass [`crate::TXL_BUMP`] to seed from the program the engine
    /// actually serves for `TxlBump` requests.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadConfig`] if `src` does not compile.
    pub fn seed_from_txl(self, src: &str) -> Result<Self, ServeError> {
        let cfg = txl::CostConfig { threads: self.batch_warps * 32, ..txl::CostConfig::default() };
        let profile = txl::analyze_source(src, &cfg)
            .map_err(|e| ServeError::BadConfig(format!("seed_from_txl: {e}")))?;
        Ok(self.seed_from_profile(&profile))
    }
}

/// Suggested retry delay (simulated cycles) for a client rejected by a
/// full queue: proportional to the backlog it must wait out, scaled up
/// 4× while the shard's AIMD scheduler reports an abort storm (commit
/// cost per entry is inflated and retrying early would feed the storm).
pub fn retry_after_hint(queue_len: usize, cost_per_entry: u64, storm: bool) -> u64 {
    let base = (queue_len as u64 + 1) * cost_per_entry.max(1);
    if storm {
        base * 4
    } else {
        base
    }
}

/// Request class, for per-class accounting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Class {
    BankLocal,
    BankCross,
    Ht,
    Txl,
}

/// One queued (admitted) shard transaction.
#[derive(Copy, Clone, Debug)]
struct QEntry {
    req: u64,
    arrival: u64,
    op: ShardOp,
    class: Class,
}

/// Coordinator-side 2PC record for one cross-shard transfer.
#[derive(Copy, Clone, Debug)]
struct Pending2pc {
    to: u32,
    from: u32,
    amount: u32,
    arrival: u64,
    debit_shard: usize,
    credit_shard: usize,
    debit_vote: Option<bool>,
    credit_vote: Option<bool>,
    /// Phase 2 already enqueued; awaiting its completion.
    resolved: bool,
}

/// Bounded per-shard admission queues plus the phase-2 priority lanes.
struct Admission {
    queues: Vec<VecDeque<QEntry>>,
    phase2: Vec<VecDeque<QEntry>>,
    capacity: usize,
    shards: usize,
    seed: u64,
}

impl Admission {
    fn new(shards: usize, capacity: usize, seed: u64) -> Self {
        Admission {
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            phase2: (0..shards).map(|_| VecDeque::new()).collect(),
            capacity,
            shards,
            seed,
        }
    }

    fn overloaded(&self, shard: usize, cost: u64, storm: bool) -> ServeError {
        ServeError::Overloaded {
            shard,
            queue_len: self.queues[shard].len(),
            capacity: self.capacity,
            retry_after: retry_after_hint(self.queues[shard].len(), cost, storm),
        }
    }

    /// Retry pricing for a shard whose worker is mid-recovery: same
    /// backlog-proportional hint as [`Self::overloaded`], because the
    /// client's best move is identical — wait out the queue.
    fn unavailable(&self, shard: usize, cost: u64, storm: bool) -> ServeError {
        ServeError::ShardUnavailable {
            shard,
            retry_after: retry_after_hint(self.queues[shard].len(), cost, storm),
        }
    }

    /// Admits `req`, or reports the structured overload. `cost`/`storm`
    /// feed the retry-after hint of the rejecting shard; `down` marks
    /// shards in their crash-recovery window.
    fn try_admit(
        &mut self,
        req: &Request,
        cost: &[u64],
        storm: &[bool],
        down: &[bool],
    ) -> Result<Class, ServeError> {
        let (primary, secondary) = req.op.shards(self.shards, self.seed);
        if let Some(&s) = [Some(primary), secondary].iter().flatten().find(|&&s| down[s]) {
            return Err(self.unavailable(s, cost[s], storm[s]));
        }
        match (req.op, secondary) {
            (Op::Transfer { from, to, amount }, Some(credit_shard)) => {
                let debit_shard = primary;
                // Cross-shard admission is atomic: both prepare lanes
                // must have room or the request is rejected whole.
                if self.queues[debit_shard].len() >= self.capacity {
                    return Err(self.overloaded(
                        debit_shard,
                        cost[debit_shard],
                        storm[debit_shard],
                    ));
                }
                if self.queues[credit_shard].len() >= self.capacity {
                    return Err(self.overloaded(
                        credit_shard,
                        cost[credit_shard],
                        storm[credit_shard],
                    ));
                }
                self.queues[debit_shard].push_back(QEntry {
                    req: req.id,
                    arrival: req.arrival,
                    op: ShardOp::PrepareDebit { from, amount },
                    class: Class::BankCross,
                });
                self.queues[credit_shard].push_back(QEntry {
                    req: req.id,
                    arrival: req.arrival,
                    op: ShardOp::PrepareCredit { to, amount },
                    class: Class::BankCross,
                });
                Ok(Class::BankCross)
            }
            (op, _) => {
                let shard = primary;
                if self.queues[shard].len() >= self.capacity {
                    return Err(self.overloaded(shard, cost[shard], storm[shard]));
                }
                let (op, class) = match op {
                    Op::Transfer { from, to, amount } => {
                        (ShardOp::Transfer { from, to, amount }, Class::BankLocal)
                    }
                    Op::HtPut { key, val } => (ShardOp::HtPut { key, val }, Class::Ht),
                    Op::HtGet { key } => (ShardOp::HtGet { key }, Class::Ht),
                    Op::TxlBump { key } => (ShardOp::TxlBump { key }, Class::Txl),
                };
                self.queues[shard].push_back(QEntry {
                    req: req.id,
                    arrival: req.arrival,
                    op,
                    class,
                });
                Ok(class)
            }
        }
    }

    /// Seals at most one batch for `shard`: phase-2 entries first (they
    /// hold resources on other shards), then FIFO admissions.
    fn seal(&mut self, shard: usize, capacity: usize) -> Vec<QEntry> {
        let mut out = Vec::new();
        while out.len() < capacity {
            if let Some(e) = self.phase2[shard].pop_front() {
                out.push(e);
            } else {
                break;
            }
        }
        while out.len() < capacity {
            if let Some(e) = self.queues[shard].pop_front() {
                out.push(e);
            } else {
                break;
            }
        }
        out
    }

    fn idle(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty()) && self.phase2.iter().all(|q| q.is_empty())
    }
}

enum ToWorker {
    Run {
        shard: usize,
        entries: Vec<Entry>,
    },
    /// Rebuild a crashed shard from its WAL (config arrives with crash
    /// injection disarmed).
    Recover {
        shard: usize,
        cfg: Box<EngineConfig>,
    },
    Finish {
        shard: usize,
    },
}

enum FromWorker {
    /// Engine constructed; `boot` carries the replica-bootstrap payload
    /// when replication is on.
    Ready {
        shard: usize,
        boot: Option<Box<Resync>>,
    },
    Fatal {
        shard: usize,
        message: String,
    },
    /// Injected crash fired: the engine is gone; only its WAL survives.
    Crashed {
        shard: usize,
    },
    Batch {
        shard: usize,
        report: BatchReport,
        feed: Option<Box<Feed>>,
    },
    Recovered {
        shard: usize,
        stats: Box<RecoveryStats>,
        /// Highest durable batch sequence (0 = none) and its report.
        last_seq: u64,
        report: Option<BatchReport>,
        resync: Option<Box<Resync>>,
    },
    Summary {
        shard: usize,
        summary: Box<ShardSummary>,
    },
}

fn worker_main(
    cfgs: Vec<EngineConfig>,
    store: Option<StoreHandle>,
    feed_replicas: bool,
    rx: mpsc::Receiver<ToWorker>,
    tx: mpsc::Sender<FromWorker>,
) {
    let mut engines: BTreeMap<usize, ShardEngine> = BTreeMap::new();
    for cfg in cfgs {
        let shard = cfg.shard;
        match ShardEngine::with_store(cfg, store.clone()) {
            Ok(e) => {
                let boot = feed_replicas.then(|| Box::new(e.replica_resync()));
                engines.insert(shard, e);
                let _ = tx.send(FromWorker::Ready { shard, boot });
            }
            Err(e) => {
                let _ = tx.send(FromWorker::Fatal { shard, message: e.to_string() });
            }
        }
    }
    for msg in rx {
        match msg {
            ToWorker::Run { shard, entries } => {
                let Some(engine) = engines.get_mut(&shard) else {
                    let _ = tx.send(FromWorker::Fatal { shard, message: "no engine".into() });
                    continue;
                };
                match engine.run_batch_durable(&entries) {
                    Ok(DurableOutcome::Done(report)) => {
                        let feed =
                            feed_replicas.then(|| engine.replica_feed().map(Box::new)).flatten();
                        let _ = tx.send(FromWorker::Batch { shard, report, feed });
                    }
                    Ok(DurableOutcome::Crashed(_point)) => {
                        // Simulated worker death: the engine (and all
                        // volatile state) is discarded; the blob store
                        // is the only survivor.
                        engines.remove(&shard);
                        let _ = tx.send(FromWorker::Crashed { shard });
                    }
                    Err(e) => {
                        let _ = tx.send(FromWorker::Fatal { shard, message: e.to_string() });
                    }
                }
            }
            ToWorker::Recover { shard, cfg } => {
                let Some(store) = store.clone() else {
                    let _ = tx
                        .send(FromWorker::Fatal { shard, message: "recover without store".into() });
                    continue;
                };
                match recovery::recover(*cfg, store) {
                    Ok(rec) => {
                        let (last_seq, report) = match rec.last {
                            Some((seq, rep)) => (seq, Some(rep)),
                            None => (0, None),
                        };
                        let resync = feed_replicas.then(|| Box::new(rec.engine.replica_resync()));
                        engines.insert(shard, rec.engine);
                        let _ = tx.send(FromWorker::Recovered {
                            shard,
                            stats: Box::new(rec.stats),
                            last_seq,
                            report,
                            resync,
                        });
                    }
                    Err(e) => {
                        let _ = tx.send(FromWorker::Fatal { shard, message: e.to_string() });
                    }
                }
            }
            ToWorker::Finish { shard } => {
                if let Some(engine) = engines.remove(&shard) {
                    let summary = Box::new(engine.finish());
                    let _ = tx.send(FromWorker::Summary { shard, summary });
                }
            }
        }
    }
}

struct Pool {
    senders: Vec<mpsc::Sender<ToWorker>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    results: mpsc::Receiver<FromWorker>,
}

impl Pool {
    fn spawn(
        cfg: &ServeConfig,
        workers: usize,
        store: Option<StoreHandle>,
        crash: Option<ResolvedCrash>,
        feed_replicas: bool,
    ) -> Pool {
        let (res_tx, results) = mpsc::channel();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let cfgs: Vec<EngineConfig> = (0..cfg.shards)
                .filter(|s| s % workers == w)
                .map(|s| cfg.engine_config(s, crash))
                .collect();
            let (tx, rx) = mpsc::channel();
            let res = res_tx.clone();
            let st = store.clone();
            handles.push(std::thread::spawn(move || worker_main(cfgs, st, feed_replicas, rx, res)));
            senders.push(tx);
        }
        Pool { senders, handles, results }
    }

    fn send(&self, worker: usize, msg: ToWorker) -> Result<(), ServeError> {
        self.senders[worker]
            .send(msg)
            .map_err(|_| ServeError::Engine { shard: worker, message: "worker thread died".into() })
    }

    fn shutdown(self) {
        drop(self.senders);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Recovery protocol for one crashed shard, run after the round
/// barrier has drained every other in-flight message: rebuild the
/// engine from its WAL (crash disarmed), re-base the replica group on
/// the recovered state, then resolve the batch the dead worker never
/// acknowledged — answered from the log if it was sealed durably,
/// re-dispatched to the recovered engine otherwise.
#[allow(clippy::too_many_arguments)]
fn recover_shard(
    pool: &Pool,
    workers: usize,
    cfg: &ServeConfig,
    s: usize,
    expect_seq: u64,
    entries: &[QEntry],
    groups: &mut [Option<ReplicaGroup>],
    rec_report: &mut RecoveryReport,
) -> Result<BatchReport, ServeError> {
    let proto = |m: String| ServeError::Engine { shard: s, message: m };
    pool.send(
        s % workers,
        ToWorker::Recover { shard: s, cfg: Box::new(cfg.engine_config(s, None)) },
    )?;
    let (last_seq, report, resync) = match pool.results.recv() {
        Ok(FromWorker::Recovered { shard, stats, last_seq, report, resync }) if shard == s => {
            rec_report.recoveries.push(*stats);
            (last_seq, report, resync)
        }
        Ok(FromWorker::Fatal { shard, message }) => {
            return Err(ServeError::Engine { shard, message });
        }
        Ok(_) => return Err(proto("unexpected message during shard recovery".into())),
        Err(_) => return Err(proto("worker pool died during shard recovery".into())),
    };
    if let (Some(g), Some(r)) = (groups[s].as_mut(), resync) {
        let (_base, words, log_fnv, applied) = *r;
        g.resync(&words, log_fnv, applied);
    }
    if last_seq == expect_seq {
        // The crashed batch was already durable; the log answers for
        // the dead worker. Replicas were re-based past it above.
        rec_report.replayed_acks += 1;
        return report.ok_or_else(|| proto("durable batch has no replayable report".into()));
    }
    if last_seq + 1 != expect_seq {
        return Err(proto(format!(
            "recovered log at batch {last_seq} cannot resume coordinator batch {expect_seq}"
        )));
    }
    // The batch never became durable (torn or pre-execution crash):
    // re-dispatch the same sealed entries to the recovered engine.
    let run: Vec<Entry> = entries.iter().map(|q| Entry { req: q.req, op: q.op }).collect();
    pool.send(s % workers, ToWorker::Run { shard: s, entries: run })?;
    match pool.results.recv() {
        Ok(FromWorker::Batch { shard, report, feed }) if shard == s => {
            if let (Some(g), Some(f)) = (groups[s].as_mut(), feed) {
                g.ingest(&f.0);
                rec_report.diverged.extend(g.check_epoch(&f.1));
            }
            Ok(report)
        }
        Ok(FromWorker::Fatal { shard, message }) => Err(ServeError::Engine { shard, message }),
        Ok(_) => Err(proto("unexpected message during recovery re-dispatch".into())),
        Err(_) => Err(proto("worker pool died during recovery re-dispatch".into())),
    }
}

/// The transaction service entry point.
pub struct Service;

impl Service {
    /// Runs the full service lifecycle for `cfg`: generate the request
    /// stream, serve it to completion (drain), verify every shard's
    /// history with `tm-check`, and aggregate the report. With
    /// durability configured, the run logs to a private in-memory store
    /// (use [`run_durable`](Self::run_durable) to supply your own and
    /// get the recovery report back).
    pub fn run(cfg: &ServeConfig) -> Result<ServeReport, ServeError> {
        if cfg.durability.is_some() {
            return Self::run_durable(cfg, MemStore::shared()).map(|(r, _)| r);
        }
        Self::run_inner(cfg, None).map(|(r, _)| r)
    }

    /// Like [`run`](Self::run), but logs to `store` (which must be
    /// empty — restarting a whole service from an existing store goes
    /// through recovery, not `run`) and returns the durability report
    /// alongside the serve report. Requires `cfg.durability`.
    pub fn run_durable(
        cfg: &ServeConfig,
        store: StoreHandle,
    ) -> Result<(ServeReport, RecoveryReport), ServeError> {
        if cfg.durability.is_none() {
            return Err(ServeError::BadConfig("run_durable needs cfg.durability".into()));
        }
        if !store.list("").is_empty() {
            return Err(ServeError::BadConfig("run_durable needs an empty blob store".into()));
        }
        Self::run_inner(cfg, Some(store))
    }

    /// Cold restart after total coordinator loss: rebuilds every shard
    /// engine from `store` (latest snapshot plus WAL tail), resolves
    /// in-doubt cross-shard holds against the coordinator decision log
    /// (commit if a decision was logged, compensate otherwise —
    /// presumed abort), and returns each shard's recovery stats with
    /// its final verified summary. Requires `cfg.durability`; the
    /// config must match the one that produced the store.
    pub fn cold_recover(
        cfg: &ServeConfig,
        store: StoreHandle,
    ) -> Result<Vec<(RecoveryStats, ShardSummary)>, ServeError> {
        cfg.validate()?;
        if cfg.durability.is_none() {
            return Err(ServeError::BadConfig("cold_recover needs cfg.durability".into()));
        }
        let mut out = Vec::with_capacity(cfg.shards);
        for s in 0..cfg.shards {
            let mut rec = recovery::recover(cfg.engine_config(s, None), store.clone())?;
            let (committed, compensated) = recovery::resolve_in_doubt(&mut rec.engine, &store)?;
            rec.stats.in_doubt_committed = committed;
            rec.stats.in_doubt_compensated = compensated;
            out.push((rec.stats, rec.engine.finish()));
        }
        Ok(out)
    }

    fn run_inner(
        cfg: &ServeConfig,
        store_opt: Option<StoreHandle>,
    ) -> Result<(ServeReport, RecoveryReport), ServeError> {
        cfg.validate()?;
        let dur_cfg = cfg.durability.unwrap_or_default();
        let replicas_n = if cfg.durability.is_some() { dur_cfg.replicas } else { 0 };
        let feed_replicas = replicas_n > 0;
        let crash =
            cfg.durability.as_ref().and_then(|d| d.crash.as_ref()).map(|p| p.resolve(cfg.shards));
        let workers = if cfg.workers == 0 { cfg.shards } else { cfg.workers.min(cfg.shards) };
        let requests =
            request::generate(&cfg.mix, cfg.accounts, cfg.txl_words, cfg.shards, cfg.seed);

        let wall_start = std::time::Instant::now();
        let pool = Pool::spawn(cfg, workers, store_opt.clone(), crash, feed_replicas);

        // Wait for every shard engine to come up; collect replica
        // bootstrap payloads when replication is on.
        let mut groups: Vec<Option<ReplicaGroup>> = (0..cfg.shards).map(|_| None).collect();
        let mut ready = 0usize;
        while ready < cfg.shards {
            match pool.results.recv() {
                Ok(FromWorker::Ready { shard, boot }) => {
                    if let Some(b) = boot {
                        let (base, words, _, _) = *b;
                        groups[shard] = Some(ReplicaGroup::new(
                            shard,
                            base,
                            &words,
                            replicas_n,
                            dur_cfg.replica_fault,
                        ));
                    }
                    ready += 1;
                }
                Ok(FromWorker::Fatal { shard, message }) => {
                    pool.shutdown();
                    return Err(ServeError::Engine { shard, message });
                }
                Ok(_) => {}
                Err(_) => {
                    pool.shutdown();
                    return Err(ServeError::Engine {
                        shard: 0,
                        message: "worker pool died during startup".into(),
                    });
                }
            }
        }

        let shards = cfg.shards;
        let batch_cap = cfg.batch_warps as usize * gpu_sim::WARP_SIZE;
        // Live observability: windowed metrics, health incidents and the
        // per-shard flight recorder, all driven by the epoch clock below.
        let mut obs = ObsState::new(
            cfg.obs.clone(),
            shards,
            cfg.variant.short_name(),
            cfg.mode.short_name(),
            cfg.seed,
        );
        let mut adm = Admission::new(shards, cfg.queue_capacity, cfg.seed);
        let mut inflight: BTreeMap<u64, Pending2pc> = BTreeMap::new();
        let mut epoch = 0u64;
        let mut rounds = 0u64;
        let mut next_arr = 0usize;
        // Per-shard adaptive cost model feeding retry-after hints.
        let mut cost = vec![500u64; shards];
        let mut storm = vec![false; shards];
        let mut storm_rounds = vec![0u64; shards];
        let mut queue_peak = vec![0usize; shards];
        let mut rejected = vec![0u64; shards];
        // Blocking admission: requests waiting, in arrival order, for
        // queue capacity, each tagged with the shard that last refused
        // it (for depth attribution).
        let mut parked: VecDeque<(Request, usize)> = VecDeque::new();
        let mut parks = vec![0u64; shards];
        let mut parked_depth_peak = vec![0u64; shards];
        let mut parked_total = 0u64;
        let mut parked_peak = 0u64;
        let mut hint_peak = vec![0u64; shards];
        let mut commits_batched = vec![0u64; shards];
        let mut aborts_batched = vec![0u64; shards];
        let mut first_rejection: Option<ServeError> = None;
        let mut admitted = 0u64;
        let mut completed: Vec<(Class, bool, u64)> = Vec::new();
        let mut rollbacks = 0u64;
        let mut cross_admitted = 0u64;
        let mut ht_value_sum = 0u64;

        // Durability bookkeeping.
        let mut rec_report = RecoveryReport::default();
        // Shards inside their crash-recovery window reject admissions.
        let mut down = vec![false; shards];
        // `(rounds left in the window, the batch the dead worker held)`.
        let mut recovering: Vec<Option<(u64, Vec<QEntry>)>> = (0..shards).map(|_| None).collect();
        // A recovered batch whose report folds into the current round.
        let mut prefilled: Vec<Option<(Vec<QEntry>, BatchReport)>> =
            (0..shards).map(|_| None).collect();
        // Next engine batch sequence each shard expects (engines start
        // at 1); lets recovery tell a durable batch from a torn one.
        let mut dispatch_seq = vec![1u64; shards];

        let fail =
            |pool: Pool, e: ServeError| -> Result<(ServeReport, RecoveryReport), ServeError> {
                pool.shutdown();
                Err(e)
            };

        loop {
            rounds += 1;
            if rounds > cfg.max_rounds {
                return fail(pool, ServeError::Stalled { rounds });
            }

            // 0. Progress crash-recovery windows: a shard whose window
            //    has elapsed is rebuilt from its WAL now, and the batch
            //    its dead worker held folds into this round.
            for s in 0..shards {
                let due = match &mut recovering[s] {
                    Some((left, _)) if *left > 0 => {
                        *left -= 1;
                        false
                    }
                    Some(_) => true,
                    None => false,
                };
                if due {
                    let (_, entries) = recovering[s].take().expect("due shard is recovering");
                    let div_before = rec_report.diverged.len();
                    match recover_shard(
                        &pool,
                        workers,
                        cfg,
                        s,
                        dispatch_seq[s],
                        &entries,
                        &mut groups,
                        &mut rec_report,
                    ) {
                        Ok(report) => prefilled[s] = Some((entries, report)),
                        Err(e) => return fail(pool, e),
                    }
                    for d in rec_report.diverged[div_before..].iter().copied() {
                        obs.on_diverged(s, rounds, epoch, d.replica as u64);
                    }
                    obs.on_recovered(s, rounds, epoch);
                    down[s] = false;
                }
            }

            // 1. Re-offer parked requests (they arrived first, so they
            //    go ahead of the round's new arrivals), then admit
            //    everything that has arrived by the current epoch. With
            //    blocking admission, an `Overloaded` outcome parks the
            //    request at the back of the wait FIFO instead of
            //    rejecting it.
            let mut offers: Vec<(Request, bool)> =
                parked.drain(..).map(|(r, _)| (r, true)).collect();
            while next_arr < requests.len() && requests[next_arr].arrival <= epoch {
                offers.push((requests[next_arr], false));
                next_arr += 1;
            }
            for (r, was_parked) in offers {
                match adm.try_admit(&r, &cost, &storm, &down) {
                    Ok(class) => {
                        admitted += 1;
                        if class == Class::BankCross {
                            cross_admitted += 1;
                            inflight.insert(
                                r.id,
                                match r.op {
                                    Op::Transfer { from, to, amount } => {
                                        let (ds, cs) = r.op.shards(shards, cfg.seed);
                                        Pending2pc {
                                            from,
                                            to,
                                            amount,
                                            arrival: r.arrival,
                                            debit_shard: ds,
                                            credit_shard: cs.expect("cross-shard"),
                                            debit_vote: None,
                                            credit_vote: None,
                                            resolved: false,
                                        }
                                    }
                                    _ => unreachable!("BankCross is always a transfer"),
                                },
                            );
                        }
                    }
                    Err(ServeError::Overloaded { shard, .. }) if cfg.blocking => {
                        if !was_parked {
                            parks[shard] += 1;
                            parked_total += 1;
                            obs.on_park(shard);
                        }
                        parked.push_back((r, shard));
                    }
                    Err(e) => {
                        match e {
                            ServeError::Overloaded { shard, retry_after, .. } => {
                                rejected[shard] += 1;
                                hint_peak[shard] = hint_peak[shard].max(retry_after);
                                obs.on_reject(shard, retry_after);
                            }
                            ServeError::ShardUnavailable { shard, retry_after } => {
                                rejected[shard] += 1;
                                hint_peak[shard] = hint_peak[shard].max(retry_after);
                                rec_report.unavailable_rejections += 1;
                                obs.on_reject(shard, retry_after);
                            }
                            _ => {}
                        }
                        first_rejection.get_or_insert(e);
                    }
                }
            }
            for (peak, queue) in queue_peak.iter_mut().zip(&adm.queues) {
                *peak = (*peak).max(queue.len());
            }
            parked_peak = parked_peak.max(parked.len() as u64);
            let mut parked_depth = vec![0u64; shards];
            for &(_, s) in &parked {
                parked_depth[s] += 1;
            }
            for s in 0..shards {
                parked_depth_peak[s] = parked_depth_peak[s].max(parked_depth[s]);
                obs.on_park_depth(s, parked_depth[s], rounds, epoch);
            }

            // 2. Seal one batch per shard. Down shards hold their
            //    queues; a prefilled shard's batch for this round is
            //    the one its recovery just resolved.
            let mut sealed: Vec<Vec<QEntry>> = (0..shards)
                .map(|s| {
                    if down[s] || prefilled[s].is_some() {
                        Vec::new()
                    } else {
                        adm.seal(s, batch_cap)
                    }
                })
                .collect();
            let dispatched: Vec<usize> = (0..shards).filter(|&s| !sealed[s].is_empty()).collect();

            if dispatched.is_empty() && prefilled.iter().all(|p| p.is_none()) {
                if recovering.iter().any(|r| r.is_some()) {
                    continue; // burn a round of the recovery window
                }
                if next_arr >= requests.len()
                    && inflight.is_empty()
                    && adm.idle()
                    && parked.is_empty()
                {
                    break; // drained
                }
                if next_arr < requests.len() {
                    // Idle: jump the epoch clock to the next arrival.
                    epoch = epoch.max(requests[next_arr].arrival);
                    obs.roll_to(epoch);
                    continue;
                }
                return fail(pool, ServeError::Stalled { rounds });
            }

            // 3. Dispatch and barrier. An injected crash surfaces here
            //    as a `Crashed` message in place of the batch report.
            for &s in &dispatched {
                let entries: Vec<Entry> =
                    sealed[s].iter().map(|q| Entry { req: q.req, op: q.op }).collect();
                if let Err(e) = pool.send(s % workers, ToWorker::Run { shard: s, entries }) {
                    return fail(pool, e);
                }
            }
            let mut reports: Vec<Option<BatchReport>> = vec![None; shards];
            let mut feeds: Vec<Option<Feed>> = (0..shards).map(|_| None).collect();
            let mut crashed: Vec<usize> = Vec::new();
            for _ in 0..dispatched.len() {
                match pool.results.recv() {
                    Ok(FromWorker::Batch { shard, report, feed }) => {
                        reports[shard] = Some(report);
                        feeds[shard] = feed.map(|b| *b);
                    }
                    Ok(FromWorker::Crashed { shard }) => crashed.push(shard),
                    Ok(FromWorker::Fatal { shard, message }) => {
                        return fail(pool, ServeError::Engine { shard, message });
                    }
                    Ok(_) => {}
                    Err(_) => {
                        return fail(
                            pool,
                            ServeError::Engine { shard: 0, message: "worker pool died".into() },
                        );
                    }
                }
            }
            crashed.sort_unstable();

            // 3b. Crashed shards: recover synchronously inside this
            //     round (recovery_rounds = 0, keeps the report
            //     byte-identical to an uncrashed run) or open an
            //     unavailability window and hold the batch.
            for &s in &crashed {
                // Cut the crash bundle off the coordinator's view: the
                // WAL position the shard must resume at and the store
                // fingerprint at the moment of death.
                let store_fnv =
                    store_opt.as_ref().map(|st| store_fingerprint(st).0).unwrap_or_default();
                let replicas_up = groups[s].as_ref().is_some_and(|g| g.healthy() > 0);
                obs.on_crash(
                    s,
                    rounds,
                    epoch,
                    dispatch_seq[s],
                    store_fnv,
                    dur_cfg.recovery_rounds,
                    replicas_up,
                );
                if dur_cfg.recovery_rounds == 0 {
                    let div_before = rec_report.diverged.len();
                    match recover_shard(
                        &pool,
                        workers,
                        cfg,
                        s,
                        dispatch_seq[s],
                        &sealed[s],
                        &mut groups,
                        &mut rec_report,
                    ) {
                        Ok(report) => reports[s] = Some(report),
                        Err(e) => return fail(pool, e),
                    }
                    for d in rec_report.diverged[div_before..].iter().copied() {
                        obs.on_diverged(s, rounds, epoch, d.replica as u64);
                    }
                } else {
                    down[s] = true;
                    recovering[s] = Some((dur_cfg.recovery_rounds, std::mem::take(&mut sealed[s])));
                }
            }

            // 4. Advance virtual time by the slowest shard of the round
            //    (shards execute concurrently in virtual time) and fold
            //    outcomes back in deterministic shard order. A shard's
            //    fold comes from its recovered prefill or its report;
            //    a shard that just went down contributes neither.
            let mut folds: Vec<(usize, Vec<QEntry>, BatchReport)> = Vec::new();
            for s in 0..shards {
                if let Some((entries, report)) = prefilled[s].take() {
                    folds.push((s, entries, report));
                } else if let Some(report) = reports[s].take() {
                    folds.push((s, std::mem::take(&mut sealed[s]), report));
                }
            }
            let quantum = folds.iter().map(|(_, _, r)| r.cycles).max().unwrap_or(0);
            epoch += quantum.max(1);
            obs.roll_to(epoch);

            for (s, entries, mut report) in folds {
                dispatch_seq[s] += 1;
                if let (Some(g), Some(f)) = (groups[s].as_mut(), feeds[s].take()) {
                    g.ingest(&f.0);
                    let div = g.check_epoch(&f.1);
                    for d in &div {
                        obs.on_diverged(s, rounds, epoch, d.replica as u64);
                    }
                    rec_report.diverged.extend(div);
                }
                cost[s] = (report.cycles / entries.len().max(1) as u64).max(1);
                storm[s] = report.storm;
                if report.storm {
                    storm_rounds[s] += 1;
                }
                commits_batched[s] += report.commits;
                aborts_batched[s] += report.aborts;
                obs.on_gauges(s, adm.queues[s].len() as u64, cost[s]);
                obs.on_batch(s, rounds, epoch, &mut report);
                for (q, out) in entries.iter().zip(&report.outcomes) {
                    match q.op {
                        ShardOp::PrepareDebit { .. } => {
                            if let Some(p) = inflight.get_mut(&q.req) {
                                p.debit_vote = Some(out.ok);
                            }
                        }
                        ShardOp::PrepareCredit { .. } => {
                            if let Some(p) = inflight.get_mut(&q.req) {
                                p.credit_vote = Some(out.ok);
                            }
                        }
                        ShardOp::ApplyCredit { .. } => {
                            let p = inflight.remove(&q.req).expect("apply without 2pc record");
                            completed.push((Class::BankCross, true, epoch - p.arrival));
                        }
                        ShardOp::RollbackDebit { .. } => {
                            let p = inflight.remove(&q.req).expect("rollback without 2pc record");
                            completed.push((Class::BankCross, false, epoch - p.arrival));
                            rollbacks += 1;
                        }
                        _ => {
                            if matches!(q.op, ShardOp::HtGet { .. }) && out.ok {
                                ht_value_sum += out.value as u64;
                            }
                            completed.push((q.class, out.ok, epoch - q.arrival));
                        }
                    }
                }
                hint_peak[s] =
                    hint_peak[s].max(retry_after_hint(adm.queues[s].len(), cost[s], storm[s]));
            }

            // 5. Resolve 2PC records with both votes in (BTreeMap order
            //    keeps this deterministic). Phase-2 entries bypass the
            //    admission bound: they release held resources.
            let ready: Vec<u64> = inflight
                .iter()
                .filter(|(_, p)| !p.resolved && p.debit_vote.is_some() && p.credit_vote.is_some())
                .map(|(&id, _)| id)
                .collect();
            for id in ready {
                let p = inflight.get_mut(&id).expect("just listed");
                let debit = p.debit_vote.expect("filtered");
                let credit = p.credit_vote.expect("filtered");
                match (debit, credit) {
                    (true, true) => {
                        p.resolved = true;
                        // Log the decision before phase 2 can touch any
                        // shard: a crash between them leaves a hold that
                        // cold recovery resolves from this record.
                        if let Some(store) = &store_opt {
                            append_decision(store, id, true);
                        }
                        let (to, amount, arrival, cs) = (p.to, p.amount, p.arrival, p.credit_shard);
                        adm.phase2[cs].push_back(QEntry {
                            req: id,
                            arrival,
                            op: ShardOp::ApplyCredit { to, amount },
                            class: Class::BankCross,
                        });
                    }
                    (true, false) => {
                        p.resolved = true;
                        if let Some(store) = &store_opt {
                            append_decision(store, id, false);
                        }
                        let (from, amount, arrival, ds) =
                            (p.from, p.amount, p.arrival, p.debit_shard);
                        adm.phase2[ds].push_back(QEntry {
                            req: id,
                            arrival,
                            op: ShardOp::RollbackDebit { from, amount },
                            class: Class::BankCross,
                        });
                    }
                    (false, _) => {
                        // No hold was applied; the transfer just fails.
                        let arrival = p.arrival;
                        inflight.remove(&id);
                        completed.push((Class::BankCross, false, epoch - arrival));
                    }
                }
            }
        }

        // Drain complete: collect per-shard summaries.
        for s in 0..shards {
            if let Err(e) = pool.send(s % workers, ToWorker::Finish { shard: s }) {
                return fail(pool, e);
            }
        }
        let mut summaries: Vec<Option<ShardSummary>> = (0..shards).map(|_| None).collect();
        let mut got = 0usize;
        while got < shards {
            match pool.results.recv() {
                Ok(FromWorker::Summary { shard, summary }) => {
                    summaries[shard] = Some(*summary);
                    got += 1;
                }
                Ok(FromWorker::Fatal { shard, message }) => {
                    return fail(pool, ServeError::Engine { shard, message });
                }
                Ok(_) => {}
                Err(_) => {
                    return fail(
                        pool,
                        ServeError::Engine { shard: 0, message: "worker pool died".into() },
                    );
                }
            }
        }
        pool.shutdown();
        let wall_seconds = wall_start.elapsed().as_secs_f64();

        // Finalize the durability report: replica census, then the
        // store fingerprint (taken after every worker has joined, so
        // all WAL writes are in).
        rec_report.replicas_per_shard =
            groups.iter().flatten().map(|g| g.total() as u64).max().unwrap_or(0);
        rec_report.replicas_healthy = groups.iter().flatten().map(|g| g.healthy() as u64).sum();
        if let Some(store) = &store_opt {
            let (fnv, bytes) = store_fingerprint(store);
            rec_report.store_fnv = fnv;
            rec_report.store_bytes = bytes;
        }

        let summaries: Vec<ShardSummary> =
            summaries.into_iter().map(|s| s.expect("collected all")).collect();
        for (s, sum) in summaries.iter().enumerate() {
            obs.on_violations(s, rounds, epoch, sum.violations.len() as u64);
        }

        let offered = requests.len() as u64;
        let rejected_total: u64 = rejected.iter().sum();
        assert_eq!(
            completed.len() as u64,
            admitted,
            "every admitted request must complete exactly once (no loss, no duplication)"
        );

        // Conservation: money only moves between accounts; every shard
        // funds its owned keys with `initial_balance`.
        let balance_total: u64 = summaries.iter().map(|s| s.balance_sum).sum();
        let conserved = balance_total == cfg.accounts as u64 * cfg.initial_balance as u64;
        let txl_done = completed.iter().filter(|(c, ok, _)| *c == Class::Txl && *ok).count() as u64;
        let txl_total: u64 = summaries.iter().map(|s| s.txl_sum).sum();
        let txl_consistent = txl_done == txl_total;

        let mut latencies: Vec<u64> = completed.iter().map(|&(_, _, l)| l).collect();
        latencies.sort_unstable();
        let classes = ClassTotals {
            bank_local: completed.iter().filter(|(c, ..)| *c == Class::BankLocal).count() as u64,
            bank_cross: completed.iter().filter(|(c, ..)| *c == Class::BankCross).count() as u64,
            ht: completed.iter().filter(|(c, ..)| *c == Class::Ht).count() as u64,
            txl: completed.iter().filter(|(c, ..)| *c == Class::Txl).count() as u64,
        };
        let business_failed = completed.iter().filter(|(_, ok, _)| !ok).count() as u64;

        let shard_reports: Vec<ShardReport> = summaries
            .iter()
            .enumerate()
            .map(|(s, sum)| ShardReport {
                shard: s,
                stm_name: sum.stm_name.clone(),
                commits: sum.tx.commits,
                aborts: sum.tx.aborts,
                read_only: sum.read_only as u64,
                writers: sum.writers as u64,
                launches: sum.launches,
                sim_cycles: sum.sim_cycles,
                instructions: sum.sim.instructions,
                balance_sum: sum.balance_sum,
                txl_sum: sum.txl_sum,
                rejected: rejected[s],
                parked: parks[s],
                parked_depth_peak: parked_depth_peak[s],
                queue_peak: queue_peak[s] as u64,
                storm_rounds: storm_rounds[s],
                retry_hint_peak: hint_peak[s],
                retry_hint_final: retry_after_hint(0, cost[s], false),
                history_fnv: sum.history_fnv,
                commit_log_fnv: sum.commit_log_fnv,
                retry_after: obs.retry_after(s).clone(),
                violations: sum.violations.clone(),
            })
            .collect();
        let violations_total = shard_reports.iter().map(|r| r.violations.len()).sum();

        let report = ServeReport {
            variant: cfg.variant.short_name().to_string(),
            mode: cfg.mode.short_name().to_string(),
            shards: shards as u64,
            workers: workers as u64,
            seed: cfg.seed,
            queue_capacity: cfg.queue_capacity as u64,
            batch_capacity: batch_cap as u64,
            offered,
            admitted,
            rejected: rejected_total,
            parked: parked_total,
            parked_peak,
            completed: completed.len() as u64,
            business_failed,
            cross_shard: cross_admitted,
            rollbacks,
            classes,
            ht_get_value_sum: ht_value_sum,
            rounds,
            virtual_cycles: epoch,
            latencies,
            conserved,
            txl_consistent,
            violations_total,
            first_rejection,
            shard_reports,
            obs: obs.report(epoch),
            wall_seconds,
        };
        rec_report.incidents = obs.recovery_incidents();
        rec_report.bundles = obs.recovery_bundles();
        Ok((report, rec_report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, op: Op) -> Request {
        Request { id, arrival: id + 1, op }
    }

    #[test]
    fn try_admit_reports_structured_overload() {
        let shards = 1;
        let mut adm = Admission::new(shards, 2, 7);
        let cost = vec![100u64];
        let storm = vec![false];
        let down = vec![false];
        for i in 0..2 {
            adm.try_admit(&req(i, Op::TxlBump { key: i as u32 }), &cost, &storm, &down).unwrap();
        }
        let err = adm.try_admit(&req(9, Op::TxlBump { key: 0 }), &cost, &storm, &down).unwrap_err();
        match err {
            ServeError::Overloaded { shard, queue_len, capacity, retry_after } => {
                assert_eq!(shard, 0);
                assert_eq!(queue_len, 2);
                assert_eq!(capacity, 2);
                assert_eq!(retry_after, retry_after_hint(2, 100, false));
            }
            other => panic!("expected Overloaded, got {other}"),
        }
    }

    #[test]
    fn storm_inflates_and_clearing_shrinks_the_hint() {
        let calm = retry_after_hint(4, 200, false);
        let stormy = retry_after_hint(4, 200, true);
        assert_eq!(stormy, calm * 4);
        assert!(retry_after_hint(0, 200, false) < stormy);
    }

    #[test]
    fn cross_shard_admission_is_atomic() {
        // Find a cross-shard pair under seed 7 with 2 shards.
        let seed = 7;
        let (from, to) = (0..64)
            .flat_map(|a| (0..64).map(move |b| (a, b)))
            .find(|&(a, b)| {
                a != b && crate::route(a, 2, seed) == 0 && crate::route(b, 2, seed) == 1
            })
            .expect("some cross pair exists");
        let mut adm = Admission::new(2, 1, seed);
        let cost = vec![10u64; 2];
        let storm = vec![false; 2];
        let down = vec![false; 2];
        // Fill the credit shard's queue.
        let filler = (0..64).find(|&k| crate::route(k, 2, seed) == 1).unwrap();
        adm.try_admit(&req(0, Op::TxlBump { key: filler }), &cost, &storm, &down).unwrap();
        // The cross-shard transfer must be rejected whole: debit queue
        // stays empty rather than holding an orphaned prepare.
        let err = adm
            .try_admit(&req(1, Op::Transfer { from, to, amount: 1 }), &cost, &storm, &down)
            .unwrap_err();
        assert!(matches!(err, ServeError::Overloaded { shard: 1, .. }));
        assert!(adm.queues[0].is_empty());
    }

    #[test]
    fn seal_prefers_phase2() {
        let mut adm = Admission::new(1, 8, 1);
        let cost = vec![10u64];
        let storm = vec![false];
        let down = vec![false];
        adm.try_admit(&req(0, Op::TxlBump { key: 0 }), &cost, &storm, &down).unwrap();
        adm.phase2[0].push_back(QEntry {
            req: 99,
            arrival: 0,
            op: ShardOp::ApplyCredit { to: 1, amount: 2 },
            class: Class::BankCross,
        });
        let sealed = adm.seal(0, 8);
        assert_eq!(sealed[0].req, 99);
        assert_eq!(sealed[1].req, 0);
    }

    #[test]
    fn small_end_to_end_run_drains_and_checks() {
        let cfg = ServeConfig {
            shards: 2,
            mix: MixConfig { requests: 96, ..MixConfig::mixed() },
            accounts: 64,
            table_words: 512,
            txl_words: 16,
            n_locks: 1 << 10,
            ..ServeConfig::default()
        };
        let report = Service::run(&cfg).unwrap();
        assert_eq!(report.completed, report.admitted);
        assert!(report.conserved, "bank balance not conserved");
        assert!(report.txl_consistent, "txl counters disagree with completions");
        assert_eq!(report.violations_total, 0);
        assert!(report.virtual_cycles > 0);
    }
}
