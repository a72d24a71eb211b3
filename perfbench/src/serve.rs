//! `serve-mixed`: tm-serve's default production configuration, durable over
//! an in-memory store, driven by a fixed open-loop ladder of virtual
//! arrival rates with a fixed request count per rate.

use crate::spans::{traced, Tracer};
use crate::stats::{percentile, Fnv};
use crate::Pass;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;
use tm_serve::{
    store_fingerprint, BlobStore, DurabilityConfig, MemStore, MixConfig, ServeConfig, ServeReport,
    Service, StoreHandle,
};

/// Offered load in requests per kilocycle, with the names of the rates
/// whose latencies are reported.
pub const LADDER: [(f64, Option<&str>); 6] = [
    (1.0, Some("light")),
    (1.5, None),
    (2.0, Some("knee")),
    (2.5, None),
    (3.0, None),
    (4.0, Some("over")),
];

/// Requests per rate. Fixed, because each snapshot re-encodes the whole
/// committed history: per-request WAL cost grows with run length.
pub const REQUESTS: u64 = 2048;

/// Latency limit for `max_rate_per_kcyc`, in simulated cycles.
pub const P99_LIMIT: u64 = 50_000;

/// Replications of the ladder per pass, each with its own service seed.
/// Near saturation the rejection count of one seed swings by 2×, so the
/// pass pools several seeds, as independent replications do.
pub const REPLICATIONS: u64 = 16;

/// The durable configuration for one ladder rate.
pub fn config(seed: u64, rate: f64) -> ServeConfig {
    ServeConfig {
        workers: 2,
        seed,
        mix: MixConfig {
            requests: REQUESTS,
            mean_interarrival: (1000.0 / rate).round() as u64,
            ..MixConfig::mixed()
        },
        durability: Some(DurabilityConfig::default()),
        ..ServeConfig::default()
    }
}

/// Every replication's ladder, replication-major. Replication `i` of
/// benchmark seed `s` serves with seed `s·REPLICATIONS + i`.
pub fn configs(seed: u64) -> Vec<ServeConfig> {
    let mut out = Vec::new();
    for i in 0..REPLICATIONS {
        let sub = seed.wrapping_mul(REPLICATIONS).wrapping_add(i);
        out.extend(LADDER.iter().map(|&(rate, _)| config(sub, rate)));
    }
    out
}

/// The ladder rate of `configs()[i]`.
pub fn rate_of(i: usize) -> f64 {
    LADDER[i % LADDER.len()].0
}

/// A [`MemStore`] that counts and times every call the WAL makes.
#[derive(Default)]
pub struct CountingStore {
    inner: MemStore,
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub snapshot_puts: AtomicU64,
    pub snapshot_bytes: AtomicU64,
    pub busy_ns: AtomicU64,
}

impl CountingStore {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.busy_ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        out
    }

    pub fn bytes_written(&self) -> u64 {
        self.append_bytes.load(Relaxed) + self.snapshot_bytes.load(Relaxed)
    }
}

impl BlobStore for CountingStore {
    fn put(&self, name: &str, bytes: &[u8]) {
        // Empty puts reset a segment at a roll; non-empty ones are snapshots.
        if !bytes.is_empty() {
            self.snapshot_puts.fetch_add(1, Relaxed);
            self.snapshot_bytes.fetch_add(bytes.len() as u64, Relaxed);
        }
        self.timed(|| self.inner.put(name, bytes))
    }

    fn append(&self, name: &str, bytes: &[u8]) {
        self.appends.fetch_add(1, Relaxed);
        self.append_bytes.fetch_add(bytes.len() as u64, Relaxed);
        self.timed(|| self.inner.append(name, bytes))
    }

    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.timed(|| self.inner.get(name))
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.timed(|| self.inner.list(prefix))
    }

    fn delete(&self, name: &str) {
        self.timed(|| self.inner.delete(name))
    }
}

/// One service run's outcome. At most the store's fingerprint is kept, so a
/// pass holds one run's blobs at a time.
pub struct RateRun {
    pub report: ServeReport,
    /// `store_fingerprint` of the run's blob store, (FNV, total bytes), when
    /// the pass was asked for it.
    pub store: Option<(u64, u64)>,
    pub host_s: f64,
}

/// Checks the service's own correctness verdicts.
fn gate(report: &ServeReport, rate: f64, problems: &mut Vec<String>) {
    if !report.conserved {
        problems.push(format!("rate {rate}: bank balances not conserved"));
    }
    if !report.txl_consistent {
        problems.push(format!("rate {rate}: TXL counters inconsistent"));
    }
    if report.violations_total != 0 {
        problems.push(format!("rate {rate}: {} tm-check violations", report.violations_total));
    }
    if report.completed != report.admitted {
        problems.push(format!(
            "rate {rate}: {} admitted but {} completed",
            report.admitted, report.completed
        ));
    }
}

/// Nearest-rank p99 over sorted completed-request latencies plus `refused`
/// requests, each of which counts as missing any limit.
fn p99_with_misses(sorted: &[u64], refused: u64) -> u64 {
    let n = sorted.len() as u64 + refused;
    sorted.get(((n.max(1) - 1) * 99 / 100) as usize).copied().unwrap_or(u64::MAX)
}

/// Runs every replication's ladder once, durable. `stores` supplies each
/// run's blob store (a plain [`MemStore`] untraced, a [`CountingStore`]
/// traced); `fingerprint_stores` keeps each store's fingerprint.
pub fn pass(
    cfgs: &[ServeConfig],
    mut stores: impl FnMut() -> StoreHandle,
    mut tr: Option<&mut Tracer>,
    fingerprint_stores: bool,
) -> (Pass, Vec<RateRun>) {
    let mut pass = Pass::default();
    let mut fp = Fnv::new();
    let mut runs = Vec::new();
    // Per ladder rate, pooled over replications: completed-request
    // latencies and rejections.
    let mut latencies = vec![Vec::new(); LADDER.len()];
    let mut refused = vec![0u64; LADDER.len()];
    let (mut offered, mut rejected) = (0u64, 0u64);
    for (i, cfg) in cfgs.iter().enumerate() {
        let rate = rate_of(i);
        let store = stores();
        let (result, host_s) = pass.unit(|| {
            traced(&mut tr, "tm_serve::Service::run_durable", || {
                Service::run_durable(cfg, store.clone())
            })
        });
        let report = match result {
            Ok((report, _)) => report,
            Err(e) => {
                pass.problems.push(format!("rate {rate} seed {}: {e}", cfg.seed));
                continue;
            }
        };
        gate(&report, rate, &mut pass.problems);
        fp.str(&report.to_json());
        pass.attempted += report.offered;
        offered += report.offered;
        rejected += report.rejected;
        let slot = i % LADDER.len();
        latencies[slot].extend_from_slice(&report.latencies);
        refused[slot] += report.rejected;
        let store = fingerprint_stores.then(|| store_fingerprint(&store));
        runs.push(RateRun { report, store, host_s });
    }
    pass.fingerprint = fp.finish();
    pass.failed_frac = rejected as f64 / offered.max(1) as f64;
    let mut max_rate = 0.0f64;
    for (slot, &(rate, name)) in LADDER.iter().enumerate() {
        let lat = &mut latencies[slot];
        lat.sort_unstable();
        if lat.is_empty() {
            pass.problems.push(format!("rate {rate}: no request completed"));
            continue;
        }
        if p99_with_misses(lat, refused[slot]) <= P99_LIMIT {
            max_rate = max_rate.max(rate);
        }
        // Latency of the completed requests; refusals show in
        // `failed_frac` and `max_rate_per_kcyc`.
        let Some(name) = name else { continue };
        let kcyc = |p| percentile(lat, p) as f64 / 1e3;
        pass.sim_metrics.push((format!("p50_kcyc.{name}"), kcyc(50), "kcycles"));
        pass.sim_metrics.push((format!("p99_kcyc.{name}"), kcyc(99), "kcycles"));
        pass.sim_metrics.push((format!("samples.{name}"), lat.len() as f64, "count"));
    }
    pass.sim_metrics.push(("max_rate_per_kcyc".into(), max_rate, "req/kcycle"));
    (pass, runs)
}

/// The same ladder without durability, for the WAL overhead and the
/// durable-equals-volatile check.
pub fn volatile(cfgs: &[ServeConfig]) -> Vec<Result<(ServeReport, f64), String>> {
    cfgs.iter()
        .map(|cfg| {
            let cfg = ServeConfig { durability: None, ..cfg.clone() };
            let t = Instant::now();
            let r = Service::run(&cfg).map_err(|e| e.to_string())?;
            Ok((r, t.elapsed().as_secs_f64()))
        })
        .collect()
}

/// A counting store behind both a concrete and a trait-object handle.
pub fn counting_store() -> (Arc<CountingStore>, StoreHandle) {
    let store = Arc::new(CountingStore::default());
    let handle: StoreHandle = store.clone();
    (store, handle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refused_requests_count_as_misses() {
        let lat: Vec<u64> = (1..=99).collect();
        assert_eq!(p99_with_misses(&lat, 0), 98);
        assert_eq!(p99_with_misses(&lat, 1), 99);
        assert_eq!(p99_with_misses(&lat, 2), u64::MAX);
        assert_eq!(p99_with_misses(&[], 3), u64::MAX);
    }

    #[test]
    fn replications_get_distinct_seeds() {
        let cfgs = configs(3);
        assert_eq!(cfgs.len() as u64, REPLICATIONS * LADDER.len() as u64);
        let mut seeds: Vec<u64> = cfgs.iter().map(|c| c.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len() as u64, REPLICATIONS);
        assert!(cfgs.iter().all(|c| c.validate().is_ok()));
    }
}
