//! Property tests for the write-ahead log: across seeds, traffic
//! mixes, snapshot cadences and compaction settings, a durable run is
//! byte-deterministic, and snapshot + WAL-tail replay (`cold_recover`)
//! reproduces every shard's `history_fnv` and `commit_log_fnv`
//! byte-exactly. Also round-trips the directory-backed store against
//! the in-memory one, bounds snapshot size by the live state rather than
//! the run length, and checks that corrupt snapshot or journal bytes
//! fail recovery with a structured error instead of a panic.

use std::sync::{Arc, Mutex};
use tm_serve::{
    store_fingerprint, BlobStore, DirStore, DurabilityConfig, MemStore, MixConfig, ServeConfig,
    ServeError, Service, StoreHandle,
};

fn cfg(seed: u64, mix: MixConfig, dur: DurabilityConfig) -> ServeConfig {
    ServeConfig {
        shards: 2,
        mix: MixConfig { requests: 96, ..mix },
        seed,
        accounts: 64,
        table_words: 256,
        txl_words: 16,
        batch_warps: 1,
        n_locks: 1 << 10,
        durability: Some(dur),
        ..ServeConfig::default()
    }
}

/// The property under test, for one (seed, mix, cadence, compaction)
/// point: two runs are byte-identical (reports and store contents),
/// and a cold recovery from the store alone lands on the served
/// history hashes.
fn check_point(seed: u64, mix: MixConfig, segment_batches: u64, compact: bool) {
    let dur = DurabilityConfig { segment_batches, compact, ..DurabilityConfig::default() };
    let c = cfg(seed, mix, dur);

    let store_a = MemStore::shared();
    let (report_a, _) = Service::run_durable(&c, store_a.clone())
        .unwrap_or_else(|e| panic!("seed {seed} seg {segment_batches}: {e}"));
    let store_b = MemStore::shared();
    let (report_b, _) = Service::run_durable(&c, store_b.clone()).expect("second run");

    assert_eq!(report_a.to_json(), report_b.to_json(), "seed {seed}: report determinism");
    assert_eq!(
        store_fingerprint(&store_a),
        store_fingerprint(&store_b),
        "seed {seed} seg {segment_batches} compact {compact}: WAL byte determinism"
    );

    let shards = Service::cold_recover(&c, store_a).expect("cold recover");
    assert_eq!(shards.len(), c.shards);
    for ((_, summary), shard_report) in shards.iter().zip(&report_a.shard_reports) {
        assert_eq!(
            summary.history_fnv, shard_report.history_fnv,
            "seed {seed} seg {segment_batches} compact {compact}: shard {} history_fnv",
            shard_report.shard
        );
        assert_eq!(
            summary.commit_log_fnv, shard_report.commit_log_fnv,
            "seed {seed} seg {segment_batches} compact {compact}: shard {} commit_log_fnv",
            shard_report.shard
        );
        assert!(summary.violations.is_empty(), "tm-check on replayed history");
    }
}

#[test]
fn snapshot_replay_reproduces_history_hashes_across_seeds_and_mixes() {
    for seed in [3u64, 17, 40] {
        for mix in [MixConfig::bank(), MixConfig::mixed()] {
            check_point(seed, mix, 3, true);
        }
    }
}

#[test]
fn every_snapshot_cadence_and_compaction_setting_replays_exactly() {
    for segment_batches in [1u64, 2, 64] {
        for compact in [false, true] {
            check_point(9, MixConfig::mixed(), segment_batches, compact);
        }
    }
}

#[test]
fn dir_store_round_trips_bit_for_bit_with_mem_store() {
    let dur = DurabilityConfig { segment_batches: 2, ..DurabilityConfig::default() };
    let c = cfg(11, MixConfig::mixed(), dur);

    let mem = MemStore::shared();
    let (mem_report, _) = Service::run_durable(&c, mem.clone()).expect("mem run");

    let root = std::env::temp_dir().join(format!("tm-serve-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = std::sync::Arc::new(DirStore::open(&root).expect("open dir store"));
    let (dir_report, _) =
        Service::run_durable(&c, dir.clone() as tm_serve::StoreHandle).expect("dir run");

    assert_eq!(dir_report.to_json(), mem_report.to_json());
    assert_eq!(
        store_fingerprint(&(dir.clone() as tm_serve::StoreHandle)),
        store_fingerprint(&mem),
        "directory store must hold byte-identical blobs"
    );

    // A separate process observing only the directory can rebuild the
    // shards and land on the served history.
    let shards = Service::cold_recover(&c, dir as tm_serve::StoreHandle).expect("cold recover");
    for ((_, summary), shard_report) in shards.iter().zip(&mem_report.shard_reports) {
        assert_eq!(summary.history_fnv, shard_report.history_fnv);
        assert_eq!(summary.commit_log_fnv, shard_report.commit_log_fnv);
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// A [`MemStore`] that remembers the largest snapshot ever put.
#[derive(Default)]
struct MaxSnapStore {
    inner: MemStore,
    max_snap: Mutex<usize>,
}

impl BlobStore for MaxSnapStore {
    fn put(&self, name: &str, bytes: &[u8]) {
        if name.contains("/snap-") {
            let mut max = self.max_snap.lock().unwrap();
            *max = (*max).max(bytes.len());
        }
        self.inner.put(name, bytes);
    }

    fn append(&self, name: &str, bytes: &[u8]) {
        self.inner.append(name, bytes);
    }

    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.get(name)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn delete(&self, name: &str) {
        self.inner.delete(name);
    }
}

/// The repository benchmark's `serve-mixed` configuration at its lightest
/// rate (1 request per kilocycle), durable, with `requests` requests.
fn benchmark_cfg(requests: u64) -> ServeConfig {
    ServeConfig {
        workers: 2,
        seed: 16,
        mix: MixConfig { requests, mean_interarrival: 1000, ..MixConfig::mixed() },
        durability: Some(DurabilityConfig::default()),
        ..ServeConfig::default()
    }
}

fn largest_snapshot(requests: u64) -> usize {
    let store = Arc::new(MaxSnapStore::default());
    let (report, _) =
        Service::run_durable(&benchmark_cfg(requests), store.clone() as StoreHandle).unwrap();
    assert_eq!(report.completed, report.admitted);
    let max = *store.max_snap.lock().unwrap();
    assert!(max > 0, "{requests} requests: no snapshot taken");
    max
}

#[test]
fn snapshot_size_does_not_grow_with_run_length() {
    let short = largest_snapshot(512);
    let long = largest_snapshot(2048);
    assert!(
        long * 10 <= short * 11,
        "largest snapshot grew from {short} B at 512 requests to {long} B at 2048"
    );
}

/// FNV-1a over little-endian `u64` words, as WAL frames checksum.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Rewrites the payload of a `[magic u32][kind u8][len u32][payload]
/// [fnv u64]` frame with `edit` and recomputes the checksum, so the
/// result is checksum-valid whatever the edit.
fn reframe(blob: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let len = u32::from_le_bytes(blob[5..9].try_into().unwrap()) as usize;
    let mut payload = blob[9..9 + len].to_vec();
    edit(&mut payload);
    let kind = blob[4];
    let sum = fnv_words(
        [kind as u64, payload.len() as u64].into_iter().chain(payload.iter().map(|&b| b as u64)),
    );
    let mut out = blob[..5].to_vec();
    out.extend((payload.len() as u32).to_le_bytes());
    out.extend(&payload);
    out.extend(sum.to_le_bytes());
    out
}

/// Byte offsets into a format-2 snapshot payload: the commit count of
/// the fixed-width header, and the memory image length after it.
const SNAP_COMMITS: usize = 20;
const SNAP_MEM_LEN: usize = 60;

/// A durable run with several snapshots per shard, plus its store and
/// shard 0's latest snapshot name.
fn snapshotted_run() -> (ServeConfig, StoreHandle, String) {
    let dur = DurabilityConfig { segment_batches: 2, ..DurabilityConfig::default() };
    let c = cfg(5, MixConfig::mixed(), dur);
    let store = MemStore::shared();
    Service::run_durable(&c, store.clone()).expect("durable run");
    let snap = store.list("s000/snap-").pop().expect("shard 0 took a snapshot");
    assert!(!store.get("s000/hist").unwrap_or_default().is_empty(), "journal written");
    let blob = store.get(&snap).unwrap();
    assert_eq!(reframe(&blob, |_| {}), blob, "reframe reproduces an untouched snapshot");
    (c, store, snap)
}

/// Cold recovery must fail on shard 0 with an engine error naming `needle`.
fn assert_recovery_fails(c: &ServeConfig, store: StoreHandle, needle: &str) {
    match Service::cold_recover(c, store) {
        Err(ServeError::Engine { shard: 0, message }) => {
            assert!(message.contains(needle), "error {message:?} lacks {needle:?}")
        }
        Err(e) => panic!("expected a shard 0 engine error, got {e}"),
        Ok(_) => panic!("recovery accepted corrupt bytes"),
    }
}

#[test]
fn journal_shorter_than_snapshot_records_is_rejected() {
    let (c, store, _) = snapshotted_run();
    let hist = store.get("s000/hist").unwrap();
    store.put("s000/hist", &hist[..hist.len() - 1]);
    assert_recovery_fails(&c, store, "history journal");
}

#[test]
fn journal_frame_with_bad_checksum_is_rejected() {
    let (c, store, _) = snapshotted_run();
    let mut hist = store.get("s000/hist").unwrap();
    let mid = hist.len() / 2;
    hist[mid] ^= 0xff;
    store.put("s000/hist", &hist);
    assert_recovery_fails(&c, store, "corrupt history journal frame");
}

#[test]
fn journal_tail_past_the_snapshot_is_truncated() {
    let (c, store, _) = snapshotted_run();
    let before = store_fingerprint(&store);
    let hist = store.get("s000/hist").unwrap();
    store.append("s000/hist", &hist);
    Service::cold_recover(&c, store.clone()).expect("a longer journal recovers");
    assert_eq!(store.get("s000/hist").unwrap(), hist, "tail truncated");
    assert_eq!(store_fingerprint(&store), before);
}

#[test]
fn snapshot_commit_count_mismatch_is_rejected() {
    let (c, store, snap) = snapshotted_run();
    let blob = store.get(&snap).unwrap();
    store.put(
        &snap,
        &reframe(&blob, |p| {
            let n = u64::from_le_bytes(p[SNAP_COMMITS..SNAP_COMMITS + 8].try_into().unwrap());
            p[SNAP_COMMITS..SNAP_COMMITS + 8].copy_from_slice(&(n + 1).to_le_bytes());
        }),
    );
    assert_recovery_fails(&c, store, "commits");
}

#[test]
fn out_of_range_sparse_l2_index_is_rejected() {
    let (c, store, snap) = snapshotted_run();
    let blob = store.get(&snap).unwrap();
    store.put(
        &snap,
        &reframe(&blob, |p| {
            let word = |at: usize| u32::from_le_bytes(p[at..at + 4].try_into().unwrap());
            let lines_at = SNAP_MEM_LEN + 4 + 4 * word(SNAP_MEM_LEN) as usize;
            let lines = word(lines_at);
            assert!(word(lines_at + 4) > 0, "snapshot holds valid L2 lines");
            p[lines_at + 8..lines_at + 12].copy_from_slice(&lines.to_le_bytes());
        }),
    );
    assert_recovery_fails(&c, store, "snapshot: corrupt or incompatible payload");
}

#[test]
fn format_1_snapshot_is_rejected() {
    let (c, store, snap) = snapshotted_run();
    let blob = store.get(&snap).unwrap();
    store.put(&snap, &reframe(&blob, |p| p[..4].copy_from_slice(&1u32.to_le_bytes())));
    assert_recovery_fails(&c, store, "snapshot: corrupt or incompatible payload");
}
