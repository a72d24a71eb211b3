//! # gpu-locks — lock-based synchronisation on SIMT hardware
//!
//! Implementations of the three GPU spin-lock schemes of the paper's
//! Algorithm 1 (Section 2.2), which motivate transactional memory:
//!
//! - **Scheme #1** ([`spin_lock_lockstep`]): a plain spinlock executed by
//!   multiple lanes of one warp in lockstep. The winner waits for warp
//!   reconvergence at the critical-section entry while losers spin forever
//!   — **deadlock**.
//! - **Scheme #2** ([`spin_lock_one`] under
//!   [`serialize_lanes`](gpu_sim::simt::serialize_lanes)): serialise the
//!   lanes of each warp, at the cost of 1/32 hardware utilisation.
//! - **Scheme #3** ([`try_lock`]): diverge on acquisition failure. Correct
//!   for a single lock per thread, but **livelocks** when threads take
//!   multiple locks in conflicting orders, because lockstep retry re-creates
//!   the same circular contention every iteration.
//!
//! The livelock is broken by imposing a global acquisition order — the
//! insight GPU-STM's encounter-time lock-sorting generalises
//! ([`try_lock_sorted`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gpu_sim::{Addr, LaneAddrs, LaneMask, LaneVals, Sim, SimError, WarpCtx, WARP_SIZE};

/// A word-sized mutex in device memory (0 = free, 1 = held).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GpuMutex(pub Addr);

impl GpuMutex {
    /// Allocates a mutex on the device.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the device is full.
    pub fn init(sim: &mut Sim) -> Result<Self, SimError> {
        Ok(GpuMutex(sim.alloc(1)?))
    }
}

/// Scheme #1: every active lane spins on CAS until it owns `lock`, then
/// the warp reconverges before the critical section.
///
/// With more than one active lane this **deadlocks** (the simulator's
/// watchdog fires): the winning lane is masked off at the loop exit,
/// waiting for reconvergence, while the losers can never acquire a lock
/// that will never be released. Returns only when every active lane has
/// exited the spin loop — i.e. never, under intra-warp contention.
pub async fn spin_lock_lockstep(ctx: &WarpCtx, mask: LaneMask, lock: GpuMutex) {
    let mut spinning = mask;
    let addrs = [lock.0; WARP_SIZE];
    let zeros = [0u32; WARP_SIZE];
    let ones = [1u32; WARP_SIZE];
    // Lockstep: the warp keeps issuing the CAS for the lanes still in the
    // loop; lanes that won wait at the reconvergence point (loop exit).
    while spinning.any() {
        let old = ctx.atomic_cas(spinning, &addrs, &zeros, &ones).await;
        spinning = spinning.filter(|l| old[l] != 0);
    }
}

/// Spin-acquires `lock` for a single lane (safe intra-warp: the caller
/// serialises lanes, Scheme #2). Still contends with other warps.
pub async fn spin_lock_one(ctx: &WarpCtx, lane: usize, lock: GpuMutex) {
    loop {
        if ctx.atomic_cas_one(lane, lock.0, 0, 1).await == 0 {
            return;
        }
    }
}

/// Releases a mutex held by `lane`.
pub async fn unlock_one(ctx: &WarpCtx, lane: usize, lock: GpuMutex) {
    ctx.store_one(lane, lock.0, 0).await;
}

/// Scheme #3: each active lane tries its own lock once; returns the mask
/// of lanes that acquired it. Losing lanes diverge and retry later
/// (no spinning, so no Scheme-#1 deadlock).
pub async fn try_lock(ctx: &WarpCtx, mask: LaneMask, addrs: &LaneAddrs) -> LaneMask {
    let zeros = [0u32; WARP_SIZE];
    let ones = [1u32; WARP_SIZE];
    let old = ctx.atomic_cas(mask, addrs, &zeros, &ones).await;
    mask.filter(|l| old[l] == 0)
}

/// Releases per-lane locks.
pub async fn unlock(ctx: &WarpCtx, mask: LaneMask, addrs: &LaneAddrs) {
    let zeros = [0u32; WARP_SIZE];
    ctx.store(mask, addrs, &zeros).await;
}

/// Attempts to acquire, per lane, the *set* of locks given by
/// `lock_of(lane, k)` for `k < n_locks(lane)`, in the caller's order.
/// On any failure the lane releases what it got and reports failure.
///
/// Returns the lanes that acquired *all* their locks. With conflicting
/// per-lane orders and lockstep retry this livelocks (the paper's circular
/// locking phenomenon); see [`try_lock_sorted`].
pub async fn try_lock_multi(
    ctx: &WarpCtx,
    mask: LaneMask,
    max_locks: usize,
    mut lock_count: impl FnMut(usize) -> usize,
    mut lock_of: impl FnMut(usize, usize) -> Addr,
) -> LaneMask {
    let mut holding = mask; // lanes that still hold everything so far
    let mut acquired = [0usize; WARP_SIZE];
    for k in 0..max_locks {
        let m = holding.filter(|l| k < lock_count(l));
        if m.none() {
            break;
        }
        let mut addrs = [Addr::NULL; WARP_SIZE];
        for l in m.iter() {
            addrs[l] = lock_of(l, k);
        }
        let got = try_lock(ctx, m, &addrs).await;
        for l in m.iter() {
            if got.contains(l) {
                acquired[l] = k + 1;
            } else {
                holding = holding.without(l);
            }
        }
    }
    // Losers roll back.
    let losers = mask & !holding;
    if losers.any() {
        let max_acq = losers.iter().map(|l| acquired[l]).max().unwrap_or(0);
        for k in 0..max_acq {
            let m = losers.filter(|l| k < acquired[l]);
            if m.none() {
                break;
            }
            let mut addrs = [Addr::NULL; WARP_SIZE];
            for l in m.iter() {
                addrs[l] = lock_of(l, k);
            }
            unlock(ctx, m, &addrs).await;
        }
    }
    holding
}

/// Like [`try_lock_multi`] but acquires each lane's locks in ascending
/// address order, imposing the global order that makes circular livelock
/// impossible — the essence of encounter-time lock-sorting.
pub async fn try_lock_sorted(
    ctx: &WarpCtx,
    mask: LaneMask,
    max_locks: usize,
    mut lock_count: impl FnMut(usize) -> usize,
    mut lock_of: impl FnMut(usize, usize) -> Addr,
) -> LaneMask {
    // Sort each lane's lock list by address first.
    let mut sorted: Vec<Vec<Addr>> = vec![Vec::new(); WARP_SIZE];
    for l in mask.iter() {
        let mut v: Vec<Addr> = (0..lock_count(l)).map(|k| lock_of(l, k)).collect();
        v.sort_unstable();
        v.dedup();
        sorted[l] = v;
    }
    try_lock_multi(ctx, mask, max_locks, |l| sorted[l].len(), |l, k| sorted[l][k]).await
}

/// Releases the (sorted, deduplicated) multi-lock set taken by
/// [`try_lock_sorted`] for the winning lanes.
pub async fn unlock_sorted(
    ctx: &WarpCtx,
    mask: LaneMask,
    max_locks: usize,
    mut lock_count: impl FnMut(usize) -> usize,
    mut lock_of: impl FnMut(usize, usize) -> Addr,
) {
    let mut sorted: Vec<Vec<Addr>> = vec![Vec::new(); WARP_SIZE];
    for l in mask.iter() {
        let mut v: Vec<Addr> = (0..lock_count(l)).map(|k| lock_of(l, k)).collect();
        v.sort_unstable();
        v.dedup();
        sorted[l] = v;
    }
    let rounds = mask.iter().map(|l| sorted[l].len()).max().unwrap_or(0).min(max_locks);
    for k in 0..rounds {
        let m = mask.filter(|l| k < sorted[l].len());
        if m.none() {
            break;
        }
        let mut addrs = [Addr::NULL; WARP_SIZE];
        for l in m.iter() {
            addrs[l] = sorted[l][k];
        }
        unlock(ctx, m, &addrs).await;
    }
}

/// Convenience: a non-atomic read-modify-write increment, the classic
/// critical-section body for lock demos (`*addr += delta` per lane).
pub async fn unprotected_add(ctx: &WarpCtx, mask: LaneMask, addrs: &LaneAddrs, delta: u32) {
    let vals = ctx.load(mask, addrs).await;
    let mut upd: LaneVals = [0; WARP_SIZE];
    for l in mask.iter() {
        upd[l] = vals[l] + delta;
    }
    ctx.store(mask, addrs, &upd).await;
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{simt::serialize_lanes, LaunchConfig, Sim, SimConfig, SimError};

    fn sim_with_watchdog(cycles: u64) -> Sim {
        let mut cfg = SimConfig::with_memory(1 << 16);
        cfg.watchdog_cycles = cycles;
        Sim::new(cfg)
    }

    #[test]
    fn scheme1_single_lane_succeeds() {
        let mut s = sim_with_watchdog(1 << 24);
        let lock = GpuMutex::init(&mut s).unwrap();
        s.launch(LaunchConfig::new(1, 32), move |ctx| async move {
            spin_lock_lockstep(&ctx, LaneMask::lane(0), lock).await;
            unlock_one(&ctx, 0, lock).await;
        })
        .unwrap();
        assert_eq!(s.read(lock.0), 0);
    }

    #[test]
    fn scheme1_two_lanes_deadlocks() {
        // The paper's Section 2.2 deadlock: two lanes of one warp compete
        // for a spinlock in lockstep.
        let mut s = sim_with_watchdog(200_000);
        let lock = GpuMutex::init(&mut s).unwrap();
        let err = s
            .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                spin_lock_lockstep(&ctx, LaneMask::first_n(2), lock).await;
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "expected deadlock, got {err:?}");
    }

    #[test]
    fn scheme2_serialization_is_correct_but_serial() {
        let mut s = sim_with_watchdog(1 << 30);
        let lock = GpuMutex::init(&mut s).unwrap();
        let counter = s.alloc(1).unwrap();
        s.launch(LaunchConfig::new(2, 64), move |ctx| async move {
            for turn in serialize_lanes(ctx.id().launch_mask) {
                let lane = turn.leader().unwrap();
                spin_lock_one(&ctx, lane, lock).await;
                // Non-atomic increment, safe only because the lock is held.
                unprotected_add(&ctx, turn, &[counter; WARP_SIZE], 1).await;
                unlock_one(&ctx, lane, lock).await;
            }
        })
        .unwrap();
        assert_eq!(s.read(counter), 128);
    }

    #[test]
    fn scheme3_single_lock_per_thread_succeeds() {
        let mut s = sim_with_watchdog(1 << 30);
        let locks = s.alloc(32).unwrap();
        let data = s.alloc(32).unwrap();
        s.launch(LaunchConfig::new(1, 32), move |ctx| async move {
            // All lanes lock the same pair of... no: each lane its own lock,
            // two lanes per lock to create contention.
            let addrs: LaneAddrs = std::array::from_fn(|l| locks.offset((l / 2) as u32));
            let mut pending = ctx.id().launch_mask;
            while pending.any() {
                let got = try_lock(&ctx, pending, &addrs).await;
                if got.none() {
                    continue;
                }
                let daddrs: LaneAddrs = std::array::from_fn(|l| data.offset((l / 2) as u32));
                unprotected_add(&ctx, got, &daddrs, 1).await;
                unlock(&ctx, got, &addrs).await;
                pending &= !got;
            }
        })
        .unwrap();
        for i in 0..16 {
            assert_eq!(s.read(data.offset(i)), 2, "slot {i}");
        }
    }

    #[test]
    fn scheme3_circular_two_locks_livelocks() {
        // Lane 0 takes (A, B); lane 1 takes (B, A). Lockstep retry
        // re-creates the conflict forever — the paper's livelock.
        let mut s = sim_with_watchdog(300_000);
        let locks = s.alloc(2).unwrap();
        let err = s
            .launch(LaunchConfig::new(1, 32), move |ctx| async move {
                let mut pending = LaneMask::first_n(2);
                while pending.any() {
                    let got = try_lock_multi(
                        &ctx,
                        pending,
                        2,
                        |_| 2,
                        |l, k| {
                            // lane 0: A then B; lane 1: B then A.
                            locks.offset(((l + k) % 2) as u32)
                        },
                    )
                    .await;
                    if got.any() {
                        unlock_sorted(
                            &ctx,
                            got,
                            2,
                            |_| 2,
                            |l, k| locks.offset(((l + k) % 2) as u32),
                        )
                        .await;
                        pending &= !got;
                    }
                }
            })
            .unwrap_err();
        assert!(matches!(err, SimError::Livelock { .. }), "expected livelock, got {err:?}");
    }

    #[test]
    fn sorted_two_locks_complete() {
        // Identical contention, but sorted acquisition: finishes.
        let mut s = sim_with_watchdog(1 << 30);
        let locks = s.alloc(2).unwrap();
        let done = s.alloc(1).unwrap();
        s.launch(LaunchConfig::new(1, 32), move |ctx| async move {
            let mut pending = LaneMask::first_n(2);
            while pending.any() {
                let got = try_lock_sorted(
                    &ctx,
                    pending,
                    2,
                    |_| 2,
                    |l, k| locks.offset(((l + k) % 2) as u32),
                )
                .await;
                if got.any() {
                    ctx.atomic_add_uniform(got, done, 1).await;
                    unlock_sorted(&ctx, got, 2, |_| 2, |l, k| locks.offset(((l + k) % 2) as u32))
                        .await;
                    pending &= !got;
                }
            }
        })
        .unwrap();
        assert_eq!(s.read(done), 2);
        assert_eq!(s.read(locks), 0);
        assert_eq!(s.read(locks.offset(1)), 0);
    }

    #[test]
    fn try_lock_multi_rolls_back_on_failure() {
        let mut s = sim_with_watchdog(1 << 24);
        let locks = s.alloc(4).unwrap();
        // Pre-hold lock 2 so lane 0 (wanting 0,1,2) fails after taking 0,1.
        s.write(locks.offset(2), 1);
        s.launch(LaunchConfig::new(1, 32), move |ctx| async move {
            let got =
                try_lock_multi(&ctx, LaneMask::lane(0), 3, |_| 3, |_, k| locks.offset(k as u32))
                    .await;
            assert!(got.none());
        })
        .unwrap();
        // Locks 0 and 1 must have been released.
        assert_eq!(s.read(locks.offset(0)), 0);
        assert_eq!(s.read(locks.offset(1)), 0);
        assert_eq!(s.read(locks.offset(2)), 1);
    }
}
