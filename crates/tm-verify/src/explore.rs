//! Dynamic partial-order reduction over the schedule space.
//!
//! The explorer repeatedly runs a *model* — a closure that executes one
//! complete simulation under a given [`PolicyHandle`] and reports the
//! checked outcome — under different [`Schedule`]s. After each run it
//! performs a happens-before analysis of the visible memory trace
//! (program order + conflict edges, per the independence relation of
//! [`StepEffect::conflicts`](gpu_sim::StepEffect::conflicts)) and, for
//! every *racing pair* of events whose order is not already forced,
//! queues a backtrack schedule that flips the pair. Done-sets (the
//! persistent-set bookkeeping) and schedule/trace hashing keep the search
//! from revisiting equivalent interleavings; iterative preemption
//! bounding (CHESS) explores all 0-preemption schedules, then 1, then 2…
//! so the cheapest witnesses surface first.

use crate::controller::{Controller, Event, FootprintFilter, ForcedChoice, Schedule, WarpKey};
use gpu_sim::{Fnv, PolicyHandle};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Classification of a property violation found in one explored run.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// The recorded transaction history is not opaque-serializable.
    Opacity,
    /// The happens-before race detector flagged unordered conflicting
    /// non-speculative accesses.
    Race,
    /// Final device memory disagrees with the committed history.
    FinalState,
    /// The workload's own invariant did not hold.
    Invariant,
    /// The run deadlocked (no progress, memory quiescent).
    Deadlock,
    /// The run livelocked (no progress, memory still churning).
    Livelock,
    /// Any other simulator-level failure.
    Sim,
}

impl ViolationKind {
    /// Whether this is a progress failure (deadlock or livelock). The two
    /// are a heuristic split of the same watchdog signal — "was device
    /// memory still churning when the stall fired" — and can flip into
    /// each other under small schedule perturbations.
    pub fn is_progress_failure(self) -> bool {
        matches!(self, ViolationKind::Deadlock | ViolationKind::Livelock)
    }

    /// Whether a violation of kind `other` counts as reproducing this
    /// one: exact match, except the two progress-failure kinds are
    /// interchangeable.
    pub fn matches(self, other: ViolationKind) -> bool {
        self == other || (self.is_progress_failure() && other.is_progress_failure())
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::Opacity => "opacity",
            ViolationKind::Race => "race",
            ViolationKind::FinalState => "final-state",
            ViolationKind::Invariant => "invariant",
            ViolationKind::Deadlock => "deadlock",
            ViolationKind::Livelock => "livelock",
            ViolationKind::Sim => "sim",
        };
        f.write_str(s)
    }
}

/// One violation reported by the model for one run.
#[derive(Clone, Debug)]
pub struct ModelViolation {
    /// What property failed.
    pub kind: ViolationKind,
    /// Human-readable detail.
    pub message: String,
}

/// The checked outcome of one complete run of the model.
#[derive(Clone, Debug, Default)]
pub struct ModelOutcome {
    /// Violations found by the end-of-run checkers.
    pub violations: Vec<ModelViolation>,
    /// Hash of the observable terminal state (for state dedup).
    pub state_hash: u64,
    /// Set when the variant cannot run this configuration at all.
    pub unsupported: Option<String>,
}

/// A violation together with the schedule that produced it.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The violation.
    pub violation: ModelViolation,
    /// The forced-choice schedule reproducing it.
    pub schedule: Schedule,
    /// Preemptions that schedule charges.
    pub preemptions: u32,
}

/// Exploration limits and options.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Preemption bound: schedules charging more are not run.
    pub max_preemptions: u32,
    /// Hard cap on runs (0 = unlimited); exceeding it sets
    /// [`ExploreStats::cap_hit`].
    pub max_schedules: u64,
    /// Stop as soon as the first finding is recorded (witness hunting).
    pub stop_on_finding: bool,
    /// Optional per-warp private-region filter from the TXL footprint
    /// analysis.
    pub footprints: Option<FootprintFilter>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_preemptions: 2,
            max_schedules: 10_000,
            stop_on_finding: false,
            footprints: None,
        }
    }
}

/// Counters describing one exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Schedules actually executed.
    pub schedules_run: u64,
    /// Runs whose visible trace had been seen before (checks skipped).
    pub traces_deduped: u64,
    /// Distinct traces that still reached an already-seen terminal state.
    pub states_deduped: u64,
    /// Backtrack schedules queued for execution. This also counts
    /// schedules queued below the bound being explored, into a bucket
    /// that has already drained; those never run.
    pub backtracks_queued: u64,
    /// Backtracks dropped for exceeding the preemption bound.
    pub backtracks_deferred: u64,
    /// Backtrack candidates pruned by done-sets (sleep-set analogue).
    pub sleep_pruned: u64,
    /// Backtracks dropped because the schedule itself was already seen.
    pub schedules_deduped: u64,
    /// Memory events demoted to invisible by the footprint filter.
    pub footprint_invisible_events: u64,
    /// Runs where a forced choice failed to replay (should stay 0).
    pub diverged: u64,
    /// Longest visible trace observed.
    pub max_trace_len: usize,
    /// Whether `max_schedules` stopped the search early.
    pub cap_hit: bool,
}

/// The result of an exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Search counters.
    pub stats: ExploreStats,
    /// Violations found, each with its reproducing schedule. Deduped by
    /// terminal state: one representative schedule per distinct bad state.
    pub findings: Vec<Finding>,
    /// Set when the very first run reported the configuration unsupported.
    pub unsupported: Option<String>,
}

impl ExploreReport {
    /// Whether the explored space is violation-free.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn effect_tag(e: &gpu_sim::StepEffect) -> u32 {
    use gpu_sim::StepEffect::*;
    match e {
        Local => 0,
        Load(_) => 1,
        Store(_) => 2,
        Atomic(_) => 3,
        Fence => 4,
        Retire => 5,
    }
}

fn trace_hash(trace: &[Event]) -> u64 {
    let mut h = Fnv::new();
    for e in trace {
        h.u32(e.warp.0);
        h.u32(e.warp.1);
        h.u32(effect_tag(&e.effect));
        for a in e.effect.addrs() {
            h.u32(a.0);
        }
    }
    h.finish()
}

fn absorb_choice(h: &mut Fnv, c: &ForcedChoice) {
    h.u64(c.decision);
    h.u32(c.warp.0);
    h.u32(c.warp.1);
}

fn schedule_hash(choices: &[ForcedChoice]) -> u64 {
    let mut h = Fnv::new();
    for c in choices {
        absorb_choice(&mut h, c);
    }
    h.finish()
}

/// Explores the model's schedule space and reports findings + statistics.
///
/// `run` executes one full simulation under the given policy handle and
/// returns its checked outcome; it must be deterministic given the
/// schedule (fresh simulator per call, same allocation order).
pub fn explore(
    cfg: &ExploreConfig,
    mut run: impl FnMut(PolicyHandle) -> ModelOutcome,
) -> ExploreReport {
    let mut stats = ExploreStats::default();
    let mut findings: Vec<Finding> = Vec::new();
    let mut unsupported = None;

    let nbounds = cfg.max_preemptions as usize + 1;
    // One queue per preemption count; the bucket index is the charge.
    let mut pending: Vec<VecDeque<Schedule>> = (0..nbounds).map(|_| VecDeque::new()).collect();
    pending[0].push_back(Schedule::default());

    let mut seen_schedules: HashSet<u64> = HashSet::new();
    seen_schedules.insert(schedule_hash(&[]));
    let mut seen_traces: HashSet<u64> = HashSet::new();
    let mut seen_states: HashSet<u64> = HashSet::new();
    // Persistent-set bookkeeping: for each (forced prefix, decision)
    // pair, the warps already scheduled there.
    let mut done_sets: HashMap<u64, HashSet<WarpKey>> = HashMap::new();

    'bounds: for bound in 0..nbounds {
        while let Some(p) = pending[bound].pop_front() {
            if cfg.max_schedules > 0 && stats.schedules_run >= cfg.max_schedules {
                stats.cap_hit = true;
                break 'bounds;
            }
            let ctl = Rc::new(RefCell::new(Controller::new(p, cfg.footprints.clone())));
            let outcome = run(PolicyHandle::shared(ctl.clone()));
            stats.schedules_run += 1;

            let ctl = ctl.borrow();
            stats.footprint_invisible_events += ctl.invisible_pruned;
            stats.max_trace_len = stats.max_trace_len.max(ctl.trace.len());
            if ctl.diverged {
                stats.diverged += 1;
            }
            if let Some(u) = outcome.unsupported {
                // The model cannot run this configuration at all; the
                // very first run already tells us.
                unsupported = Some(u);
                break 'bounds;
            }

            if !seen_traces.insert(trace_hash(&ctl.trace)) {
                stats.traces_deduped += 1;
                continue;
            }
            if seen_states.insert(outcome.state_hash) {
                for v in outcome.violations {
                    // Witness with the canonical (diverging-only) choice
                    // list: it replays identically and is far shorter
                    // than the raw accumulated schedule.
                    findings.push(Finding {
                        violation: v,
                        schedule: Schedule { choices: ctl.effective.clone() },
                        preemptions: ctl.preemptions(),
                    });
                }
                if cfg.stop_on_finding && !findings.is_empty() {
                    break 'bounds;
                }
            } else {
                stats.states_deduped += 1;
            }

            generate_backtracks(
                &ctl,
                &mut stats,
                &mut pending,
                &mut seen_schedules,
                &mut done_sets,
            );
        }
    }

    ExploreReport { stats, findings, unsupported }
}

/// Every racing pair `(i, j)`, `i < j`, of the trace: events of different
/// warps that conflict and are not already ordered by happens-before
/// (program order plus earlier conflict edges). Pairs come grouped by
/// ascending `j` and, within one `j`, by descending `i`.
///
/// One pass in trace order. Of one warp's earlier events, only the newest
/// that conflicts with `j` can race it: every older one is ordered before
/// it by program order, so it is covered as soon as the newest is joined
/// or found covered. Joining a clock that already covers an event changes
/// nothing, so clocks are joined on races only. That newest conflicting
/// event is found from a few
/// per-warp and per-address "last event" slots, and coverage is one clock
/// entry compare: a clock covers event `i` exactly when its entry for
/// `i`'s warp reaches `i`'s position within that warp.
///
/// The trace holds memory events only (`Load`, `Store`, `Atomic`,
/// `Fence`), as the [`Controller`] records it.
fn races(trace: &[Event]) -> Vec<(usize, usize)> {
    use gpu_sim::StepEffect::{Fence, Load};

    // Dense warp indices, in order of first appearance.
    let mut warps: Vec<WarpKey> = Vec::new();
    let wix: Vec<usize> = trace
        .iter()
        .map(|e| {
            warps.iter().position(|&k| k == e.warp).unwrap_or_else(|| {
                warps.push(e.warp);
                warps.len() - 1
            })
        })
        .collect();
    let nw = warps.len();

    // All "last event" slots hold an event index + 1, with 0 for none.
    // `clocks[j * nw..][..nw]`: event j's HB clock including j itself.
    let mut clocks: Vec<u64> = vec![0; trace.len() * nw];
    // Per warp: its last event and its last fence.
    let mut last = vec![0usize; nw];
    let mut last_fence = vec![0usize; nw];
    // Per address slot × warp: its last write and its last access.
    let mut addr_slot: HashMap<gpu_sim::Addr, usize> = HashMap::new();
    let mut last_write: Vec<usize> = Vec::new();
    let mut last_access: Vec<usize> = Vec::new();

    let mut slots: Vec<usize> = Vec::new();
    let mut cands: Vec<usize> = Vec::with_capacity(nw);
    let mut acc: Vec<u64> = vec![0; nw];
    let mut out: Vec<(usize, usize)> = Vec::new();

    for (j, e) in trace.iter().enumerate() {
        let wj = wix[j];
        slots.clear();
        for a in e.effect.addrs() {
            let next = addr_slot.len();
            let s = *addr_slot.entry(*a).or_insert(next);
            if s == next {
                last_write.resize(last_write.len() + nw, 0);
                last_access.resize(last_access.len() + nw, 0);
            }
            slots.push(s);
        }
        let newest_or_fence = |table: &[usize], w: usize| {
            slots.iter().map(|s| table[s * nw + w]).max().unwrap_or(0).max(last_fence[w])
        };

        // Each other warp's newest event conflicting with j, newest first.
        cands.clear();
        for w in (0..nw).filter(|&w| w != wj) {
            let c = match e.effect {
                Fence => last[w],
                Load(_) => newest_or_fence(&last_write, w),
                _ => newest_or_fence(&last_access, w),
            };
            if c != 0 {
                cands.push(c - 1);
            }
        }
        cands.sort_unstable_by(|a, b| b.cmp(a));

        match last[wj] {
            0 => acc.fill(0),
            p => acc.copy_from_slice(&clocks[(p - 1) * nw..p * nw]),
        }
        for &i in &cands {
            let post = &clocks[i * nw..(i + 1) * nw];
            if acc[wix[i]] < post[wix[i]] {
                out.push((i, j));
                for (x, y) in acc.iter_mut().zip(post) {
                    *x = (*x).max(*y);
                }
            }
        }
        acc[wj] += 1;
        clocks[j * nw..(j + 1) * nw].copy_from_slice(&acc);

        last[wj] = j + 1;
        if matches!(e.effect, Fence) {
            last_fence[wj] = j + 1;
        }
        for s in &slots {
            last_access[s * nw + wj] = j + 1;
            if e.effect.writes() {
                last_write[s * nw + wj] = j + 1;
            }
        }
    }
    out
}

/// Happens-before analysis of one executed trace; every racing pair
/// spawns a backtrack schedule flipping it.
fn generate_backtracks(
    ctl: &Controller,
    stats: &mut ExploreStats,
    pending: &mut [VecDeque<Schedule>],
    seen_schedules: &mut HashSet<u64>,
    done_sets: &mut HashMap<u64, HashSet<WarpKey>>,
) {
    let trace = &ctl.trace;
    if trace.is_empty() {
        return;
    }
    let races = races(trace);

    // `ctl.effective` is recorded in decision order, so the choices before
    // decision d are a leading slice of it. `prefix_hash[k]` is the hasher
    // state after its first k choices.
    let effective = &ctl.effective;
    let mut prefix_hash = Vec::with_capacity(effective.len() + 1);
    let mut h = Fnv::new();
    prefix_hash.push(h);
    for c in effective {
        absorb_choice(&mut h, c);
        prefix_hash.push(h);
    }

    for (i, j) in races {
        let d = trace[i].decision;
        let rec = &ctl.decisions[d as usize];
        let wj = trace[j].warp;
        let k = effective.partition_point(|c| c.decision < d);
        let done_key = {
            let mut h = Fnv::new();
            h.u64(prefix_hash[k].finish());
            h.u64(d);
            h.finish()
        };
        let done = done_sets.entry(done_key).or_insert_with(|| HashSet::from([rec.chosen]));
        // Schedule the second event's warp at the first event's decision
        // point; if it was somehow not runnable there, fall back to every
        // alternative (classic DPOR's pessimistic backtrack set).
        let only_wj = rec.runnable.contains(&wj);
        let candidates =
            rec.runnable
                .iter()
                .copied()
                .filter(|&w| if only_wj { w == wj } else { w != rec.chosen });
        for w in candidates {
            if !done.insert(w) {
                stats.sleep_pruned += 1;
                continue;
            }
            let choice = ForcedChoice { decision: d, warp: w };
            let mut h = prefix_hash[k];
            absorb_choice(&mut h, &choice);
            if !seen_schedules.insert(h.finish()) {
                stats.schedules_deduped += 1;
                continue;
            }
            // Mirrors the controller's charging rule: a switch away from
            // a runnable current warp, or any deviation from the
            // round-robin target at an involuntary yield (the fairness
            // charge), costs one.
            let extra = match rec.current_before {
                Some(c) if !rec.spin_yield => u32::from(c != w && rec.runnable.contains(&c)),
                Some(_) => u32::from(w != rec.default_choice),
                None => 0,
            };
            let preemptions = rec.preemptions_before + extra;
            if (preemptions as usize) < pending.len() {
                let mut choices = Vec::with_capacity(k + 1);
                choices.extend_from_slice(&effective[..k]);
                choices.push(choice);
                pending[preemptions as usize].push_back(Schedule { choices });
                stats.backtracks_queued += 1;
            } else {
                stats.backtracks_deferred += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{splitmix64, StepEffect};

    #[test]
    fn trace_hash_distinguishes_orders() {
        let load = |w: u32| Event {
            warp: (0, w),
            effect: StepEffect::Store(vec![gpu_sim::Addr(5)]),
            decision: 0,
        };
        let t1 = [load(0), load(1)];
        let t2 = [load(1), load(0)];
        assert_ne!(trace_hash(&t1), trace_hash(&t2));
    }

    /// The reference race pass: for every event, scan all earlier events
    /// newest first, accumulating the clocks of conflicting ones; an
    /// event not already covered by the accumulator races.
    fn quadratic_races(trace: &[Event]) -> Vec<(usize, usize)> {
        type Clock = Vec<u64>;
        let mut warp_ix: HashMap<WarpKey, usize> = HashMap::new();
        for e in trace {
            let n = warp_ix.len();
            warp_ix.entry(e.warp).or_insert(n);
        }
        let nwarps = warp_ix.len();
        let mut warp_clock: Vec<Clock> = vec![vec![0; nwarps]; nwarps];
        let mut post: Vec<Clock> = Vec::with_capacity(trace.len());
        let mut races = Vec::new();
        for j in 0..trace.len() {
            let wj = warp_ix[&trace[j].warp];
            let mut acc = warp_clock[wj].clone();
            for i in (0..j).rev() {
                if trace[i].warp == trace[j].warp || !trace[i].effect.conflicts(&trace[j].effect) {
                    continue;
                }
                if !post[i].iter().zip(&acc).all(|(x, y)| x <= y) {
                    races.push((i, j));
                }
                for (x, y) in acc.iter_mut().zip(&post[i]) {
                    *x = (*x).max(*y);
                }
            }
            acc[wj] += 1;
            warp_clock[wj] = acc.clone();
            post.push(acc);
        }
        races
    }

    fn random_trace(seed: u64) -> Vec<Event> {
        let mut st = seed;
        let nwarps = 2 + splitmix64(&mut st) % 5;
        let len = splitmix64(&mut st) % 401;
        (0..len)
            .map(|d| {
                let w = (splitmix64(&mut st) % nwarps) as u32;
                let mut addrs: Vec<gpu_sim::Addr> = (0..splitmix64(&mut st) % 4)
                    .map(|_| gpu_sim::Addr((splitmix64(&mut st) % 8) as u32))
                    .collect();
                addrs.sort_unstable();
                addrs.dedup();
                let effect = match splitmix64(&mut st) % 4 {
                    0 => StepEffect::Load(addrs),
                    1 => StepEffect::Store(addrs),
                    2 => StepEffect::Atomic(addrs),
                    _ => StepEffect::Fence,
                };
                Event { warp: (w / 2, w % 2), effect, decision: d }
            })
            .collect()
    }

    #[test]
    fn linear_race_pass_matches_the_quadratic_reference() {
        let mut total = 0;
        for seed in 0..2000 {
            let trace = random_trace(seed);
            let want = quadratic_races(&trace);
            assert_eq!(races(&trace), want, "seed {seed}");
            total += want.len();
        }
        assert!(total > 10_000, "random traces raced too rarely: {total}");
    }

    #[test]
    fn transitively_ordered_pairs_do_not_race() {
        use gpu_sim::Addr;
        let ev = |w: u32, effect: StepEffect| Event { warp: (0, w), effect, decision: 0 };
        // w0 writes x, w1 reads x then writes y, w2 reads y then reads x:
        // w2's read of x is ordered after w0's write through w1, and
        // w0's closing fence, racing w2's last read, covers w1 through it.
        let trace = [
            ev(0, StepEffect::Store(vec![Addr(1)])),
            ev(1, StepEffect::Load(vec![Addr(1)])),
            ev(1, StepEffect::Store(vec![Addr(2)])),
            ev(2, StepEffect::Load(vec![Addr(2)])),
            ev(2, StepEffect::Load(vec![Addr(1)])),
            ev(0, StepEffect::Fence),
        ];
        assert_eq!(races(&trace), vec![(0, 1), (2, 3), (4, 5)]);
        assert_eq!(races(&trace), quadratic_races(&trace));
    }
}
