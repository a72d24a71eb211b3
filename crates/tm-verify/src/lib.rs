//! # tm-verify — stateless model checking of the GPU-STM runtime
//!
//! The rest of the workspace tests the STM variants under the simulator's
//! *default* schedule (plus fault-injection shuffles). This crate asks
//! the stronger question: does a property hold under **every** relevantly
//! different warp interleaving?
//!
//! It drives the simulator through the
//! [`SchedulePolicy`](gpu_sim::SchedulePolicy) hook with a
//! forced-choice [`Schedule`], explores the schedule space with **dynamic
//! partial-order reduction** (happens-before race analysis over the
//! visible memory trace, done-set pruning, trace/state dedup) under
//! **iterative preemption bounding**, and checks every explored terminal
//! state with the `tm-check` opacity replayer, the simulator's
//! happens-before race detector, and per-workload invariants. The TXL
//! footprint analysis ([`txl::thread_footprint`]) supplies provably
//! private address regions whose accesses the explorer never branches
//! on. Violating schedules serialize to replayable `.sched` files and
//! shrink with a ddmin-style minimizer.
//!
//! ## Quick start
//!
//! ```
//! use tm_verify::{verify, VerifyConfig, Workload};
//! use workloads::Variant;
//!
//! let cfg = VerifyConfig {
//!     litmus: tm_verify::Litmus::new(Workload::Stripes, Variant::HvSorting, 2, 1),
//!     max_preemptions: 1,
//!     max_schedules: 200,
//!     stop_on_finding: false,
//! };
//! let report = verify(&cfg);
//! assert!(report.is_clean());
//! assert!(report.stats.schedules_run >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod explore;
pub mod litmus;
pub mod sched;
pub mod witness;

pub use controller::{
    Controller, DecisionRecord, Event, FootprintFilter, ForcedChoice, Schedule, WarpKey,
    SPIN_YIELD_STEPS,
};
pub use explore::{
    explore, ExploreConfig, ExploreReport, ExploreStats, Finding, ModelOutcome, ModelViolation,
    ViolationKind,
};
pub use gpu_sim::Fnv;
pub use litmus::{footprint_filter, model, run_once, Litmus, Workload, STRIPES_SRC};
pub use sched::{minimize, parse, serialize, HEADER};
pub use witness::{
    explore_case, finding_to_witness, footprint_order, minimize_case_finding, replay_case,
    run_case, save_witness, unsorted_locks, witness_reproduces, witness_rule, TxlCase,
    WitnessProvenance,
};

use gpu_sim::PolicyHandle;
use std::cell::RefCell;
use std::rc::Rc;

/// A complete verification request: a litmus instance plus exploration
/// limits.
#[derive(Copy, Clone, Debug)]
pub struct VerifyConfig {
    /// The workload/variant/geometry/mutation under test.
    pub litmus: Litmus,
    /// Preemption bound (CHESS-style iterative bounding).
    pub max_preemptions: u32,
    /// Hard cap on schedules run (0 = unlimited).
    pub max_schedules: u64,
    /// Return on the first finding instead of exploring everything.
    pub stop_on_finding: bool,
}

/// Explores the litmus instance's schedule space and reports findings
/// and exploration statistics. The footprint filter is attached
/// automatically whenever the workload's TXL analysis proves per-actor
/// disjointness.
pub fn verify(cfg: &VerifyConfig) -> ExploreReport {
    let ecfg = ExploreConfig {
        max_preemptions: cfg.max_preemptions,
        max_schedules: cfg.max_schedules,
        stop_on_finding: cfg.stop_on_finding,
        footprints: footprint_filter(&cfg.litmus),
    };
    explore(&ecfg, model(cfg.litmus))
}

/// Replays one schedule against the litmus instance and returns the
/// checked outcome — the consumer of `.sched` repro files.
pub fn replay(litmus: &Litmus, schedule: &Schedule) -> ModelOutcome {
    let ctl = Rc::new(RefCell::new(Controller::new(schedule.clone(), footprint_filter(litmus))));
    run_once(litmus, Some(PolicyHandle::shared(ctl)))
}

/// Shrinks a finding's schedule to a 1-minimal reproduction: a forced
/// choice survives only if removing it loses the violation kind (per
/// [`ViolationKind::matches`], so deadlock/livelock reclassification
/// under shrinking does not block progress).
pub fn minimize_finding(litmus: &Litmus, finding: &Finding) -> Schedule {
    let kind = finding.violation.kind;
    sched::minimize(&finding.schedule, |s| {
        replay(litmus, s).violations.iter().any(|v| kind.matches(v.kind))
    })
}

/// Renders a finding as `.sched` text with full provenance metadata.
pub fn finding_to_sched(litmus: &Litmus, finding: &Finding, schedule: &Schedule) -> String {
    let m = litmus.mutation;
    let meta = vec![
        ("workload".to_string(), litmus.workload.name().to_string()),
        ("variant".to_string(), litmus.variant.short_name().to_string()),
        ("blocks".to_string(), litmus.blocks.to_string()),
        ("warps_per_block".to_string(), litmus.warps_per_block.to_string()),
        (
            "mutation".to_string(),
            format!(
                "skip_validation={} unsorted_locks={} late_writeback={}",
                m.skip_validation, m.unsorted_locks, m.late_writeback
            ),
        ),
        ("blocking".to_string(), format!("lost_wakeup={}", litmus.blocking.lost_wakeup)),
        ("violation".to_string(), finding.violation.kind.to_string()),
        ("preemptions".to_string(), finding.preemptions.to_string()),
    ];
    sched::serialize(schedule, &meta)
}
