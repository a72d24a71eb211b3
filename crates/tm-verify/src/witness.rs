//! TXL witness cases: schedule exploration of TXL programs, mapping
//! model-checker findings back to lint rules, and replaying serialized
//! `.sched` witnesses against (possibly repaired) sources.
//!
//! The litmus workloads ([`crate::litmus`]) exercise the STM *runtime*;
//! a [`TxlCase`] instead explores a buggy TXL *program* — the same
//! programs `txl lint` flags statically and `txl fix` repairs. Each case
//! is tagged with the lint rule its seeded bug corresponds to, so a
//! minimized schedule serializes to a `.sched` witness carrying
//! `meta rule TLnnn` provenance. The repair loop closes the circle:
//! after `txl fix` rewrites the source, [`witness_reproduces`] replays
//! the witness against the repaired program and must come back `false`.

use crate::controller::Controller;
use crate::explore::{
    explore, ExploreConfig, ExploreReport, Finding, ModelOutcome, ModelViolation, ViolationKind,
};
use crate::{sched, Schedule};
use gpu_sim::{race_sink, Fnv, PolicyHandle, Sim, SimConfig, SimError};
use gpu_stm::Mutation;
use std::cell::RefCell;
use std::rc::Rc;

/// Simulated-cycle budget per explored run.
const WATCHDOG_CYCLES: u64 = 20_000_000;
/// No-progress limit: spinning-on-a-dead-lock classifies as a
/// deadlock/livelock after this many quiescent cycles.
const STALL_CYCLES: u64 = 150_000;
/// Device words allocated for witness runs.
const MEM_WORDS: usize = 1 << 16;
/// Version locks configured for witness runs.
const N_LOCKS: u32 = 64;
/// RNG seed for `rand()` in explored TXL programs (fixed: runs must be
/// deterministic given the schedule).
const SEED: u64 = 7;

/// A TXL program under schedule exploration, tagged with the lint rule
/// its seeded bug corresponds to.
#[derive(Clone, Debug)]
pub struct TxlCase {
    /// Stable case name (serialized as `meta case`).
    pub name: String,
    /// TXL source; the first kernel is explored.
    pub source: String,
    /// Lint rule id the seeded bug maps to (serialized as `meta rule`),
    /// e.g. `TL002`.
    pub rule: String,
    /// TXL threads. The case runs one single-thread block per TXL thread
    /// so thread ids map 1:1 onto `(block, 0)` warp keys.
    pub threads: u32,
    /// Seeded STM [`Mutation`] the case runs under (all-off for cases
    /// whose bug lives in the program itself, like [`unsorted_locks`]).
    /// Cases whose lint rule guards against a *weakened* STM — TL005's
    /// footprint-order inversion only deadlocks when lock sorting is
    /// disabled — seed the corresponding mutant here.
    pub mutation: Mutation,
}

impl TxlCase {
    /// Returns `self` with a different source — how the repair loop
    /// builds the post-fix replay case.
    pub fn with_source(&self, source: impl Into<String>) -> TxlCase {
        TxlCase { source: source.into(), ..self.clone() }
    }
}

/// The crossing-lock-acquisition case: a two-thread rendition of the
/// `unsorted_locks_bug.txl` fixture. Thread 0 acquires `lock[0]` then
/// `lock[1]`; thread 1 acquires them in the opposite order — the classic
/// deadlock shape rule `TL002` flags statically (paper §2: lock sorting
/// exists precisely to forbid this).
pub fn unsorted_locks() -> TxlCase {
    TxlCase {
        name: "unsorted-locks".to_string(),
        source: "kernel locks(lock: array[2], data: array[2]) {
    let a = tid() % 2;
    let b = 1 - a;
    while lock[a] { }
    lock[a] = 1;
    while lock[b] { }
    lock[b] = 1;
    data[a] = data[a] + 1;
    lock[b] = 0;
    lock[a] = 0;
}"
        .to_string(),
        rule: "TL002".to_string(),
        threads: 2,
        mutation: Mutation::default(),
    }
}

/// The conflicting-footprint-order case: two transfer transactions whose
/// footprints overlap on both arrays but first-touch them in inverted
/// order — the shape rule `TL005` flags statically. A sorting STM
/// tolerates it; under the `unsorted_locks` mutant (blocking
/// encounter-order commit locking, the discipline the paper's lock
/// sorting exists to forbid) the crossed orders deadlock. `txl fix`
/// reorders the second block's body, after which even the mutant STM
/// acquires both stripes in one order and the witness dies.
pub fn footprint_order() -> TxlCase {
    TxlCase {
        name: "footprint-order".to_string(),
        source: "kernel transfer(from: array, into: array) {
    atomic {
        from[0] = from[0] - 1;
        into[0] = into[0] + 1;
    }
    atomic {
        into[0] = into[0] - 1;
        from[0] = from[0] + 1;
    }
}"
        .to_string(),
        rule: "TL005".to_string(),
        threads: 2,
        mutation: Mutation { unsorted_locks: true, ..Mutation::default() },
    }
}

/// Executes one complete run of the case under an optional schedule
/// policy and returns the checked outcome (progress failures, opacity of
/// the recorded history, happens-before races, terminal-state hash).
pub fn run_case(case: &TxlCase, policy: Option<PolicyHandle>) -> ModelOutcome {
    let program = match txl::compile(&case.source) {
        Ok(p) => p,
        Err(e) => {
            return outcome_for_error(ViolationKind::Sim, format!("case does not compile: {e}"))
        }
    };
    let Some(kernel) = program.kernels.first() else {
        return outcome_for_error(ViolationKind::Sim, "case has no kernels".to_string());
    };

    let mut sim_cfg = SimConfig::with_memory(MEM_WORDS);
    sim_cfg.watchdog_cycles = WATCHDOG_CYCLES;
    sim_cfg.stall_cycles = STALL_CYCLES;
    let sink = race_sink();
    sim_cfg.race = Some(sink.clone());
    sim_cfg.schedule = policy;
    let mut sim = Sim::new(sim_cfg);

    let stm_cfg = gpu_stm::StmConfig::new(N_LOCKS);
    let shared = match gpu_stm::StmShared::init(&mut sim, &stm_cfg) {
        Ok(s) => s,
        Err(e) => return outcome_for_error(ViolationKind::Sim, e.to_string()),
    };
    let rec = gpu_stm::recorder();
    let stm = Rc::new(
        gpu_stm::LockStm::hv_sorting(shared, stm_cfg)
            .with_mutation(case.mutation)
            .with_recorder(rec.clone()),
    );

    let fp = txl::kernel_footprint(
        kernel,
        txl::Interval::new(0, case.threads.saturating_sub(1)),
        case.threads,
    );
    let mut bindings = Vec::new();
    let mut data = Vec::new();
    for (pi, p) in kernel.params.iter().enumerate() {
        let len = p
            .declared_len
            .or_else(|| match fp.params[pi].touched() {
                Some(hull) if !hull.is_top() && hull.hi < 4096 => Some(hull.hi + 1),
                _ => None,
            })
            .unwrap_or(case.threads.max(1))
            .max(1);
        let addr = match sim.alloc(len) {
            Ok(a) => a,
            Err(e) => return outcome_for_error(ViolationKind::Sim, e.to_string()),
        };
        bindings.push(txl::ArrayBinding::new(p.name.clone(), addr, len));
        data.push((addr, len));
    }

    let grid = gpu_sim::LaunchConfig::new(case.threads.max(1), 1);
    let mut violations = Vec::new();
    match txl::launch(&mut sim, &stm, kernel, grid, SEED, &bindings) {
        Ok(_) => {
            for v in tm_check::check_history(&rec.borrow(), |_| 0).violations {
                violations
                    .push(ModelViolation { kind: ViolationKind::Opacity, message: v.to_string() });
            }
        }
        Err(txl::TxlError::Sim(e)) => {
            let kind = match &e {
                SimError::Deadlock { .. } => ViolationKind::Deadlock,
                SimError::Livelock { .. } => ViolationKind::Livelock,
                _ => ViolationKind::Sim,
            };
            violations.push(ModelViolation { kind, message: e.to_string() });
        }
        Err(other) => {
            violations
                .push(ModelViolation { kind: ViolationKind::Sim, message: other.to_string() });
        }
    }
    for v in tm_check::races_to_violations(&sink.borrow().races) {
        violations.push(ModelViolation { kind: ViolationKind::Race, message: v.to_string() });
    }

    let mut h = Fnv::new();
    for &(addr, len) in &data {
        for i in 0..len {
            h.u32(sim.read(addr.offset(i)));
        }
    }
    for v in &violations {
        h.str(&v.message);
    }
    ModelOutcome { violations, state_hash: h.finish(), unsupported: None }
}

fn outcome_for_error(kind: ViolationKind, message: String) -> ModelOutcome {
    let mut h = Fnv::new();
    h.str(&message);
    ModelOutcome {
        violations: vec![ModelViolation { kind, message }],
        state_hash: h.finish(),
        unsupported: None,
    }
}

/// Explores the case's schedule space under iterative preemption
/// bounding. No footprint filter: witness cases are conflicting by
/// construction.
pub fn explore_case(case: &TxlCase, max_preemptions: u32, max_schedules: u64) -> ExploreReport {
    let cfg =
        ExploreConfig { max_preemptions, max_schedules, stop_on_finding: false, footprints: None };
    let c = case.clone();
    explore(&cfg, move |policy| run_case(&c, Some(policy)))
}

/// Replays one schedule against the case — the consumer of witness
/// `.sched` files.
pub fn replay_case(case: &TxlCase, schedule: &Schedule) -> ModelOutcome {
    let ctl = Rc::new(RefCell::new(Controller::new(schedule.clone(), None)));
    run_case(case, Some(PolicyHandle::shared(ctl)))
}

/// Shrinks a finding's schedule to a 1-minimal reproduction (per
/// [`ViolationKind::matches`], so deadlock/livelock reclassification
/// under shrinking does not block progress).
pub fn minimize_case_finding(case: &TxlCase, finding: &Finding) -> Schedule {
    let kind = finding.violation.kind;
    sched::minimize(&finding.schedule, |s| {
        replay_case(case, s).violations.iter().any(|v| kind.matches(v.kind))
    })
}

/// Renders a finding as `.sched` witness text carrying the case name and
/// the lint rule the bug maps to.
pub fn finding_to_witness(case: &TxlCase, finding: &Finding, schedule: &Schedule) -> String {
    let meta = vec![
        ("case".to_string(), case.name.clone()),
        ("rule".to_string(), case.rule.clone()),
        ("threads".to_string(), case.threads.to_string()),
        ("violation".to_string(), finding.violation.kind.to_string()),
        ("preemptions".to_string(), finding.preemptions.to_string()),
    ];
    sched::serialize(schedule, &meta)
}

/// Extracts the `rule` metadata a witness carries, if any.
pub fn witness_rule(meta: &[(String, String)]) -> Option<&str> {
    meta.iter().find(|(k, _)| k == "rule").map(|(_, v)| v.as_str())
}

/// Provenance of a saved `.sched` witness: what it proves and where it
/// lives. Observability layers attach this to incident bundles so a
/// model-checker violation in a post-mortem links straight back to its
/// minimized reproduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessProvenance {
    /// Case name (`meta case` in the witness file).
    pub case: String,
    /// Lint rule the seeded bug maps to (`meta rule`).
    pub rule: String,
    /// Path of the written witness file.
    pub path: std::path::PathBuf,
}

/// Minimizes `finding`, renders it as witness text and writes it to
/// `<dir>/<case-name>.sched`, returning the provenance record to thread
/// into incident bundles.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn save_witness(
    dir: &std::path::Path,
    case: &TxlCase,
    finding: &Finding,
) -> std::io::Result<WitnessProvenance> {
    let min = minimize_case_finding(case, finding);
    let text = finding_to_witness(case, finding, &min);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.sched", case.name));
    std::fs::write(&path, text)?;
    Ok(WitnessProvenance { case: case.name.clone(), rule: case.rule.clone(), path })
}

/// Parses a [`ViolationKind`] from its `Display` name.
fn parse_kind(s: &str) -> Option<ViolationKind> {
    let all = [
        ViolationKind::Opacity,
        ViolationKind::Race,
        ViolationKind::FinalState,
        ViolationKind::Invariant,
        ViolationKind::Deadlock,
        ViolationKind::Livelock,
        ViolationKind::Sim,
    ];
    all.into_iter().find(|k| k.to_string() == s)
}

/// Replays `.sched` witness text against the case and reports whether
/// the recorded violation still reproduces.
///
/// A witness that names a `violation` kind reproduces when any replayed
/// violation [`matches`](ViolationKind::matches) it; a witness without
/// one reproduces when the replay has any violation at all. Replaying
/// against a *repaired* source (see [`TxlCase::with_source`]) must
/// return `false` — that is the model-checking half of the fix gate.
///
/// # Errors
///
/// A human-readable message when the witness text does not parse.
pub fn witness_reproduces(case: &TxlCase, witness: &str) -> Result<bool, String> {
    let (schedule, meta) = sched::parse(witness)?;
    let outcome = replay_case(case, &schedule);
    let want = meta.iter().find(|(k, _)| k == "violation").and_then(|(_, v)| parse_kind(v));
    Ok(match want {
        Some(kind) => outcome.violations.iter().any(|v| kind.matches(v.kind)),
        None => !outcome.violations.is_empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsorted_locks_compiles_and_lints_as_tl002() {
        let case = unsorted_locks();
        let diags =
            txl::lint_source(&case.source, &txl::LintConfig::default()).expect("case compiles");
        assert!(
            diags.iter().any(|d| d.rule.id() == case.rule),
            "expected a {} finding, got {diags:?}",
            case.rule
        );
    }

    #[test]
    fn footprint_order_compiles_and_lints_as_tl005() {
        let case = footprint_order();
        let diags =
            txl::lint_source(&case.source, &txl::LintConfig::default()).expect("case compiles");
        assert!(
            diags.iter().any(|d| d.rule.id() == case.rule),
            "expected a {} finding, got {diags:?}",
            case.rule
        );
    }

    #[test]
    fn explorer_finds_the_footprint_order_deadlock() {
        let case = footprint_order();
        let report = explore_case(&case, 2, 500);
        let finding = report
            .findings
            .iter()
            .find(|f| f.violation.kind.is_progress_failure())
            .unwrap_or_else(|| panic!("no deadlock among {} findings", report.findings.len()));
        let outcome = replay_case(&case, &finding.schedule);
        assert!(
            outcome.violations.iter().any(|v| finding.violation.kind.matches(v.kind)),
            "witness schedule does not replay: {outcome:?}"
        );
    }

    #[test]
    fn default_schedule_runs_the_case() {
        // The default controller-free run must produce *an* outcome
        // deterministically (violations allowed: the case is buggy).
        let case = unsorted_locks();
        let a = run_case(&case, None);
        let b = run_case(&case, None);
        assert_eq!(a.state_hash, b.state_hash);
    }

    #[test]
    fn explorer_finds_the_crossing_deadlock() {
        let case = unsorted_locks();
        let report = explore_case(&case, 2, 500);
        let finding = report
            .findings
            .iter()
            .find(|f| f.violation.kind.is_progress_failure())
            .unwrap_or_else(|| panic!("no deadlock among {} findings", report.findings.len()));
        // The witness replays.
        let outcome = replay_case(&case, &finding.schedule);
        assert!(
            outcome.violations.iter().any(|v| finding.violation.kind.matches(v.kind)),
            "witness schedule does not replay: {outcome:?}"
        );
    }

    #[test]
    fn witness_round_trips_with_rule_provenance() {
        let case = unsorted_locks();
        let report = explore_case(&case, 2, 500);
        let finding = report
            .findings
            .iter()
            .find(|f| f.violation.kind.is_progress_failure())
            .expect("deadlock finding");
        let min = minimize_case_finding(&case, finding);
        assert!(min.choices.len() <= finding.schedule.choices.len());
        let text = finding_to_witness(&case, finding, &min);
        let (_, meta) = sched::parse(&text).expect("witness parses");
        assert_eq!(witness_rule(&meta), Some("TL002"));
        assert_eq!(witness_reproduces(&case, &text), Ok(true));
    }
}
