//! `verify-litmus`: DPOR to completion at preemption bound 2 with no
//! schedule cap, on 2-block × 2-warp litmus instances.
//!
//! The queue litmus is left out: it takes about a minute per variant.

use crate::spans::{traced, Tracer};
use crate::stats::Fnv;
use crate::Pass;
use tm_verify::{verify, ExploreStats, Litmus, VerifyConfig, Workload};
use workloads::Variant;

pub const INSTANCES: [(Workload, Variant); 5] = [
    (Workload::Bank, Variant::HvSorting),
    (Workload::Bank, Variant::Vbv),
    (Workload::Hashtable, Variant::HvSorting),
    (Workload::Hashtable, Variant::Vbv),
    (Workload::Stripes, Variant::Cgl),
];

pub fn configs() -> Vec<VerifyConfig> {
    INSTANCES
        .iter()
        .map(|&(w, v)| VerifyConfig {
            litmus: Litmus::new(w, v, 2, 2),
            max_preemptions: 2,
            max_schedules: 0,
            stop_on_finding: false,
        })
        .collect()
}

/// Explores every instance once. Any finding, divergence, unsupported
/// configuration or cap hit fails the run.
pub fn pass(cfgs: &[VerifyConfig], mut tr: Option<&mut Tracer>) -> (Pass, Vec<ExploreStats>) {
    let mut pass = Pass::default();
    let mut fp = Fnv::new();
    let mut all = Vec::new();
    let (mut runs, mut redundant) = (0u64, 0u64);
    for cfg in cfgs {
        let l = &cfg.litmus;
        let label = format!("{}/{}", l.workload, l.variant.short_name());
        let (report, _) = pass.unit(|| traced(&mut tr, "tm_verify::verify", || verify(cfg)));
        let s = &report.stats;
        if let Some(u) = &report.unsupported {
            pass.problems.push(format!("{label}: unsupported: {u}"));
        }
        if !report.is_clean() {
            pass.problems.push(format!(
                "{label}: {} findings, first: {}",
                report.findings.len(),
                report.findings[0].violation.message
            ));
        }
        if s.diverged != 0 {
            pass.problems.push(format!("{label}: {} schedules diverged", s.diverged));
        }
        if s.cap_hit {
            pass.problems.push(format!("{label}: schedule cap hit"));
        }
        fp.str(&label);
        fp.str(&format!("{s:?}"));
        pass.attempted += s.schedules_run;
        runs += s.schedules_run;
        redundant += s.traces_deduped;
        all.push(s.clone());
    }
    pass.fingerprint = fp.finish();
    pass.failed_frac = redundant as f64 / runs.max(1) as f64;
    (pass, all)
}
