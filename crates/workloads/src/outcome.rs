//! Run results and errors shared by all workloads.

use gpu_sim::{RunReport, SimError};
use gpu_stm::{BuildError, TxStats};
use std::error::Error;
use std::fmt;

/// Why a workload run could not produce a result.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum RunError {
    /// Simulator-level failure (allocation, watchdog, launch geometry).
    Sim(SimError),
    /// The selected variant cannot run this configuration (e.g. EGPGV
    /// beyond its per-block metadata) — reported as "crashes" in the
    /// paper's Figure 3.
    Unsupported(&'static str),
    /// The workload's correctness invariant did not hold after the run.
    Verification(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulator error: {e}"),
            RunError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
            RunError::Verification(msg) => write!(f, "verification failed: {msg}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

impl From<BuildError> for RunError {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::Sim(e) => RunError::Sim(e),
            BuildError::Unsupported(msg) => RunError::Unsupported(msg),
        }
    }
}

/// Metrics from one workload run (possibly several kernel launches).
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Per-kernel simulator reports, in launch order.
    pub kernels: Vec<RunReport>,
    /// Aggregate transactional statistics.
    pub tx: TxStats,
}

impl RunOutcome {
    /// Total simulated cycles across all kernels.
    pub fn cycles(&self) -> u64 {
        self.kernels.iter().map(|k| k.cycles).sum()
    }

    /// Per-kernel cycle counts.
    pub fn kernel_cycles(&self) -> Vec<u64> {
        self.kernels.iter().map(|k| k.cycles).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SimStats;

    #[test]
    fn cycles_sum_over_kernels() {
        let out = RunOutcome {
            kernels: vec![
                RunReport { cycles: 10, stats: SimStats::new() },
                RunReport { cycles: 32, stats: SimStats::new() },
            ],
            tx: TxStats::new(),
        };
        assert_eq!(out.cycles(), 42);
        assert_eq!(out.kernel_cycles(), vec![10, 32]);
    }

    #[test]
    fn errors_display_and_convert() {
        let e: RunError = SimError::OutOfMemory { requested: 4 }.into();
        assert!(e.to_string().contains("simulator error"));
        assert!(RunError::Unsupported("x").to_string().contains("unsupported"));
        assert!(RunError::Verification("y".into()).to_string().contains("verification"));
    }

    #[test]
    fn source_chains_to_sim_error_and_only_there() {
        let e: RunError = SimError::Deadlock { cycle: 7, unfinished: vec![] }.into();
        let src = e.source().expect("Sim wraps a cause");
        assert!(src.downcast_ref::<SimError>().is_some());
        assert!(RunError::Unsupported("x").source().is_none());
        assert!(RunError::Verification("y".into()).source().is_none());
    }
}
