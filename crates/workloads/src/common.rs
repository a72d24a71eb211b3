//! Shared run configuration and helpers for all workloads.

use crate::outcome::{RunError, RunOutcome};
use gpu_sim::{LaunchConfig, RunReport, Sim, SimConfig};
use gpu_stm::{AnyStm, Recorder, Stm, StmConfig, TxTraceSink, Variant};

/// Bundle of knobs common to every workload run.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// Simulator configuration (timing model, GPU limits, memory size).
    pub sim: SimConfig,
    /// STM configuration (lock-table size, lock-log shape, …).
    pub stm: StmConfig,
    /// Optional history recorder for correctness checking.
    pub recorder: Option<Recorder>,
    /// Optional transaction-lifecycle trace sink ([`gpu_stm::trace`]).
    /// Attach a simulator sink via `sim.trace` for the machine side.
    pub trace: Option<TxTraceSink>,
}

impl RunConfig {
    /// Defaults with a memory capacity of `mem_words`.
    pub fn with_memory(mem_words: usize) -> Self {
        RunConfig { sim: SimConfig::with_memory(mem_words), ..RunConfig::default() }
    }

    /// Sets the number of global version locks.
    pub fn with_locks(mut self, n_locks: u32) -> Self {
        self.stm = StmConfig::new(n_locks);
        self
    }

    /// Attaches a transaction-lifecycle trace sink to every STM variant
    /// the config builds.
    pub fn with_trace(mut self, sink: TxTraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Builds `variant` in `sim` ([`AnyStm::new`]) with this config's
    /// recorder and trace sink attached.
    pub(crate) fn build_stm(
        &self,
        sim: &mut Sim,
        variant: Variant,
        shared_data_words: u64,
        grid: LaunchConfig,
    ) -> Result<AnyStm, RunError> {
        let mut stm = AnyStm::new(sim, variant, self.stm, shared_data_words, grid)?;
        if let Some(rec) = self.recorder.clone() {
            stm = stm.with_recorder(rec);
        }
        if let Some(t) = self.trace.clone() {
            stm = stm.with_trace(t);
        }
        Ok(stm)
    }
}

/// Packages kernel reports plus the STM's accumulated statistics.
pub fn outcome<S: Stm>(kernels: Vec<RunReport>, stm: &S) -> RunOutcome {
    let tx = stm.stats().borrow().clone();
    RunOutcome { kernels, tx }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_config_builders() {
        let c = RunConfig::with_memory(1 << 12).with_locks(1 << 8);
        assert_eq!(c.sim.mem_words, 1 << 12);
        assert_eq!(c.stm.n_locks, 1 << 8);
        assert!(c.recorder.is_none());
    }
}
