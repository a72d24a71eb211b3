//! One construction path for every evaluated variant: [`Variant`] names a
//! concurrency-control scheme of the paper's evaluation (Section 4.2) and
//! [`AnyStm::new`] builds it as one value type, so a run is plain data
//! (a variant plus its configuration) and each kernel compiles once.

use super::{CglStm, EgpgvStm, LockStm, NorecStm, OptimizedStm};
use crate::api::Stm;
use crate::config::StmConfig;
use crate::history::Recorder;
use crate::shared::StmShared;
use crate::stats::StatsHandle;
use crate::trace::TxTraceSink;
use crate::warptx::WarpTx;
use gpu_sim::{LaneAddrs, LaneMask, LaneVals, LaunchConfig, Sim, SimError, WarpCtx};
use std::fmt;

/// One of the evaluated concurrency-control schemes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Coarse-grained lock baseline (speedup denominator).
    Cgl,
    /// Cederman et al.'s per-thread-block blocking STM.
    Egpgv,
    /// NOrec-like single-sequence-lock STM (STM-VBV).
    Vbv,
    /// Timestamp validation + lock-sorting (STM-TBV-Sorting).
    TbvSorting,
    /// Hierarchical validation + lock-sorting (STM-HV-Sorting).
    HvSorting,
    /// Hierarchical validation + backoff locking (STM-HV-Backoff).
    HvBackoff,
    /// Timestamp validation + backoff locking (ablation only).
    TbvBackoff,
    /// Adaptive HV/TBV selection + lock-sorting (STM-Optimized).
    Optimized,
}

impl Variant {
    /// The STM variants of the paper's Figure 2, in its legend order.
    pub const FIGURE2: [Variant; 6] = [
        Variant::Egpgv,
        Variant::Vbv,
        Variant::TbvSorting,
        Variant::HvBackoff,
        Variant::HvSorting,
        Variant::Optimized,
    ];

    /// Every variant including the baseline and ablation extras.
    pub const ALL: [Variant; 8] = [
        Variant::Cgl,
        Variant::Egpgv,
        Variant::Vbv,
        Variant::TbvSorting,
        Variant::HvSorting,
        Variant::HvBackoff,
        Variant::TbvBackoff,
        Variant::Optimized,
    ];

    /// Paper display name.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Cgl => "CGL",
            Variant::Egpgv => "STM-EGPGV",
            Variant::Vbv => "STM-VBV",
            Variant::TbvSorting => "STM-TBV-Sorting",
            Variant::HvSorting => "STM-HV-Sorting",
            Variant::HvBackoff => "STM-HV-Backoff",
            Variant::TbvBackoff => "STM-TBV-Backoff",
            Variant::Optimized => "STM-Optimized",
        }
    }

    /// Short machine-friendly name (CLI arguments, report keys).
    pub fn short_name(self) -> &'static str {
        match self {
            Variant::Cgl => "cgl",
            Variant::Egpgv => "egpgv",
            Variant::Vbv => "vbv",
            Variant::TbvSorting => "tbv-sorting",
            Variant::HvSorting => "hv-sorting",
            Variant::HvBackoff => "hv-backoff",
            Variant::TbvBackoff => "tbv-backoff",
            Variant::Optimized => "optimized",
        }
    }

    /// Parses a variant from its short name or paper label
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<Variant> {
        let lower = s.to_ascii_lowercase();
        Variant::ALL
            .into_iter()
            .find(|v| v.short_name() == lower || v.label().to_ascii_lowercase() == lower)
    }

    /// Whether this is one of the four per-thread lock-based
    /// configurations ([`LockStm`]): the variants that carry seeded
    /// mutants and that the blocking (`retry`/park) workloads run on.
    pub fn is_lock_stm(self) -> bool {
        matches!(
            self,
            Variant::TbvSorting | Variant::HvSorting | Variant::HvBackoff | Variant::TbvBackoff
        )
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why [`AnyStm::new`] could not build a variant.
#[derive(Clone, Debug)]
pub enum BuildError {
    /// Allocating the variant's device metadata failed.
    Sim(SimError),
    /// The variant cannot run the launch grid (EGPGV beyond its fixed
    /// per-block metadata) — the paper's Figure 3 "crashes".
    Unsupported(&'static str),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Sim(e) => write!(f, "stm init: {e}"),
            BuildError::Unsupported(msg) => write!(f, "unsupported configuration: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Sim(e) => Some(e),
            BuildError::Unsupported(_) => None,
        }
    }
}

impl From<SimError> for BuildError {
    fn from(e: SimError) -> Self {
        BuildError::Sim(e)
    }
}

/// Any evaluated variant, as one value type over the five concrete
/// runtimes that implement the eight [`Variant`]s.
#[derive(Clone)]
pub enum AnyStm {
    /// [`Variant::Cgl`].
    Cgl(CglStm),
    /// [`Variant::Egpgv`].
    Egpgv(EgpgvStm),
    /// [`Variant::Vbv`].
    Norec(NorecStm),
    /// The four [`Variant::is_lock_stm`] variants.
    Lock(LockStm),
    /// [`Variant::Optimized`].
    Optimized(OptimizedStm),
}

/// Applies `$body` to the concrete runtime inside an [`AnyStm`], bound as
/// `$s`. The `map` form re-wraps the result in the same arm.
macro_rules! each {
    ($stm:expr, $s:ident => $body:expr) => {
        match $stm {
            AnyStm::Cgl($s) => $body,
            AnyStm::Egpgv($s) => $body,
            AnyStm::Norec($s) => $body,
            AnyStm::Lock($s) => $body,
            AnyStm::Optimized($s) => $body,
        }
    };
    (map $stm:expr, $s:ident => $body:expr) => {
        match $stm {
            AnyStm::Cgl($s) => AnyStm::Cgl($body),
            AnyStm::Egpgv($s) => AnyStm::Egpgv($body),
            AnyStm::Norec($s) => AnyStm::Norec($body),
            AnyStm::Lock($s) => AnyStm::Lock($body),
            AnyStm::Optimized($s) => AnyStm::Optimized($body),
        }
    };
}

impl AnyStm {
    /// Instantiates `variant`, allocating its metadata in `sim`.
    ///
    /// `shared_data_words` drives STM-Optimized's HV/TBV choice; `grid`
    /// is the launch the runtime will serve, checked against EGPGV's
    /// fixed per-block metadata.
    ///
    /// # Errors
    ///
    /// [`BuildError::Unsupported`] when `variant` cannot run `grid`;
    /// [`BuildError::Sim`] when the metadata does not fit in device
    /// memory.
    pub fn new(
        sim: &mut Sim,
        variant: Variant,
        cfg: StmConfig,
        shared_data_words: u64,
        grid: LaunchConfig,
    ) -> Result<AnyStm, BuildError> {
        Ok(match variant {
            Variant::Cgl => AnyStm::Cgl(CglStm::init(sim)?),
            Variant::Egpgv => {
                let shared = StmShared::init(sim, &cfg)?;
                let stm = EgpgvStm::init(sim, shared, cfg)?;
                if !stm.supports(grid) {
                    return Err(BuildError::Unsupported(
                        "STM-EGPGV supports per-thread-block transactions only up to its fixed \
                         per-block metadata capacity",
                    ));
                }
                AnyStm::Egpgv(stm)
            }
            Variant::Vbv => AnyStm::Norec(NorecStm::new(StmShared::init(sim, &cfg)?, cfg)),
            Variant::TbvSorting => {
                AnyStm::Lock(LockStm::tbv_sorting(StmShared::init(sim, &cfg)?, cfg))
            }
            Variant::HvSorting => {
                AnyStm::Lock(LockStm::hv_sorting(StmShared::init(sim, &cfg)?, cfg))
            }
            Variant::HvBackoff => {
                AnyStm::Lock(LockStm::hv_backoff(StmShared::init(sim, &cfg)?, cfg))
            }
            Variant::TbvBackoff => {
                AnyStm::Lock(LockStm::tbv_backoff(StmShared::init(sim, &cfg)?, cfg))
            }
            Variant::Optimized => AnyStm::Optimized(OptimizedStm::new(
                StmShared::init(sim, &cfg)?,
                cfg,
                shared_data_words,
            )),
        })
    }

    /// Attaches a history recorder.
    pub fn with_recorder(self, rec: Recorder) -> Self {
        each!(map self, s => s.with_recorder(rec))
    }

    /// Attaches a transaction-lifecycle trace sink (pure observation; see
    /// [`crate::trace`]).
    pub fn with_trace(self, sink: TxTraceSink) -> Self {
        each!(map self, s => s.with_trace(sink))
    }

    /// Seeds a correctness [`Mutation`](super::Mutation) into a
    /// [`LockStm`] variant — verifier-validation use only.
    ///
    /// # Panics
    ///
    /// Panics when a non-empty mutation targets any other variant: only
    /// the lock-based runtimes have seeded mutants.
    #[cfg(any(test, feature = "mutants"))]
    pub fn with_mutation(self, mutation: super::Mutation) -> Self {
        match self {
            AnyStm::Lock(s) => AnyStm::Lock(s.with_mutation(mutation)),
            other => {
                assert!(
                    !mutation.any(),
                    "mutations only apply to lock-based variants, not {}",
                    other.name()
                );
                other
            }
        }
    }
}

impl Stm for AnyStm {
    #[inline]
    fn name(&self) -> &'static str {
        each!(self, s => s.name())
    }

    #[inline]
    fn new_warp(&self) -> WarpTx {
        each!(self, s => s.new_warp())
    }

    #[inline]
    fn stats(&self) -> StatsHandle {
        each!(self, s => s.stats())
    }

    async fn begin(&self, w: &mut WarpTx, ctx: &WarpCtx, want: LaneMask) -> LaneMask {
        each!(self, s => s.begin(w, ctx, want).await)
    }

    async fn read(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
    ) -> LaneVals {
        each!(self, s => s.read(w, ctx, mask, addrs).await)
    }

    async fn write(
        &self,
        w: &mut WarpTx,
        ctx: &WarpCtx,
        mask: LaneMask,
        addrs: &LaneAddrs,
        vals: &LaneVals,
    ) {
        each!(self, s => s.write(w, ctx, mask, addrs, vals).await)
    }

    async fn commit(&self, w: &mut WarpTx, ctx: &WarpCtx, mask: LaneMask) -> LaneMask {
        each!(self, s => s.commit(w, ctx, mask).await)
    }

    #[inline]
    fn opaque(&self, w: &WarpTx) -> LaneMask {
        each!(self, s => s.opaque(w))
    }

    #[inline]
    fn abort_storm(&self) -> bool {
        each!(self, s => s.abort_storm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::SimConfig;

    #[test]
    fn labels_are_unique() {
        let set: std::collections::HashSet<_> = Variant::ALL.iter().map(|v| v.label()).collect();
        assert_eq!(set.len(), Variant::ALL.len());
    }

    #[test]
    fn figure2_excludes_baseline() {
        assert!(!Variant::FIGURE2.contains(&Variant::Cgl));
        assert_eq!(Variant::FIGURE2.len(), 6);
    }

    #[test]
    fn parse_round_trips_short_names_and_labels() {
        for v in Variant::ALL {
            assert_eq!(Variant::parse(v.short_name()), Some(v));
            assert_eq!(Variant::parse(v.label()), Some(v));
            assert_eq!(Variant::parse(&v.label().to_uppercase()), Some(v));
        }
        assert_eq!(Variant::parse("no-such-stm"), None);
    }

    #[test]
    fn every_variant_builds_under_its_own_name() {
        let grid = LaunchConfig::new(2, 64);
        for v in Variant::ALL {
            let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
            let stm = AnyStm::new(&mut sim, v, StmConfig::new(1 << 8), 1 << 10, grid)
                .unwrap_or_else(|e| panic!("{v}: {e}"));
            assert_eq!(stm.name(), v.label());
            assert_eq!(matches!(stm, AnyStm::Lock(_)), v.is_lock_stm(), "{v}");
        }
    }

    #[test]
    fn egpgv_rejects_grids_beyond_its_block_metadata() {
        let mut sim = Sim::new(SimConfig::with_memory(1 << 16));
        let grid = LaunchConfig::new(EgpgvStm::MAX_BLOCKS + 1, 32);
        let err = AnyStm::new(&mut sim, Variant::Egpgv, StmConfig::new(1 << 8), 1 << 10, grid)
            .err()
            .expect("oversized grid must be rejected");
        assert!(matches!(err, BuildError::Unsupported(_)), "{err}");
        let fits = LaunchConfig::new(EgpgvStm::MAX_BLOCKS, 32);
        assert!(
            AnyStm::new(&mut sim, Variant::Egpgv, StmConfig::new(1 << 8), 1 << 10, fits).is_ok()
        );
    }
}
