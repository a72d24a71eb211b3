//! The STM variants of the paper's evaluation (Section 4.2).
//!
//! | Variant | Type | Summary |
//! |---|---|---|
//! | STM-VBV | [`NorecStm`] | NOrec-like, single global sequence lock |
//! | STM-TBV-Sorting | [`LockStm::tbv_sorting`] | timestamps + lock-sorting |
//! | STM-HV-Sorting | [`LockStm::hv_sorting`] | hierarchical validation + lock-sorting |
//! | STM-HV-Backoff | [`LockStm::hv_backoff`] | hierarchical validation + GPU backoff |
//! | STM-Optimized | [`OptimizedStm`] | adaptive HV/TBV selection |
//! | STM-EGPGV | [`EgpgvStm`] | per-thread-block blocking STM (prior art) |
//! | CGL | [`CglStm`] | coarse-grained lock baseline |
//!
//! [`AnyStm::new`] builds any [`Variant`] as one value type.

mod any;
mod cgl;
mod egpgv;
mod lockstm;
mod norec;
mod optimized;

pub use any::{AnyStm, BuildError, Variant};
pub use cgl::CglStm;
pub use egpgv::EgpgvStm;
pub use lockstm::{LockStm, Mutation};
pub use norec::NorecStm;
pub use optimized::OptimizedStm;
