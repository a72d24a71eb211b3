//! # gpu-stm-repro — Software Transactional Memory for GPU Architectures
//!
//! A from-scratch Rust reproduction of Xu, Wang, Goswami, Li, Gao and
//! Qian, *Software Transactional Memory for GPU Architectures* (CGO 2014),
//! including every substrate the paper depends on:
//!
//! - [`sim`] — a deterministic SIMT GPU simulator (warps in lockstep,
//!   divergence masks, memory coalescing, L2 cache, atomics, Fermi-like
//!   timing model);
//! - [`locks`] — the GPU lock schemes of the paper's Algorithm 1 and
//!   their deadlock/livelock pathologies;
//! - [`stm`] — GPU-STM itself (hierarchical validation, encounter-time
//!   lock-sorting, coalesced read-/write-sets) plus every baseline STM
//!   variant of the evaluation;
//! - [`check`] — an opacity/serializability checker over recorded
//!   transactional histories;
//! - [`bench_suite`] — the six evaluation workloads, runnable under any
//!   variant.
//!
//! See `examples/` for runnable entry points and `crates/bench` for the
//! binaries that regenerate the paper's tables and figures.

#![forbid(unsafe_code)]

/// The SIMT GPU simulator substrate.
pub use gpu_sim as sim;

/// GPU lock schemes (Algorithm 1) and their pathologies.
pub use gpu_locks as locks;

/// GPU-STM and the baseline STM variants.
pub use gpu_stm as stm;

/// Opacity/serializability history checking.
pub use tm_check as check;

/// The evaluation workloads (RA, HT, EB, GN, LB, KM).
pub use workloads as bench_suite;

/// The transactional kernel language (the paper's "compiler support").
pub use txl as lang;

/// The sharded, batched transaction service over the STM engine.
pub use tm_serve as serve;
