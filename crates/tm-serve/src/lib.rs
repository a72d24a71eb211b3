//! # tm-serve — a sharded, batched transaction service over GPU-STM
//!
//! The paper's evaluation drives the STM with closed-loop kernels: every
//! thread owns a fixed list of transactions and the run ends when they
//! commit. This crate flips the harness into an *online service*: a
//! stream of client transaction requests (bank transfers, hashtable
//! operations, TXL programs) arrives open-loop, is batched into
//! warp-sized kernel launches, and is dispatched across `N` sharded
//! engine instances — each shard a dedicated [`gpu_sim::Sim`] plus one
//! GPU-STM variant, owned by a host worker thread.
//!
//! ## Architecture
//!
//! ```text
//!   requests ──► router (seeded address hash)
//!                  │  single-shard ops ──► shard queue (bounded)
//!                  │  cross-shard transfers ──► 2PC coordinator
//!                  ▼
//!   round loop: seal one warp-aligned batch per shard,
//!               launch on worker threads, barrier on results,
//!               epoch += max(shard batch cycles)
//! ```
//!
//! - **Sharding.** Every data key hashes (with the service seed) to one
//!   shard; each shard owns a disjoint partition of the bank accounts,
//!   its own hashtable, and its own TXL counter array, so single-shard
//!   transactions never touch foreign state.
//! - **Batching.** Admitted requests queue per shard and are sealed
//!   into warp-sized transaction batches (`batch_warps × 32` slots)
//!   executed as one simulator kernel launch under the shard's STM.
//! - **Cross-shard 2PC.** A transfer whose debit and credit keys land
//!   on different shards splits into prepare transactions on both
//!   shards (debit applies a hold; credit is a capacity vote). The
//!   coordinator collects both votes through the STM commit hook and
//!   enqueues the phase-2 apply or compensating rollback.
//! - **Backpressure.** Per-shard queues are bounded; an admission that
//!   would overflow returns a structured [`ServeError::Overloaded`]
//!   with a retry-after hint in simulated cycles, scaled up while the
//!   shard's AIMD scheduler reports an abort storm.
//! - **Determinism.** For a fixed seed the committed history, the
//!   per-shard history hashes and the whole report are byte-identical
//!   regardless of how many worker threads carry the shards: routing,
//!   batch sealing and epoch accounting depend only on request order
//!   and simulated cycles, results are collected by shard index, and
//!   wall-clock time never enters the report. `tm-check` therefore
//!   verifies served histories exactly as it verifies bench runs.
//!
//! ## Quick start
//!
//! ```
//! use tm_serve::{MixConfig, ServeConfig, Service};
//! use gpu_stm::Variant;
//!
//! let cfg = ServeConfig {
//!     shards: 2,
//!     workers: 2,
//!     variant: Variant::HvSorting,
//!     mix: MixConfig { requests: 64, ..MixConfig::bank() },
//!     ..ServeConfig::default()
//! };
//! let report = Service::run(&cfg).unwrap();
//! assert!(report.conserved);
//! assert_eq!(report.violations_total, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crash;
mod engine;
mod error;
mod obs;
mod recovery;
mod replica;
mod report;
mod request;
mod route;
mod service;
mod stm;
mod wal;

pub use crash::{CrashPlan, CrashPoint, ReplicaFault, ResolvedCrash};
pub use engine::{EngineConfig, ShardSummary, WalParams, TXL_BUMP};
pub use error::ServeError;
pub use obs::{
    FlightBundle, FlightFrame, HealthState, Hist, Incident, IncidentCause, MetricsSnapshot,
    ObsConfig, ObsReport, ShardSnapshot, WinCounter, WitnessRef, BATCH_CYCLE_BOUNDS,
    RETRY_AFTER_BOUNDS,
};
pub use recovery::RecoveryStats;
pub use report::{RecoveryReport, ReplicaDiverged, ServeReport, ShardReport};
pub use request::{MixConfig, Op, Request};
pub use route::route;
pub use service::{retry_after_hint, DurabilityConfig, ServeConfig, Service};
pub use stm::EngineMode;
pub use wal::{store_fingerprint, BlobStore, DirStore, MemStore, StoreHandle};
