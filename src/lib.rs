//! # ata — Strassen-based multiplication of a matrix by its transpose
//!
//! A Rust reproduction of Arrigoni, Maggioli, Massini, Rodolà,
//! *“Efficiently Parallelizable Strassen-Based Multiplication of a
//! Matrix by its Transpose”* (ICPP 2021, arXiv:2110.13042), complete
//! with the substrates the paper builds on: BLAS-style kernels, a
//! workspace-arena Strassen, a task-tree scheduler, a shared-memory
//! parallel runtime and a message-passing simulator with a LogGP cost
//! model for the distributed experiments.
//!
//! ## The plan–execute API
//!
//! The primary entry point is the two-phase [`AtaContext`] /
//! [`AtaPlan`] API: build a context once per configuration (it owns a
//! persistent worker pool and a cache of Strassen arenas), build a plan
//! once per problem shape (it pre-computes the §4.1 task tree and
//! workspace layout), then execute the plan as many times as the
//! workload demands:
//!
//! ```
//! use ata::{AtaContext, Output};
//! use ata::mat::gen;
//! use std::num::NonZeroUsize;
//!
//! // Context: shared-memory AtA-S with 4 persistent workers.
//! let ctx = AtaContext::shared(NonZeroUsize::new(4).unwrap());
//! // Plan: built once for the 256 x 96 shape.
//! let plan = ctx.plan_with::<f64>(256, 96, Output::Gram);
//! // Execute repeatedly — no re-planning, no re-allocation.
//! for seed in 0..3 {
//!     let a = gen::standard::<f64>(seed, 256, 96);
//!     let g = plan.execute(a.as_ref()).into_dense();
//!     assert_eq!(g.shape(), (96, 96));
//!     assert!(g.is_symmetric(1e-12));
//! }
//! ```
//!
//! The [`Backend`] selector drives all three of the paper's algorithm
//! variants through the same plan API — serial Algorithm 1, the
//! shared-memory AtA-S and the simulated-cluster AtA-D:
//!
//! ```
//! use ata::{AtaContext, Backend};
//! use ata::mpisim::CostModel;
//! use ata::mat::gen;
//! use std::num::NonZeroUsize;
//!
//! let a = gen::standard::<f64>(7, 48, 32);
//! let ctx = AtaContext::builder()
//!     .backend(Backend::SimulatedDist {
//!         ranks: NonZeroUsize::new(4).unwrap(),
//!         loggp: CostModel::zero(),
//!     })
//!     .build();
//! let c = ctx.lower(a.as_ref()); // AtA-D on 4 simulated ranks
//! assert_eq!(c.shape(), (32, 32));
//! ```
//!
//! One-shot helpers remain for single calls: [`gram`], [`lower`],
//! [`packed`] run through a lazily-initialized default (serial) context,
//! so even they amortize arena allocation across calls.
//!
//! ## The serving layer
//!
//! Production Gram workloads rarely look like "one matrix, one call".
//! Four front-ends cover the serving shapes, all sharing the context's
//! pool, arenas and shape-keyed plan cache:
//!
//! * [`stream::GramAccumulator`] — `A` arrives as row chunks
//!   (`C += Aᵢ^T Aᵢ`); a billion-row Gram never materializes `A`.
//! * [`factor::FactoredGram`] — the streaming factorization tier: a
//!   live `L D Lᵀ` factor maintained alongside the accumulator by
//!   `O(n²k)` rank-k sweeps, answering `solve`/`ridge`/`logdet`/
//!   `pca_project` in `O(n²)` — submit rows, query solutions, never
//!   refactor.
//! * [`batch::BatchPlan`] — floods of small problems, executed whole,
//!   one per pool worker ([`BatchPlan::execute_batch`]).
//! * [`shard::ShardedService`] — the `Send + Sync` serving front door a
//!   server embeds: bounded per-shard queues with backpressure,
//!   coalescing submissions into batched dispatches, and splitting large
//!   jobs across simulated ranks via AtA-D. A one-node coalescing queue
//!   is `ShardedServiceBuilder::new(&ctx).shards(1)`.
//!
//! ```
//! use ata::AtaContext;
//! use ata::mat::gen;
//!
//! // Streaming: fold row chunks, never holding the full matrix.
//! let ctx = AtaContext::serial();
//! let mut acc = ctx.gram_accumulator::<f64>(16);
//! for seed in 0..4 {
//!     let chunk = gen::standard::<f64>(seed, 100, 16);
//!     acc.push(chunk.as_ref());
//! }
//! assert_eq!(acc.rows(), 400);
//! assert!(acc.finish().into_dense().is_symmetric(0.0));
//! ```
//!
//! ## Crates
//!
//! * [`core`] (`ata-core`) — Algorithm 1, AtA-S, the task trees and the
//!   flop-count analysis;
//! * [`mat`] (`ata-mat`) — matrices, views, packed symmetric storage,
//!   workload generators, op-counting scalars;
//! * [`kernels`] (`ata-kernels`) — the BLAS substitute;
//! * [`strassen`] (`ata-strassen`) — `C += alpha * A^T B` with a
//!   pre-allocated arena and the [`strassen::ArenaPool`] checkout cache;
//! * [`mpisim`] (`ata-mpisim`) and [`dist`] (`ata-dist`) — the simulated
//!   cluster, AtA-D and the distributed baselines;
//! * [`linalg`] (`ata-linalg`) — the paper's §1 applications as library
//!   code: normal-equations least squares, SVD via the Gram matrix,
//!   Gram–Schmidt orthogonalization.

#![forbid(unsafe_code)]

pub mod batch;
pub mod clock;
pub mod context;
pub mod factor;
pub mod shard;
pub mod stream;

#[cfg(test)]
#[path = "one_shard_tests.rs"]
mod service;

pub use batch::BatchPlan;
pub use clock::{Clock, ManualClock, WallClock};
pub use context::{
    default_context, AtaContext, AtaContextBuilder, AtaOutput, AtaPlan, Backend, Output, OwnedPlan,
};
pub use factor::FactoredGram;
pub use shard::{
    JobError, RetryPolicy, ShardJobHandle, ShardStats, ShardSubmitError, ShardedService,
    ShardedServiceBuilder, ShardedStats, SplitChaos,
};
pub use stream::GramAccumulator;

pub use ata_core::AtaOptions;
pub use ata_dist::{DistPlan, WireFormat};

/// The paper's core algorithms (`ata-core`).
pub use ata_core as core;
/// Distributed AtA-D and baselines (`ata-dist`).
pub use ata_dist as dist;
/// Exact-arithmetic scalars: rationals and GF(2^31-1) (`ata-field`).
pub use ata_field as field;
/// BLAS-substitute kernels (`ata-kernels`).
pub use ata_kernels as kernels;
/// Downstream applications: least squares, SVD, orthogonalization (`ata-linalg`).
pub use ata_linalg as linalg;
/// Matrix substrate (`ata-mat`).
pub use ata_mat as mat;
/// Message-passing simulator (`ata-mpisim`).
pub use ata_mpisim as mpisim;
/// Arena-based Strassen (`ata-strassen`).
pub use ata_strassen as strassen;

pub use ata_mat::{MatMut, MatRef, Matrix, Scalar, SymPacked};

/// Full symmetric Gram matrix `A^T A` (both triangles filled) through
/// the lazily-initialized default context.
pub fn gram<T: Scalar + 'static>(a: MatRef<'_, T>) -> Matrix<T> {
    default_context().gram(a)
}

/// Lower-triangular `A^T A` (strictly-upper entries are zero) through
/// the lazily-initialized default context.
pub fn lower<T: Scalar + 'static>(a: MatRef<'_, T>) -> Matrix<T> {
    default_context().lower(a)
}

/// `A^T A` in packed lower-triangular storage (`n(n+1)/2` elements)
/// through the lazily-initialized default context.
pub fn packed<T: Scalar + 'static>(a: MatRef<'_, T>) -> SymPacked<T> {
    default_context().packed(a)
}

/// Full symmetric Gram matrix with explicit legacy options.
#[deprecated(note = "build an AtaContext (AtaContext::builder()) and reuse an AtaPlan instead")]
pub fn gram_with<T: Scalar + 'static>(a: MatRef<'_, T>, opts: &AtaOptions) -> Matrix<T> {
    AtaContext::from_options(opts).gram(a)
}

/// Lower-triangular `A^T A` with explicit legacy options.
#[deprecated(note = "build an AtaContext (AtaContext::builder()) and reuse an AtaPlan instead")]
pub fn lower_with<T: Scalar + 'static>(a: MatRef<'_, T>, opts: &AtaOptions) -> Matrix<T> {
    AtaContext::from_options(opts).lower(a)
}

/// Packed `A^T A` with explicit legacy options.
#[deprecated(note = "build an AtaContext (AtaContext::builder()) and reuse an AtaPlan instead")]
pub fn packed_with<T: Scalar + 'static>(a: MatRef<'_, T>, opts: &AtaOptions) -> SymPacked<T> {
    AtaContext::from_options(opts).packed(a)
}
