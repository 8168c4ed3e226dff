#![warn(missing_docs)]
//! # gml-core — the resilient Global Matrix Library
//!
//! This crate is the paper's contribution: multi-place matrix/vector classes
//! that (a) can be constructed over an **arbitrary place group** and *remade*
//! over a different group when places fail (§IV-A), (b) can save and restore
//! their state through a **double in-memory snapshot store** (§IV-B), and
//! (c) plug into a **coordinated checkpoint/restart framework for iterative
//! applications** with three restoration modes (§V).
//!
//! Layout mirrors Table I of the paper:
//!
//! | | Duplicated | Distributed |
//! |---|---|---|
//! | Vector | [`DupVector`] | [`DistVector`] |
//! | Matrix | [`DupDenseMatrix`] | [`DistBlockMatrix`], [`DistDenseMatrix`], [`DistSparseMatrix`] |
//!
//! Each twin is one type: [`DupVector`] and [`DupDenseMatrix`] are the
//! generic duplicated object [`Dup`] over a vector and a dense matrix;
//! [`DistVector`] and [`DistBlockMatrix`] the generic block-distributed
//! object [`Dist`] over vector segments and matrix blocks — a vector is a
//! one-column block layout, laid out, remade, saved and restored by the
//! matrix's code; and [`DistDenseMatrix`] and [`DistSparseMatrix`] the
//! one-block-per-place [`DistMatrix`] over dense and sparse blocks, a
//! `DistBlockMatrix` inside. The `handle()` of a duplicated or a
//! block-distributed object, for app-defined collectives, is its
//! [`apgas::PlaceLocalHandle`].
//!
//! plus the resilience machinery: [`Snapshottable`], [`ResilientStore`],
//! [`AppResilientStore`], [`ResilientExecutor`] and [`RestoreMode`], and
//! [`AppState`], the declaration of an application's objects from which the
//! executor derives its checkpoints and restores.

pub mod app_state;
pub mod app_store;
pub mod codec;
pub mod collective;
pub mod dist_block_matrix;
pub mod dist_dense;
pub mod dist_vector;
pub mod dup_vector;
pub mod error;
pub mod forensics;
pub mod framework;
pub mod report;
pub mod snapshot;
pub mod store;

pub use app_state::AppState;
pub use app_store::AppResilientStore;
pub use codec::CodecSnapshot;
pub use collective::each_place;
pub use dist_block_matrix::{Dist, DistBlockMatrix, DistPayload, DupOperand, ROW_PANEL};
pub use dist_dense::{DistDenseMatrix, DistMatrix, DistSparseMatrix};
pub use dist_vector::DistVector;
pub use dup_vector::{Dup, DupDenseMatrix, DupVector};
pub use error::{GmlError, GmlResult};
pub use forensics::{PostMortem, RestoreDecision};
pub use framework::{
    young_interval, ChaosInjector, ChecksummedStep, ExecutorConfig, FailureInjector,
    ResilientExecutor, ResilientIterativeApp, RestoreMode, RunStats,
};
pub use report::{fmt_bytes, CostReport, IterRow, RestoreCost};
pub use snapshot::{Snapshot, Snapshottable};
pub use store::{PlaceInventory, RepairReport, ResilientStore, SnapshotAudit};

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_OBJECT_ID: AtomicU64 = AtomicU64::new(1);

/// A process-unique id for a GML object; snapshots are keyed by it.
pub(crate) fn fresh_object_id() -> u64 {
    NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed)
}
