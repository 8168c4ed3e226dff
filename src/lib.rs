#![warn(missing_docs)]
//! # resilient-gml
//!
//! A Rust reproduction of *"A Resilient Framework for Iterative Linear
//! Algebra Applications in X10"* (Hamouda, Milthorpe, Strazdins, Saraswat —
//! IPDPS Workshops 2015): a distributed matrix library whose objects can be
//! re-mapped over a dynamically changing set of *places*, saved into a
//! double in-memory resilient store, and driven by a coordinated
//! checkpoint/restart framework for iterative applications.
//!
//! The workspace is layered:
//!
//! * [`apgas`] — a simulated APGAS runtime: places, `async`/`finish`/`at`,
//!   place-local storage, **resilient finish** with place-zero bookkeeping,
//!   and fail-stop failure injection;
//! * [`matrix`] (crate `gml-matrix`) — single-place dense/sparse kernels,
//!   block grids and block sets;
//! * [`core`] (crate `gml-core`) — the multi-place GML classes
//!   (duplicated/distributed vectors and matrices), `Snapshottable`, the
//!   resilient store, and the `ResilientExecutor` with its three
//!   restoration modes;
//! * [`apps`] (crate `gml-apps`) — the paper's benchmarks: Linear
//!   Regression, Logistic Regression and PageRank.
//!
//! ## Quickstart
//!
//! ```
//! use resilient_gml::prelude::*;
//!
//! // 4 places, resilient semantics, 1 spare for replace-redundant restore.
//! let cfg = RuntimeConfig::new(4).spares(1).resilient(true);
//! let ranks = Runtime::run(cfg, |ctx| {
//!     let world = ctx.world();
//!     let pr_cfg = PageRankConfig {
//!         nodes_per_place: 50,
//!         out_degree: 4,
//!         iterations: 10,
//!         alpha: 0.85,
//!         seed: 1,
//!     };
//!     let (ranks, _times) = PageRank::run_simple(ctx, pr_cfg, &world).unwrap();
//!     ranks
//! })
//! .unwrap();
//! assert!((ranks.sum() - 1.0).abs() < 1e-9);
//! ```

pub use apgas;
pub use gml_apps as apps;
pub use gml_core as core;
pub use gml_matrix as matrix;

/// Everything a typical application needs.
pub mod prelude {
    pub use apgas::prelude::*;
    pub use gml_apps::{
        LinReg, LinRegConfig, LogReg, LogRegConfig, PageRank, PageRankConfig, ResilientLinReg,
        ResilientLogReg, ResilientPageRank,
    };
    pub use gml_core::{
        fmt_bytes, young_interval, AppResilientStore, AppState, ChecksummedStep, CodecSnapshot,
        CostReport, DistBlockMatrix, DistDenseMatrix, DistSparseMatrix, DistVector,
        DupDenseMatrix, DupVector, ExecutorConfig, GmlError, GmlResult, IterRow,
        PlaceInventory, PostMortem, RepairReport, ResilientExecutor, ResilientIterativeApp,
        ResilientStore, RestoreCost, RestoreDecision, RestoreMode, RunStats, Snapshot,
        SnapshotAudit, Snapshottable,
    };
    pub use gml_matrix::{
        builder, BlockData, BlockSet, DenseMatrix, Grid, MatrixBlock, SparseCSR, Vector,
    };
}
