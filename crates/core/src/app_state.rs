//! Declared application state: an application names each of its GML
//! objects once, in order, with a role and a layout, and the framework
//! derives `checkpoint` and `restore` from that one declaration (the later
//! X10 executors' `getCheckpointAndRestoreKeys()`; see
//! [`ResilientIterativeApp::state`](crate::framework::ResilientIterativeApp::state)).
//!
//! The order of the declaration is the order of everything derived from it:
//! a checkpoint saves the non-scratch objects in it, a restore remakes every
//! object in it and then restores the non-scratch ones in it. A vector
//! declared [`aligned`](AppState::aligned) to a matrix is remade onto the
//! matrix's row layout *after* the matrix was remade, so the matrix must be
//! declared first.
//!
//! A read-only object's blocks are its snapshot's first replicas, held by
//! the store: a remake keeps every block a place still holds where the new
//! layout keeps it, and the restore rebuilds only the others.

use apgas::prelude::*;

use crate::app_store::AppResilientStore;
use crate::dist_block_matrix::Layout;
use crate::error::{GmlError, GmlResult};
use crate::snapshot::Snapshottable;
use crate::{
    DistBlockMatrix, DistDenseMatrix, DistSparseMatrix, DistVector, DupDenseMatrix, DupVector,
};

/// What a checkpoint does with a declared object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// Saved by every checkpoint.
    Mutable,
    /// Saved once and reused while its snapshot stays fully redundant
    /// ([`AppResilientStore::save_read_only`]).
    ReadOnly,
    /// Remade by a restore, never saved: its contents are recomputed by the
    /// next step.
    Scratch,
}

macro_rules! state_objects {
    ($($class:ident),*) => {
        /// A declared object: one of the six GML classes, borrowed for the
        /// length of a checkpoint or restore.
        pub enum StateObj<'a> {
            $(#[doc = concat!("A [`", stringify!($class), "`].")] $class(&'a mut $class),)*
        }

        $(impl<'a> From<&'a mut $class> for StateObj<'a> {
            fn from(obj: &'a mut $class) -> Self {
                StateObj::$class(obj)
            }
        })*

        impl StateObj<'_> {
            fn snapshottable(&mut self) -> &mut dyn Snapshottable {
                match self {
                    $(StateObj::$class(obj) => &mut **obj,)*
                }
            }
        }
    };
}

state_objects!(
    DupVector, DistVector, DupDenseMatrix, DistBlockMatrix, DistDenseMatrix, DistSparseMatrix
);

struct Entry<'a> {
    name: &'static str,
    obj: StateObj<'a>,
    role: Role,
    /// The name of the matrix whose row layout this vector follows.
    aligned: Option<&'static str>,
}

/// An application's state, declared object by object; built with
/// [`mutable`](Self::mutable), [`read_only`](Self::read_only),
/// [`scratch`](Self::scratch) and [`aligned`](Self::aligned).
#[derive(Default)]
pub struct AppState<'a> {
    entries: Vec<Entry<'a>>,
}

impl<'a> AppState<'a> {
    fn declare(mut self, name: &'static str, obj: StateObj<'a>, role: Role) -> Self {
        self.entries.push(Entry { name, obj, role, aligned: None });
        self
    }

    /// Declare an object every checkpoint saves.
    pub fn mutable(self, name: &'static str, obj: impl Into<StateObj<'a>>) -> Self {
        self.declare(name, obj.into(), Role::Mutable)
    }

    /// Declare an object saved once and reused afterwards.
    pub fn read_only(self, name: &'static str, obj: impl Into<StateObj<'a>>) -> Self {
        self.declare(name, obj.into(), Role::ReadOnly)
    }

    /// Declare an object a restore remakes but no checkpoint saves.
    pub fn scratch(self, name: &'static str, obj: impl Into<StateObj<'a>>) -> Self {
        self.declare(name, obj.into(), Role::Scratch)
    }

    /// Lay the object declared last — a `DistVector` — out row-aligned with
    /// the distributed matrix declared earlier as `matrix`: a
    /// `DistBlockMatrix`, or a `DistDenseMatrix` or `DistSparseMatrix`,
    /// whose every restore re-cuts its grid.
    pub fn aligned(mut self, matrix: &'static str) -> Self {
        if let Some(last) = self.entries.last_mut() {
            last.aligned = Some(matrix);
        }
        self
    }

    /// The layout entry `i` is remade with, read off its matrix as the
    /// matrix is now; `None` for an object with a layout of its own.
    fn layout_of(&self, i: usize) -> GmlResult<Option<Layout>> {
        let entry = &self.entries[i];
        let Some(name) = entry.aligned else { return Ok(None) };
        let matrix = self.entries[..i].iter().find(|m| m.name == name).map(|m| &m.obj);
        match (&entry.obj, matrix) {
            (StateObj::DistVector(_), Some(StateObj::DistBlockMatrix(m))) => m.aligned_layout(),
            (StateObj::DistVector(_), Some(StateObj::DistDenseMatrix(m))) => m.inner.aligned_layout(),
            (StateObj::DistVector(_), Some(StateObj::DistSparseMatrix(m))) => {
                m.inner.aligned_layout()
            }
            _ => Err(GmlError::shape(format!(
                "`{}` is aligned to `{name}`: not a DistVector aligned to a distributed matrix \
                 declared before it",
                entry.name
            ))),
        }
        .map(Some)
    }

    /// Refuse a declaration that is empty or names an alignment it cannot
    /// follow, before anything is saved or remade.
    fn validate(&self) -> GmlResult<()> {
        if self.entries.is_empty() {
            let msg = "no state declared: implement state(), or checkpoint and restore";
            return Err(GmlError::shape(msg));
        }
        (0..self.entries.len()).try_for_each(|i| self.layout_of(i).map(drop))
    }

    /// Checkpoint the declared state: `start_new_snapshot`, then `save` or
    /// `save_read_only` per non-scratch object in declaration order, then
    /// `commit`.
    pub(crate) fn checkpoint(mut self, ctx: &Ctx, store: &mut AppResilientStore) -> GmlResult<()> {
        self.validate()?;
        store.start_new_snapshot();
        for entry in &mut self.entries {
            match entry.role {
                Role::Mutable => store.save(ctx, entry.obj.snapshottable())?,
                Role::ReadOnly => store.save_read_only(ctx, entry.obj.snapshottable())?,
                Role::Scratch => {}
            }
        }
        store.commit(ctx)
    }

    /// Roll the declared state back to the committed snapshot: remake every
    /// object over `places` in declaration order, then restore the
    /// non-scratch ones from `store` in declaration order.
    pub(crate) fn restore(
        mut self,
        ctx: &Ctx,
        places: &PlaceGroup,
        store: &AppResilientStore,
        rebalance: bool,
    ) -> GmlResult<()> {
        self.validate()?;
        for i in 0..self.entries.len() {
            // An aligned vector's layout is read off its matrix after the
            // matrix was remade.
            let layout = self.layout_of(i)?;
            match (&mut self.entries[i].obj, layout) {
                (StateObj::DistVector(v), Some(layout)) => v.remake_onto(ctx, layout)?,
                (StateObj::DistVector(v), None) => v.remake(ctx, places, rebalance)?,
                (StateObj::DistBlockMatrix(m), _) => m.remake(ctx, places, rebalance)?,
                (StateObj::DupVector(v), _) => v.remake(ctx, places)?,
                (StateObj::DupDenseMatrix(m), _) => m.remake(ctx, places)?,
                (StateObj::DistDenseMatrix(m), _) => m.remake(ctx, places)?,
                (StateObj::DistSparseMatrix(m), _) => m.remake(ctx, places)?,
            }
        }
        let saved = self.entries.iter_mut().filter(|e| e.role != Role::Scratch);
        store.restore(ctx, &mut saved.map(|e| e.obj.snapshottable()).collect::<Vec<_>>())
    }
}
