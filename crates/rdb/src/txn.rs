//! Undo logging and rollback.
//!
//! Fig. 14's baseline is exactly this machinery: a blindly-translated update
//! executes, the view side effect is detected afterwards, and "the database
//! would have to be recovered for example by rolling back. This would be
//! rather time consuming" (§1). The undo log records physical changes
//! (insert/delete/update with before-images) and view creation; rollback
//! replays them in reverse. Statement-level atomicity uses the same
//! records: a failed statement undoes its own partial work even outside a
//! transaction.

use crate::storage::{Row, RowId};

/// One physical change, with enough information to invert it.
#[derive(Debug, Clone)]
pub enum Undo {
    /// A row was inserted; undo by deleting it.
    Insert { table: String, rid: RowId },
    /// A row was deleted; undo by restoring the exact image at its slot.
    Delete { table: String, rid: RowId, row: Row },
    /// A row was overwritten; undo by restoring the before-image.
    Update { table: String, rid: RowId, old: Row },
    /// A view was created (key: lower-cased name); undo by dropping it.
    CreateView { name: String },
}

/// An append-only log of [`Undo`] records for the active transaction.
#[derive(Debug, Default, Clone)]
pub struct UndoLog {
    records: Vec<Undo>,
}

impl UndoLog {
    pub fn new() -> UndoLog {
        UndoLog::default()
    }

    pub fn push(&mut self, u: Undo) {
        self.records.push(u);
    }

    pub fn extend(&mut self, us: Vec<Undo>) {
        self.records.extend(us);
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drain records in reverse (application order for rollback).
    pub fn drain_reverse(&mut self) -> impl Iterator<Item = Undo> + '_ {
        std::mem::take(&mut self.records).into_iter().rev()
    }
}
