//! Per-relation shards: the unit of copy-on-write in the sharded store.
//!
//! A [`RelationShard`] owns everything whose lifetime follows one relation:
//! its [`Table`], the [`HashIndex`]es built over it, and its own **epoch**
//! component of the database's vector clock. [`crate::Database`] holds its
//! shards behind `Arc`s, so cloning a database is O(relations) pointer
//! bumps and a write clones only the shard it touches
//! (`Arc::make_mut`) while every untouched shard stays pointer-shared with
//! outstanding snapshots.
//!
//! Shards are read-only outside the storage crate; all mutation funnels
//! through [`crate::Database`], which is what keeps the vector clock and
//! the global commit counter coherent.

use crate::database::WriteKind;
use crate::index::HashIndex;
use crate::table::Table;
use bcq_core::prelude::{Cell, RowBuf};

/// Structural identity of an index within its shard: key columns + value
/// columns. Indices are shared across access schemas that declare the same
/// `(X, Y)` (e.g. the `‖A‖`-sweep subsets of Figure 5(b)); the relation is
/// implied by the shard.
pub(crate) type IndexKey = (Vec<usize>, Vec<usize>);

/// One relation's slice of the database: table + indices + epoch.
///
/// The epoch is this shard's component of the database's **vector clock**:
/// it records the global commit number of the last mutation that touched
/// this relation. Layers that cache anything derived from a *subset* of
/// relations (compiled plans, maintained views) compare per-shard epochs
/// and ignore commits that only advanced other shards.
#[derive(Debug, Clone)]
pub struct RelationShard {
    pub(crate) table: Table,
    /// The built indices, keyed by their `(x, y)` column sets. A handful
    /// per relation at most, and probed on every fetch step: a linear
    /// scan with borrowed keys beats a hash map (whose owned tuple key
    /// would cost two allocations per lookup).
    pub(crate) indexes: Vec<(IndexKey, HashIndex)>,
    pub(crate) epoch: u64,
}

impl RelationShard {
    /// An empty shard wrapping `table` at epoch 0.
    pub(crate) fn new(table: Table) -> Self {
        RelationShard {
            table,
            indexes: Vec::new(),
            epoch: 0,
        }
    }

    /// The relation's table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// This shard's vector-clock component: the global commit number of the
    /// last mutation that touched this relation (0 if never written).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of indices registered on this relation.
    pub fn num_indexes(&self) -> usize {
        self.indexes.len()
    }

    /// The `(key columns, value columns)` of every registered index, in
    /// registration order — what the durability layer records in a
    /// snapshot so recovery can rebuild the same indices.
    pub fn index_specs(&self) -> impl Iterator<Item = (&[usize], &[usize])> + '_ {
        self.indexes
            .iter()
            .map(|((x, y), _)| (x.as_slice(), y.as_slice()))
    }

    /// The index on key columns `x` exposing value columns `y`, if built.
    pub fn index(&self, x: &[usize], y: &[usize]) -> Option<&HashIndex> {
        self.indexes
            .iter()
            .find(|((ix, iy), _)| ix.as_slice() == x && iy.as_slice() == y)
            .map(|(_, idx)| idx)
    }

    /// Approximate payload of a copy-on-write clone of this shard, in table
    /// cells (index postings excluded — they are roughly proportional).
    pub fn clone_cells(&self) -> u64 {
        (self.table.len() * self.table.arity()) as u64
    }

    /// The row id of one stored copy of `cells`: probes the posting list of
    /// a registered index when one exists (any index works — its key is a
    /// projection of the row being looked up), else scans.
    pub(crate) fn find(&self, cells: &[Cell]) -> Option<usize> {
        if let Some((_, idx)) = self.indexes.first() {
            let key: RowBuf = idx.x().iter().map(|&c| cells[c]).collect();
            return idx
                .all(&key)
                .iter()
                .map(|&rid| rid as usize)
                .find(|&rid| self.table.row(rid) == cells);
        }
        self.table.find_row(cells)
    }

    /// The row id a write of `cells` lands on: the append slot for an
    /// insert, one stored copy ([`Self::find`]) for a delete — `None` when
    /// no copy is stored.
    pub(crate) fn target(&self, kind: WriteKind, cells: &[Cell]) -> Option<usize> {
        match kind {
            WriteKind::Insert => Some(self.table.len()),
            WriteKind::Delete => self.find(cells),
        }
    }

    /// Applies one single-row write at `rid` (from [`Self::target`]) to the
    /// table and every registered index. This is the only code that
    /// mutates a shard for a row write: in-place writes, prepared writes
    /// (on a cloned shard) and log replay all reach it. An insert appends
    /// the row and adds its postings (amortized O(columns) per index); a
    /// delete drops the row's postings, swap-removes it (tombstone-free:
    /// the last row moves into the hole) and re-points the moved row's
    /// postings.
    pub(crate) fn apply_row(&mut self, kind: WriteKind, cells: &[Cell], rid: usize) {
        let RelationShard { table, indexes, .. } = self;
        match kind {
            WriteKind::Insert => {
                debug_assert_eq!(rid, table.len(), "inserts append");
                table.push(cells);
                for (_, idx) in indexes.iter_mut() {
                    idx.insert_row(rid as u32, cells, table);
                }
            }
            WriteKind::Delete => {
                for (_, idx) in indexes.iter_mut() {
                    idx.remove_row(rid as u32, cells, table);
                }
                if let Some(moved_from) = table.swap_remove(rid) {
                    let moved: Vec<Cell> = table.row(rid).to_vec();
                    for (_, idx) in indexes.iter_mut() {
                        idx.reindex_row(moved_from as u32, rid as u32, &moved);
                    }
                }
            }
        }
    }
}
