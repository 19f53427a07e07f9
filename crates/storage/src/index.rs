//! Hash indices implementing the retrieval side of access constraints.
//!
//! The index mandated by `X → (Y, N)` must, given an `X`-value `ā`, return a
//! witness set `D' ⊆ D` with `|D'| ≤ N` covering all distinct `Y`-values
//! `D_Y(X = ā)`, at a cost measured in `N` (Section 2). [`HashIndex`] keeps
//! two posting lists per key:
//!
//! * **witnesses** — one row id per distinct `Y`-projection: what the
//!   bounded executor (`evalDQ`) reads; its size is what access constraints
//!   bound;
//! * **all** — every matching row id: what a conventional DBMS reads through
//!   a secondary index (it fetches whole rows, duplicates included — the
//!   behaviour the paper observed in MySQL's logs), used by the baseline.
//!
//! Keys and `Y`-projections are interned [`Cell`] rows, so probing hashes a
//! handful of `u64` words — never string bytes — regardless of the value
//! types in the indexed columns.
//!
//! ## The witness rule
//!
//! A row added to a key becomes a witness iff no current witness of that
//! key has equal cells in the `Y` columns (`Postings::add`, shared by
//! maintained inserts and both builds), so witnesses come out in first-seen
//! ascending-rid order. While a key has at most `SCAN_WITNESSES` (8)
//! witnesses the question is answered by comparing the new row against
//! those witness rows in the [`Table`]: no per-key set exists. Only a key
//! whose witness list grows past the constant gets a set of its distinct
//! `Y`-projections, built once from the witness rows and kept in step from
//! then on (also when deletes shrink the list again).
//!
//! The constant is safe under `D |= A`: a key holds at most `N` witnesses,
//! so an index with `N ≤ SCAN_WITNESSES` (key indexes, small fan-outs)
//! never allocates a set and its per-row check touches at most `N` rows.
//! A key past the constant — the one key of a bounded-domain `∅ → (A, N)`
//! index, or a key that breaks its bound — gets a set, so no check scans
//! more than the constant's worth of rows whatever the data.

use crate::table::Table;
use bcq_core::fx::{FxHashMap, FxHashSet};
use bcq_core::prelude::{Cell, RowBuf};

/// Witness-list length up to which a key scans its witness rows instead of
/// keeping a set: a scan stays a handful of row comparisons, and every
/// TPCH key and fan-out index (`N ≤ 7`) fits under it.
pub(crate) const SCAN_WITNESSES: usize = 8;

/// Posting lists for one `X`-value.
#[derive(Debug, Clone, Default)]
pub struct Postings {
    /// Every row with this key, in insertion order.
    pub all: Vec<u32>,
    /// One row per distinct `Y`-projection, in first-seen order.
    pub witnesses: Vec<u32>,
    /// The distinct `Y`-projections behind `witnesses`, kept only once the
    /// list has grown past [`SCAN_WITNESSES`].
    y_seen: Option<Box<FxHashSet<RowBuf>>>,
}

impl Postings {
    /// Appends `rid` (its cells are `row`, and `table` holds it and every
    /// witness) and makes it a witness iff its projection on the value
    /// columns `y` is new for this key — the one witness rule. Returns
    /// whether it became a witness.
    pub(crate) fn add(&mut self, rid: u32, row: &[Cell], y: &[usize], table: &Table) -> bool {
        self.all.push(rid);
        let new = match &mut self.y_seen {
            Some(seen) => seen.insert(project(row, y)),
            None => !self
                .witnesses
                .iter()
                .any(|&w| same_y(table.row(w as usize), row, y)),
        };
        if !new {
            return false;
        }
        self.witnesses.push(rid);
        if self.y_seen.is_none() && self.witnesses.len() > SCAN_WITNESSES {
            let seen = self
                .witnesses
                .iter()
                .map(|&w| project(table.row(w as usize), y))
                .collect();
            self.y_seen = Some(Box::new(seen));
        }
        true
    }
}

/// The cells of `row` at `cols`.
fn project(row: &[Cell], cols: &[usize]) -> RowBuf {
    cols.iter().map(|&c| row[c]).collect()
}

/// `true` if rows `a` and `b` agree on the columns `y`.
fn same_y(a: &[Cell], b: &[Cell], y: &[usize]) -> bool {
    y.iter().all(|&c| a[c] == b[c])
}

/// A hash index on key columns `x` exposing value columns `y`.
#[derive(Debug, Clone)]
pub struct HashIndex {
    x: Vec<usize>,
    y: Vec<usize>,
    map: FxHashMap<RowBuf, Postings>,
    keys_by_witnesses: WitnessCounts,
}

static EMPTY: &[u32] = &[];

/// Row count at or above which [`HashIndex::build`] switches from the
/// per-row hash-map mode to the sort-based mode. Below this the per-row
/// build's smaller constant wins; above it the sort-based build's one
/// key allocation and one map insertion *per distinct key* (instead of
/// per row) dominate.
const SORT_BUILD_THRESHOLD: usize = 1 << 13;

impl HashIndex {
    /// An empty index on key columns `x` exposing value columns `y`, with
    /// room for `keys` keys.
    fn with_capacity(x: &[usize], y: &[usize], keys: usize) -> HashIndex {
        HashIndex {
            x: x.to_vec(),
            y: y.to_vec(),
            map: FxHashMap::with_capacity_and_hasher(keys, Default::default()),
            keys_by_witnesses: WitnessCounts::default(),
        }
    }

    /// Builds the index for key columns `x` and value columns `y` (both
    /// sorted column index lists, as stored in an
    /// [`bcq_core::access::AccessConstraint`]).
    ///
    /// Dispatches on table size between [`Self::build_rowwise`] and
    /// [`Self::build_sorted`]; both produce identical indices (postings in
    /// ascending-rid order, witnesses in first-seen `Y` order), so which
    /// one ran is unobservable.
    pub fn build(table: &Table, x: &[usize], y: &[usize]) -> HashIndex {
        if table.len() >= SORT_BUILD_THRESHOLD {
            HashIndex::build_sorted(table, x, y)
        } else {
            HashIndex::build_rowwise(table, x, y)
        }
    }

    /// Per-row build: one hash-map entry lookup (and one key allocation)
    /// per row — the incremental-maintenance code path replayed over the
    /// whole table.
    pub fn build_rowwise(table: &Table, x: &[usize], y: &[usize]) -> HashIndex {
        let mut idx = HashIndex::with_capacity(x, y, 0);
        for (rid, row) in table.rows().enumerate() {
            idx.insert_row(rid as u32, row, table);
        }
        idx
    }

    /// Sort-based build, for the deferred index build after a bulk load:
    /// extracts each row's key **once** into a contiguous `(key, rid)`
    /// pair vector with one sequential table pass, sorts the pairs (every
    /// comparison touches only the pair being moved — no random row
    /// fetches through the rid indirection, which is what made the naive
    /// rid-sort fall off a cliff once the table outgrew the cache), sizes
    /// the map to the number of key groups, then emits each group in one
    /// shot. Ties sort by rid, so groups come out in ascending-rid order
    /// and the resulting postings — `all`, witness promotion order,
    /// everything — are identical to [`Self::build_rowwise`]'s.
    pub fn build_sorted(table: &Table, x: &[usize], y: &[usize]) -> HashIndex {
        let n = table.len();
        u32::try_from(n).expect("table too large");
        // X = ∅ (bounded-domain constraints) needs no sort at all: every
        // row is one group in rid order already.
        if x.is_empty() {
            let mut idx = HashIndex::with_capacity(x, y, 1);
            if n > 0 {
                idx.emit_group(table, RowBuf::new(), 0..n as u32);
            }
            return idx;
        }
        let mut keyed: Vec<(RowBuf, u32)> = table
            .rows()
            .enumerate()
            .map(|(rid, row)| (project(row, x), rid as u32))
            .collect();
        keyed.sort_unstable_by(|(ka, a), (kb, b)| {
            for (ca, cb) in ka.iter().zip(kb.iter()) {
                match ca.raw().cmp(&cb.raw()) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            a.cmp(b)
        });
        let same_key = |a: &(RowBuf, u32), b: &(RowBuf, u32)| a.0 == b.0;
        let groups = keyed.chunk_by(same_key).count();
        let mut idx = HashIndex::with_capacity(x, y, groups);
        for group in keyed.chunk_by(same_key) {
            let key = group[0].0.clone();
            idx.emit_group(table, key, group.iter().map(|&(_, rid)| rid));
        }
        idx
    }

    /// Emits one sorted-build key group (the rows `rids`, ascending, all
    /// with key `key`) as a postings entry, promoting first-seen
    /// `Y`-projections to witnesses exactly as the row-wise build would.
    fn emit_group(&mut self, table: &Table, key: RowBuf, rids: impl ExactSizeIterator<Item = u32>) {
        let mut postings = Postings {
            all: Vec::with_capacity(rids.len()),
            ..Postings::default()
        };
        for rid in rids {
            postings.add(rid, table.row(rid as usize), &self.y, table);
        }
        self.keys_by_witnesses.moved(0, postings.witnesses.len());
        self.map.insert(key, postings);
    }

    /// Key columns.
    pub fn x(&self) -> &[usize] {
        &self.x
    }

    /// Value columns.
    pub fn y(&self) -> &[usize] {
        &self.y
    }

    /// Witness rows for `key`: at most one per distinct `Y`-value.
    pub fn witnesses(&self, key: &[Cell]) -> &[u32] {
        self.map.get(key).map_or(EMPTY, |p| &p.witnesses)
    }

    /// All rows matching `key` (what a conventional index scan returns).
    pub fn all(&self, key: &[Cell]) -> &[u32] {
        self.map.get(key).map_or(EMPTY, |p| &p.all)
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.map.len()
    }

    /// The largest witness set across keys — the smallest `N` for which the
    /// indexed table satisfies `X → (Y, N)`. Used by constraint validation
    /// and by constraint *discovery* from data.
    pub fn max_witnesses(&self) -> usize {
        self.keys_by_witnesses.max()
    }

    /// Iterates over `(key, postings)` pairs (unspecified order).
    pub fn entries(&self) -> impl Iterator<Item = (&[Cell], &Postings)> + '_ {
        self.map.iter().map(|(k, p)| (k.as_slice(), p))
    }

    /// Maintains the index for a newly appended row: `rid` is its id in
    /// `table`, which already holds it (the table the index was built
    /// from). Amortized O(|X| + |Y| · min(witnesses, `SCAN_WITNESSES`)).
    ///
    /// Witness semantics are preserved: the row becomes a witness only if
    /// its `Y`-projection is new for its key.
    pub fn insert_row(&mut self, rid: u32, row: &[Cell], table: &Table) {
        let entry = self.map.entry(project(row, &self.x)).or_default();
        let before = entry.witnesses.len();
        if entry.add(rid, row, &self.y, table) {
            self.keys_by_witnesses.moved(before, before + 1);
        }
    }

    /// Maintains the index for a row about to be removed: drops `rid` from
    /// its key's posting lists. If `rid` was the witness of its
    /// `Y`-projection, another row with the same `(X, Y)` (looked up in
    /// `table`, which must still contain all rows including `rid`) is
    /// promoted to witness; if none exists, the `Y`-value is gone and the
    /// witness set shrinks — witness coverage of all distinct remaining
    /// `Y`-values is preserved either way.
    ///
    /// Cost: O(|postings of the key|).
    pub fn remove_row(&mut self, rid: u32, row: &[Cell], table: &Table) {
        let key = project(row, &self.x);
        let Some(entry) = self.map.get_mut(&key) else {
            return;
        };
        let Some(pos) = entry.all.iter().position(|&r| r == rid) else {
            return;
        };
        entry.all.remove(pos);
        let before = entry.witnesses.len();
        if entry.all.is_empty() {
            self.map.remove(&key);
            self.keys_by_witnesses.moved(before, 0);
            return;
        }
        let Some(wpos) = entry.witnesses.iter().position(|&r| r == rid) else {
            return; // a duplicate copy was the witness; nothing else changes
        };
        // Promote another copy of the same Y-projection, if one survives.
        let replacement = entry
            .all
            .iter()
            .copied()
            .find(|&r| same_y(table.row(r as usize), row, &self.y));
        match replacement {
            Some(r) => entry.witnesses[wpos] = r,
            None => {
                entry.witnesses.remove(wpos);
                if let Some(seen) = &mut entry.y_seen {
                    seen.remove(&project(row, &self.y));
                }
                self.keys_by_witnesses.moved(before, before - 1);
            }
        }
    }

    /// Re-points the posting entries of the row whose id changed from
    /// `old_rid` to `new_rid` (the table's [`Table::swap_remove`] moved it);
    /// `row` is its cell content. O(|postings of its key|).
    pub fn reindex_row(&mut self, old_rid: u32, new_rid: u32, row: &[Cell]) {
        if let Some(entry) = self.map.get_mut(&project(row, &self.x)) {
            for r in entry.all.iter_mut().chain(entry.witnesses.iter_mut()) {
                if *r == old_rid {
                    *r = new_rid;
                }
            }
        }
    }
}

/// Number of keys per witness-list length: entry `n` counts the keys with
/// `n` witnesses, trimmed so the last entry is nonzero. The largest witness
/// list is then the length minus one, kept in O(1) as lists grow and
/// shrink by one.
#[derive(Debug, Clone, Default)]
struct WitnessCounts(Vec<usize>);

impl WitnessCounts {
    /// Records that one key's witness list went from `from` to `to`
    /// entries (0 for a key that is new or gone).
    fn moved(&mut self, from: usize, to: usize) {
        let counts = &mut self.0;
        if from > 0 {
            counts[from] -= 1;
        }
        if to > 0 {
            if counts.len() <= to {
                counts.resize(to + 1, 0);
            }
            counts[to] += 1;
        }
        while counts.last() == Some(&0) {
            counts.pop();
        }
    }

    /// The largest witness-list length (0 with no keys).
    fn max(&self) -> usize {
        self.0.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcq_core::prelude::{RelId, SymbolTable, Value};

    fn table_and_symbols() -> (Table, SymbolTable) {
        // (user, friend): user 1 has friends a, a, b (duplicate row); user 2
        // has friend c.
        let mut symbols = SymbolTable::new();
        let mut t = Table::new(RelId(0), 2);
        for (u, f) in [(1, "a"), (1, "a"), (1, "b"), (2, "c")] {
            t.push(&symbols.encode_row(&[Value::int(u), Value::str(f)]));
        }
        (t, symbols)
    }

    fn key(symbols: &SymbolTable, vals: &[Value]) -> RowBuf {
        symbols.try_encode_row(vals).expect("probe values interned")
    }

    #[test]
    fn witnesses_dedup_by_y() {
        let (t, s) = table_and_symbols();
        let idx = HashIndex::build(&t, &[0], &[1]);
        let w = idx.witnesses(&key(&s, &[Value::int(1)]));
        assert_eq!(w, &[0, 2]); // rows 0 ("a") and 2 ("b"); row 1 is a dup
        let all = idx.all(&key(&s, &[Value::int(1)]));
        assert_eq!(all, &[0, 1, 2]);
    }

    #[test]
    fn witnesses_cover_all_distinct_y() {
        // Contract: the witness rows' Y-projections must equal the set of
        // distinct Y-projections across the full posting list.
        let (t, s) = table_and_symbols();
        let idx = HashIndex::build(&t, &[0], &[1]);
        for (k, postings) in idx.entries() {
            let witness_y: FxHashSet<RowBuf> = postings
                .witnesses
                .iter()
                .map(|&rid| idx.y().iter().map(|&c| t.row(rid as usize)[c]).collect())
                .collect();
            let all_y: FxHashSet<RowBuf> = postings
                .all
                .iter()
                .map(|&rid| idx.y().iter().map(|&c| t.row(rid as usize)[c]).collect())
                .collect();
            assert_eq!(witness_y, all_y, "key {:?}", s.decode_row(k));
            assert_eq!(postings.witnesses.len(), witness_y.len(), "no duplicates");
        }
    }

    #[test]
    fn missing_key_is_empty() {
        let (t, s) = table_and_symbols();
        let idx = HashIndex::build(&t, &[0], &[1]);
        assert!(idx.witnesses(&key(&s, &[Value::int(99)])).is_empty());
        assert!(idx.all(&key(&s, &[Value::int(99)])).is_empty());
        // A never-interned string cannot even produce a key.
        assert!(s.try_encode_row(&[Value::str("ghost")]).is_none());
    }

    #[test]
    fn max_witnesses_reports_tightest_n() {
        let (t, _) = table_and_symbols();
        let idx = HashIndex::build(&t, &[0], &[1]);
        assert_eq!(idx.max_witnesses(), 2); // user 1 has two distinct friends
        assert_eq!(idx.num_keys(), 2);
    }

    #[test]
    fn empty_key_columns_group_everything() {
        // Bounded-domain style: X = ∅ puts all rows under one key.
        let (t, _) = table_and_symbols();
        let idx = HashIndex::build(&t, &[], &[1]);
        let w = idx.witnesses(&[]);
        assert_eq!(w.len(), 3); // distinct friends: a, b, c
        assert_eq!(idx.all(&[]).len(), 4);
        assert_eq!(idx.num_keys(), 1);
    }

    #[test]
    fn multi_column_keys() {
        let (t, s) = table_and_symbols();
        let idx = HashIndex::build(&t, &[0, 1], &[0]);
        // (1, "a") appears twice but y-projection (just col 0 here) dedups
        // to one witness.
        let k = key(&s, &[Value::int(1), Value::str("a")]);
        assert_eq!(idx.witnesses(&k).len(), 1);
        assert_eq!(idx.all(&k).len(), 2);
    }

    #[test]
    fn remove_row_promotes_duplicate_witness() {
        // user 1 has friends a, a, b. Removing the witness copy of "a"
        // (row 0) must promote the duplicate (row 1), not lose the Y-value.
        let (t, s) = table_and_symbols();
        let mut idx = HashIndex::build(&t, &[0], &[1]);
        let k = key(&s, &[Value::int(1)]);
        assert_eq!(idx.witnesses(&k), &[0, 2]);

        idx.remove_row(0, t.row(0), &t);
        assert_eq!(idx.all(&k), &[1, 2]);
        assert_eq!(idx.witnesses(&k), &[1, 2], "duplicate promoted");
        assert_eq!(idx.max_witnesses(), 2);

        // Removing the last copy of "a" retracts the Y-value.
        idx.remove_row(1, t.row(1), &t);
        assert_eq!(idx.witnesses(&k), &[2]);
        assert_eq!(idx.all(&k), &[2]);
        assert_eq!(idx.max_witnesses(), 1, "max recomputed after shrink");

        // Removing the final row of the key drops the key entirely.
        idx.remove_row(2, t.row(2), &t);
        assert!(idx.witnesses(&k).is_empty());
        assert_eq!(idx.num_keys(), 1); // user 2 remains
        assert_eq!(idx.max_witnesses(), 1);
    }

    #[test]
    fn remove_then_reindex_tracks_swap() {
        let (mut t, s) = table_and_symbols();
        let mut idx = HashIndex::build(&t, &[0], &[1]);
        // Delete row 1 (the duplicate (1, "a")): row 3 moves into slot 1.
        let row1 = t.row(1).to_vec();
        idx.remove_row(1, &row1, &t);
        let moved_from = t.swap_remove(1).unwrap();
        assert_eq!(moved_from, 3);
        idx.reindex_row(3, 1, t.row(1));
        let k2 = key(&s, &[Value::int(2)]);
        assert_eq!(idx.witnesses(&k2), &[1], "moved row re-pointed");
        assert_eq!(idx.all(&k2), &[1]);
        // The untouched key is unchanged.
        let k1 = key(&s, &[Value::int(1)]);
        assert_eq!(idx.witnesses(&k1), &[0, 2]);
        assert_eq!(idx.all(&k1), &[0, 2]);
    }

    #[test]
    fn remove_missing_row_is_a_noop() {
        let (t, s) = table_and_symbols();
        let mut idx = HashIndex::build(&t, &[0], &[1]);
        let before_keys = idx.num_keys();
        // A rid not in the postings of its key.
        idx.remove_row(99, t.row(0), &t);
        assert_eq!(idx.num_keys(), before_keys);
        assert_eq!(idx.witnesses(&key(&s, &[Value::int(1)])), &[0, 2]);
    }

    #[test]
    fn empty_table_index() {
        let t = Table::new(RelId(0), 2);
        let idx = HashIndex::build(&t, &[0], &[1]);
        assert_eq!(idx.num_keys(), 0);
        assert_eq!(idx.max_witnesses(), 0);
    }

    /// One [`dump`] entry: raw key words, rids, witnesses, and the number
    /// of distinct witness `Y`-projections.
    type DumpEntry = (Vec<u64>, Vec<u32>, Vec<u32>, usize);

    /// Canonical comparable form: entries sorted by raw key words.
    fn dump(idx: &HashIndex, t: &Table) -> Vec<DumpEntry> {
        let mut d: Vec<_> = idx
            .entries()
            .map(|(k, p)| {
                let distinct_y: FxHashSet<RowBuf> = p
                    .witnesses
                    .iter()
                    .map(|&rid| project(t.row(rid as usize), idx.y()))
                    .collect();
                (
                    k.iter().map(|c| c.raw()).collect(),
                    p.all.clone(),
                    p.witnesses.clone(),
                    distinct_y.len(),
                )
            })
            .collect();
        d.sort();
        d
    }

    #[test]
    fn sorted_build_is_indistinguishable_from_rowwise() {
        // A skewed bag: few keys, many duplicate rows and repeated
        // Y-values, plus nulls and strings — every posting and witness slot
        // must come out bit-identical from both modes, with no witness
        // repeating a Y-projection.
        let mut symbols = SymbolTable::new();
        let mut t = Table::new(RelId(0), 3);
        let mut state = 0x9E37u64;
        for i in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (state >> 33) % 7;
            let row = [
                Value::int(k as i64),
                if k == 3 {
                    Value::Null
                } else {
                    Value::str(["p", "q", "r"][(i % 3) as usize])
                },
                Value::int((state % 5) as i64),
            ];
            t.push(&symbols.encode_row(&row));
        }
        for (x, y) in [
            (vec![0], vec![1, 2]),
            (vec![0, 1], vec![2]),
            (vec![], vec![0, 1]),
            (vec![2], vec![0]),
        ] {
            let rowwise = HashIndex::build_rowwise(&t, &x, &y);
            let sorted = HashIndex::build_sorted(&t, &x, &y);
            let d = dump(&sorted, &t);
            assert_eq!(dump(&rowwise, &t), d, "x={x:?} y={y:?}");
            for (_, _, witnesses, distinct_y) in &d {
                assert_eq!(witnesses.len(), *distinct_y, "a witness repeats a Y");
            }
            assert_eq!(rowwise.max_witnesses(), sorted.max_witnesses());
            assert_eq!(rowwise.num_keys(), sorted.num_keys());
        }
        // And the empty table through the sorted mode explicitly.
        let empty = Table::new(RelId(0), 3);
        assert_eq!(HashIndex::build_sorted(&empty, &[0], &[1]).num_keys(), 0);
    }

    #[test]
    fn set_takes_over_past_the_scan_limit() {
        // One key with 2 · SCAN_WITNESSES distinct Y-values, each stored
        // twice: the key scans its witness rows until the list outgrows
        // the constant, then keeps a set — with the same witnesses.
        let mut symbols = SymbolTable::new();
        let mut t = Table::new(RelId(0), 2);
        let distinct = 2 * SCAN_WITNESSES as i64;
        let mut idx = HashIndex::build(&t, &[0], &[1]);
        for i in 0..2 * distinct {
            t.push(&symbols.encode_row(&[Value::int(1), Value::int(i % distinct)]));
            let rid = t.len() - 1;
            idx.insert_row(rid as u32, t.row(rid), &t);
            let p = idx.entries().next().unwrap().1;
            assert_eq!(p.y_seen.is_some(), p.witnesses.len() > SCAN_WITNESSES);
        }
        let k = key(&symbols, &[Value::int(1)]);
        let first_copies: Vec<u32> = (0..distinct as u32).collect();
        assert_eq!(idx.witnesses(&k), first_copies.as_slice());
        assert_eq!(idx.max_witnesses(), distinct as usize);

        // Retract every Y-value but one (both copies each): the set stays
        // and stays in step.
        let zero = t.row(0)[1];
        while let Some(rid) = (0..t.len()).rev().find(|&r| t.row(r)[1] != zero) {
            idx.remove_row(rid as u32, t.row(rid), &t);
            if let Some(moved_from) = t.swap_remove(rid) {
                idx.reindex_row(moved_from as u32, rid as u32, t.row(rid));
            }
        }
        assert!(idx.entries().next().unwrap().1.y_seen.is_some());
        assert_eq!(idx.witnesses(&k), &[0]);
        assert_eq!(idx.max_witnesses(), 1);
        // A retracted Y-value is new again; a surviving one is not.
        t.push(&symbols.encode_row(&[Value::int(1), Value::int(5)]));
        t.push(&symbols.encode_row(&[Value::int(1), Value::int(0)]));
        for rid in t.len() - 2..t.len() {
            idx.insert_row(rid as u32, t.row(rid), &t);
        }
        assert_eq!(idx.witnesses(&k), &[0, 2]);
        assert_eq!(idx.all(&k), &[0, 1, 2, 3]);
        assert_eq!(idx.max_witnesses(), 2);
    }

    #[test]
    fn max_witnesses_follows_deletes_on_a_key_index() {
        // A key index (every key at N = 1): deleting keys keeps the max
        // at 1 until the last key goes.
        let mut symbols = SymbolTable::new();
        let mut t = Table::new(RelId(0), 2);
        for i in 0..50 {
            t.push(&symbols.encode_row(&[Value::int(i), Value::int(i % 3)]));
        }
        let mut idx = HashIndex::build(&t, &[0], &[1]);
        assert_eq!(idx.max_witnesses(), 1);
        while let Some(rid) = t.len().checked_sub(1) {
            idx.remove_row(rid as u32, t.row(rid), &t);
            t.swap_remove(rid);
            assert_eq!(idx.max_witnesses(), usize::from(!t.is_empty()));
        }
        assert_eq!(idx.num_keys(), 0);
    }
}
