//! Index maintenance ≡ rebuild, across the scan/set boundary.
//!
//! A key's postings decide "is this row's `Y` new?" by scanning its
//! witness rows while it has at most `SCAN_WITNESSES` of them, and through
//! a set of `Y`-projections once it has more. Random maintained inserts and
//! deletes ([`Database::write_row`]) run against one relation carrying
//! three index shapes:
//!
//! * a skewed narrow key (`k → a`): most rows share key 0, whose witness
//!   list crosses the constant upward in the insert-heavy first half of a
//!   run and back down in the delete-heavy second half;
//! * an `∅`-key domain index (`∅ → (b, c)`, 16 values), one key whose
//!   witness list crosses the constant the same way;
//! * a wide-`Y` key index (`(b, c) → (k, a, d, e, f)`, projections too wide
//!   to store inline).
//!
//! After every op each maintained index is compared with
//! [`HashIndex::build`] over the current table: the same keys, the same
//! `all` multiset per key, witness `Y`-projections equal to the distinct
//! `Y` of `all` with none repeated, and the same `max_witnesses`.
//!
//! Runs 256 cases by default; `PROPTEST_CASES=512` is CI's scheduled
//! deep-fuzz setting.

use bounded_cq::core::access::ConstraintId;
use bounded_cq::prelude::*;
use bounded_cq::storage::WriteKind;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const COLS: [&str; 7] = ["k", "a", "b", "c", "d", "e", "f"];

fn schema() -> AccessSchema {
    let catalog = Catalog::from_names(&[("r", &COLS)]).unwrap();
    let mut a = AccessSchema::new(Arc::clone(&catalog));
    a.add("r", &["k"], &["a"], 64).unwrap();
    a.add("r", &[], &["b", "c"], 16).unwrap();
    a.add("r", &["b", "c"], &["k", "a", "d", "e", "f"], 64)
        .unwrap();
    a
}

/// A generated row: `k` is 0 for six draws in eight, so key 0 collects
/// most rows and up to 14 distinct `a` values.
fn row_values(r: &[i64; 7]) -> Vec<Value> {
    let k = if r[0] < 6 { 0 } else { r[0] - 5 };
    std::iter::once(k)
        .chain(r[1..].iter().copied())
        .map(Value::int)
        .collect()
}

/// The cells of `rid` at `cols`.
fn project(table: &Table, rid: u32, cols: &[usize]) -> Vec<u64> {
    let row = table.row(rid as usize);
    cols.iter().map(|&c| row[c].raw()).collect()
}

/// Asserts the maintained index for constraint `cid` matches a rebuild.
fn check_index(db: &Database, a: &AccessSchema, cid: usize, step: usize) {
    let c = a.constraint(ConstraintId(cid));
    let table = db.table(c.relation());
    let maintained = db.index_for(c).expect("index built");
    let rebuilt = HashIndex::build(table, c.x(), c.y());
    let ctx = format!(
        "constraint {cid} ({:?} → {:?}) after op {step}",
        c.x(),
        c.y()
    );

    let postings = |idx: &HashIndex| -> BTreeMap<Vec<u64>, Vec<u32>> {
        idx.entries()
            .map(|(k, p)| {
                let mut all = p.all.clone();
                all.sort_unstable();
                (k.iter().map(|c| c.raw()).collect(), all)
            })
            .collect()
    };
    assert_eq!(
        postings(maintained),
        postings(&rebuilt),
        "{ctx}: keys or all"
    );
    assert_eq!(maintained.num_keys(), rebuilt.num_keys(), "{ctx}");
    assert_eq!(
        maintained.max_witnesses(),
        rebuilt.max_witnesses(),
        "{ctx}: max_witnesses"
    );
    for (k, p) in maintained.entries() {
        let witness_y: Vec<Vec<u64>> = p
            .witnesses
            .iter()
            .map(|&r| project(table, r, c.y()))
            .collect();
        let distinct_witness_y: BTreeSet<Vec<u64>> = witness_y.iter().cloned().collect();
        let distinct_all_y: BTreeSet<Vec<u64>> =
            p.all.iter().map(|&r| project(table, r, c.y())).collect();
        assert_eq!(
            witness_y.len(),
            distinct_witness_y.len(),
            "{ctx}: key {k:?} repeats a Y"
        );
        assert_eq!(
            distinct_witness_y, distinct_all_y,
            "{ctx}: key {k:?} witness coverage"
        );
        assert!(
            p.witnesses.iter().all(|w| p.all.contains(w)),
            "{ctx}: key {k:?} witness outside all"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn maintained_indexes_equal_a_rebuild_across_the_scan_set_boundary(
        initial in prop::collection::vec(
            [0..8i64, 0..14i64, 0..4i64, 0..4i64, 0..2i64, 0..2i64, 0..2i64],
            0..12,
        ),
        ops in prop::collection::vec(
            (0..4u8, 0..1024usize, [0..8i64, 0..14i64, 0..4i64, 0..4i64, 0..2i64, 0..2i64, 0..2i64]),
            1..120,
        ),
    ) {
        let a = schema();
        let mut db = Database::new(Arc::clone(a.catalog()));
        for r in &initial {
            db.insert("r", &row_values(r)).unwrap();
        }
        db.build_indexes(&a);
        let rel = a.constraint(ConstraintId(0)).relation();
        let half = ops.len() / 2;
        for (step, (sel, pick, r)) in ops.iter().enumerate() {
            // Insert-heavy first half, delete-heavy second half.
            let insert = if step < half { *sel < 3 } else { *sel < 1 };
            let len = db.table(rel).len();
            if insert || len == 0 {
                db.write_row(WriteKind::Insert, "r", &row_values(r), true).unwrap();
            } else {
                let victim = db.value_rows(rel).nth(pick % len).unwrap();
                let hit = db.write_row(WriteKind::Delete, "r", &victim, true).unwrap();
                prop_assert!(hit.is_some(), "a stored row must be found");
            }
            for cid in 0..a.constraints().len() {
                check_index(&db, &a, cid, step);
            }
        }
    }
}
