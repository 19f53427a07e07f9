//! Fault-injection matrix for the durability layer, driven end-to-end
//! through [`MemLog`]'s crash model: torn tails, partial snapshots, CRC
//! corruption, lying fsyncs, torn bulk loads, and sequence gaps — each
//! asserting recovery lands on a consistent committed prefix (or fails
//! loudly when the log is damaged in a way a crash cannot produce). A
//! failing-device wrapper drives the writer's fail-stop contract, and
//! hand-built records drive replay's input checks.

use bcq_core::prelude::*;
use bcq_durability::{
    checkpoint, frame::append_frame, recover, rel_stream, snapshot_name, LogStorage, MemLog,
    RecordBody, RecoverError, RecoveryReport, SyncPolicy, WalRecord, WalWriter, META_STREAM,
};
use bcq_storage::Database;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Catalog::from_names(&[("r", &["a", "b"]), ("s", &["c"])]).unwrap()
}

/// A WAL-attached database over `log`, starting at sequence 1.
fn wired(log: &Arc<MemLog>, policy: SyncPolicy) -> (Database, Arc<WalWriter>) {
    let writer = Arc::new(WalWriter::new(log.clone() as Arc<_>, policy, 1));
    let mut db = Database::new(catalog());
    db.set_wal(Some(writer.clone()));
    (db, writer)
}

/// One relation's comparable state: its epoch and decoded rows.
type RelState = (u64, Vec<Vec<Value>>);

/// Comparable full state: global epoch, then per relation (epoch, rows).
fn state(db: &Database) -> (u64, Vec<RelState>) {
    let rels = (0..db.num_relations())
        .map(|i| {
            let rel = RelId(i);
            (db.epoch_of(rel), db.value_rows(rel).collect())
        })
        .collect();
    (db.epoch(), rels)
}

#[test]
fn torn_final_record_is_dropped_not_misreplayed() {
    // Two synced inserts, then one unsynced; every crash point inside the
    // unsynced record must recover to exactly the two-insert state.
    let full_scenario = |keep: usize| {
        let log = Arc::new(MemLog::new());
        let (mut db, _w) = wired(&log, SyncPolicy::Manual);
        db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
        db.insert("s", &[Value::int(3)]).unwrap();
        log.sync().unwrap();
        let oracle2 = state(&db);
        db.insert("r", &[Value::int(4), Value::int(5)]).unwrap();
        let oracle3 = state(&db);
        let unsynced = log.unsynced_bytes();
        log.crash(keep.min(unsynced));
        (log, oracle2, oracle3, unsynced)
    };
    let (_, _, _, unsynced) = full_scenario(usize::MAX);
    for keep in 0..=unsynced {
        let (log, oracle2, oracle3, _) = full_scenario(keep);
        let (recovered, report) = recover(&*log, catalog()).unwrap();
        if keep == unsynced {
            assert_eq!(state(&recovered), oracle3, "complete record replays");
            assert_eq!(report.last_seq, 3);
        } else {
            assert_eq!(state(&recovered), oracle2, "crash at {keep} bytes");
            assert_eq!(report.last_seq, 2);
            if keep > 0 {
                assert_eq!(report.torn_bytes, keep as u64, "crash at {keep} bytes");
            }
        }
    }
}

#[test]
fn crc_corruption_fails_loudly_with_the_offending_offset() {
    let log = Arc::new(MemLog::new());
    let (mut db, _w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
    db.insert("r", &[Value::int(3), Value::int(4)]).unwrap();
    // Flip a payload byte of the FIRST record on the relation stream: a
    // fully-present record that fails its CRC is bit rot, not a crash.
    log.corrupt_byte("rel-0", 10);
    match recover(&*log, catalog()) {
        Err(RecoverError::Corrupt { stream, offset }) => {
            assert_eq!(stream, "rel-0");
            assert_eq!(offset, 0, "first record's frame header offset");
        }
        other => panic!("expected loud corruption failure, got {other:?}"),
    }
}

#[test]
fn truncated_snapshot_falls_back_to_the_previous_one() {
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::str("early"), Value::int(1)])
        .unwrap();
    checkpoint(&*log, &db, w.last_seq(), 2).unwrap();
    let older = snapshot_name(w.last_seq());

    db.insert("r", &[Value::str("mid"), Value::int(2)]).unwrap();
    checkpoint(&*log, &db, w.last_seq(), 2).unwrap();
    let newer = snapshot_name(w.last_seq());

    db.insert("s", &[Value::int(9)]).unwrap();
    let oracle = state(&db);

    // The newest snapshot is torn (crash mid-checkpoint): fall back.
    log.truncate_blob(&newer, 5);
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(report.snapshot.as_deref(), Some(older.as_str()));
    assert_eq!(report.snapshots_skipped, 1);
    assert_eq!(state(&recovered), oracle, "older snapshot + longer replay");

    // Both snapshots torn: recovery starts empty and replays everything.
    log.truncate_blob(&older, 3);
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(report.snapshot, None);
    assert_eq!(report.snapshots_skipped, 2);
    assert_eq!(state(&recovered), oracle, "full replay from genesis");
}

#[test]
fn recovery_is_idempotent_and_restartable() {
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Manual);
    db.insert("r", &[Value::str("x"), Value::int(1)]).unwrap();
    {
        let mut l = db.bulk_loader(RelId(1));
        l.push_rows(&[Value::int(10)]);
        l.push_rows(&[Value::int(20)]);
    }
    db.insert("r", &[Value::str("y"), Value::int(2)]).unwrap();
    log.sync().unwrap();
    db.insert("r", &[Value::str("z"), Value::int(3)]).unwrap();
    log.crash(3); // torn tail: the last insert is cut mid-record

    let (db1, report1) = recover(&*log, catalog()).unwrap();
    assert!(report1.torn_bytes > 0);
    // Recover again on the same storage: identical state, nothing torn or
    // discarded the second time (the first pass truncated the junk away).
    let (db2, report2) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&db2), state(&db1));
    assert_eq!(report2.last_seq, report1.last_seq);
    assert_eq!(report2.torn_bytes, 0);
    assert_eq!(report2.discarded, 0);
    assert_eq!(report2.truncated_streams, 0);

    // A writer restarted at last_seq + 1 continues the history cleanly.
    let w2 = Arc::new(WalWriter::new(
        log.clone() as Arc<_>,
        SyncPolicy::Always,
        report2.last_seq + 1,
    ));
    let mut db3 = db2.clone();
    db3.set_wal(Some(w2));
    db3.insert("s", &[Value::int(30)]).unwrap();
    let oracle = state(&db3);
    let (db4, _) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&db4), oracle);
    drop(w);
}

#[test]
fn lying_fsync_loses_acknowledged_writes_but_recovery_stays_sound() {
    let log = Arc::new(MemLog::new());
    log.set_fsync_lies(true);
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    for i in 0..3 {
        db.insert_maintained("s", &[Value::int(i)]).unwrap();
    }
    assert_eq!(w.stats().fsyncs, 3, "the drive claimed three flushes");
    log.crash(0); // power loss: the volatile cache never hit the platter
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(recovered.epoch(), 0, "acknowledged writes are gone");
    assert_eq!(report.last_seq, 0);
    assert_eq!(report.replayed, 0);
}

#[test]
fn bulk_load_without_its_end_record_is_discarded_whole() {
    let scenario = || {
        let log = Arc::new(MemLog::new());
        let (mut db, _w) = wired(&log, SyncPolicy::Manual);
        db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
        log.sync().unwrap();
        let oracle_pre = state(&db);
        let mut l = db.bulk_loader(RelId(1));
        l.push_rows(&[Value::int(10)]);
        l.push_rows(&[Value::int(20)]);
        let before_end = log.unsynced_bytes();
        drop(l); // appends the BulkEnd record
        let end_bytes = log.unsynced_bytes() - before_end;
        let oracle_post = state(&db);
        (log, oracle_pre, oracle_post, before_end, end_bytes)
    };

    // Crash right before the end record: the whole load is torn away,
    // including its commit — the epoch vector rolls back to pre-bulk.
    let (log, oracle_pre, _, before_end, _) = scenario();
    log.crash(before_end);
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&recovered), oracle_pre);
    assert_eq!(report.last_seq, 1, "rolled back to before BulkBegin");
    assert_eq!(
        report.discarded, 3,
        "begin + two rows (the end never landed)"
    );

    // Crash right after it: the load is complete and replays in full.
    let (log, _, oracle_post, before_end, end_bytes) = scenario();
    log.crash(before_end + end_bytes);
    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&recovered), oracle_post);
    assert_eq!(report.discarded, 0);
}

#[test]
fn bulk_delete_touches_only_its_shard_and_recovery_keeps_the_vector_clock() {
    // Regression guard: `Database::delete` (the bulk-unload path that drops
    // the relation's indices) must funnel through `shard_mut` on exactly
    // one shard — untouched relations keep their epoch *and* their
    // physical `Arc` (COW sharing with older snapshots) — and a recovery
    // snapshot taken across the delete must reproduce the vector clock.
    let log = Arc::new(MemLog::new());
    let (mut db, w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
    db.insert("r", &[Value::int(3), Value::int(4)]).unwrap();
    db.insert("s", &[Value::int(9)]).unwrap();
    db.ensure_index_cols(RelId(0), &[0], &[1]);
    let pre = db.clone();
    let (r, s) = (RelId(0), RelId(1));
    let (r_epoch, s_epoch) = (db.epoch_of(r), db.epoch_of(s));

    assert!(db.delete("r", &[Value::int(1), Value::int(2)]).unwrap());
    assert_eq!(db.epoch_of(r), r_epoch + 1, "deleted shard advances");
    assert_eq!(db.epoch_of(s), s_epoch, "untouched shard's epoch is still");
    assert!(
        Arc::ptr_eq(pre.shard(s), db.shard(s)),
        "untouched shard stays physically shared with the pre-delete clone"
    );
    assert!(
        !Arc::ptr_eq(pre.shard(r), db.shard(r)),
        "the deleted shard was copied on write"
    );
    assert_eq!(db.shard(r).num_indexes(), 0, "bulk delete drops indices");

    // A checkpoint taken across the delete carries the exact vector clock,
    // and so does pure log replay.
    checkpoint(&*log, &db, w.last_seq(), 2).unwrap();
    let (from_snap, report) = recover(&*log, catalog()).unwrap();
    assert!(report.snapshot.is_some());
    assert_eq!(state(&from_snap), state(&db));
    log.delete_blob(&snapshot_name(w.last_seq())).unwrap();
    let (from_log, _) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&from_log), state(&db));
}

#[test]
fn records_beyond_a_sequence_gap_are_discarded() {
    let log = Arc::new(MemLog::new());
    let (mut db, _w) = wired(&log, SyncPolicy::Always);
    db.insert("r", &[Value::int(1), Value::int(2)]).unwrap();
    db.insert("r", &[Value::int(3), Value::int(4)]).unwrap();
    let oracle = state(&db);
    // Hand-append a valid record whose sequence number skips ahead — the
    // shape a reordering disk leaves. It must not replay.
    let mut syms = SymbolTable::new();
    let rogue = WalRecord {
        seq: 9,
        body: RecordBody::Insert {
            commit: 9,
            rel: 0,
            cells: vec![
                syms.encode(&Value::int(7)).raw(),
                syms.encode(&Value::int(8)).raw(),
            ],
        },
    };
    let mut framed = Vec::new();
    append_frame(&mut framed, &rogue.encode());
    log.append("rel-0", &framed).unwrap();
    log.sync().unwrap();

    let (recovered, report) = recover(&*log, catalog()).unwrap();
    assert_eq!(state(&recovered), oracle);
    assert_eq!(report.last_seq, 2);
    assert_eq!(report.discarded, 1);
    assert_eq!(report.truncated_streams, 1, "the gap suffix is cut away");
    // And the cut is durable: a second recovery sees a clean log.
    let (_, report2) = recover(&*log, catalog()).unwrap();
    assert_eq!(report2.discarded, 0);
}

// --- Fail-stop WAL writer --------------------------------------------------

/// A [`LogStorage`] over a [`MemLog`] whose appends and fsyncs fail on
/// demand — the ENOSPC / EIO a real device returns.
#[derive(Debug)]
struct FailingLog {
    inner: Arc<MemLog>,
    appends: AtomicU64,
    /// The 1-based append call that fails (0: none).
    fail_append: AtomicU64,
    /// Every fsync fails while this is set.
    fail_sync: AtomicBool,
}

impl FailingLog {
    fn new(inner: Arc<MemLog>) -> Self {
        FailingLog {
            inner,
            appends: AtomicU64::new(0),
            fail_append: AtomicU64::new(0),
            fail_sync: AtomicBool::new(false),
        }
    }
}

impl LogStorage for FailingLog {
    fn append(&self, stream: &str, bytes: &[u8]) -> io::Result<()> {
        let n = self.appends.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.fail_append.load(Ordering::SeqCst) {
            return Err(io::Error::other("injected append failure"));
        }
        self.inner.append(stream, bytes)
    }
    fn sync(&self) -> io::Result<()> {
        if self.fail_sync.load(Ordering::SeqCst) {
            return Err(io::Error::other("injected fsync failure"));
        }
        self.inner.sync()
    }
    fn read(&self, stream: &str) -> io::Result<Vec<u8>> {
        self.inner.read(stream)
    }
    fn streams(&self) -> io::Result<Vec<String>> {
        self.inner.streams()
    }
    fn truncate(&self, stream: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(stream, len)
    }
    fn write_blob(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.inner.write_blob(name, bytes)
    }
    fn read_blob(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        self.inner.read_blob(name)
    }
    fn list_blobs(&self) -> io::Result<Vec<String>> {
        self.inner.list_blobs()
    }
    fn delete_blob(&self, name: &str) -> io::Result<()> {
        self.inner.delete_blob(name)
    }
}

/// A database writing through a deferred `SyncPolicy::Always` writer over
/// `log` — the serving tier's group-commit configuration.
fn wired_deferred(log: &Arc<FailingLog>) -> (Database, Arc<WalWriter>) {
    let writer = Arc::new(WalWriter::new(
        log.clone() as Arc<dyn LogStorage>,
        SyncPolicy::Always,
        1,
    ));
    writer.set_deferred(true);
    let mut db = Database::new(catalog());
    db.set_wal(Some(writer.clone()));
    (db, writer)
}

#[test]
fn failed_append_poisons_the_writer_and_every_ok_ack_survives() {
    let mem = Arc::new(MemLog::new());
    let log = Arc::new(FailingLog::new(mem.clone()));
    log.fail_append.store(4, Ordering::SeqCst);
    let (mut db, writer) = wired_deferred(&log);
    let mut acks = Vec::new();
    let mut acked_rows = Vec::new();
    for i in 0..6 {
        db.insert_maintained("s", &[Value::int(i)]).unwrap();
        let ok = writer.ack().is_ok();
        if ok {
            acked_rows.push(vec![Value::int(i)]);
        }
        acks.push(ok);
    }
    // The 4th append failed: its ack and every later one report it —
    // none is acknowledged over the hole in the log.
    assert_eq!(acks, [true, true, true, false, false, false]);
    assert!(writer.sync().is_err(), "sync reports the failure too");
    assert!(writer.sync_through(0).is_err());

    mem.crash(0);
    let (recovered, _) = recover(&*mem, catalog()).unwrap();
    let rows: Vec<Vec<Value>> = recovered.value_rows(RelId(1)).collect();
    assert_eq!(rows, acked_rows, "every Ok-acked row is recovered");
}

#[test]
fn failed_fsync_is_never_retried_into_a_false_success() {
    let mem = Arc::new(MemLog::new());
    let log = Arc::new(FailingLog::new(mem.clone()));
    let (mut db, writer) = wired_deferred(&log);
    db.insert_maintained("s", &[Value::int(1)]).unwrap();
    writer.ack().unwrap();

    log.fail_sync.store(true, Ordering::SeqCst);
    db.insert_maintained("s", &[Value::int(2)]).unwrap();
    assert!(writer.ack().is_err(), "the failed fsync fails its ack");

    // The device would now report success — but the kernel may have
    // dropped the pages the failed fsync covered, so a fresh fsync must
    // not be allowed to acknowledge anything.
    log.fail_sync.store(false, Ordering::SeqCst);
    db.insert_maintained("s", &[Value::int(3)]).unwrap();
    assert!(writer.ack().is_err(), "the next ack still fails");
    assert!(writer.sync().is_err());
    assert_eq!(mem.syncs(), 1, "no fsync was attempted after the failure");
}

// --- Replay input checks ---------------------------------------------------

/// Writes hand-built records onto the streams they belong to, synced, and
/// returns recovery's verdict over them.
fn recover_records(
    records: &[WalRecord],
) -> std::result::Result<(Database, RecoveryReport), RecoverError> {
    let log = MemLog::new();
    for rec in records {
        let stream = rec.body.rel().map_or(META_STREAM.to_string(), rel_stream);
        let mut framed = Vec::new();
        append_frame(&mut framed, &rec.encode());
        log.append(&stream, &framed).unwrap();
    }
    log.sync().unwrap();
    recover(&log, catalog())
}

/// Raw cell words: a symbol that was never interned, and a small int.
fn ghost_sym() -> u64 {
    Cell::from_sym(Sym(0)).raw()
}

fn small(i: i64) -> u64 {
    Cell::from_small_int(i).unwrap().raw()
}

/// A single-row record, then the same cells as the only chunk of a
/// complete bulk load.
fn row_and_bulk(rel: u32, cells: Vec<u64>) -> [Vec<WalRecord>; 2] {
    let rec = |seq, body| WalRecord { seq, body };
    [
        vec![rec(
            1,
            RecordBody::InsertMaintained {
                commit: 1,
                rel,
                cells: cells.clone(),
            },
        )],
        vec![
            rec(1, RecordBody::BulkBegin { commit: 1, rel }),
            rec(
                2,
                RecordBody::BulkChunk {
                    rel,
                    rows: 1,
                    cells,
                },
            ),
            rec(3, RecordBody::BulkEnd { rel }),
        ],
    ]
}

#[test]
fn replay_rejects_cells_that_name_a_never_interned_id() {
    for records in row_and_bulk(0, vec![ghost_sym(), small(1)]) {
        let err = recover_records(&records).unwrap_err();
        assert!(matches!(err, RecoverError::Replay(_)), "{err}");
    }
    // The same shapes with only inline cells replay fine.
    for records in row_and_bulk(0, vec![small(7), small(1)]) {
        let (db, report) = recover_records(&records).unwrap();
        assert_eq!(db.table(RelId(0)).len(), 1);
        assert_eq!(report.last_seq, records.len() as u64);
    }
}

#[test]
fn replay_rejects_cells_of_the_wrong_arity() {
    for records in row_and_bulk(0, vec![small(1)]) {
        let err = recover_records(&records).unwrap_err();
        assert!(matches!(err, RecoverError::Replay(_)), "{err}");
    }
}

#[test]
fn replay_rejects_records_naming_an_out_of_range_relation() {
    for records in row_and_bulk(7, vec![small(1)]) {
        let err = recover_records(&records).unwrap_err();
        assert!(matches!(err, RecoverError::Replay(_)), "{err}");
    }
}
