//! Crash recovery: latest usable snapshot + log replay to a consistent
//! epoch vector.
//!
//! Recovery proceeds in four steps:
//!
//! 1. **Snapshot.** Snapshot blobs are tried newest-first; a torn or
//!    corrupt blob is skipped (that is what a crash mid-checkpoint leaves
//!    behind) and the previous one is used, falling back to an empty
//!    database when none decodes. The snapshot fixes the replay start:
//!    records with sequence numbers ≤ its `last_seq` are already folded in.
//! 2. **Merge.** Every stream (`meta` + `rel-<n>`) is split into intact
//!    frames — torn tails dropped, CRC mismatches loudly fatal — and the
//!    decoded records are merged by global sequence number. The replayable
//!    history is the **longest gap-free run** after the snapshot boundary:
//!    a missing sequence number means every later record may depend on
//!    un-synced state, so everything beyond the gap is discarded.
//! 3. **Replay.** The kept run is re-applied **as cells**, through the
//!    same functions live writes use: intern records fold into the
//!    database's symbol table in emission order (each checked to get its
//!    logged id), so logged cell words stay valid as they are; row records
//!    go through [`Database::apply_cells`] and bulk chunks through the
//!    bulk loader — no record is decoded to values and re-encoded. So the
//!    rebuilt cells — and therefore rows, indices, and epochs — are
//!    bit-identical. Every cell word is checked first (a valid word, ids
//!    interned, the relation's arity, the relation in range), and each
//!    commit-bearing record asserts the database arrived at exactly its
//!    commit stamp. A bulk load applies only once its closing
//!    [`RecordBody::BulkEnd`] is read, straight from the staged records;
//!    an open bulk at the tail is torn and discarded whole.
//! 4. **Truncate.** Streams are cut back to the last kept record, so the
//!    discarded suffix can never resurface and a writer restarted at
//!    `last_seq + 1` never collides. This is also what makes recovery
//!    idempotent: recovering twice equals recovering once.
//!
//! [`ReplayObserver`] lets the serving tier watch replayed mutations (to
//! drive registered incremental views back to consistency through the
//! same delta paths used live).

use crate::frame::{decode_frames, FrameError};
use crate::record::{RecordBody, WalRecord};
use crate::snapshot::{decode_snapshot, restore_snapshot, SNAP_PREFIX};
use crate::storage::LogStorage;
use crate::writer::{parse_rel_stream, META_STREAM};
use bcq_core::prelude::{Catalog, Cell, CellKind, RelId, Value};
use bcq_storage::{Database, WriteKind};
use std::io;
use std::sync::Arc;

/// Why recovery refused to produce a database.
#[derive(Debug)]
pub enum RecoverError {
    /// The log storage failed.
    Io(io::Error),
    /// A fully-present record failed its CRC — stored bytes changed, which
    /// a crash cannot do, so replaying would mean replaying garbage.
    Corrupt {
        /// Stream holding the damaged record.
        stream: String,
        /// Byte offset of the record's frame header within the stream.
        offset: usize,
    },
    /// A frame passed its CRC but its payload does not parse (codec bug or
    /// version skew) — never silently skippable.
    Record {
        /// Stream holding the unparseable record.
        stream: String,
        /// Decoder diagnostic.
        msg: String,
    },
    /// The kept run does not replay cleanly (out-of-contract log, e.g. a
    /// logged delete that misses, or a commit-stamp mismatch).
    Replay(String),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Io(e) => write!(f, "log storage I/O: {e}"),
            RecoverError::Corrupt { stream, offset } => {
                write!(f, "stream `{stream}`: CRC mismatch at byte offset {offset}")
            }
            RecoverError::Record { stream, msg } => {
                write!(f, "stream `{stream}`: unparseable record: {msg}")
            }
            RecoverError::Replay(msg) => write!(f, "replay diverged: {msg}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// What recovery did, for logs and telemetry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Name of the snapshot blob restored from, if any.
    pub snapshot: Option<String>,
    /// Newer snapshot blobs skipped because they were torn or corrupt.
    pub snapshots_skipped: usize,
    /// Records re-applied from the log (op, intern, and bulk records).
    pub replayed: u64,
    /// Records discarded: beyond a sequence gap, or part of a torn bulk.
    pub discarded: u64,
    /// Torn tail bytes dropped across all streams.
    pub torn_bytes: u64,
    /// Highest durable sequence number after recovery; a new writer starts
    /// at `last_seq + 1`.
    pub last_seq: u64,
    /// Streams truncated to cut the discarded suffix.
    pub truncated_streams: usize,
}

/// One replayed mutation, as seen by a [`ReplayObserver`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayEvent {
    /// A row was inserted (`maintained` mirrors which insert path ran).
    Inserted {
        /// Touched relation.
        rel: RelId,
        /// The inserted row.
        row: Vec<Value>,
        /// Whether indices were maintained in place.
        maintained: bool,
    },
    /// One copy of a row was deleted.
    Deleted {
        /// Touched relation.
        rel: RelId,
        /// The deleted row.
        row: Vec<Value>,
        /// Whether indices were maintained in place.
        maintained: bool,
    },
    /// A complete bulk load was re-applied (indices dropped).
    BulkLoaded {
        /// Loaded relation.
        rel: RelId,
    },
    /// An index build was re-applied.
    IndexBuilt {
        /// Indexed relation.
        rel: RelId,
    },
}

/// Watches recovery so higher layers (registered views in `bcq-service`)
/// can ride replay back to consistency through their live delta paths.
pub trait ReplayObserver {
    /// The snapshot (or empty database) is restored; replay starts now.
    fn snapshot_loaded(&mut self, _db: &Database) {}
    /// One mutation was re-applied; `db` already reflects it.
    fn applied(&mut self, _db: &Database, _event: ReplayEvent) {}
}

struct NoopObserver;
impl ReplayObserver for NoopObserver {}

/// Recovers a database from `storage` (see the [module docs](self)).
pub fn recover(
    storage: &dyn LogStorage,
    catalog: Arc<Catalog>,
) -> Result<(Database, RecoveryReport), RecoverError> {
    recover_with(storage, catalog, &mut NoopObserver)
}

/// A record staged for replay: where it sits, so the stream can be
/// truncated behind it.
#[derive(Debug)]
struct Staged {
    stream: usize,
    end_offset: usize,
    record: WalRecord,
}

/// An open bulk load: its records are checked as they arrive but applied
/// only when its `BulkEnd` proves it complete — straight from the staged
/// run, so nothing is buffered. Its intern records wait too: a torn bulk
/// is discarded whole, and its interns are truncated away with it, so they
/// must not leak into the recovered symbol table (a later writer would
/// then skip re-logging them).
struct PendingBulk {
    rel: u32,
    commit: u64,
    /// Index of the `BulkBegin` record in the replay run.
    begin: usize,
    /// Intern records seen since the begin: the ids the load's cells may
    /// reference beyond the symbol table's current size.
    strs: usize,
    wides: usize,
}

/// [`recover`], with an observer watching each replayed mutation.
pub fn recover_with(
    storage: &dyn LogStorage,
    catalog: Arc<Catalog>,
    observer: &mut dyn ReplayObserver,
) -> Result<(Database, RecoveryReport), RecoverError> {
    let mut report = RecoveryReport::default();

    // 1. Newest usable snapshot, else empty database.
    let mut snaps: Vec<String> = storage
        .list_blobs()?
        .into_iter()
        .filter(|n| n.starts_with(SNAP_PREFIX))
        .collect();
    snaps.sort();
    let mut db = None;
    let mut snap_seq = 0;
    for name in snaps.iter().rev() {
        let Some(bytes) = storage.read_blob(name)? else {
            continue;
        };
        let restored = decode_snapshot(&bytes).and_then(|snap| {
            let seq = snap.last_seq;
            restore_snapshot(catalog.clone(), snap).map(|db| (db, seq))
        });
        match restored {
            Ok((restored_db, seq)) => {
                db = Some(restored_db);
                snap_seq = seq;
                report.snapshot = Some(name.clone());
                break;
            }
            Err(_) => report.snapshots_skipped += 1,
        }
    }
    let mut db = db.unwrap_or_else(|| Database::new(catalog.clone()));
    observer.snapshot_loaded(&db);

    // 2. Decode every stream and merge records by sequence number.
    let mut streams: Vec<String> = storage
        .streams()?
        .into_iter()
        .filter(|s| s == META_STREAM || parse_rel_stream(s).is_some())
        .collect();
    streams.sort();
    let mut staged = Vec::new();
    let mut stream_lens = Vec::with_capacity(streams.len());
    for (si, stream) in streams.iter().enumerate() {
        let bytes = storage.read(stream)?;
        stream_lens.push(bytes.len());
        let decoded = decode_frames(&bytes).map_err(|FrameError::Corrupt { offset }| {
            RecoverError::Corrupt {
                stream: stream.clone(),
                offset,
            }
        })?;
        report.torn_bytes += decoded.torn_bytes as u64;
        for (_, end, payload) in decoded.frames {
            let record = WalRecord::decode(payload).map_err(|msg| RecoverError::Record {
                stream: stream.clone(),
                msg,
            })?;
            staged.push(Staged {
                stream: si,
                end_offset: end,
                record,
            });
        }
    }
    staged.sort_by_key(|s| s.record.seq);

    // The longest gap-free run after the snapshot boundary.
    let mut run = Vec::new();
    let mut next_seq = snap_seq + 1;
    for s in &staged {
        if s.record.seq <= snap_seq {
            continue; // Folded into the snapshot already.
        }
        if s.record.seq != next_seq {
            break; // Gap (or duplicate): nothing later is trustworthy.
        }
        next_seq += 1;
        run.push(s);
    }

    // 3. Replay: logged cells are applied as cells, through the same
    //    functions live writes use; a bulk load waits for its end record.
    let mut pending: Option<PendingBulk> = None;
    let mut cells: Vec<Cell> = Vec::new();
    let mut applied_through = snap_seq;
    for (i, s) in run.iter().enumerate() {
        let seq = s.record.seq;
        if let Some(bulk) = &mut pending {
            match &s.record.body {
                // Ids are dense: a pending intern must take the next one.
                // (It is folded, and checked again, at `BulkEnd`.)
                RecordBody::InternStr { id, .. } => {
                    check_next_id(*id, db.symbols().len() + bulk.strs, seq)?;
                    bulk.strs += 1;
                }
                RecordBody::InternWide { id, .. } => {
                    check_next_id(*id, db.symbols().num_wide_ints() + bulk.wides, seq)?;
                    bulk.wides += 1;
                }
                RecordBody::BulkChunk {
                    rel,
                    rows,
                    cells: raw,
                } if *rel == bulk.rel => {
                    let arity = db.catalog().relation(RelId(*rel as usize)).arity();
                    if *rows == 0 || raw.len() != *rows as usize * arity {
                        return Err(RecoverError::Replay(format!(
                            "bulk chunk at seq {seq} carries {} cells for {rows} rows of \
                             arity {arity}",
                            raw.len()
                        )));
                    }
                    decode_cells(&db, raw, (bulk.strs, bulk.wides), seq, &mut cells)?;
                }
                RecordBody::BulkEnd { rel } if *rel == bulk.rel => {
                    let bulk = pending.take().unwrap();
                    let rel = RelId(bulk.rel as usize);
                    apply_bulk(&mut db, rel, &run[bulk.begin + 1..i], &mut cells)?;
                    check_commit(&db, bulk.commit, seq)?;
                    observer.applied(&db, ReplayEvent::BulkLoaded { rel });
                }
                other => {
                    return Err(RecoverError::Replay(format!(
                        "record {other:?} at seq {seq} inside open bulk load of rel {}",
                        bulk.rel
                    )))
                }
            }
            applied_through = seq;
            continue;
        }
        match &s.record.body {
            RecordBody::InternStr { id, text } => replay_intern_str(&mut db, *id, text)?,
            RecordBody::InternWide { id, value } => replay_intern_wide(&mut db, *id, *value)?,
            RecordBody::Insert {
                commit,
                rel,
                cells: raw,
            }
            | RecordBody::InsertMaintained {
                commit,
                rel,
                cells: raw,
            }
            | RecordBody::Delete {
                commit,
                rel,
                cells: raw,
            }
            | RecordBody::DeleteMaintained {
                commit,
                rel,
                cells: raw,
            } => {
                let (kind, maintained) = match s.record.body {
                    RecordBody::Insert { .. } => (WriteKind::Insert, false),
                    RecordBody::InsertMaintained { .. } => (WriteKind::Insert, true),
                    RecordBody::Delete { .. } => (WriteKind::Delete, false),
                    _ => (WriteKind::Delete, true),
                };
                let rel = RelId(*rel as usize);
                decode_cells(&db, raw, (0, 0), seq, &mut cells)?;
                // Relation range and arity are checked by `apply_cells`.
                let landed = db
                    .apply_cells(kind, rel, &cells, maintained)
                    .map_err(|e| RecoverError::Replay(format!("row write at seq {seq}: {e}")))?;
                if landed.is_none() {
                    return Err(RecoverError::Replay(format!(
                        "logged delete at seq {seq} found no row on replay"
                    )));
                }
                check_commit(&db, *commit, seq)?;
                let row = db.decode_row(&cells);
                let event = match kind {
                    WriteKind::Insert => ReplayEvent::Inserted {
                        rel,
                        row,
                        maintained,
                    },
                    WriteKind::Delete => ReplayEvent::Deleted {
                        rel,
                        row,
                        maintained,
                    },
                };
                observer.applied(&db, event);
            }
            RecordBody::BulkBegin { commit, rel } => {
                rel_id(&db, *rel, seq)?;
                pending = Some(PendingBulk {
                    rel: *rel,
                    commit: *commit,
                    begin: i,
                    strs: 0,
                    wides: 0,
                });
            }
            RecordBody::BulkChunk { .. } | RecordBody::BulkEnd { .. } => {
                return Err(RecoverError::Replay(format!(
                    "bulk record at seq {seq} outside any bulk load"
                )));
            }
            RecordBody::EnsureIndex { commit, rel, x, y } => {
                let rel = rel_id(&db, *rel, seq)?;
                let x: Vec<usize> = x.iter().map(|&c| c as usize).collect();
                let y: Vec<usize> = y.iter().map(|&c| c as usize).collect();
                db.ensure_index_cols(rel, &x, &y);
                check_commit(&db, *commit, seq)?;
                observer.applied(&db, ReplayEvent::IndexBuilt { rel });
            }
        }
        applied_through = seq;
    }
    // A bulk load still open at the end of the run never logged its end
    // record: it is torn, and everything from its begin record on is
    // discarded (none of it was applied).
    if let Some(bulk) = pending {
        applied_through = run[bulk.begin].record.seq - 1;
    }

    report.last_seq = applied_through;
    report.replayed = applied_through - snap_seq;
    report.discarded = staged
        .iter()
        .filter(|s| s.record.seq > applied_through)
        .count() as u64;

    // 4. Truncate each stream behind the last kept record.
    for (si, stream) in streams.iter().enumerate() {
        let keep = staged
            .iter()
            .filter(|s| s.stream == si && s.record.seq <= applied_through)
            .map(|s| s.end_offset)
            .max()
            .unwrap_or(0);
        if keep < stream_lens[si] {
            storage.truncate(stream, keep as u64)?;
            report.truncated_streams += 1;
        }
    }

    Ok((db, report))
}

/// Applies a complete bulk load from its staged records (everything
/// between `BulkBegin` and `BulkEnd`, already checked on arrival): folds
/// its interns first, in logged (id) order, then appends every chunk's
/// cells through the bulk loader — one commit for the whole load, as live.
fn apply_bulk(
    db: &mut Database,
    rel: RelId,
    records: &[&Staged],
    cells: &mut Vec<Cell>,
) -> Result<(), RecoverError> {
    for s in records {
        match &s.record.body {
            RecordBody::InternStr { id, text } => replay_intern_str(db, *id, text)?,
            RecordBody::InternWide { id, value } => replay_intern_wide(db, *id, *value)?,
            _ => {}
        }
    }
    let mut loader = db.bulk_loader(rel);
    for s in records {
        if let RecordBody::BulkChunk { cells: raw, .. } = &s.record.body {
            cells.clear();
            cells.extend(
                raw.iter()
                    .map(|&w| Cell::from_raw(w).expect("cell words checked on arrival")),
            );
            loader.push_cells(cells);
        }
    }
    Ok(())
}

/// Folds one logged string intern into the replaying database, checking it
/// got the logged id (dense sequential assignment — the replay contract).
fn replay_intern_str(db: &mut Database, id: u32, text: &str) -> Result<(), RecoverError> {
    let got = db.replay_intern_str(text);
    if got.0 != id {
        return Err(RecoverError::Replay(format!(
            "intern of {text:?} replayed to id {} but was logged as {id}",
            got.0
        )));
    }
    Ok(())
}

/// Folds one logged wide-int intern, checking it landed at the logged
/// pool index.
fn replay_intern_wide(db: &mut Database, id: u32, value: i64) -> Result<(), RecoverError> {
    let got = db.replay_intern_wide(value);
    if got.kind() != CellKind::WideInt(id) {
        return Err(RecoverError::Replay(format!(
            "wide int {value} not at logged pool index {id} after replay"
        )));
    }
    Ok(())
}

/// Checks that an intern record inside an open bulk load names the next
/// dense id.
fn check_next_id(id: u32, next: usize, seq: u64) -> Result<(), RecoverError> {
    if id as usize == next {
        Ok(())
    } else {
        Err(RecoverError::Replay(format!(
            "intern at seq {seq} was logged as id {id}, the next free id is {next}"
        )))
    }
}

/// Checks a record's raw cell words and collects them into `out`: every
/// word must be a valid cell, and every symbol or wide-int id it names
/// must be interned — in the database's symbol table, or among the
/// `pending` (string, wide-int) interns of an open bulk load.
fn decode_cells(
    db: &Database,
    raw: &[u64],
    pending: (usize, usize),
    seq: u64,
    out: &mut Vec<Cell>,
) -> Result<(), RecoverError> {
    let symbols = db.symbols();
    let strs = symbols.len() + pending.0;
    let wides = symbols.num_wide_ints() + pending.1;
    out.clear();
    for &word in raw {
        let cell = Cell::from_raw(word).ok_or_else(|| {
            RecoverError::Replay(format!("invalid cell word {word:#x} at seq {seq}"))
        })?;
        let known = match cell.kind() {
            CellKind::Null | CellKind::SmallInt(_) => true,
            CellKind::Sym(sym) => (sym.0 as usize) < strs,
            CellKind::WideInt(ix) => (ix as usize) < wides,
        };
        if !known {
            return Err(RecoverError::Replay(format!(
                "cell word {word:#x} at seq {seq} references an id never interned"
            )));
        }
        out.push(cell);
    }
    Ok(())
}

fn rel_id(db: &Database, rel: u32, seq: u64) -> Result<RelId, RecoverError> {
    if (rel as usize) < db.num_relations() {
        Ok(RelId(rel as usize))
    } else {
        Err(RecoverError::Replay(format!(
            "record at seq {seq} names relation {rel}, catalog has {}",
            db.num_relations()
        )))
    }
}

fn check_commit(db: &Database, commit: u64, seq: u64) -> Result<(), RecoverError> {
    if db.epoch() == commit {
        Ok(())
    } else {
        Err(RecoverError::Replay(format!(
            "record at seq {seq} was stamped commit {commit}, replay arrived at {}",
            db.epoch()
        )))
    }
}
