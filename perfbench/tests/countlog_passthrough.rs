//! The counting log is a byte-exact pass-through: a log written through
//! it holds exactly the bytes of one written straight to a `DirLog`, and
//! both recover to the same state.

use bcq_core::prelude::{RelId, Value};
use bcq_perfbench::common::{bulk_load_source, durability};
use bcq_perfbench::countlog::CountingLog;
use bcq_perfbench::trace::Tracer;
use bcq_service::{DirLog, LogStorage, Server, ServerConfig};
use bcq_workload::tpch;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn open(storage: Arc<dyn LogStorage>) -> Server {
    Server::open(
        storage,
        tpch::access_schema(),
        ServerConfig::default(),
        durability(),
        &[],
    )
    .expect("open")
    .0
}

/// Loads, checkpoints, then inserts and deletes through `storage`.
fn write_history(storage: Arc<dyn LogStorage>, tracer: &Tracer) {
    let server = open(storage);
    for src in tpch::sources(0.25, 7) {
        bulk_load_source(&server, src.as_ref(), 100, tracer).expect("bulk load");
    }
    server.checkpoint().expect("checkpoint");
    let order = |k: i64| {
        vec![k, 3, 1, 10, 422, 2, k % 1000, 0, 5]
            .into_iter()
            .map(Value::Int)
            .collect::<Vec<_>>()
    };
    for k in 0..5 {
        server
            .insert("orders", &order(100_000 + k))
            .expect("insert");
    }
    assert!(server.delete("orders", &order(100_002)).expect("delete"));
}

/// Every file in `dir`, by name, with its bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| {
            let p = e.expect("entry").path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).expect("read file"))
        })
        .collect();
    out.sort();
    out
}

/// Sorted rows of every relation plus the epoch vector.
fn state(server: &Server) -> (Vec<Vec<Vec<Value>>>, Vec<u64>) {
    let snap = server.snapshot();
    let rels = snap.num_relations();
    let rows = (0..rels)
        .map(|r| {
            let mut v: Vec<Vec<Value>> = snap.value_rows(RelId(r)).collect();
            v.sort();
            v
        })
        .collect();
    let epochs = (0..rels).map(|r| snap.epoch_of(RelId(r))).collect();
    (rows, epochs)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn counting_log_writes_the_same_bytes_and_recovers_the_same_state() {
    let (plain_dir, counted_dir) = (
        fresh_dir("passthrough-plain"),
        fresh_dir("passthrough-counted"),
    );
    let tracer = Arc::new(Tracer::new());
    write_history(Arc::new(DirLog::open(&plain_dir).unwrap()), &tracer);

    tracer.set_enabled(true); // the timed paths must pass through too
    let counted = Arc::new(CountingLog::new(
        Arc::new(DirLog::open(&counted_dir).unwrap()),
        Arc::clone(&tracer),
    ));
    write_history(Arc::clone(&counted) as Arc<dyn LogStorage>, &tracer);
    let c = counted.counts();
    assert!(c.appends > 0 && c.append_bytes > 0 && c.syncs > 0, "{c:?}");
    assert!(!tracer.spans().is_empty());

    let (plain_files, counted_files) = (files(&plain_dir), files(&counted_dir));
    assert!(!plain_files.is_empty());
    assert_eq!(
        plain_files.iter().map(|f| &f.0).collect::<Vec<_>>(),
        counted_files.iter().map(|f| &f.0).collect::<Vec<_>>()
    );
    assert!(plain_files == counted_files, "log bytes differ");

    let plain = open(Arc::new(DirLog::open(&plain_dir).unwrap()));
    let recounted = Arc::new(CountingLog::new(
        Arc::new(DirLog::open(&counted_dir).unwrap()),
        Arc::clone(&tracer),
    ));
    let counted = open(Arc::clone(&recounted) as Arc<dyn LogStorage>);
    assert!(
        recounted.counts().read_ns > 0,
        "recovery reads are timed while tracing"
    );
    let (a, b) = (state(&plain), state(&counted));
    assert_eq!(a, b);
    assert_eq!(
        a.0[tpch::catalog().rel_id("orders").unwrap().0].len(),
        750 + 4
    );
}
