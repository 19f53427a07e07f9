//! A pass-through [`LogStorage`] that counts and times what the
//! durability layer asks of its storage.
//!
//! The benchmark hands a [`CountingLog`] to `Server::open`; every call is
//! forwarded unchanged to the wrapped storage, so the bytes on the log
//! are exactly those the server would have written without it. Counts
//! are always kept (relaxed atomic adds); times and spans only while the
//! tracer is enabled.

use crate::trace::Tracer;
use bcq_service::LogStorage;
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counters of one [`CountingLog`] at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogCounts {
    /// `append` calls.
    pub appends: u64,
    /// Bytes passed to `append`.
    pub append_bytes: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// Time spent in `sync` while tracing (ns).
    pub sync_ns: u64,
    /// Time spent in `read` and `read_blob` while tracing (ns).
    pub read_ns: u64,
}

impl LogCounts {
    /// Counter movement from `earlier` to `self`.
    pub fn since(&self, earlier: &LogCounts) -> LogCounts {
        LogCounts {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
            read_ns: self.read_ns - earlier.read_ns,
        }
    }
}

/// The counting pass-through; see the [module docs](self).
#[derive(Debug)]
pub struct CountingLog {
    inner: Arc<dyn LogStorage>,
    tracer: Arc<Tracer>,
    appends: AtomicU64,
    append_bytes: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    read_ns: AtomicU64,
    /// Distinct streams appended to through this wrapper: the files a
    /// `DirLog::sync` would flush.
    streams: Mutex<HashSet<String>>,
    /// While tracing: per `sync`, its duration (ns) and the number of
    /// distinct streams appended so far.
    sync_samples: Mutex<Vec<(u64, u64)>>,
}

impl CountingLog {
    /// Wraps `inner`; spans go to `tracer` while it is enabled.
    pub fn new(inner: Arc<dyn LogStorage>, tracer: Arc<Tracer>) -> CountingLog {
        CountingLog {
            inner,
            tracer,
            appends: AtomicU64::new(0),
            append_bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            sync_ns: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            streams: Mutex::new(HashSet::new()),
            sync_samples: Mutex::new(Vec::new()),
        }
    }

    /// The counters so far.
    pub fn counts(&self) -> LogCounts {
        LogCounts {
            appends: self.appends.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            sync_ns: self.sync_ns.load(Ordering::Relaxed),
            read_ns: self.read_ns.load(Ordering::Relaxed),
        }
    }

    /// The `(duration ns, streams open)` samples of every `sync` made
    /// while tracing.
    pub fn sync_samples(&self) -> Vec<(u64, u64)> {
        self.sync_samples.lock().expect("log lock poisoned").clone()
    }

    fn timed<T>(&self, on: bool, f: impl FnOnce() -> T) -> (T, u64) {
        if !on {
            return (f(), 0);
        }
        let start = Instant::now();
        let out = f();
        (out, start.elapsed().as_nanos() as u64)
    }
}

impl LogStorage for CountingLog {
    fn append(&self, stream: &str, bytes: &[u8]) -> io::Result<()> {
        let _span = self.tracer.span("durability.append");
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.append_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        {
            let mut streams = self.streams.lock().expect("log lock poisoned");
            if !streams.contains(stream) {
                streams.insert(stream.to_string());
            }
        }
        self.inner.append(stream, bytes)
    }

    fn sync(&self) -> io::Result<()> {
        let on = self.tracer.enabled();
        let _span = self.tracer.span("durability.sync");
        self.syncs.fetch_add(1, Ordering::Relaxed);
        let (out, ns) = self.timed(on, || self.inner.sync());
        if on {
            self.sync_ns.fetch_add(ns, Ordering::Relaxed);
            let open = self.streams.lock().expect("log lock poisoned").len() as u64;
            self.sync_samples
                .lock()
                .expect("log lock poisoned")
                .push((ns, open));
        }
        out
    }

    fn read(&self, stream: &str) -> io::Result<Vec<u8>> {
        let on = self.tracer.enabled();
        let _span = self.tracer.span("durability.read");
        let (out, ns) = self.timed(on, || self.inner.read(stream));
        self.read_ns.fetch_add(ns, Ordering::Relaxed);
        out
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
        let on = self.tracer.enabled();
        let _span = self.tracer.span("durability.read");
        let (out, ns) = self.timed(on, || self.inner.read_blob(name));
        self.read_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn list_blobs(&self) -> io::Result<Vec<String>> {
        self.inner.list_blobs()
    }

    fn delete_blob(&self, name: &str) -> io::Result<()> {
        self.inner.delete_blob(name)
    }
}
