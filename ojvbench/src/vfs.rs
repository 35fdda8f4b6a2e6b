//! `TracedVfs`: the benchmark's window into the durability layer, and its
//! crash model.
//!
//! It wraps any [`Vfs`], counts every `append` and `sync` (and times every
//! call in the traced run), and tracks each file's last-synced length.
//! Killing a process leaves the operating system's cache intact, so a
//! "crash" here discards unflushed bytes itself: [`TracedVfs::crash`] cuts
//! every file back to the length its last `sync` covered before the engine
//! re-opens the directory.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ojv_durability::{is_segment_file, DurabilityError, Vfs};

type Result<T> = std::result::Result<T, DurabilityError>;

/// Counters shared by every `TracedVfs` of one engine (the sharded facade
/// has one directory per shard plus the coordinator's). Statistics only:
/// `Relaxed` publishes nothing else.
#[derive(Debug, Default)]
pub struct VfsStats {
    appends: AtomicU64,
    append_bytes: AtomicU64,
    wal_bytes: AtomicU64,
    append_ns: AtomicU64,
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    other_ns: AtomicU64,
}

/// Plain-value copy of [`VfsStats`].
#[derive(Debug, Default, Clone, Copy)]
pub struct VfsCounts {
    pub appends: u64,
    /// Bytes appended to any file (WAL segments and checkpoints).
    pub append_bytes: u64,
    /// Bytes appended to WAL segments only (shard and coordinator logs).
    pub wal_bytes: u64,
    pub append_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
    /// Time in every other call: rename, create, delete, truncate, reads.
    pub other_ns: u64,
}

impl VfsCounts {
    pub fn since(&self, earlier: &VfsCounts) -> VfsCounts {
        VfsCounts {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            append_ns: self.append_ns - earlier.append_ns,
            syncs: self.syncs - earlier.syncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
            other_ns: self.other_ns - earlier.other_ns,
        }
    }

    pub fn add(&mut self, d: &VfsCounts) {
        self.appends += d.appends;
        self.append_bytes += d.append_bytes;
        self.wal_bytes += d.wal_bytes;
        self.append_ns += d.append_ns;
        self.syncs += d.syncs;
        self.sync_ns += d.sync_ns;
        self.other_ns += d.other_ns;
    }

    pub fn total_ns(&self) -> u64 {
        self.append_ns + self.sync_ns + self.other_ns
    }
}

impl VfsStats {
    pub fn counts(&self) -> VfsCounts {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        VfsCounts {
            appends: get(&self.appends),
            append_bytes: get(&self.append_bytes),
            wal_bytes: get(&self.wal_bytes),
            append_ns: get(&self.append_ns),
            syncs: get(&self.syncs),
            sync_ns: get(&self.sync_ns),
            other_ns: get(&self.other_ns),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct FileLen {
    written: u64,
    synced: u64,
}

pub struct TracedVfs<V: Vfs> {
    inner: V,
    files: BTreeMap<String, FileLen>,
    stats: Arc<VfsStats>,
    /// Take timestamps around every call (the traced run). Counting is
    /// always on: exact byte counts must not depend on tracing.
    timed: bool,
}

impl<V: Vfs> TracedVfs<V> {
    /// Wrap `inner`; files already present count as fully synced.
    pub fn new(inner: V, stats: Arc<VfsStats>, timed: bool) -> Result<Self> {
        let mut files = BTreeMap::new();
        for name in inner.list()? {
            let len = inner.len(&name)?;
            files.insert(
                name,
                FileLen {
                    written: len,
                    synced: len,
                },
            );
        }
        Ok(TracedVfs {
            inner,
            files,
            stats,
            timed,
        })
    }

    /// Simulate a crash: cut every file to its last-synced length and hand
    /// back the bare filesystem, as a restarted process would find it.
    /// Returns the number of bytes discarded alongside.
    pub fn crash(mut self) -> Result<(V, u64)> {
        let mut discarded = 0;
        for (name, len) in &self.files {
            if len.written > len.synced {
                self.inner.truncate(name, len.synced)?;
                discarded += len.written - len.synced;
            }
        }
        Ok((self.inner, discarded))
    }

    fn timed<T>(&mut self, slot: fn(&VfsStats) -> &AtomicU64, call: impl FnOnce(&mut V) -> T) -> T {
        if !self.timed {
            return call(&mut self.inner);
        }
        let start = Instant::now();
        let out = call(&mut self.inner);
        slot(&self.stats).fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }

    fn timed_ref<T>(&self, call: impl FnOnce(&V) -> T) -> T {
        if !self.timed {
            return call(&self.inner);
        }
        let start = Instant::now();
        let out = call(&self.inner);
        self.stats
            .other_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl<V: Vfs> Vfs for TracedVfs<V> {
    fn list(&self) -> Result<Vec<String>> {
        self.timed_ref(|v| v.list())
    }

    fn len(&self, name: &str) -> Result<u64> {
        self.timed_ref(|v| v.len(name))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        self.timed_ref(|v| v.read(name))
    }

    fn create(&mut self, name: &str) -> Result<()> {
        self.timed(|s| &s.other_ns, |v| v.create(name))?;
        self.files.insert(name.to_string(), FileLen::default());
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<()> {
        self.timed(|s| &s.append_ns, |v| v.append(name, data))?;
        let bytes = data.len() as u64;
        self.files.entry(name.to_string()).or_default().written += bytes;
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats.append_bytes.fetch_add(bytes, Ordering::Relaxed);
        if is_segment_file(name) {
            self.stats.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<()> {
        self.timed(|s| &s.sync_ns, |v| v.sync(name))?;
        if let Some(len) = self.files.get_mut(name) {
            len.synced = len.written;
        }
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<()> {
        self.timed(|s| &s.other_ns, |v| v.truncate(name, len))?;
        if let Some(file) = self.files.get_mut(name) {
            file.written = file.written.min(len);
            file.synced = file.synced.min(len);
        }
        Ok(())
    }

    fn delete(&mut self, name: &str) -> Result<()> {
        self.timed(|s| &s.other_ns, |v| v.delete(name))?;
        self.files.remove(name);
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.timed(|s| &s.other_ns, |v| v.rename(from, to))?;
        // The Vfs contract makes a rename durable with the written contents.
        if let Some(mut len) = self.files.remove(from) {
            len.synced = len.written;
            self.files.insert(to.to_string(), len);
        }
        Ok(())
    }
}
