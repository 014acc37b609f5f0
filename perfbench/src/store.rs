//! A timing and counting [`StoreFs`] that delegates to [`RealFs`]: the
//! source of the `store.*` ledger entries and of the store-open boundary
//! the campaign's set-up measurement needs.

use paradet_faults::{RealFs, StoreFs};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What the store did through one [`CountingFs`].
#[derive(Debug, Clone, Default)]
pub struct FsTally {
    /// Operations issued, failed ones included.
    pub ops: u64,
    /// Operations that returned an error. A read of a missing file is not
    /// one: it is how the store finds that no checkpoint exists yet.
    pub failed: u64,
    /// Bytes handed to `write`, lock files excepted: a lock holds the
    /// owner's pid, whose length varies from run to run.
    pub bytes_written: u64,
    /// Host time spent inside operations.
    pub busy: Duration,
    /// End of the last operation before the first checkpoint write: the
    /// store is open, and the shard's golden run starts.
    pub open_end: Option<Instant>,
    checkpointed: bool,
}

#[derive(Debug, Default)]
pub struct CountingFs {
    tally: Mutex<FsTally>,
}

impl CountingFs {
    pub fn tally(&self) -> FsTally {
        self.tally.lock().expect("a store operation panicked while recording").clone()
    }

    fn record<T>(&self, op: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        let t0 = Instant::now();
        let r = op();
        let t1 = Instant::now();
        let mut t = self.tally.lock().expect("a store operation panicked while recording");
        t.ops += 1;
        t.failed += u64::from(r.as_ref().is_err_and(|e| e.kind() != io::ErrorKind::NotFound));
        t.busy += t1 - t0;
        if !t.checkpointed {
            t.open_end = Some(t1);
        }
        r
    }
}

fn is_lock(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "lock")
}

fn is_checkpoint_staging(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("shard-") && n.contains(".jsonl."))
}

impl StoreFs for CountingFs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.record(|| RealFs.read_to_string(path))
    }
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        {
            let mut t = self.tally.lock().expect("a store operation panicked while recording");
            if !is_lock(path) {
                t.bytes_written += contents.len() as u64;
            }
            t.checkpointed |= is_checkpoint_staging(path);
        }
        self.record(|| RealFs.write(path, contents))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.record(|| RealFs.rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.record(|| RealFs.remove_file(path))
    }
    fn exists(&self, path: &Path) -> bool {
        self.record(|| Ok(RealFs.exists(path))).unwrap_or(false)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.record(|| RealFs.create_dir_all(path))
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.record(|| RealFs.list_dir(path))
    }
}
