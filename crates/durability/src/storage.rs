//! Storage backends for WAL segments and snapshot files.
//!
//! The WAL talks to a tiny append-only [`Storage`] trait so the same
//! durability logic runs against real files ([`FsStorage`]) and against an
//! in-memory backend ([`MemStorage`]) whose *crash model* the tests control
//! precisely: every appended byte is recorded in one global append order,
//! and "crashing" keeps an arbitrary prefix of that order (never less than
//! what an `fsync` made durable) — exactly the guarantee a journaling
//! filesystem gives an appended log.

use quit_core::{Error, Result};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Append-only file storage, as seen by the WAL: named streams that can be
/// appended, fsynced, read back whole, listed, and removed.
///
/// Implementations are shared across writer threads (`Send + Sync`); the
/// WAL serializes appends itself, so backends only need per-call interior
/// mutability, not ordering guarantees beyond "appends to one file apply in
/// call order".
pub trait Storage: Send + Sync {
    /// Appends `bytes` to `file`, creating it if absent. Not durable until
    /// [`sync`](Self::sync).
    fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()>;

    /// Makes every byte appended to `file` so far durable (fsync).
    fn sync(&self, file: &str) -> io::Result<()>;

    /// Reads the full current contents of `file`.
    fn read(&self, file: &str) -> io::Result<Vec<u8>>;

    /// Lists every file name present.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Removes `file` (ok if already gone — recovery prunes idempotently).
    /// The removal is durable before this returns.
    fn remove(&self, file: &str) -> io::Result<()>;

    /// Atomically renames `from` onto `to` (replacing any existing `to`),
    /// durably — after this returns, a crash shows `to` with `from`'s
    /// contents, never a half-state. This is the publish step for
    /// snapshot files: written under a temporary name, synced, then
    /// renamed into place, so no crash can leave a partial file under a
    /// name recovery trusts.
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;
}

#[derive(Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed to survive a crash (advanced by `sync`).
    durable: usize,
}

#[derive(Default)]
struct MemInner {
    files: BTreeMap<String, MemFile>,
    /// Global append order: `(file, len)` per append call. A crash keeps a
    /// prefix of this sequence (plus everything under each durable floor).
    order: Vec<(String, usize)>,
}

/// In-memory [`Storage`] with an explicit crash model, for recovery tests.
///
/// Appends land in per-file buffers *and* a global append-order journal.
/// [`crash`](MemStorage::crash) rolls the world back to "the first `keep`
/// appended bytes reached the disk, plus whatever `sync` already made
/// durable" — the byte-prefix crash model of the ISSUE's differential
/// fuzzer. `keep` ranges over [`total_appended`](MemStorage::total_appended)
/// bytes, so a fuzzer can bisect crash points without knowing file layout.
#[derive(Default)]
pub struct MemStorage {
    inner: Mutex<MemInner>,
}

impl MemStorage {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total bytes ever appended (the crash-point domain).
    pub fn total_appended(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.order.iter().map(|(_, n)| n).sum()
    }

    /// Total bytes currently guaranteed durable across all files.
    pub fn durable_bytes(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.files.values().map(|f| f.durable).sum()
    }

    /// A post-crash copy of this store: for each file, the surviving length
    /// is `max(durable, bytes of that file among the first `keep` appended
    /// bytes)`. `keep == total_appended()` reproduces everything;
    /// `keep == 0` keeps only what `sync` promised.
    pub fn crash(&self, keep: usize) -> MemStorage {
        let inner = self.inner.lock().unwrap();
        let mut kept: BTreeMap<&str, usize> = BTreeMap::new();
        let mut budget = keep;
        for (name, len) in &inner.order {
            let take = (*len).min(budget);
            *kept.entry(name.as_str()).or_insert(0) += take;
            budget -= take;
            if budget == 0 {
                break;
            }
        }
        let mut files = BTreeMap::new();
        let mut order = Vec::new();
        for (name, f) in &inner.files {
            let survive = f.durable.max(kept.get(name.as_str()).copied().unwrap_or(0));
            files.insert(
                name.clone(),
                MemFile {
                    data: f.data[..survive.min(f.data.len())].to_vec(),
                    durable: survive.min(f.data.len()),
                },
            );
            order.push((name.clone(), survive.min(f.data.len())));
        }
        MemStorage {
            inner: Mutex::new(MemInner { files, order }),
        }
    }

    /// A post-crash copy keeping only fsync-guaranteed bytes (the harshest
    /// legal crash).
    pub fn crash_durable_only(&self) -> MemStorage {
        self.crash(0)
    }

    /// Installs a file with explicit raw contents (for corrupted-tail
    /// tests that fabricate segments byte-by-byte). Contents count as
    /// durable.
    pub fn install(&self, file: &str, bytes: Vec<u8>) {
        let mut inner = self.inner.lock().unwrap();
        let len = bytes.len();
        inner.files.insert(
            file.to_string(),
            MemFile {
                data: bytes,
                durable: len,
            },
        );
        inner.order.push((file.to_string(), len));
    }
}

impl Storage for MemStorage {
    fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .files
            .entry(file.to_string())
            .or_default()
            .data
            .extend_from_slice(bytes);
        inner.order.push((file.to_string(), bytes.len()));
        Ok(())
    }

    fn sync(&self, file: &str) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(f) = inner.files.get_mut(file) {
            f.durable = f.data.len();
        }
        Ok(())
    }

    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        let inner = self.inner.lock().unwrap();
        inner
            .files
            .get(file)
            .map(|f| f.data.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, file.to_string()))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let inner = self.inner.lock().unwrap();
        Ok(inner.files.keys().cloned().collect())
    }

    fn remove(&self, file: &str) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        inner.files.remove(file);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        let f = inner
            .files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, from.to_string()))?;
        // Drop the replaced target's append history so crash accounting
        // tracks only the surviving contents, then re-point the source's
        // history at the new name. The rename itself is modelled as
        // atomic and durable — the contract `FsStorage` buys with its
        // directory fsync.
        inner.order.retain(|(n, _)| n != to);
        for entry in &mut inner.order {
            if entry.0 == from {
                entry.0 = to.to_string();
            }
        }
        inner.files.insert(to.to_string(), f);
        Ok(())
    }
}

/// Real-file [`Storage`] rooted at a directory. Appends keep a cached
/// `O_APPEND` handle per file; [`sync`](Storage::sync) maps to
/// `fdatasync`. Directory mutations — creating a file, removing one,
/// renaming one into place — are followed by an fsync of the directory
/// itself: `fdatasync` on a file only covers its *contents*, and without
/// the directory fsync a freshly created segment or snapshot (or a
/// prune's unlinks) can reorder around it across a crash, losing
/// committed records.
pub struct FsStorage {
    dir: PathBuf,
    handles: Mutex<BTreeMap<String, File>>,
}

impl FsStorage {
    /// Opens (creating if needed) the storage directory. Every directory
    /// the call creates is made durable in its parent.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        create_dir_durable(&dir)?;
        Ok(FsStorage {
            dir,
            handles: Mutex::new(BTreeMap::new()),
        })
    }

    /// Opens (creating if needed) one storage directory per shard under
    /// `root`: `root/shard-0000/`, `root/shard-0001/`, …
    ///
    /// This is the multi-WAL-directory layout `quit-service` runs on: each
    /// shard owns its own `Durable` wrapper and therefore its own segment
    /// and snapshot namespace, so shards recover independently and their
    /// group-commit leaders batch fsyncs per shard instead of contending
    /// on one log.
    pub fn open_sharded(root: impl Into<PathBuf>, shards: usize) -> Result<Vec<Arc<FsStorage>>> {
        if shards == 0 {
            return Err(Error::config("shard count must be at least 1"));
        }
        let root = root.into();
        (0..shards)
            .map(|i| {
                Ok(Arc::new(FsStorage::open(
                    root.join(format!("shard-{i:04}")),
                )?))
            })
            .collect()
    }

    /// The directory this store writes under.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Fsyncs the storage directory, making file creations, removals and
    /// renames durable.
    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.dir)?.sync_all()
    }

    fn with_handle<R>(
        &self,
        file: &str,
        f: impl FnOnce(&mut File) -> io::Result<R>,
    ) -> io::Result<R> {
        let mut handles = self.handles.lock().unwrap();
        if !handles.contains_key(file) {
            let path = self.dir.join(file);
            let existed = path.exists();
            let h = OpenOptions::new().create(true).append(true).open(&path)?;
            if !existed {
                // The new file's directory entry must be durable before
                // any fdatasync on the file can promise its contents
                // survive a crash.
                self.sync_dir()?;
            }
            handles.insert(file.to_string(), h);
        }
        f(handles.get_mut(file).unwrap())
    }
}

/// `create_dir_all`, then an fsync of the parent of each directory it
/// created, top-down: a new directory's entry lives in its parent, and
/// until that parent is synced the directory — with every segment and
/// snapshot later written inside it — can vanish in a crash. Returns how
/// many directories were created; an existing `dir` costs no fsync.
fn create_dir_durable(dir: &Path) -> io::Result<usize> {
    let missing: Vec<&Path> = dir
        .ancestors()
        .take_while(|d| !d.as_os_str().is_empty() && !d.exists())
        .collect();
    std::fs::create_dir_all(dir)?;
    for created in missing.iter().rev() {
        let parent = match created.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        File::open(parent)?.sync_all()?;
    }
    Ok(missing.len())
}

impl Storage for FsStorage {
    fn append(&self, file: &str, bytes: &[u8]) -> io::Result<()> {
        self.with_handle(file, |h| h.write_all(bytes))
    }

    fn sync(&self, file: &str) -> io::Result<()> {
        self.with_handle(file, |h| h.sync_data())
    }

    fn read(&self, file: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.dir.join(file))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove(&self, file: &str) -> io::Result<()> {
        self.handles.lock().unwrap().remove(file);
        match std::fs::remove_file(self.dir.join(file)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
            // The unlink must not be able to become durable *before* the
            // things it supersedes (e.g. a checkpoint's new snapshot) —
            // callers order their operations, so each directory mutation
            // is made durable in program order.
            Ok(()) => self.sync_dir(),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut handles = self.handles.lock().unwrap();
        handles.remove(from);
        handles.remove(to);
        drop(handles);
        std::fs::rename(self.dir.join(from), self.dir.join(to))?;
        self.sync_dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_crash_respects_durable_floor() {
        let s = MemStorage::new();
        s.append("a", b"hello").unwrap();
        s.sync("a").unwrap();
        s.append("a", b"world").unwrap();
        s.append("b", b"xyz").unwrap();
        assert_eq!(s.total_appended(), 13);
        assert_eq!(s.durable_bytes(), 5);

        // Harshest crash: only the fsynced prefix of `a` survives.
        let c = s.crash_durable_only();
        assert_eq!(c.read("a").unwrap(), b"hello");
        assert_eq!(c.read("b").unwrap(), b"");

        // Keep 8 appended bytes: hello + wor, nothing of b.
        let c = s.crash(8);
        assert_eq!(c.read("a").unwrap(), b"hellowor");
        assert_eq!(c.read("b").unwrap(), b"");

        // Keep everything.
        let c = s.crash(usize::MAX);
        assert_eq!(c.read("a").unwrap(), b"helloworld");
        assert_eq!(c.read("b").unwrap(), b"xyz");
    }

    #[test]
    fn mem_storage_basic_ops() {
        let s = MemStorage::new();
        s.append("f", b"abc").unwrap();
        assert_eq!(s.list().unwrap(), vec!["f".to_string()]);
        assert!(s.read("missing").is_err());
        s.remove("f").unwrap();
        assert!(s.list().unwrap().is_empty());
        s.remove("f").unwrap(); // idempotent
    }

    #[test]
    fn mem_storage_rename_replaces_and_keeps_crash_accounting() {
        let s = MemStorage::new();
        s.append("old", b"stale").unwrap();
        s.sync("old").unwrap();
        s.append("f.tmp", b"payload").unwrap();
        s.sync("f.tmp").unwrap();
        s.rename("f.tmp", "old").unwrap();
        assert_eq!(s.list().unwrap(), vec!["old".to_string()]);
        assert_eq!(s.read("old").unwrap(), b"payload");
        assert!(s.rename("missing", "x").is_err());

        // Post-crash, the renamed contents survive under the new name and
        // the replaced file's bytes are gone from the accounting.
        let c = s.crash_durable_only();
        assert_eq!(c.read("old").unwrap(), b"payload");
        assert_eq!(c.total_appended(), b"payload".len());
    }

    #[test]
    fn fs_storage_roundtrip() {
        let dir = std::env::temp_dir().join(format!("quit-dur-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = FsStorage::open(&dir).unwrap();
        s.append("wal-1.log", b"abc").unwrap();
        s.append("wal-1.log", b"def").unwrap();
        s.sync("wal-1.log").unwrap();
        assert_eq!(s.read("wal-1.log").unwrap(), b"abcdef");
        assert_eq!(s.list().unwrap(), vec!["wal-1.log".to_string()]);
        s.remove("wal-1.log").unwrap();
        s.remove("wal-1.log").unwrap(); // idempotent
        assert!(s.list().unwrap().is_empty());

        s.append("snap.tmp", b"contents").unwrap();
        s.sync("snap.tmp").unwrap();
        s.rename("snap.tmp", "snap.qsnp").unwrap();
        assert_eq!(s.list().unwrap(), vec!["snap.qsnp".to_string()]);
        assert_eq!(s.read("snap.qsnp").unwrap(), b"contents");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fs_storage_creates_a_nested_directory_durably() {
        let root = std::env::temp_dir().join(format!("quit-dur-nested-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir(&root).unwrap();
        let dir = root.join("a").join("b").join("c");

        let s = FsStorage::open(&dir).unwrap();
        s.append("wal-1.log", b"abc").unwrap();
        s.sync("wal-1.log").unwrap();
        drop(s);
        let s = FsStorage::open(&dir).unwrap();
        assert_eq!(s.read("wal-1.log").unwrap(), b"abc");
        drop(s);
        let s = FsStorage::open(&dir).unwrap();
        assert_eq!(s.list().unwrap(), vec!["wal-1.log".to_string()]);

        // Only directories the call creates get their parent synced.
        assert_eq!(create_dir_durable(&dir).unwrap(), 0);
        assert_eq!(
            create_dir_durable(&root.join("a").join("x").join("y")).unwrap(),
            2
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
