//! A counting wrapper over the in-memory WAL backend: it counts appended
//! bytes and `sync` calls and tracks each file's synced length, so a crash
//! image can keep exactly the bytes that were flushed before the crash.

use dtr_mapping::durable::{MemVfs, Vfs};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// [`MemVfs`] plus write accounting and a durability model.
#[derive(Default)]
pub struct CountingVfs {
    inner: MemVfs,
    appended: AtomicU64,
    syncs: AtomicU64,
    /// Bytes of each file known to be on stable storage.
    synced: Mutex<BTreeMap<String, u64>>,
}

impl CountingVfs {
    /// An empty filesystem.
    pub fn new() -> Self {
        CountingVfs::default()
    }

    /// Bytes appended so far, across all files.
    pub fn appended_bytes(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// `sync` calls so far.
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// The disk as a crash would leave it: every file cut back to the
    /// length it had at its last `sync`. A file never synced is gone;
    /// the operating system's cache, which a killed process would leave
    /// intact, is deliberately not credited.
    pub fn crash_image(&self) -> io::Result<MemVfs> {
        let image = MemVfs::new();
        for (path, &len) in self.lock().iter() {
            let bytes = self.inner.read(path)?;
            let keep = usize::try_from(len).map_or(bytes.len(), |l| l.min(bytes.len()));
            image.append(path, &bytes[..keep])?;
        }
        Ok(image)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, u64>> {
        self.synced.lock().expect("synced-length map lock poisoned")
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        self.inner.append(path, data)?;
        self.appended
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        self.inner.sync(path)?;
        self.syncs.fetch_add(1, Ordering::Relaxed);
        let len = self.inner.len(path)?;
        self.lock().insert(path.to_string(), len);
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)?;
        // An unsynced truncate may or may not survive a crash; the image
        // never resurrects the cut bytes, which is the stricter reading.
        if let Some(synced) = self.lock().get_mut(path) {
            *synced = (*synced).min(len);
        }
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)?;
        self.lock().remove(path);
        Ok(())
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &str) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        self.inner.len(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_image_keeps_only_synced_bytes() {
        let vfs = CountingVfs::new();
        vfs.append("wal/a", b"hello").unwrap();
        vfs.sync("wal/a").unwrap();
        vfs.append("wal/a", b" world").unwrap();
        vfs.append("wal/b", b"never synced").unwrap();
        assert_eq!(vfs.appended_bytes(), 5 + 6 + 12);
        assert_eq!(vfs.syncs(), 1);
        let image = vfs.crash_image().unwrap();
        assert_eq!(image.read("wal/a").unwrap(), b"hello");
        assert!(image.read("wal/b").is_err());
        vfs.truncate("wal/a", 2).unwrap();
        assert_eq!(vfs.crash_image().unwrap().read("wal/a").unwrap(), b"he");
        vfs.remove("wal/a").unwrap();
        assert!(vfs.crash_image().unwrap().list("wal").unwrap().is_empty());
    }
}
