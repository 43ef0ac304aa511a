//! The filesystem implementation.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pbs_alloc_api::{AllocError, CacheFactory, ObjPtr, ObjectAllocator};
use pbs_rcu::ReadGuard;
use pbs_structs::RcuHashMap;

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ino(pub u64);

/// Open-file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub usize);

/// Errors returned by [`SimFs`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// Path component not found.
    NotFound,
    /// Name already exists in the directory.
    Exists,
    /// The descriptor is not open.
    BadFd,
    /// The allocator ran out of memory.
    NoMemory,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file"),
            FsError::Exists => write!(f, "file exists"),
            FsError::BadFd => write!(f, "bad file descriptor"),
            FsError::NoMemory => write!(f, "out of memory"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<AllocError> for FsError {
    fn from(_: AllocError) -> Self {
        FsError::NoMemory
    }
}

/// Per-inode metadata stored in the inode table. Holds the pointer to the
/// inode's SELinux security blob (the `selinux` cache object the paper's
/// workloads all exercise).
#[derive(Debug, Clone, Copy)]
struct InodeMeta {
    selinux: ObjPtr,
}

#[derive(Debug, Clone, Copy)]
struct OpenFile {
    filp: ObjPtr,
    #[allow(dead_code)] // mirrors struct file's inode back-pointer
    ino: Ino,
}

/// Object sizes matching the Linux slab caches the paper reports on.
const EXT4_INODE_SIZE: usize = 1024;
const DENTRY_SIZE: usize = 192;
const FILP_SIZE: usize = 256;
const SELINUX_SIZE: usize = 64;
const FSBUF_SIZE: usize = 512;

/// An in-memory filesystem; see the [crate docs](crate) for the mapping to
/// Postmark/ext4 allocator traffic and an example.
pub struct SimFs {
    /// `(directory, name-hash) → ino`; nodes live in the `dentry` cache.
    dentries: RcuHashMap<(u64, u64), Ino>,
    /// `ino → metadata`; nodes live in the `ext4_inode` cache.
    inodes: RcuHashMap<u64, InodeMeta>,
    filp_cache: Arc<dyn ObjectAllocator>,
    selinux_cache: Arc<dyn ObjectAllocator>,
    buf_cache: Arc<dyn ObjectAllocator>,
    fd_table: Mutex<FdTable>,
    next_ino: AtomicU64,
}

#[derive(Debug, Default)]
struct FdTable {
    files: Vec<Option<OpenFile>>,
    free: Vec<usize>,
}

impl fmt::Debug for SimFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimFs")
            .field("files", &self.inodes.len())
            .finish()
    }
}

impl SimFs {
    /// Creates a filesystem whose slab caches come from `factory`.
    pub fn new(factory: &dyn CacheFactory) -> Self {
        Self {
            dentries: RcuHashMap::new(factory.create_cache("dentry", DENTRY_SIZE), 4096),
            inodes: RcuHashMap::new(factory.create_cache("ext4_inode", EXT4_INODE_SIZE), 4096),
            filp_cache: factory.create_cache("filp", FILP_SIZE),
            selinux_cache: factory.create_cache("selinux", SELINUX_SIZE),
            buf_cache: factory.create_cache("fsbuf", FSBUF_SIZE),
            fd_table: Mutex::new(FdTable::default()),
            next_ino: AtomicU64::new(1),
        }
    }

    /// Creates a file `name` in directory `dir`, allocating an inode, a
    /// dentry and a SELinux context.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] if the name is taken, [`FsError::NoMemory`] on
    /// allocator exhaustion.
    pub fn create(&self, dir: u64, name: u64) -> Result<Ino, FsError> {
        let ino = Ino(self.next_ino.fetch_add(1, Ordering::Relaxed));
        let selinux = self.selinux_cache.allocate()?;
        // Stamp the security blob the way the LSM initializes contexts.
        // SAFETY: fresh exclusive object, at least SELINUX_SIZE bytes.
        unsafe { selinux.as_ptr().cast::<u64>().write(ino.0) };
        if !self.dentries.insert_if_absent((dir, name), ino)? {
            // SAFETY: the blob was never published; free immediately.
            unsafe { self.selinux_cache.free(selinux) };
            return Err(FsError::Exists);
        }
        self.inodes
            .insert(ino.0, InodeMeta { selinux })
            .map_err(FsError::from)?;
        Ok(ino)
    }

    /// Removes `name` from `dir`, deferring the frees of its dentry, inode
    /// and SELinux context (as ext4 + SELinux do through RCU).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] if the name does not exist.
    pub fn unlink(&self, dir: u64, name: u64) -> Result<(), FsError> {
        let ino = self.dentries.remove(&(dir, name)).ok_or(FsError::NotFound)?;
        if let Some(meta) = self.inodes.remove(&ino.0) {
            // SAFETY: the blob is unreachable for new readers once the
            // inode is unlinked; RCU readers may still inspect it.
            unsafe { self.selinux_cache.free_deferred(meta.selinux) };
        }
        Ok(())
    }

    /// RCU-walk path lookup: resolves `name` in `dir` without locks.
    ///
    /// # Panics
    ///
    /// Panics if `guard` belongs to a different RCU domain than the
    /// filesystem's allocator.
    pub fn lookup(&self, guard: &ReadGuard<'_>, dir: u64, name: u64) -> Option<Ino> {
        self.dentries.get(guard, &(dir, name))
    }

    /// Opens an inode, allocating a `filp` object.
    ///
    /// # Errors
    ///
    /// [`FsError::NoMemory`] on allocator exhaustion.
    pub fn open(&self, ino: Ino) -> Result<Fd, FsError> {
        let filp = self.filp_cache.allocate()?;
        // SAFETY: fresh exclusive object, at least FILP_SIZE bytes.
        unsafe { filp.as_ptr().cast::<u64>().write(ino.0) };
        let mut table = self.fd_table.lock();
        let fd = match table.free.pop() {
            Some(i) => {
                table.files[i] = Some(OpenFile { filp, ino });
                i
            }
            None => {
                table.files.push(Some(OpenFile { filp, ino }));
                table.files.len() - 1
            }
        };
        Ok(Fd(fd))
    }

    /// Closes a descriptor; the `filp` free is deferred (Linux
    /// `file_free_rcu`).
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] if the descriptor is not open.
    pub fn close(&self, fd: Fd) -> Result<(), FsError> {
        let file = {
            let mut table = self.fd_table.lock();
            let slot = table.files.get_mut(fd.0).ok_or(FsError::BadFd)?;
            let file = slot.take().ok_or(FsError::BadFd)?;
            table.free.push(fd.0);
            file
        };
        // SAFETY: the descriptor slot is cleared, so no new references;
        // RCU readers (e.g. procfs-style scans) may still look at it.
        unsafe { self.filp_cache.free_deferred(file.filp) };
        Ok(())
    }

    /// Appends `bytes` to an open file, doing page-cache-style transient
    /// buffer work (allocate, fill, free — not deferred).
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] / [`FsError::NoMemory`].
    pub fn append(&self, fd: Fd, bytes: usize) -> Result<(), FsError> {
        self.buffer_io(fd, bytes, 0xA5)
    }

    /// Reads `bytes` from an open file (same transient-buffer traffic as
    /// [`append`](Self::append)).
    ///
    /// # Errors
    ///
    /// [`FsError::BadFd`] / [`FsError::NoMemory`].
    pub fn read(&self, fd: Fd, bytes: usize) -> Result<(), FsError> {
        self.buffer_io(fd, bytes, 0x5A)
    }

    fn buffer_io(&self, fd: Fd, bytes: usize, pattern: u8) -> Result<(), FsError> {
        {
            let table = self.fd_table.lock();
            table
                .files
                .get(fd.0)
                .and_then(|f| f.as_ref())
                .ok_or(FsError::BadFd)?;
        }
        let mut remaining = bytes;
        while remaining > 0 {
            let chunk = remaining.min(FSBUF_SIZE);
            let buf = self.buf_cache.allocate()?;
            // SAFETY: fresh exclusive object of FSBUF_SIZE bytes.
            unsafe {
                std::ptr::write_bytes(buf.as_ptr(), pattern, chunk);
                self.buf_cache.free(buf);
            }
            remaining -= chunk;
        }
        Ok(())
    }

    /// Number of files currently linked.
    pub fn file_count(&self) -> usize {
        self.inodes.len()
    }
}

impl Drop for SimFs {
    fn drop(&mut self) {
        // Free remaining SELinux blobs (their owning inodes die with the
        // maps) and any still-open filp objects.
        let mut blobs = Vec::new();
        {
            // Collecting under a transient registration would need an RCU
            // thread; at drop time we have exclusive access, so walk via
            // the internal iterator instead.
            let rcu = self.selinux_cache.rcu().clone();
            let t = rcu.register();
            let g = t.read_lock();
            self.inodes.for_each(&g, |_, meta| blobs.push(meta.selinux));
        }
        for blob in blobs {
            // SAFETY: exclusive access at drop; each blob freed once.
            unsafe { self.selinux_cache.free(blob) };
        }
        let mut table = self.fd_table.lock();
        for file in table.files.drain(..).flatten() {
            // SAFETY: as above.
            unsafe { self.filp_cache.free(file.filp) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::engine::EngineConfig;
    use pbs_alloc_api::prudence::PrudenceFactory;
    use pbs_alloc_api::slub::SlubFactory;
    use pbs_alloc_api::CacheInventory;
    use pbs_mem::PageAllocator;
    use pbs_rcu::{Rcu, RcuConfig};

    fn prudence_fs() -> (Arc<Rcu>, CacheInventory, SimFs) {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let caches = CacheInventory::new(PrudenceFactory::new(
            EngineConfig::new(2),
            Arc::new(PageAllocator::new()),
            Arc::clone(&rcu),
        ));
        let fs = SimFs::new(&caches);
        (rcu, caches, fs)
    }

    fn slub_fs() -> (Arc<Rcu>, CacheInventory, SimFs) {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let config = EngineConfig::new(2);
        let caches = CacheInventory::new(SlubFactory::new(
            config,
            Arc::new(PageAllocator::new()),
            Arc::clone(&rcu),
        ));
        let fs = SimFs::new(&caches);
        (rcu, caches, fs)
    }

    fn lifecycle(rcu: Arc<Rcu>, caches: CacheInventory, fs: SimFs) {
        let t = rcu.register();
        let ino = fs.create(1, 10).unwrap();
        assert_eq!(fs.create(1, 10), Err(FsError::Exists));
        let g = t.read_lock();
        assert_eq!(fs.lookup(&g, 1, 10), Some(ino));
        assert_eq!(fs.lookup(&g, 1, 11), None);
        drop(g);
        let fd = fs.open(ino).unwrap();
        fs.append(fd, 2000).unwrap();
        fs.read(fd, 1000).unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.close(fd), Err(FsError::BadFd));
        fs.unlink(1, 10).unwrap();
        assert_eq!(fs.unlink(1, 10), Err(FsError::NotFound));
        caches.quiesce();
        for (name, s) in caches.stats() {
            assert_eq!(s.live_objects, 0, "cache {name} leaked: {s:?}");
        }
    }

    #[test]
    fn lifecycle_on_prudence() {
        let (rcu, caches, fs) = prudence_fs();
        lifecycle(rcu, caches, fs);
    }

    #[test]
    fn lifecycle_on_slub() {
        let (rcu, caches, fs) = slub_fs();
        lifecycle(rcu, caches, fs);
    }

    #[test]
    fn deferred_traffic_matches_operations() {
        let (_rcu, caches, fs) = prudence_fs();
        for name in 0..50 {
            let ino = fs.create(7, name).unwrap();
            let fd = fs.open(ino).unwrap();
            fs.append(fd, 512).unwrap();
            fs.close(fd).unwrap();
        }
        for name in 0..50 {
            fs.unlink(7, name).unwrap();
        }
        caches.quiesce();
        let stats = caches.stats();
        // close defers filp; unlink defers dentry + inode + selinux.
        assert_eq!(stats["filp"].deferred_frees, 50);
        assert_eq!(stats["dentry"].deferred_frees, 50);
        assert_eq!(stats["ext4_inode"].deferred_frees, 50);
        assert_eq!(stats["selinux"].deferred_frees, 50);
        // Buffer traffic is immediate frees only.
        assert_eq!(stats["fsbuf"].deferred_frees, 0);
        assert!(stats["fsbuf"].frees > 0);
    }

    #[test]
    fn concurrent_postmark_style_churn() {
        let (rcu, caches, fs) = prudence_fs();
        let fs = Arc::new(fs);
        let threads: Vec<_> = (0..4)
            .map(|tid| {
                let fs = Arc::clone(&fs);
                let rcu = Arc::clone(&rcu);
                std::thread::spawn(move || {
                    let t = rcu.register();
                    let dir = tid as u64;
                    for i in 0..500u64 {
                        let ino = fs.create(dir, i).unwrap();
                        let g = t.read_lock();
                        assert_eq!(fs.lookup(&g, dir, i), Some(ino));
                        drop(g);
                        let fd = fs.open(ino).unwrap();
                        fs.append(fd, 256).unwrap();
                        fs.close(fd).unwrap();
                        if i % 2 == 0 {
                            fs.unlink(dir, i).unwrap();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(fs.file_count(), 4 * 250);
        caches.quiesce();
    }

    #[test]
    fn drop_with_live_files_does_not_leak_pages() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let pages = Arc::new(PageAllocator::new());
        {
            let caches = CacheInventory::new(PrudenceFactory::new(
                EngineConfig::new(1),
                Arc::clone(&pages),
                Arc::clone(&rcu),
            ));
            let fs = SimFs::new(&caches);
            let ino = fs.create(1, 1).unwrap();
            let _fd = fs.open(ino).unwrap();
            caches.quiesce();
        }
        assert_eq!(pages.used_bytes(), 0);
    }
}
