//! # pbs-simfs — in-memory filesystem substrate
//!
//! A small VFS-shaped filesystem whose allocator traffic matches what the
//! Postmark benchmark induces on a Linux ext4 system (paper §5.3):
//!
//! | operation | slab traffic |
//! |---|---|
//! | `create`  | `ext4_inode` + `dentry` + `selinux` allocations |
//! | `unlink`  | **deferred** frees of all three (Linux frees inodes, dentries and inode security blobs through RCU) |
//! | `open`    | `filp` allocation |
//! | `close`   | **deferred** free of the `filp` (Linux `__fput`/`file_free_rcu`) |
//! | `read`/`append` | transient `fsbuf` allocation + immediate free (page-cache stand-in) |
//! | `lookup`  | wait-free RCU walk of the dentry hash |
//!
//! The filesystem is parameterized by a
//! [`CacheFactory`](pbs_alloc_api::CacheFactory), so identical
//! workload code runs over the SLUB baseline or Prudence — that comparison
//! is Figures 7–13 of the paper. The filesystem keeps its caches private;
//! mint them through a [`CacheInventory`](pbs_alloc_api::CacheInventory)
//! to drain them or read their statistics.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pbs_alloc_api::engine::EngineConfig;
//! use pbs_alloc_api::CacheInventory;
//! use pbs_mem::PageAllocator;
//! use pbs_rcu::Rcu;
//! use pbs_simfs::SimFs;
//! use prudence::PrudenceFactory;
//!
//! let rcu = Arc::new(Rcu::new());
//! let caches = CacheInventory::new(PrudenceFactory::new(
//!     EngineConfig::new(2),
//!     Arc::new(PageAllocator::new()),
//!     Arc::clone(&rcu),
//! ));
//! let fs = SimFs::new(&caches);
//! let reader = rcu.register();
//!
//! let ino = fs.create(1, 0xBEEF)?;
//! let fd = fs.open(ino)?;
//! fs.append(fd, 4096)?;
//! fs.close(fd)?;
//! let guard = reader.read_lock();
//! assert_eq!(fs.lookup(&guard, 1, 0xBEEF), Some(ino));
//! drop(guard);
//! fs.unlink(1, 0xBEEF)?;
//! caches.quiesce();
//! assert_eq!(caches.stats()["selinux"].deferred_frees, 1);
//! # Ok::<(), pbs_simfs::FsError>(())
//! ```

mod fs;

pub use fs::{Fd, FsError, Ino, SimFs};
