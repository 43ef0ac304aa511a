//! Integration tests for the simulated kernel subsystems (filesystem,
//! network stack, epoll) under concurrency, on both allocator designs.

use std::sync::Arc;

use prudence_repro::alloc_api::engine::EngineConfig;
use prudence_repro::alloc_api::CacheInventory;
use prudence_repro::mem::PageAllocator;
use prudence_repro::prudence::PrudenceFactory;
use prudence_repro::rcu::{Rcu, RcuConfig};
use prudence_repro::simfs::{FsError, SimFs};
use prudence_repro::simnet::{Epoll, SimNet};
use prudence_repro::slub::SlubFactory;

fn each_factory(test: impl Fn(&str, Arc<Rcu>, Arc<PageAllocator>, &CacheInventory)) {
    {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let f = SlubFactory::new(EngineConfig::new(4), Arc::clone(&pages), Arc::clone(&rcu));
        test("slub", rcu, pages, &CacheInventory::new(f));
    }
    {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let f = PrudenceFactory::new(EngineConfig::new(4), Arc::clone(&pages), Arc::clone(&rcu));
        test("prudence", rcu, pages, &CacheInventory::new(f));
    }
}

#[test]
fn web_server_shape_traffic_on_both_allocators() {
    each_factory(|label, rcu, _pages, factory| {
        let net = SimNet::new(factory);
        let epoll = Epoll::new(factory);
        let fs = SimFs::new(factory);
        let doc = fs.create(0, 42).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let net = &net;
                let epoll = &epoll;
                let fs = &fs;
                let rcu = Arc::clone(&rcu);
                s.spawn(move || {
                    let t = rcu.register();
                    for _ in 0..400 {
                        let conn = net.connect().unwrap();
                        epoll.add(conn.0, 1).unwrap();
                        let g = t.read_lock();
                        assert!(net.is_established(&g, conn));
                        assert_eq!(epoll.interest(&g, conn.0), Some(1));
                        drop(g);
                        let fd = fs.open(doc).unwrap();
                        fs.read(fd, 4096).unwrap();
                        fs.close(fd).unwrap();
                        net.request_response(conn, 4096).unwrap();
                        assert!(epoll.del(conn.0));
                        net.close(conn).unwrap();
                    }
                });
            }
        });
        fs.unlink(0, 42).unwrap(); // retire the served document too
        factory.quiesce();
        assert_eq!(net.connection_count(), 0, "{label}");
        assert!(epoll.is_empty(), "{label}");
        let stats = factory.stats();
        assert_eq!(stats["eventpoll_epi"].deferred_frees, 1600, "{label}");
        for (name, s) in stats {
            assert_eq!(s.live_objects, 0, "{label}/{name} leaked: {s:?}");
        }
    });
}

#[test]
fn concurrent_create_same_name_yields_one_winner() {
    each_factory(|label, _rcu, _pages, factory| {
        let fs = Arc::new(SimFs::new(factory));
        let winners = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let fs = Arc::clone(&fs);
                    s.spawn(move || match fs.create(9, 1234) {
                        Ok(_) => 1u32,
                        Err(FsError::Exists) => 0,
                        Err(e) => panic!("unexpected: {e}"),
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u32>()
        });
        assert_eq!(winners, 1, "{label}: exactly one create must win");
        assert_eq!(fs.file_count(), 1);
        factory.quiesce();
    });
}

#[test]
fn fs_rename_like_churn_keeps_lookup_consistent() {
    each_factory(|label, rcu, _pages, factory| {
        let fs = Arc::new(SimFs::new(factory));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Writer: repeatedly unlink + recreate the same name.
        // Readers: a lookup either finds a valid ino or nothing — never a
        // stale inode that fails to open.
        fs.create(1, 7).unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let fs = Arc::clone(&fs);
                let rcu = Arc::clone(&rcu);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let t = rcu.register();
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let g = t.read_lock();
                        let _ino = fs.lookup(&g, 1, 7);
                        drop(g);
                    }
                });
            }
            for _ in 0..2_000 {
                fs.unlink(1, 7).unwrap();
                fs.create(1, 7).unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(fs.file_count(), 1, "{label}");
        factory.quiesce();
        let stats = factory.stats();
        assert_eq!(stats["ext4_inode"].deferred_frees, 2_000, "{label}");
    });
}

#[test]
fn memory_returns_to_zero_after_mixed_subsystem_use() {
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    {
        let factory = CacheInventory::new(PrudenceFactory::new(
            EngineConfig::new(2),
            Arc::clone(&pages),
            Arc::clone(&rcu),
        ));
        let net = SimNet::new(&factory);
        let fs = SimFs::new(&factory);
        for i in 0..200 {
            let c = net.connect().unwrap();
            let ino = fs.create(0, i).unwrap();
            let fd = fs.open(ino).unwrap();
            fs.append(fd, 1024).unwrap();
            fs.close(fd).unwrap();
            net.close(c).unwrap();
            if i % 2 == 0 {
                fs.unlink(0, i).unwrap();
            }
        }
        factory.quiesce();
    }
    assert_eq!(pages.used_bytes(), 0, "all subsystem memory returned");
}
