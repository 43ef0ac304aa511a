//! A Postmark-style mail server on the simulated filesystem.
//!
//! Each "delivery" creates a message file, appends the body, re-reads it
//! for the IMAP client, and eventually expunges it — the create/append/
//! read/delete churn Postmark models and the paper's headline application
//! benchmark (+18 % with Prudence). Runs the same server loop on both
//! allocators and prints the Figure 7-11 attribute rows.
//!
//! ```text
//! cargo run --release --example mailserver
//! ```

use std::sync::Arc;

use prudence_repro::alloc_api::engine::EngineConfig;
use prudence_repro::alloc_api::CacheFactory;
use prudence_repro::mem::PageAllocator;
use prudence_repro::prudence::PrudenceFactory;
use prudence_repro::rcu::Rcu;
use prudence_repro::simfs::SimFs;
use prudence_repro::slub::SlubFactory;

const MAILBOXES: u64 = 8;
const DELIVERIES: u64 = 20_000;

fn run(label: &str, rcu: &Arc<Rcu>, factory: &dyn CacheFactory) {
    let fs = SimFs::new(factory);
    let reader = rcu.register();
    let start = std::time::Instant::now();
    let mut seq = 0u64;
    for delivery in 0..DELIVERIES {
        let mailbox = delivery % MAILBOXES;
        // Deliver: create the message file and append the body.
        let name = seq;
        seq += 1;
        let ino = fs.create(mailbox, name).expect("deliver message");
        let fd = fs.open(ino).expect("open for append");
        fs.append(fd, 2048).expect("write body");
        fs.close(fd).expect("close");
        // IMAP fetch: RCU-walk lookup + read.
        let guard = reader.read_lock();
        let found = fs.lookup(&guard, mailbox, name).expect("message exists");
        drop(guard);
        let fd = fs.open(found).expect("open for read");
        fs.read(fd, 2048).expect("read body");
        fs.close(fd).expect("close");
        // Expunge an older message once the mailbox has a few.
        if delivery >= MAILBOXES * 4 {
            let victim = seq - MAILBOXES * 4 - 1;
            let _ = fs.unlink(victim % MAILBOXES, victim);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    fs.quiesce();
    println!(
        "{label}: {:.0} deliveries/s, {} messages resident",
        DELIVERIES as f64 / elapsed,
        fs.file_count()
    );
    for (cache, s) in fs.stats() {
        println!(
            "  {cache:<12} hit%={:>5.1} deferred={:>6} churns(obj/slab)={}/{} peak_slabs={}",
            s.hit_percent(),
            s.deferred_frees,
            s.object_cache_churns(),
            s.slab_churns(),
            s.slabs_peak
        );
    }
}

fn main() {
    println!("mail server: {MAILBOXES} mailboxes, {DELIVERIES} deliveries\n");
    {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::new());
        let factory = SlubFactory::new(EngineConfig::new(2), pages, Arc::clone(&rcu));
        run("slub", &rcu, &factory);
    }
    println!();
    {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::new());
        let factory = PrudenceFactory::new(EngineConfig::new(2), pages, Arc::clone(&rcu));
        run("prudence", &rcu, &factory);
    }
}
