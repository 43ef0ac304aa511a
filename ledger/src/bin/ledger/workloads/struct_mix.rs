//! `struct_mix`: reads beside writes on the three RCU structures.
//!
//! One structure operation per operation, keys drawn Zipf(1.1): 90 %
//! reads (`RcuHashMap::get` over 64 k keys, `RcuBst::lookup` over 4 k,
//! `RcuList::lookup` over 64 entries, each under a fresh `read_lock`) and
//! 10 % updates (map `remove` + `insert`, tree `remove` + `insert`, list
//! `update`), each structure on its own cache sized for its node. Here
//! `pbs-rcu` is used the other way round from `defer_churn`: per-hop
//! traversal loads and pin/unpin dominate and the allocator is a
//! minority, so this is the one workload where the hp/hyaline walk cost
//! reaches an end-to-end number, and where a defer-path gain bought with
//! a read-side cost shows.

use pbs_alloc_api::CacheFactory;
use pbs_ledger::Check;
use pbs_rcu::RcuThread;
use pbs_structs::{RcuBst, RcuHashMap, RcuList};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{retry, Bed, Probe, SpanName, Workload};

const MAP_KEYS: usize = 64 * 1024;
const BST_KEYS: usize = 4 * 1024;
const LIST_KEYS: usize = 64;
const ZIPF_S: f64 = 1.1;
const UPDATE_SHARE: f64 = 0.10;

/// Operation kinds, in the low three bits of an encoded operation; the
/// key sits above them.
const MAP_GET: u32 = 0;
const BST_LOOKUP: u32 = 1;
const LIST_LOOKUP: u32 = 2;
const MAP_UPDATE: u32 = 3;
const BST_UPDATE: u32 = 4;
const LIST_UPDATE: u32 = 5;

pub struct StructMix {
    map: RcuHashMap<u64, u64>,
    bst: RcuBst<u64>,
    list: RcuList<u64>,
    /// Per worker: encoded operations of one round, replayed every round.
    ops: Vec<Vec<u32>>,
}

/// Inverse-CDF Zipf sampler over ranks `0..n`, each rank mapped to a key
/// through a seeded permutation so hot keys are scattered.
struct Zipf {
    cdf: Vec<f64>,
    key_of_rank: Vec<u32>,
}

impl Zipf {
    fn new(n: usize, rng: &mut StdRng) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += (rank as f64).powf(-ZIPF_S);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        let mut key_of_rank: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            key_of_rank.swap(i, rng.gen_range(0..=i));
        }
        Self { cdf, key_of_rank }
    }

    fn draw(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1);
        self.key_of_rank[rank]
    }
}

/// The value an update writes: unique per (round, operation), so the
/// final state names the last update of every key.
fn update_value(round: u64, i: usize) -> u64 {
    (round + 1) << 32 | i as u64
}

fn checksum(entries: impl Iterator<Item = (u64, u64)>) -> (usize, u64) {
    entries.fold((0, 0), |(n, sum), (k, v)| {
        (
            n + 1,
            sum.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ v),
        )
    })
}

impl Workload for StructMix {
    const NAME: &'static str = "struct_mix";
    const SPANS_PER_OP: usize = 4;
    const RATE_HINT: [f64; 4] = [7.0e6, 6.0e6, 7.6e6, 7.6e6];
    type Local = RcuThread;

    fn build(bed: &Bed, seed: u64, threads: usize, ops_per_round: usize, _rounds: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Worker `t` owns the keys congruent to `t`: updates of different
        // workers commute, so the final state is the same whatever the
        // interleaving and a sequential model can check it.
        let per = |n: usize| (n / threads).max(1);
        let zipfs = [
            Zipf::new(per(MAP_KEYS), &mut rng),
            Zipf::new(per(BST_KEYS), &mut rng),
            Zipf::new(per(LIST_KEYS), &mut rng),
        ];
        let ops = (0..threads as u32)
            .map(|tid| {
                let mut rng = StdRng::seed_from_u64(seed ^ ((u64::from(tid) + 1) << 32));
                (0..ops_per_round)
                    .map(|_| {
                        let structure = rng.gen_range(0..3u32);
                        let update = rng.gen_bool(UPDATE_SHARE);
                        let key = zipfs[structure as usize].draw(&mut rng) * threads as u32 + tid;
                        key << 3 | (structure + if update { 3 } else { 0 })
                    })
                    .collect()
            })
            .collect();

        let map = RcuHashMap::new(bed.create_cache("map-node", 24), MAP_KEYS);
        let bst = RcuBst::new(bed.create_cache("bst-node", 32));
        let list = RcuList::new(bed.create_cache("list-node", 24));
        for key in 0..(per(MAP_KEYS) * threads) as u64 {
            map.insert(key, key).expect("map pool");
        }
        // A tree filled in key order would be a list: fill it in the
        // seeded order of the rank permutation instead.
        for tid in 0..threads as u64 {
            for &raw in &zipfs[1].key_of_rank {
                let key = u64::from(raw) * threads as u64 + tid;
                bst.insert(key, key).expect("tree pool");
            }
        }
        for key in 0..(per(LIST_KEYS) * threads) as u64 {
            list.insert(key, key).expect("list pool");
        }
        Self {
            map,
            bst,
            list,
            ops,
        }
    }

    fn local(&self, bed: &Bed, _tid: usize) -> RcuThread {
        bed.testbed().rcu().register()
    }

    #[inline]
    fn op<P: Probe>(
        &self,
        reader: &mut RcuThread,
        tid: usize,
        round: u64,
        i: usize,
        probe: &mut P,
    ) -> bool {
        let encoded = self.ops[tid][i];
        let key = u64::from(encoded >> 3);
        let kind = encoded & 7;
        if kind < MAP_UPDATE {
            let guard = probe.span(SpanName::ReadLock, || reader.read_lock());
            let found = match kind {
                MAP_GET => probe.span(SpanName::MapGet, || self.map.get(&guard, &key)),
                BST_LOOKUP => probe.span(SpanName::BstLookup, || self.bst.lookup(&guard, key)),
                _ => {
                    debug_assert_eq!(kind, LIST_LOOKUP);
                    probe.span(SpanName::ListLookup, || self.list.lookup(&guard, key))
                }
            };
            probe.span(SpanName::ReadUnlock, || drop(guard));
            return std::hint::black_box(found).is_some();
        }
        let value = update_value(round, i);
        match kind {
            MAP_UPDATE => probe.span(SpanName::MapUpdate, || {
                self.map.remove(&key).is_some()
                    && retry(|| self.map.insert(key, value)) == Some(false)
            }),
            BST_UPDATE => probe.span(SpanName::BstUpdate, || {
                self.bst.remove(key).is_some()
                    && retry(|| self.bst.insert(key, value)) == Some(false)
            }),
            _ => {
                debug_assert_eq!(kind, LIST_UPDATE);
                probe.span(SpanName::ListUpdate, || {
                    retry(|| self.list.update(key, value)) == Some(true)
                })
            }
        }
    }

    fn verify(&self, bed: &Bed, executed: &[(u64, usize)]) -> Vec<Check> {
        let threads = self.ops.len();
        let per = |n: usize| (n / threads).max(1) * threads;
        // The model: one value per key, keys being dense.
        let mut models: [Vec<u64>; 3] =
            [MAP_KEYS, BST_KEYS, LIST_KEYS].map(|n| (0..per(n) as u64).collect());
        for &(round, n) in executed {
            for ops in &self.ops {
                for (i, &encoded) in ops[..n].iter().enumerate() {
                    let kind = encoded & 7;
                    if kind >= MAP_UPDATE {
                        models[(kind - MAP_UPDATE) as usize][(encoded >> 3) as usize] =
                            update_value(round, i);
                    }
                }
            }
        }
        let reader = bed.testbed().rcu().register();
        let guard = reader.read_lock();
        let mut actual = [Vec::new(), Vec::new(), Vec::new()];
        self.map.for_each(&guard, |k, v| actual[0].push((*k, *v)));
        self.bst.for_each(&guard, |k, v| actual[1].push((k, *v)));
        self.list.for_each(&guard, |k, v| actual[2].push((k, *v)));
        drop(guard);
        let lens = [self.map.len(), self.bst.len(), self.list.len()];
        let mut checks = Vec::new();
        for (s, name) in ["map", "tree", "list"].into_iter().enumerate() {
            checks.push(Check::eq(
                format!("{name}: len() equals the model"),
                lens[s],
                models[s].len(),
            ));
            checks.push(Check::eq(
                format!("{name}: entry count and key/value checksum equal the model"),
                checksum(actual[s].iter().copied()),
                checksum(models[s].iter().enumerate().map(|(k, v)| (k as u64, *v))),
            ));
        }
        checks
    }

    fn layer_counters(&self, executed: &[(u64, usize)]) -> Vec<(&'static str, f64)> {
        let updates: usize = executed
            .iter()
            .flat_map(|&(_, n)| {
                self.ops
                    .iter()
                    .map(move |ops| ops[..n].iter().filter(|e| *e & 7 == BST_UPDATE).count())
            })
            .sum();
        vec![(
            "structs.bst_deferred_per_update",
            self.bst.deferred_versions() as f64 / updates.max(1) as f64,
        )]
    }
}
