//! `mail_crr`: the application mix over `pbs-simfs` and `pbs-simnet`.
//!
//! One application transaction per operation: half are Postmark steps
//! (read / append / create / unlink on a file pool), half are TCP_CRR
//! work (`connect`, `request_response`, `Epoll::add`/`del`, `close`).
//! About a quarter of all frees are deferred, over ten caches of
//! different sizes. The live file + connection population saw-tooths
//! between 1 k and 16 k every 64 k transactions: create/unlink and
//! open/close steps lean towards a triangle-wave target, which pushes the
//! working set through the object caches, so refill, flush, grow, shrink
//! and page-allocator traffic — idle in the other three workloads — do
//! real work here. A round is a whole number of saw-tooth periods, so
//! every round covers the same ground.
//!
//! The generator steps a population model (two counters) beside the
//! operation stream; replaying it for as many operations as were run
//! gives the file and connection counts the subsystems must end with.

use pbs_ledger::Check;
use pbs_rcu::RcuThread;
use pbs_simfs::SimFs;
use pbs_simnet::{ConnId, Epoll, SimNet, EPOLLIN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{retry, Bed, Probe, SpanName, Workload};

/// Saw-tooth period in transactions at full scale; the population swings
/// between `period / 64` and `period / 4`.
const FULL_PERIOD: usize = 64 * 1024;
/// Handshake/teardown segments carry one byte, the request 128.
const REQUEST_BYTES: usize = 128;

// Operation kinds (low 3 bits of an encoded operation; then 13 bits of
// I/O size in 512-byte-free units, then the pool index).
const FS_READ: u64 = 0;
const FS_APPEND: u64 = 1;
const FS_CREATE: u64 = 2;
const FS_UNLINK: u64 = 3;
const CRR_CYCLE: u64 = 4;
const CRR_OPEN: u64 = 5;
const CRR_CLOSE: u64 = 6;

fn encode(kind: u64, bytes: usize, index: usize) -> u64 {
    kind | (bytes as u64) << 3 | (index as u64) << 16
}

/// The saw-tooth geometry for a requested round length.
#[derive(Debug, Clone, Copy)]
struct Shape {
    period: usize,
}

impl Shape {
    fn for_round(wanted: usize) -> Self {
        // The largest power of two that fits, capped at the full period:
        // short (smoke) rounds shrink the saw-tooth with them.
        let fit = 1usize << wanted.max(1).ilog2();
        Self {
            period: fit.clamp(256, FULL_PERIOD),
        }
    }

    fn low(self) -> usize {
        self.period / 64
    }

    fn high(self) -> usize {
        self.period / 4
    }

    /// Target population at transaction `i`: up for half a period, down
    /// for the other half.
    fn target(self, i: usize) -> usize {
        let phase = i % self.period;
        let half = self.period / 2;
        let up = if phase < half {
            phase
        } else {
            self.period - phase
        };
        self.low() + (self.high() - self.low()) * up / half
    }
}

/// Population model and operation generator of one worker.
struct Model {
    rng: StdRng,
    shape: Shape,
    step: usize,
    files: usize,
    conns: usize,
}

impl Model {
    fn new(seed: u64, tid: usize, shape: Shape, threads: usize) -> Self {
        let pool = (shape.low() / threads).max(2);
        Self {
            rng: StdRng::seed_from_u64(seed ^ ((tid as u64 + 1) << 32)),
            shape,
            step: 0,
            files: pool / 2,
            conns: pool / 2,
        }
    }

    fn next(&mut self, threads: usize) -> u64 {
        let target = self.shape.target(self.step) / threads;
        self.step += 1;
        // Lean towards the target, with one step in ten against it so
        // both directions occur in both halves of the period.
        let grow = (self.files + self.conns < target) != self.rng.gen_bool(0.1);
        let draw = self.rng.gen_range(0..8u32);
        match draw {
            // Postmark: half data steps, half metadata steps.
            0 => encode(
                FS_READ,
                self.rng.gen_range(512..4096),
                self.rng.gen_range(0..self.files),
            ),
            1 => encode(
                FS_APPEND,
                self.rng.gen_range(512..2048),
                self.rng.gen_range(0..self.files),
            ),
            2 | 3 => {
                if grow || self.files <= 1 {
                    self.files += 1;
                    encode(FS_CREATE, 0, 0)
                } else {
                    self.files -= 1;
                    encode(FS_UNLINK, 0, self.rng.gen_range(0..self.files + 1))
                }
            }
            // TCP_CRR: one full cycle in four; the rest open a connection
            // or finish an earlier one, so connections live long too.
            4 => encode(CRR_CYCLE, 0, 0),
            _ => {
                if grow || self.conns == 0 {
                    self.conns += 1;
                    encode(CRR_OPEN, 0, 0)
                } else {
                    self.conns -= 1;
                    encode(CRR_CLOSE, 0, self.rng.gen_range(0..self.conns + 1))
                }
            }
        }
    }
}

pub struct MailCrr {
    fs: SimFs,
    net: SimNet,
    epoll: Epoll,
    seed: u64,
    shape: Shape,
    /// Per worker: the whole run's operation stream, consumed in order.
    ops: Vec<Vec<u64>>,
}

/// A worker's view of its pools; mirrors the model's two counters.
pub struct Local {
    reader: RcuThread,
    dir: u64,
    files: Vec<u64>,
    next_name: u64,
    conns: Vec<ConnId>,
    cursor: usize,
}

impl MailCrr {
    fn open_conn<P: Probe>(&self, probe: &mut P) -> Option<ConnId> {
        let conn = probe.span(SpanName::NetConnect, || retry(|| self.net.connect()))?;
        probe
            .span(SpanName::EpollAdd, || {
                retry(|| self.epoll.add(conn.0, EPOLLIN))
            })
            .map(|()| conn)
    }

    fn exchange<P: Probe>(&self, probe: &mut P, conn: ConnId, sizes: &[usize]) -> bool {
        sizes.iter().all(|&bytes| {
            probe
                .span(SpanName::NetRequestResponse, || {
                    retry(|| self.net.request_response(conn, bytes))
                })
                .is_some()
        })
    }

    fn close_conn<P: Probe>(&self, probe: &mut P, conn: ConnId) -> bool {
        let deleted = probe.span(SpanName::EpollDel, || self.epoll.del(conn.0));
        probe
            .span(SpanName::NetClose, || self.net.close(conn))
            .is_ok()
            && deleted
    }

    fn file_io<P: Probe>(
        &self,
        probe: &mut P,
        local: &Local,
        name: u64,
        bytes: usize,
        append: bool,
    ) -> bool {
        let ino = {
            let guard = probe.span(SpanName::ReadLock, || local.reader.read_lock());
            let ino = probe.span(SpanName::FsLookup, || {
                self.fs.lookup(&guard, local.dir, name)
            });
            probe.span(SpanName::ReadUnlock, || drop(guard));
            ino
        };
        let Some(ino) = ino else {
            return false;
        };
        let Some(fd) = probe.span(SpanName::FsOpen, || retry(|| self.fs.open(ino))) else {
            return false;
        };
        let done = if append {
            probe.span(SpanName::FsAppend, || retry(|| self.fs.append(fd, bytes)))
        } else {
            probe.span(SpanName::FsRead, || retry(|| self.fs.read(fd, bytes)))
        };
        probe.span(SpanName::FsClose, || self.fs.close(fd)).is_ok() && done.is_some()
    }
}

impl Workload for MailCrr {
    const NAME: &'static str = "mail_crr";
    const SPANS_PER_OP: usize = 9;
    const RATE_HINT: [f64; 4] = [2.8e5, 4.4e5, 7.6e5, 7.6e5];
    type Local = Local;

    fn round_ops(wanted: usize) -> usize {
        let period = Shape::for_round(wanted).period;
        (wanted / period).max(1) * period
    }

    fn build(bed: &Bed, seed: u64, threads: usize, ops_per_round: usize, rounds: usize) -> Self {
        let shape = Shape::for_round(ops_per_round);
        let ops = (0..threads)
            .map(|tid| {
                let mut model = Model::new(seed, tid, shape, threads);
                (0..ops_per_round * rounds)
                    .map(|_| model.next(threads))
                    .collect()
            })
            .collect();
        Self {
            fs: SimFs::new(bed),
            net: SimNet::with_config(bed, shape.high().next_power_of_two(), None),
            epoll: Epoll::new(bed),
            seed,
            shape,
            ops,
        }
    }

    fn local(&self, bed: &Bed, tid: usize) -> Local {
        let model = Model::new(self.seed, tid, self.shape, self.ops.len());
        let mut local = Local {
            reader: bed.testbed().rcu().register(),
            dir: tid as u64,
            files: Vec::with_capacity(self.shape.high()),
            next_name: 0,
            conns: Vec::with_capacity(self.shape.high()),
            cursor: 0,
        };
        for _ in 0..model.files {
            self.fs
                .create(local.dir, local.next_name)
                .expect("file pool");
            local.files.push(local.next_name);
            local.next_name += 1;
        }
        for _ in 0..model.conns {
            let conn = self
                .open_conn(&mut crate::harness::Off)
                .expect("connection pool");
            local.conns.push(conn);
        }
        local
    }

    #[inline]
    fn op<P: Probe>(
        &self,
        local: &mut Local,
        tid: usize,
        _round: u64,
        _i: usize,
        probe: &mut P,
    ) -> bool {
        let encoded = self.ops[tid][local.cursor];
        local.cursor += 1;
        let bytes = (encoded >> 3 & 0x1FFF) as usize;
        let index = (encoded >> 16) as usize;
        match encoded & 7 {
            FS_READ => self.file_io(probe, local, local.files[index], bytes, false),
            FS_APPEND => self.file_io(probe, local, local.files[index], bytes, true),
            FS_CREATE => {
                let name = local.next_name;
                local.next_name += 1;
                local.files.push(name);
                probe
                    .span(SpanName::FsCreate, || {
                        retry(|| self.fs.create(local.dir, name))
                    })
                    .is_some()
            }
            FS_UNLINK => {
                let name = local.files.swap_remove(index);
                probe
                    .span(SpanName::FsUnlink, || self.fs.unlink(local.dir, name))
                    .is_ok()
            }
            CRR_CYCLE => match self.open_conn(probe) {
                Some(conn) => {
                    // Handshake, one request/response, FIN and ACK.
                    let served = self.exchange(probe, conn, &[1, REQUEST_BYTES, 1, 1]);
                    self.close_conn(probe, conn) && served
                }
                None => false,
            },
            CRR_OPEN => match self.open_conn(probe) {
                Some(conn) => {
                    local.conns.push(conn);
                    self.exchange(probe, conn, &[1, REQUEST_BYTES])
                }
                None => false,
            },
            _ => {
                debug_assert_eq!(encoded & 7, CRR_CLOSE);
                let conn = local.conns.swap_remove(index);
                let served = self.exchange(probe, conn, &[1, 1]);
                self.close_conn(probe, conn) && served
            }
        }
    }

    fn verify(&self, _bed: &Bed, executed: &[(u64, usize)]) -> Vec<Check> {
        let threads = self.ops.len();
        let run: usize = executed.iter().map(|(_, n)| n).sum();
        let (mut files, mut conns) = (0, 0);
        for tid in 0..threads {
            let mut model = Model::new(self.seed, tid, self.shape, threads);
            for _ in 0..run {
                model.next(threads);
            }
            files += model.files;
            conns += model.conns;
        }
        vec![
            Check::eq("file_count() equals the model", self.fs.file_count(), files),
            Check::eq(
                "connection_count() equals the model",
                self.net.connection_count(),
                conns,
            ),
            Check::eq(
                "epoll registrations equal the model",
                self.epoll.len(),
                conns,
            ),
        ]
    }
}
