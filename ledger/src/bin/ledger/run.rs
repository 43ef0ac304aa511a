//! One run of one workload: the round plan, the four configurations,
//! and the assembly of rounds, counters, spans and probes into the
//! metrics `BENCHMARK.json` names.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pbs_ledger::stats::{median, quantile_sorted};
use pbs_ledger::{Check, MetricValue, RunMeta, Schema, WorkloadReport};
use pbs_telemetry::HistogramSnapshot;

use crate::harness::{
    site_balance_check, with_session, Bed, Counters, Mode, Round, Session, Span, SpanName, Variant,
    Workload,
};
use crate::probes;
use crate::workloads::{DeferChurn, HitTxn, MailCrr, StructMix};

/// The run length the round plan and the probe sizes are calibrated for.
const REFERENCE_SECONDS: f64 = 20.0;
/// Set-ups of the default configuration per end-to-end run; `setup_s` is
/// their median.
const SETUPS: usize = 5;
/// Spans a traced round may record (bounds its buffer at ~36 MiB).
const MAX_SPANS_PER_ROUND: usize = 1_500_000;
/// Spans of the last traced round written to the chrome-trace file.
const TRACE_FILE_SPANS: usize = 100_000;
/// Floor under which sampled garbage is noise around nothing.
const GARBAGE_FLOOR_OBJS: f64 = 64.0;

/// What to run and where to write.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub out: PathBuf,
}

/// The rounds one configuration runs after its warm-up.
#[derive(Debug, Clone, Copy)]
struct Rounds {
    /// Seconds one round should take.
    round_s: f64,
    throughput: usize,
    latency: usize,
    traced: usize,
}

impl Rounds {
    fn count(self) -> usize {
        self.throughput + self.latency + self.traced
    }
}

/// How `--seconds` is spent. The end-to-end run gives the default
/// configuration 9 throughput and 5 latency rounds and each variant 9
/// throughput rounds; a default round is 1.5× as long as a variant's.
/// The traced run trades rounds for traced rounds, and a quarter of its
/// time for the probes.
fn rounds_for(variant: Variant, seconds: f64, traced: bool) -> Rounds {
    let (throughput, latency, traced_rounds, measured_s) = if traced {
        (5, 3, 3, 0.75 * seconds)
    } else {
        (9, 5, 0, seconds)
    };
    let default_rounds = (throughput + latency + traced_rounds) as f64;
    let unit = measured_s / (1.5 * default_rounds + 3.0 * throughput as f64);
    if variant == Variant::Default {
        Rounds {
            round_s: 1.5 * unit,
            throughput,
            latency,
            traced: traced_rounds,
        }
    } else {
        Rounds {
            round_s: unit,
            throughput,
            latency: 0,
            traced: 0,
        }
    }
}

/// Durations of every span of one name, plus the operation total.
#[derive(Default)]
struct SpanFold {
    /// Per [`SpanName`] discriminant: every span's duration, ns.
    durations: Vec<Vec<u32>>,
    /// The last traced round's first spans, for the trace file.
    sample: Vec<Span>,
}

impl SpanFold {
    fn fold(&mut self, spans: Vec<Span>) {
        self.durations.resize_with(SpanName::ALL.len(), Vec::new);
        for s in &spans {
            self.durations[s.name as usize]
                .push((s.end.saturating_sub(s.start)).min(u64::from(u32::MAX)) as u32);
        }
        self.sample = spans;
        self.sample.truncate(TRACE_FILE_SPANS);
    }

    fn sort(&mut self) {
        for d in &mut self.durations {
            d.sort_unstable();
        }
    }

    fn of(&self, name: SpanName) -> &[u32] {
        self.durations.get(name as usize).map_or(&[], Vec::as_slice)
    }

    /// The `q`-quantile of a span's durations (sorted first); 0 without
    /// spans of that name.
    fn q(&self, name: SpanName, q: f64) -> f64 {
        quantile_sorted(self.of(name), q)
    }

    /// Each layer's spans' total as a percentage of the operation spans'
    /// total; `bench` is what the calls do not cover.
    fn layer_share_pct(&self) -> Vec<(String, f64)> {
        let total =
            |name: SpanName| self.of(name).iter().map(|d| u64::from(*d)).sum::<u64>() as f64;
        let ops = total(SpanName::Op);
        if ops == 0.0 {
            return Vec::new();
        }
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for &name in SpanName::ALL.iter().filter(|n| **n != SpanName::Op) {
            *by_layer.entry(name.layer()).or_default() += total(name);
        }
        let covered: f64 = by_layer.values().sum();
        by_layer.insert("bench", ops - covered);
        by_layer
            .into_iter()
            .map(|(layer, ns)| (layer.to_string(), ns / ops * 100.0))
            .collect()
    }
}

/// What driving one configuration produced.
struct ConfigOut {
    ops_per_round: usize,
    thr: Vec<Round>,
    lat: Vec<Round>,
    traced: Vec<Round>,
    spans: SpanFold,
    before: Counters,
    after: Counters,
    layer_counters: Vec<(&'static str, f64)>,
}

impl ConfigOut {
    fn rounds(&self) -> impl Iterator<Item = &Round> {
        self.thr.iter().chain(&self.lat).chain(&self.traced)
    }

    fn ops(&self) -> u64 {
        self.rounds().map(|r| r.ops).sum()
    }

    fn failed(&self) -> u64 {
        self.rounds().map(|r| r.failed).sum()
    }

    /// The `q`-quantile of operation latency, per latency round.
    fn lat_quantile(&self, q: f64) -> MetricValue {
        let per_round: Vec<f64> = self
            .lat
            .iter()
            .map(|r| quantile_sorted(&r.latencies, q))
            .collect();
        MetricValue::from_rounds(
            &per_round,
            self.lat.iter().map(|r| r.latencies.len() as u64).sum(),
        )
    }

    /// A per-round figure of the throughput rounds.
    fn thr_metric(
        &self,
        f: impl Fn(&Round) -> f64,
        samples: impl Fn(&Round) -> u64,
    ) -> MetricValue {
        let per_round: Vec<f64> = self.thr.iter().map(f).collect();
        MetricValue::from_rounds(&per_round, self.thr.iter().map(samples).sum())
    }
}

/// Runs a warmed configuration's rounds. Every round of the
/// configuration runs the same operation count: the hint-sized count the
/// inputs were generated for, cut down to what the warm-up round's rate
/// says fits `round_s` seconds, so a run takes about `--seconds` even
/// when the box is having a slow quarter of an hour.
fn drive<W: Workload>(
    session: &mut Session<'_>,
    bed: &Bed,
    workload: &W,
    warm_up: &Round,
    rounds: Rounds,
) -> ConfigOut {
    let sized_for = warm_up.ops as usize / session.threads();
    let fits = (warm_up.ops_per_s() / session.threads() as f64 * rounds.round_s) as usize;
    let ops = W::round_ops(fits.clamp(sized_for * 2 / 5, sized_for)).min(sized_for);
    let traced_ops = W::round_ops((MAX_SPANS_PER_ROUND / W::SPANS_PER_OP).min(ops)).min(ops);
    let before = bed.counters();
    let mut run =
        |mode, count, ops| -> Vec<Round> { (0..count).map(|_| session.round(mode, ops)).collect() };
    let thr = run(Mode::Throughput, rounds.throughput, ops);
    let lat = run(Mode::Latency, rounds.latency, ops);
    // Fold each traced round's spans before the next round allocates
    // its buffer: three rounds of raw spans would be over 100 MiB.
    let mut spans = SpanFold::default();
    let traced: Vec<Round> = (0..rounds.traced)
        .map(|_| {
            let mut round = session.round(Mode::Traced, traced_ops);
            spans.fold(std::mem::take(&mut round.spans));
            round
        })
        .collect();
    spans.sort();
    ConfigOut {
        ops_per_round: ops,
        thr,
        lat,
        traced,
        spans,
        before,
        after: bed.counters(),
        layer_counters: workload.layer_counters(&session.executed),
    }
}

/// Runs `workload` once, end to end (`traced == false`) or traced.
pub fn run_workload(
    workload: &str,
    traced: bool,
    opts: &RunOpts,
    schema: &Schema,
) -> Result<WorkloadReport, String> {
    match workload {
        "defer_churn" => run::<DeferChurn>(traced, opts, schema),
        "hit_txn" => run::<HitTxn>(traced, opts, schema),
        "struct_mix" => run::<StructMix>(traced, opts, schema),
        "mail_crr" => run::<MailCrr>(traced, opts, schema),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn run<W: Workload>(
    traced: bool,
    opts: &RunOpts,
    schema: &Schema,
) -> Result<WorkloadReport, String> {
    let threads = opts.threads;
    let mut checks = Vec::new();
    let mut setups = Vec::new();
    let mut configs = Vec::new();
    for variant in Variant::ALL {
        let rounds = rounds_for(variant, opts.seconds, traced);
        let ops = W::round_ops((W::RATE_HINT[variant.index()] * rounds.round_s) as usize);
        // An end-to-end run sets the system under test up SETUPS times and
        // measures on the last; the earlier ones only time the set-up.
        if variant == Variant::Default && !traced {
            for _ in 1..SETUPS {
                let ((), setup_s, c) = with_session::<W, _>(
                    variant,
                    opts.seed,
                    threads,
                    ops,
                    rounds.count(),
                    |_, _, _, _| (),
                );
                setups.push(setup_s);
                checks.extend(c);
            }
        }
        let (out, setup_s, c) = with_session::<W, _>(
            variant,
            opts.seed,
            threads,
            ops,
            rounds.count(),
            |session, bed, w, warm_up| drive(session, bed, w, warm_up, rounds),
        );
        if variant == Variant::Default {
            setups.push(setup_s);
        }
        checks.extend(c);
        configs.push((variant, out));
    }
    let default = &configs[0].1;

    let probe_rows = if traced {
        let scale = probes::Scale((opts.seconds / REFERENCE_SECONDS).min(1.0));
        probes::run(W::NAME, scale, opts.seed)
    } else {
        Vec::new()
    };
    checks.push(site_balance_check());
    checks.push(Check::eq(
        "default: no operation failed",
        default.failed(),
        0,
    ));

    let per_config = |f: fn(&ConfigOut) -> u64| -> Vec<(String, u64)> {
        configs
            .iter()
            .map(|(v, out)| (v.label().to_string(), f(out)))
            .collect()
    };
    let meta = RunMeta {
        seed: opts.seed,
        seconds: opts.seconds,
        ops_per_round: per_config(|out| out.ops_per_round as u64),
        ..RunMeta::capture(threads)
    };
    let failed_by_config = per_config(ConfigOut::failed);

    let mut values = if traced {
        per_layer_metrics::<W>(&configs, probe_rows, &meta)
    } else {
        end_to_end_metrics(&configs, &setups)
    };
    let mut metrics = Vec::new();
    for spec in schema.metrics_for(traced) {
        let mut value = values
            .remove(spec.name.as_str())
            .ok_or_else(|| format!("{}: no value produced for {}", W::NAME, spec.name))?;
        value.name.clone_from(&spec.name);
        value.unit.clone_from(&spec.unit);
        metrics.push(value);
    }
    if let Some(extra) = values.keys().next() {
        return Err(format!(
            "{}: produced {extra}, which BENCHMARK.json does not list",
            W::NAME
        ));
    }

    let report = WorkloadReport {
        workload: W::NAME.to_string(),
        traced,
        meta,
        correct: checks.iter().all(|c| c.ok),
        ops_attempted: configs.iter().map(|(_, out)| out.ops()).sum(),
        ops_failed: failed_by_config.iter().map(|(_, n)| n).sum(),
        failed_by_config,
        checks,
        metrics,
        latency_ladder_ns: [
            ("p50", 0.5),
            ("p90", 0.9),
            ("p95", 0.95),
            ("p98", 0.98),
            ("p99", 0.99),
            ("p99.5", 0.995),
            ("p99.9", 0.999),
        ]
        .map(|(label, q)| (label.to_string(), default.lat_quantile(q).value))
        .to_vec(),
        layer_share_pct: default.spans.layer_share_pct(),
    };
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let stem = if traced {
        format!("{}.layers", W::NAME)
    } else {
        W::NAME.to_string()
    };
    report.store(&opts.out.join(format!("{stem}.json")))?;
    if traced {
        write_chrome_trace(
            &opts.out.join(format!("{}.trace.json", W::NAME)),
            &default.spans.sample,
        )?;
    }
    Ok(report)
}

type Values = BTreeMap<&'static str, MetricValue>;

fn end_to_end_metrics(configs: &[(Variant, ConfigOut)], setups: &[f64]) -> Values {
    let mut values = Values::new();
    for (variant, out) in configs {
        let name = match variant {
            Variant::Default => "ops_per_s",
            Variant::Slub => "slub_ops_per_s",
            Variant::Hp => "hp_ops_per_s",
            Variant::Hyaline => "hyaline_ops_per_s",
        };
        values.insert(name, out.thr_metric(Round::ops_per_s, |r| r.ops));
    }
    let default = &configs[0].1;
    values.insert("op_p50_ns", default.lat_quantile(0.5));
    values.insert(
        "garbage_avg_objs",
        default.thr_metric(|r| r.garbage_avg.max(GARBAGE_FLOOR_OBJS), |r| r.samples),
    );
    values.insert("setup_s", MetricValue::from_rounds(setups, 0));
    values
}

/// `after − before` of a cumulative histogram.
fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        buckets: after
            .buckets
            .iter()
            .enumerate()
            .map(|(i, n)| n.saturating_sub(before.buckets.get(i).copied().unwrap_or(0)))
            .collect(),
    }
}

fn per_layer_metrics<W: Workload>(
    configs: &[(Variant, ConfigOut)],
    probe_rows: Vec<(&'static str, f64)>,
    meta: &RunMeta,
) -> Values {
    let mut values = Values::new();
    let mut put = |name: &'static str, value: f64| {
        values.insert(name, MetricValue::single(value));
    };
    let [default, slub, hp, hyaline] = Variant::ALL.map(|v| &configs[v.index()].1);

    // Rows the other workloads' traced runs carry read 0 here.
    for (workload, names) in probes::CARRIED {
        if workload != W::NAME {
            for name in names {
                put(name, 0.0);
            }
        }
    }
    for (name, value) in probe_rows
        .into_iter()
        .chain(default.layer_counters.iter().copied())
    {
        put(name, value);
    }

    // Counter rows: deltas of the public snapshots over the timed rounds
    // of one configuration, per 1 000 operations.
    let kops = |out: &ConfigOut| out.ops() as f64 / 1000.0;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let seconds = |out: &ConfigOut| (out.after.at_ns - out.before.at_ns) as f64 / 1e9;
    macro_rules! delta {
        ($out:expr, $($field:tt)+) => {
            ($out.after.$($field)+ - $out.before.$($field)+)
        };
    }
    let d = default;
    let gauge =
        |out: &ConfigOut, f: fn(&Round) -> f64| median(&out.thr.iter().map(f).collect::<Vec<_>>());
    let k = kops(d);
    put("mem.page_allocs_per_kop", delta!(d, page_allocs) as f64 / k);
    put("mem.peak_bytes", d.after.peak_bytes as f64);
    put("mem.avg_bytes", gauge(d, |r| r.mem_avg));
    let calls =
        delta!(d, cache.alloc_requests) + delta!(d, cache.frees) + delta!(d, cache.deferred_frees);
    put(
        "percpu.fast_hit_ratio",
        ratio(delta!(d, cache.rseq_hits), calls),
    );
    put(
        "percpu.restarts_per_kop",
        delta!(d, cache.rseq_restarts) as f64 / k,
    );
    put(
        "percpu.fallbacks_per_kop",
        delta!(d, cache.fastpath_fallbacks) as f64 / k,
    );
    put(
        "prudence.hit_ratio",
        ratio(
            delta!(d, cache.cache_hits) + delta!(d, cache.latent_hits),
            delta!(d, cache.alloc_requests),
        ),
    );
    put(
        "prudence.latent_hits_per_kop",
        delta!(d, cache.latent_hits) as f64 / k,
    );
    put(
        "prudence.refills_per_kop",
        delta!(d, cache.refills) as f64 / k,
    );
    put(
        "prudence.partial_refills_per_kop",
        delta!(d, cache.partial_refills) as f64 / k,
    );
    put(
        "prudence.flushes_per_kop",
        delta!(d, cache.flushes) as f64 / k,
    );
    put(
        "prudence.preflushes_per_kop",
        delta!(d, cache.preflushes) as f64 / k,
    );
    put("prudence.grows_per_kop", delta!(d, cache.grows) as f64 / k);
    put(
        "prudence.shrinks_per_kop",
        delta!(d, cache.shrinks) as f64 / k,
    );
    put(
        "prudence.pre_movements_per_kop",
        delta!(d, cache.pre_movements) as f64 / k,
    );
    put("prudence.slabs_peak", d.after.cache.slabs_peak as f64);
    put("prudence.oom_waits", delta!(d, cache.oom_waits) as f64);
    put(
        "prudence.node_lock_contended_per_kop",
        delta!(d, cache.node_lock_contended) as f64 / k,
    );
    put(
        "prudence.cpu_slot_misses_per_kop",
        delta!(d, cache.cpu_slot_misses) as f64 / k,
    );
    put(
        "prudence.defer_to_reusable_ns_p50",
        hist_delta(&d.after.defer_delay, &d.before.defer_delay)
            .quantile_upper_bound(0.5)
            .unwrap_or(0) as f64,
    );
    let quiesces: Vec<f64> = d.rounds().map(|r| r.quiesce_ns as f64).collect();
    put("prudence.quiesce_ns", median(&quiesces));

    let ks = kops(slub);
    let ns_per_op: Vec<f64> = slub
        .thr
        .iter()
        .map(|r| r.wall_ns as f64 * meta.threads as f64 / r.ops as f64)
        .collect();
    put("slub.pair_ns_p50", median(&ns_per_op));
    put(
        "slub.hit_ratio",
        ratio(
            delta!(slub, cache.cache_hits) + delta!(slub, cache.latent_hits),
            delta!(slub, cache.alloc_requests),
        ),
    );
    put(
        "slub.refills_per_kop",
        delta!(slub, cache.refills) as f64 / ks,
    );
    put(
        "slub.flushes_per_kop",
        delta!(slub, cache.flushes) as f64 / ks,
    );
    put("slub.grows_per_kop", delta!(slub, cache.grows) as f64 / ks);
    put("slub.slabs_peak", slub.after.cache.slabs_peak as f64);
    put("slub.mem_avg_bytes", gauge(slub, |r| r.mem_avg));
    put("slub.garbage_avg_objs", gauge(slub, |r| r.garbage_avg));

    put(
        "rcu.gps_per_s",
        delta!(d, rcu.gp_advances) as f64 / 2.0 / seconds(d),
    );
    // Prudence never queues a callback; the backlog is the control's.
    put(
        "rcu.callback_backlog_max",
        slub.after.rcu.max_callback_backlog as f64,
    );
    put("rcu.expedited_gps", delta!(d, rcu.expedited_gps) as f64);
    put(
        "rcu.membarrier_advances_per_s",
        delta!(d, rcu.membarrier_advances) as f64 / seconds(d),
    );

    put("reclaim.hp.garbage_avg_objs", gauge(hp, |r| r.garbage_avg));
    put(
        "reclaim.hyaline.garbage_avg_objs",
        gauge(hyaline, |r| r.garbage_avg),
    );
    put(
        "reclaim.hp.scans_per_kop",
        delta!(hp, reclaim.scans) as f64 / kops(hp),
    );
    put(
        "reclaim.hyaline.batches_per_kop",
        delta!(hyaline, reclaim.batches_sealed) as f64 / kops(hyaline),
    );
    put(
        "reclaim.hyaline.ejections",
        delta!(hyaline, reclaim.ejections) as f64,
    );

    put(
        "telemetry.lost_stamps",
        pbs_telemetry::site::report().lost_stamps as f64,
    );
    put("telemetry.ring_dropped", delta!(d, ring_dropped) as f64);

    // Span rows: quantiles over every span of the name in the traced
    // rounds; 0 where the workload makes no such call.
    let s = &d.spans;
    put("prudence.alloc_ns_p50", s.q(SpanName::Alloc, 0.5));
    put("prudence.alloc_ns_p99", s.q(SpanName::Alloc, 0.99));
    put(
        "prudence.free_deferred_ns_p50",
        s.q(SpanName::FreeDeferred, 0.5),
    );
    put(
        "prudence.free_deferred_ns_p99",
        s.q(SpanName::FreeDeferred, 0.99),
    );
    // The transaction's free phase is 24 immediate frees under one span.
    put("prudence.free_ns_p50", s.q(SpanName::TxnFree, 0.5) / 24.0);
    put("structs.map_get_ns", s.q(SpanName::MapGet, 0.5));
    put("structs.map_update_ns", s.q(SpanName::MapUpdate, 0.5));
    put("structs.bst_lookup_ns", s.q(SpanName::BstLookup, 0.5));
    put("structs.bst_update_ns", s.q(SpanName::BstUpdate, 0.5));
    put("structs.list_lookup_ns", s.q(SpanName::ListLookup, 0.5));
    put("structs.list_update_ns", s.q(SpanName::ListUpdate, 0.5));
    put("simfs.create_ns", s.q(SpanName::FsCreate, 0.5));
    put("simfs.unlink_ns", s.q(SpanName::FsUnlink, 0.5));
    put("simfs.lookup_ns", s.q(SpanName::FsLookup, 0.5));
    put(
        "simfs.open_close_ns",
        s.q(SpanName::FsOpen, 0.5) + s.q(SpanName::FsClose, 0.5),
    );
    put("simfs.append_ns", s.q(SpanName::FsAppend, 0.5));
    put("simnet.connect_ns", s.q(SpanName::NetConnect, 0.5));
    put("simnet.close_ns", s.q(SpanName::NetClose, 0.5));
    put(
        "simnet.request_response_ns",
        s.q(SpanName::NetRequestResponse, 0.5),
    );
    put(
        "simnet.epoll_add_del_ns",
        s.q(SpanName::EpollAdd, 0.5) + s.q(SpanName::EpollDel, 0.5),
    );

    // Sanity rows for reading the rest.
    let untraced = median(&d.thr.iter().map(Round::ops_per_s).collect::<Vec<_>>());
    let traced_rate = median(&d.traced.iter().map(Round::ops_per_s).collect::<Vec<_>>());
    put("bench.clock_ns", probes::clock_ns());
    put(
        "bench.trace_overhead_pct",
        (untraced - traced_rate) / untraced * 100.0,
    );
    put("bench.op_p99_ns", d.lat_quantile(0.99).value);
    put("bench.op_p999_ns", d.lat_quantile(0.999).value);
    put("bench.threads", meta.threads as f64);
    put(
        "bench.oversubscribed",
        f64::from(u8::from(meta.oversubscribed)),
    );
    values
}

/// Writes spans as chrome://tracing "complete" events.
fn write_chrome_trace(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 110 + 64);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            s.name.label(),
            s.name.layer(),
            s.start as f64 / 1000.0,
            s.end.saturating_sub(s.start) as f64 / 1000.0,
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `workload metric value unit` lines of a report.
pub fn render(report: &WorkloadReport) -> String {
    let mut out = String::new();
    for m in &report.metrics {
        out.push_str(&format!(
            "{} {} {} {}\n",
            report.workload, m.name, m.value, m.unit
        ));
    }
    out
}

/// The one-line JSON result the driver reads.
pub fn result_line(report: &WorkloadReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.ops_attempted.max(1),
        report.ops_failed,
        metrics.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
