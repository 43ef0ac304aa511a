//! Telemetry exposition: render a [`TelemetrySnapshot`] as Prometheus
//! text and as a chrome://tracing (Trace Event Format) JSON file, plus the
//! validators CI runs against both.
//!
//! The exporters are pure functions over snapshot data — no live allocator
//! state is touched — so they can run after the workload has been torn
//! down.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use pbs_alloc_api::{CacheStatsSnapshot, TelemetrySnapshot};
use pbs_rcu::reclaim::ReclaimStats;
use pbs_rcu::RcuStats;
use pbs_telemetry::table::Field;
use pbs_telemetry::{bucket_upper_bound, ComponentTelemetry, HistogramSnapshot, BUCKETS};

/// Renders the snapshot in the Prometheus text exposition format.
///
/// Series layout:
/// * `pbs_rcu_*` — RCU domain counters and the `gp_latency_ns`
///   histogram.
/// * `pbs_reclaim_*{backend="<label>"}` — reclamation-backend counters;
///   every series renders under every backend (zero where the mechanism
///   is not in play), so the schema is stable across `PBS_RECLAIM` legs.
/// * `pbs_cache_*{cache="<name>"}` — per-cache counters and the
///   `slot_wait_ns` / `defer_delay_ns` histograms; `defer_delay_ns` is
///   the cache's garbage age at reclaim, over every reclaim route.
/// * `pbs_events_total{component,kind}` plus `pbs_events_recorded_total`
///   / `pbs_events_dropped_total` / `pbs_events_torn_total` — trace-ring
///   accounting.
///
/// The counter and gauge series of the three blocks are not named here:
/// they are the rows (`FIELDS`) of [`RcuStats`], [`ReclaimStats`] and
/// [`CacheStatsSnapshot`]. Each metric family is written once — one
/// `# TYPE` line, then every cache's / backend's / component's samples —
/// as a Prometheus scraper requires.
pub fn to_prometheus(snap: &TelemetrySnapshot) -> String {
    let mut x = Exposition::default();
    x.table(RcuStats::FIELDS, "", &snap.rcu);
    x.component("pbs_rcu", "rcu", "", &snap.rcu_telemetry);
    let backend = match snap.reclaim.backend.as_str() {
        "" => "none",
        label => label,
    };
    x.table(ReclaimStats::FIELDS, &format!("backend=\"{backend}\""), &snap.reclaim);

    // Stall blame: the open-episode count plus one gauge per live culprit.
    let open = snap.blame.iter().filter(|b| !b.cleared);
    x.sample("pbs_rcu_blame_open_episodes", "gauge", "", open.clone().count() as u64);
    for b in open {
        let labels = format!("thread=\"{}\",record=\"{}\"", b.thread_name, b.record_id);
        x.sample("pbs_rcu_blame_stalled_for_ns", "gauge", &labels, b.stalled_for_ns);
    }

    // Per-site attribution.
    let sites = &snap.sites;
    x.sample("pbs_sites_outstanding_total", "gauge", "", sites.outstanding_total);
    x.sample("pbs_sites_oldest_outstanding_ns", "gauge", "", sites.oldest_outstanding_ns);
    x.sample("pbs_sites_dropped_total", "counter", "", sites.dropped_sites);
    x.sample("pbs_sites_lost_stamps_total", "counter", "", sites.lost_stamps);
    for s in &sites.sites {
        let labels = format!("site=\"{}\"", s.label);
        x.sample("pbs_site_deferred_total", "counter", &labels, s.deferred);
        x.sample("pbs_site_reclaimed_total", "counter", &labels, s.reclaimed);
        x.sample("pbs_site_outstanding", "gauge", &labels, s.outstanding);
        x.sample("pbs_site_outstanding_bytes", "gauge", &labels, s.outstanding_bytes);
    }

    for cache in &snap.caches {
        let labels = format!("cache=\"{}\"", cache.name);
        x.table(CacheStatsSnapshot::FIELDS, &labels, &cache.stats);
        x.component("pbs_cache", &cache.name, &labels, &cache.telemetry);
    }
    x.render()
}

/// Prometheus text under construction. Samples arrive in whatever order
/// the snapshot is walked (cache by cache, component by component) and
/// are grouped by family on the way out, so a family is always one
/// `# TYPE` line followed by all of its samples.
#[derive(Default)]
struct Exposition {
    /// `(family, type, sample lines)` in first-seen order.
    families: Vec<(String, &'static str, String)>,
}

impl Exposition {
    /// Adds the sample `<family>{<labels>} <value>`.
    fn sample(&mut self, family: &str, kind: &'static str, labels: &str, value: u64) {
        self.line(family, kind, "", labels, value);
    }

    /// Adds the line `<family><suffix>{<labels>} <value>` to `family` (the
    /// suffix is a histogram's `_bucket` / `_sum` / `_count`).
    fn line(&mut self, family: &str, kind: &'static str, suffix: &str, labels: &str, value: u64) {
        let at = match self.families.iter().position(|f| f.0 == family) {
            Some(at) => at,
            None => {
                self.families.push((family.to_owned(), kind, String::new()));
                self.families.len() - 1
            }
        };
        let lines = &mut self.families[at].2;
        let _ = match labels {
            "" => writeln!(lines, "{family}{suffix} {value}"),
            _ => writeln!(lines, "{family}{suffix}{{{labels}}} {value}"),
        };
    }

    /// One owner's sample of every row of a counter table.
    fn table<S>(&mut self, fields: &[Field<S>], owner: &str, snap: &S) {
        for f in fields {
            let labels = join_labels(owner, f.labels());
            self.sample(f.family(), f.kind.label(), &labels, (f.get)(snap));
        }
    }

    /// Prometheus histograms are cumulative: each `le` bucket counts all
    /// observations at or below its bound, ending with `+Inf`.
    fn histogram(&mut self, family: &str, labels: &str, h: &HistogramSnapshot) {
        let mut cumulative = 0u64;
        // The last bucket's bound is u64::MAX; Prometheus spells it +Inf.
        for b in 0..BUCKETS - 1 {
            cumulative += h.buckets.get(b).copied().unwrap_or(0);
            let le = join_labels(labels, &format!("le=\"{}\"", bucket_upper_bound(b)));
            self.line(family, "histogram", "_bucket", &le, cumulative);
        }
        let inf = join_labels(labels, "le=\"+Inf\"");
        self.line(family, "histogram", "_bucket", &inf, h.count);
        self.line(family, "histogram", "_sum", labels, h.sum);
        self.line(family, "histogram", "_count", labels, h.count);
    }

    /// One component's histograms (as `<prefix>_<name>`), event-kind
    /// counts and ring accounting.
    fn component(&mut self, prefix: &str, name: &str, labels: &str, t: &ComponentTelemetry) {
        for h in &t.histograms {
            self.histogram(&format!("{prefix}_{}", h.name), labels, &h.hist);
        }
        let component = format!("component=\"{name}\"");
        for (kind, count) in &t.event_counts {
            let labels = format!("{component},kind=\"{kind}\"");
            self.sample("pbs_events_total", "counter", &labels, *count);
        }
        self.sample("pbs_events_recorded_total", "counter", &component, t.events_recorded);
        self.sample("pbs_events_dropped_total", "counter", &component, t.events_dropped);
        self.sample("pbs_events_torn_total", "counter", &component, t.events_torn);
    }

    fn render(self) -> String {
        let mut out = String::new();
        for (family, kind, lines) in self.families {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            out.push_str(&lines);
        }
        out
    }
}

/// `a` and `b` as one label list.
fn join_labels(a: &str, b: &str) -> String {
    let sep = if a.is_empty() || b.is_empty() { "" } else { "," };
    format!("{a}{sep}{b}")
}

/// Renders the snapshot's events in the Trace Event Format consumed by
/// chrome://tracing and Perfetto: one instant event per trace record, one
/// process per component, one thread per ring lane.
pub fn to_chrome_trace(snap: &TelemetrySnapshot) -> String {
    let mut events = Vec::new();
    push_process_meta(&mut events, 1, "rcu");
    push_component_events(&mut events, 1, "rcu", &snap.rcu_telemetry);
    for (i, cache) in snap.caches.iter().enumerate() {
        let pid = i as u64 + 2;
        push_process_meta(&mut events, pid, &cache.name);
        push_component_events(&mut events, pid, &cache.name, &cache.telemetry);
    }
    format!("{{\"traceEvents\":[{}]}}\n", events.join(","))
}

fn push_process_meta(events: &mut Vec<String>, pid: u64, name: &str) {
    events.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{name}\"}}}}"
    ));
}

fn push_component_events(
    events: &mut Vec<String>,
    pid: u64,
    cat: &str,
    t: &ComponentTelemetry,
) {
    for e in &t.events {
        // Trace Event ts is in microseconds; keep nanosecond precision in
        // the fraction.
        let ts_us = e.t_ns as f64 / 1000.0;
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{ts_us:.3},\"pid\":{pid},\"tid\":{},\
             \"args\":{{\"seq\":{},\"src\":{},\"a\":{},\"b\":{}}}}}",
            e.kind_name(),
            e.lane,
            e.seq,
            e.src,
            e.a,
            e.b,
        ));
    }
}

/// The sample names a histogram family `f` is made of: `f_bucket`,
/// `f_sum`, `f_count`.
const HISTOGRAM_SUFFIXES: [&str; 3] = ["_bucket", "_sum", "_count"];

/// Sample names every healthy run must expose: every series the three
/// counter tables declare, the three latency histograms and the
/// trace-ring accounting.
fn required_samples() -> Vec<String> {
    fn families<S>(fields: &[Field<S>]) -> impl Iterator<Item = String> + '_ {
        fields.iter().map(|f| f.family().to_owned())
    }
    let histograms = ["rcu_gp_latency", "cache_slot_wait", "cache_defer_delay"]
        .into_iter()
        .flat_map(|h| HISTOGRAM_SUFFIXES.map(|suffix| format!("pbs_{h}_ns{suffix}")));
    let ring = ["total", "recorded_total", "dropped_total", "torn_total"]
        .map(|name| format!("pbs_events_{name}"));
    families(RcuStats::FIELDS)
        .chain(families(ReclaimStats::FIELDS))
        .chain(families(CacheStatsSnapshot::FIELDS))
        .chain(histograms)
        .chain(ring)
        .collect()
}

/// Validates Prometheus exposition text as a scraper reads it: every
/// sample line must be `name[{labels}] <number>`; a metric family has at
/// most one `# TYPE` line, ahead of its samples; a family's samples are
/// contiguous; and every series the schema declares (the three counter
/// tables' rows, the three latency histograms, the ring accounting) must
/// be present as a *sample* — a mention in a comment or a label value
/// does not count.
///
/// # Errors
///
/// Returns a description of the first malformed line, repeated `# TYPE`,
/// reopened family or missing series.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    if text.trim().is_empty() {
        return Err("empty Prometheus exposition".to_owned());
    }
    // Every family begun so far, and the one still open: its name and
    // whether a `# TYPE` declared it a histogram.
    let mut begun: HashSet<&str> = HashSet::new();
    let mut open = ("", false);
    let mut samples: HashSet<&str> = HashSet::new();
    for (lineno, line) in text.lines().enumerate() {
        let (line, at) = (line.trim(), lineno + 1);
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, kind) = decl.split_once(' ').unwrap_or((decl, ""));
            if !begun.insert(name) {
                return Err(format!("line {at}: second or late # TYPE for {name}"));
            }
            open = (name, kind == "histogram");
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {at}: no sample value: {line:?}"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {at}: non-numeric value: {line:?}"))?;
        let name = series.split('{').next().unwrap_or("");
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {at}: bad metric name: {line:?}"));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("line {at}: unterminated labels: {line:?}"));
        }
        let of_open_histogram = open.1
            && name
                .strip_prefix(open.0)
                .is_some_and(|suffix| HISTOGRAM_SUFFIXES.contains(&suffix));
        if name != open.0 && !of_open_histogram {
            if !begun.insert(name) {
                return Err(format!("line {at}: {name} sample after its family was closed"));
            }
            open = (name, false);
        }
        samples.insert(name);
    }
    match required_samples().iter().find(|r| !samples.contains(r.as_str())) {
        Some(missing) => Err(format!("missing required series {missing}")),
        None => Ok(()),
    }
}

/// Validates chrome://tracing JSON: it must parse, carry a `traceEvents`
/// array, and every entry must have the `name`/`ph`/`pid` fields the
/// viewer requires (plus `ts` for non-metadata events).
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let value: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("unparseable trace JSON: {e}"))?;
    let serde::Content::Map(fields) = &value else {
        return Err("trace root is not an object".to_owned());
    };
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or_else(|| "missing traceEvents".to_owned())?;
    let serde::Content::Seq(events) = events else {
        return Err("traceEvents is not an array".to_owned());
    };
    for (i, event) in events.iter().enumerate() {
        let serde::Content::Map(fields) = event else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let ph = match field("ph") {
            Some(serde::Content::Str(ph)) => ph.as_str(),
            _ => return Err(format!("traceEvents[{i}]: missing ph")),
        };
        for required in ["name", "pid"] {
            if field(required).is_none() {
                return Err(format!("traceEvents[{i}]: missing {required}"));
            }
        }
        if ph != "M" && field("ts").is_none() {
            return Err(format!("traceEvents[{i}]: missing ts"));
        }
    }
    Ok(())
}

/// Writes `<prefix>.prom` and `<prefix>.trace.json` for a snapshot and
/// returns the two paths.
///
/// # Errors
///
/// Propagates filesystem errors (the prefix's parent directory must
/// exist or be creatable).
pub fn write_telemetry(
    prefix: &Path,
    snap: &TelemetrySnapshot,
) -> std::io::Result<(PathBuf, PathBuf)> {
    if let Some(parent) = prefix.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut prom_path = prefix.as_os_str().to_owned();
    prom_path.push(".prom");
    let prom_path = PathBuf::from(prom_path);
    let mut trace_path = prefix.as_os_str().to_owned();
    trace_path.push(".trace.json");
    let trace_path = PathBuf::from(trace_path);
    std::fs::write(&prom_path, to_prometheus(snap))?;
    std::fs::write(&trace_path, to_chrome_trace(snap))?;
    Ok((prom_path, trace_path))
}

/// Writes the raw snapshot as `<prefix>.snapshot.json` (same append
/// semantics as [`write_telemetry`]) and returns the path. The file is
/// what the offline `doctor` bin renders.
///
/// # Errors
///
/// Propagates filesystem and serialization errors.
pub fn write_snapshot_json(
    prefix: &Path,
    snap: &TelemetrySnapshot,
) -> std::io::Result<PathBuf> {
    if let Some(parent) = prefix.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut path = prefix.as_os_str().to_owned();
    path.push(".snapshot.json");
    let path = PathBuf::from(path);
    let json = serde_json::to_string(snap)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Folds one run's snapshot into a bin-wide accumulator, prefixing cache
/// names with a run label (e.g. the allocator kind) so same-named caches
/// from different runs stay distinguishable after the merge.
pub fn accumulate_labeled(
    total: &mut TelemetrySnapshot,
    label: &str,
    mut snap: TelemetrySnapshot,
) {
    for cache in &mut snap.caches {
        cache.name = format!("{label}/{}", cache.name);
    }
    total.merge(&snap);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hardened_bed, AllocatorKind};
    use pbs_rcu::RcuConfig;

    fn exercised_snapshot() -> TelemetrySnapshot {
        // Pinned to the epoch domain: the assertions below count on the
        // legacy deferred path's latent-stamp events, which robust
        // backends (a PBS_RECLAIM=hp/hyaline environment) divert around.
        let bed = hardened_bed(
            AllocatorKind::Prudence,
            2,
            RcuConfig::eager(),
            None,
            None,
            None,
            Some(pbs_rcu::reclaim::ReclaimBackend::Epoch),
        );
        let cache = bed.create_cache("kmalloc-64", 64);
        for _ in 0..50 {
            let o = cache.allocate().unwrap();
            unsafe { cache.free_deferred(o) };
        }
        bed.rcu().synchronize();
        cache.quiesce();
        bed.telemetry()
    }

    #[test]
    fn prometheus_round_trip_validates() {
        let snap = exercised_snapshot();
        let text = to_prometheus(&snap);
        validate_prometheus(&text).expect("self-produced exposition must validate");
        assert!(text.contains("pbs_rcu_gp_latency_ns_bucket"));
        assert!(text.contains("kind=\"latent_stamp\""));
        assert!(text.contains("cache=\"kmalloc-64\""));
        // The fast path reports its engine choice at construction and its
        // counters in every cache's series.
        assert!(text.contains("kind=\"fastpath_engine\""));
        assert!(text.contains("pbs_cache_fastpath_hits_total{cache=\"kmalloc-64\"}"));
        assert!(text.contains("pbs_cache_fastpath_restarts_total{cache=\"kmalloc-64\"}"));
        assert!(text.contains("pbs_cache_fastpath_fallbacks_total{cache=\"kmalloc-64\"}"));
    }

    #[test]
    fn chrome_trace_round_trip_validates() {
        let snap = exercised_snapshot();
        let trace = to_chrome_trace(&snap);
        validate_chrome_trace(&trace).expect("self-produced trace must validate");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("latent_stamp"));
    }

    #[test]
    fn validators_reject_garbage() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("pbs_rcu_gp_advances_total notanumber").is_err());
        assert!(
            validate_prometheus("pbs_ok_total 1").is_err(),
            "required series must be missed"
        );
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"i\"}]}").is_err(),
            "events must carry name/pid"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = HistogramSnapshot::default();
        for v in [1, 4, 7] {
            h.record(v);
        }
        let mut x = Exposition::default();
        x.histogram("t_ns", "", &h);
        x.histogram("t_ns", "cache=\"b\"", &h);
        let out = x.render();
        assert!(out.contains("t_ns_bucket{le=\"1\"} 1"));
        assert!(out.contains("t_ns_bucket{le=\"7\"} 3"));
        assert!(out.contains("t_ns_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("t_ns_bucket{cache=\"b\",le=\"7\"} 3"));
        assert!(out.contains("t_ns_sum 12"));
        assert_eq!(out.matches("# TYPE t_ns histogram").count(), 1);
    }

    /// A snapshot in which every table row holds its own prime (two
    /// caches, so a family has more than one owner) and every optional
    /// family — blame culprits, sites — has a sample.
    fn full_snapshot() -> TelemetrySnapshot {
        use pbs_telemetry::table::check_table;
        let mut snap = exercised_snapshot();
        snap.rcu = check_table(RcuStats::FIELDS, RcuStats::merge, RcuStats::delta);
        snap.reclaim = check_table(ReclaimStats::FIELDS, ReclaimStats::merge, ReclaimStats::delta);
        snap.reclaim.backend = "hp".to_owned();
        snap.caches[0].stats = check_table(
            CacheStatsSnapshot::FIELDS,
            CacheStatsSnapshot::merge,
            CacheStatsSnapshot::delta,
        );
        snap.caches.push(snap.caches[0].clone());
        snap.caches[1].name = "b".to_owned();
        snap.blame = vec![pbs_rcu::BlameReport::default()];
        snap.sites.sites = vec![pbs_telemetry::site::SiteStat::default()];
        snap
    }

    fn typed_families(text: &str) -> Vec<&str> {
        text.lines()
            .filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next())
            .collect()
    }

    /// Every row of the three exported tables reaches the exposition —
    /// through JSON and back — exactly once per owner, with its own value.
    #[test]
    fn every_table_row_is_exported_once_per_owner() {
        let json = serde_json::to_string(&full_snapshot()).unwrap();
        let snap: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        let text = to_prometheus(&snap);
        validate_prometheus(&text).expect("a full exposition validates");
        fn check<S>(text: &str, fields: &[Field<S>], owner: &str, snap: &S) {
            for f in fields {
                let series = match join_labels(owner, f.labels()).as_str() {
                    "" => f.family().to_owned(),
                    labels => format!("{}{{{labels}}}", f.family()),
                };
                let prefix = format!("{series} ");
                let hits: Vec<&str> = text.lines().filter(|l| l.starts_with(&prefix)).collect();
                assert_eq!(hits, [format!("{prefix}{}", (f.get)(snap))], "{}", f.name);
            }
        }
        check(&text, RcuStats::FIELDS, "", &snap.rcu);
        check(&text, ReclaimStats::FIELDS, "backend=\"hp\"", &snap.reclaim);
        for cache in &snap.caches {
            let owner = format!("cache=\"{}\"", cache.name);
            check(&text, CacheStatsSnapshot::FIELDS, &owner, &cache.stats);
        }
    }

    /// The public schema: every metric family a full snapshot exports,
    /// each declared exactly once. A rename, removal or addition must be
    /// a deliberate edit of this list (dashboards key on these names).
    #[test]
    fn exported_families_are_the_public_schema() {
        let golden = "\
            pbs_rcu_gp_advances_total pbs_rcu_synchronize_calls_total \
            pbs_rcu_membarrier_advances_total pbs_rcu_fallback_fence_advances_total \
            pbs_rcu_injected_gp_stalls_total pbs_rcu_stall_warnings_total \
            pbs_rcu_longest_stall_ns pbs_rcu_active_stalls pbs_rcu_stall_blames_total \
            pbs_rcu_expedited_gps_total pbs_rcu_callbacks_enqueued_total \
            pbs_rcu_callbacks_processed_total pbs_rcu_max_callback_backlog \
            pbs_rcu_callback_backlog pbs_rcu_gp_latency_ns \
            pbs_events_total pbs_events_recorded_total pbs_events_dropped_total \
            pbs_events_torn_total \
            pbs_reclaim_deferred_in_domain pbs_reclaim_hp_scans_total \
            pbs_reclaim_scan_reclaimed_total pbs_reclaim_scan_protected_total \
            pbs_reclaim_batch_seals_total pbs_reclaim_batch_refs_captured_total \
            pbs_reclaim_reader_ejects_total pbs_reclaim_injected_stalls_total \
            pbs_rcu_blame_open_episodes pbs_rcu_blame_stalled_for_ns \
            pbs_sites_outstanding_total pbs_sites_oldest_outstanding_ns \
            pbs_sites_dropped_total pbs_sites_lost_stamps_total pbs_site_deferred_total \
            pbs_site_reclaimed_total pbs_site_outstanding pbs_site_outstanding_bytes \
            pbs_cache_alloc_requests_total pbs_cache_hits_total pbs_cache_latent_hits_total \
            pbs_cache_frees_total pbs_cache_deferred_frees_total pbs_cache_refills_total \
            pbs_cache_partial_refills_total pbs_cache_flushes_total pbs_cache_preflushes_total \
            pbs_cache_pre_movements_total pbs_cache_node_lock_contended_total \
            pbs_cache_cpu_slot_misses_total pbs_cache_grows_total pbs_cache_shrinks_total \
            pbs_cache_oom_waits_total pbs_cache_slabs_current pbs_cache_slabs_peak \
            pbs_cache_pressure_level pbs_cache_pressure_transitions_total \
            pbs_cache_assisted_merges_total pbs_cache_live_objects \
            pbs_cache_oom_recoveries_total pbs_cache_fastpath_hits_total \
            pbs_cache_fastpath_restarts_total pbs_cache_fastpath_fallbacks_total \
            pbs_cache_slot_wait_ns pbs_cache_defer_delay_ns";
        let text = to_prometheus(&full_snapshot());
        assert_eq!(typed_families(&text), golden.split(' ').collect::<Vec<_>>());
    }

    /// The shape the exporter used to produce — a `# TYPE` per sample, a
    /// family's samples spread between other families' — is what a real
    /// scraper rejects, and so must the validator; likewise a required
    /// series that only appears in a comment or a label value.
    #[test]
    fn validator_rejects_repeated_types_reopened_families_and_mentions() {
        let good = to_prometheus(&full_snapshot());
        let hit = "pbs_cache_hits_total{cache=\"c\"} 1\n";
        let err = validate_prometheus(&format!("{good}# TYPE pbs_cache_hits_total counter\n{hit}"));
        assert!(err.unwrap_err().contains("second or late # TYPE"));
        let err = validate_prometheus(&format!("{good}{hit}"));
        assert!(err.unwrap_err().contains("after its family was closed"));

        let missing = "pbs_reclaim_injected_stalls_total";
        let mentioned: String = good
            .lines()
            .filter(|l| !l.starts_with(missing))
            .map(|l| format!("{l}\n"))
            .chain([format!("pbs_other{{why=\"{missing}\"}} 1\n")])
            .collect();
        assert!(mentioned.contains(&format!("# TYPE {missing} counter")));
        let err = validate_prometheus(&mentioned).unwrap_err();
        assert_eq!(err, format!("missing required series {missing}"));
    }

    #[test]
    fn write_telemetry_emits_both_files() {
        let snap = exercised_snapshot();
        let dir = std::env::temp_dir().join(format!(
            "pbs-telemetry-test-{}",
            std::process::id()
        ));
        let (prom, trace) = write_telemetry(&dir.join("run"), &snap).unwrap();
        let prom_text = std::fs::read_to_string(&prom).unwrap();
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        validate_prometheus(&prom_text).unwrap();
        validate_chrome_trace(&trace_text).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
