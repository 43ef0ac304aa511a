//! Telemetry exposition: render a [`TelemetrySnapshot`] as Prometheus
//! text and as a chrome://tracing (Trace Event Format) JSON file, plus the
//! validators CI runs against both.
//!
//! The exporters are pure functions over snapshot data — no live allocator
//! state is touched — so they can run after the workload has been torn
//! down.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use pbs_alloc_api::TelemetrySnapshot;
use pbs_telemetry::{bucket_upper_bound, ComponentTelemetry, HistogramSnapshot, BUCKETS};

/// Renders the snapshot in the Prometheus text exposition format.
///
/// Series layout:
/// * `pbs_rcu_*` — RCU domain counters and the `gp_latency_ns` /
///   `callback_delay_ns` histograms.
/// * `pbs_cache_*{cache="<name>"}` — per-cache counters and the
///   `slot_wait_ns` / `defer_delay_ns` histograms.
/// * `pbs_events_total{component,kind}` plus `pbs_events_dropped_total` /
///   `pbs_events_torn_total` — trace-ring accounting.
pub fn to_prometheus(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let r = &snap.rcu;
    counter(&mut out, "pbs_rcu_gp_advances_total", "", r.gp_advances);
    counter(
        &mut out,
        "pbs_rcu_synchronize_calls_total",
        "",
        r.synchronize_calls,
    );
    counter(
        &mut out,
        "pbs_rcu_membarrier_advances_total",
        "",
        r.membarrier_advances,
    );
    counter(
        &mut out,
        "pbs_rcu_fallback_fence_advances_total",
        "",
        r.fallback_fence_advances,
    );
    counter(
        &mut out,
        "pbs_rcu_injected_gp_stalls_total",
        "",
        r.injected_gp_stalls,
    );
    counter(&mut out, "pbs_rcu_stall_warnings_total", "", r.stall_warnings);
    counter(&mut out, "pbs_rcu_stall_blames_total", "", r.stall_blames);
    counter(&mut out, "pbs_rcu_expedited_gps_total", "", r.expedited_gps);
    gauge(&mut out, "pbs_rcu_active_stalls", "", r.active_stalls);
    gauge(&mut out, "pbs_rcu_longest_stall_ns", "", r.longest_stall_ns);
    counter(
        &mut out,
        "pbs_rcu_callbacks_enqueued_total",
        "",
        r.callbacks_enqueued,
    );
    counter(
        &mut out,
        "pbs_rcu_callbacks_processed_total",
        "",
        r.callbacks_processed,
    );
    gauge(&mut out, "pbs_rcu_callback_backlog", "", r.callback_backlog as u64);
    gauge(
        &mut out,
        "pbs_rcu_max_callback_backlog",
        "",
        r.max_callback_backlog as u64,
    );
    for h in &snap.rcu_telemetry.histograms {
        histogram(&mut out, &format!("pbs_rcu_{}", h.name), "", &h.hist);
    }
    ring_series(&mut out, "rcu", &snap.rcu_telemetry);
    reclaim_series(&mut out, snap);
    blame_series(&mut out, snap);
    site_series(&mut out, snap);
    for cache in &snap.caches {
        let labels = format!("cache=\"{}\"", cache.name);
        let s = &cache.stats;
        for (metric, value) in [
            ("pbs_cache_alloc_requests_total", s.alloc_requests),
            ("pbs_cache_hits_total", s.cache_hits),
            ("pbs_cache_latent_hits_total", s.latent_hits),
            ("pbs_cache_frees_total", s.frees),
            ("pbs_cache_deferred_frees_total", s.deferred_frees),
            ("pbs_cache_refills_total", s.refills),
            ("pbs_cache_partial_refills_total", s.partial_refills),
            ("pbs_cache_flushes_total", s.flushes),
            ("pbs_cache_preflushes_total", s.preflushes),
            ("pbs_cache_grows_total", s.grows),
            ("pbs_cache_shrinks_total", s.shrinks),
            ("pbs_cache_pre_movements_total", s.pre_movements),
            ("pbs_cache_node_lock_contended_total", s.node_lock_contended),
            ("pbs_cache_cpu_slot_misses_total", s.cpu_slot_misses),
            ("pbs_cache_oom_waits_total", s.oom_waits),
            ("pbs_cache_pressure_transitions_total", s.pressure_transitions),
            ("pbs_cache_assisted_merges_total", s.assisted_merges),
            ("pbs_cache_fastpath_hits_total", s.rseq_hits),
            ("pbs_cache_fastpath_restarts_total", s.rseq_restarts),
            ("pbs_cache_fastpath_fallbacks_total", s.fastpath_fallbacks),
        ] {
            counter(&mut out, metric, &labels, value);
        }
        for (stage, value) in [
            ("1", s.oom_recoveries_stage1),
            ("2", s.oom_recoveries_stage2),
            ("3", s.oom_recoveries_stage3),
        ] {
            counter(
                &mut out,
                "pbs_cache_oom_recoveries_total",
                &format!("{labels},stage=\"{stage}\""),
                value,
            );
        }
        gauge(
            &mut out,
            "pbs_cache_pressure_level",
            &labels,
            s.pressure_level as u64,
        );
        gauge(&mut out, "pbs_cache_slabs_current", &labels, s.slabs_current as u64);
        gauge(&mut out, "pbs_cache_slabs_peak", &labels, s.slabs_peak as u64);
        gauge(&mut out, "pbs_cache_live_objects", &labels, s.live_objects);
        for h in &cache.telemetry.histograms {
            histogram(&mut out, &format!("pbs_cache_{}", h.name), &labels, &h.hist);
        }
        ring_series(&mut out, &cache.name, &cache.telemetry);
    }
    out
}

fn counter(out: &mut String, name: &str, labels: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} counter");
    write_sample(out, name, labels, value);
}

fn gauge(out: &mut String, name: &str, labels: &str, value: u64) {
    let _ = writeln!(out, "# TYPE {name} gauge");
    write_sample(out, name, labels, value);
}

fn write_sample(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Prometheus histograms are cumulative: each `le` bucket counts all
/// observations at or below its bound, ending with `+Inf`.
fn histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for i in 0..BUCKETS {
        cumulative += h.buckets.get(i).copied().unwrap_or(0);
        // The last bucket's bound is u64::MAX; Prometheus spells it +Inf.
        if i + 1 == BUCKETS {
            break;
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
            bucket_upper_bound(i)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
    write_sample(out, &format!("{name}_sum"), labels, h.sum);
    write_sample(out, &format!("{name}_count"), labels, h.count);
}

/// Reclamation-backend counters. All series render under every backend
/// (zero-valued where the mechanism is not in play) so dashboards and the
/// validator see a stable schema across `PBS_RECLAIM` legs.
fn reclaim_series(out: &mut String, snap: &TelemetrySnapshot) {
    let rc = &snap.reclaim;
    let backend = if rc.backend.is_empty() {
        "none"
    } else {
        rc.backend.as_str()
    };
    let labels = format!("backend=\"{backend}\"");
    counter(out, "pbs_reclaim_hp_scans_total", &labels, rc.scans);
    counter(out, "pbs_reclaim_batch_seals_total", &labels, rc.batches_sealed);
    counter(out, "pbs_reclaim_reader_ejects_total", &labels, rc.ejections);
    counter(out, "pbs_reclaim_scan_reclaimed_total", &labels, rc.scan_reclaimed);
    counter(out, "pbs_reclaim_scan_protected_total", &labels, rc.scan_protected);
    counter(
        out,
        "pbs_reclaim_batch_refs_captured_total",
        &labels,
        rc.batch_refs_captured,
    );
    gauge(
        out,
        "pbs_reclaim_deferred_in_domain",
        &labels,
        rc.deferred_in_domain as u64,
    );
}

/// Stall-blame series: one gauge per live culprit (thread-labelled) plus
/// the open-episode count.
fn blame_series(out: &mut String, snap: &TelemetrySnapshot) {
    let open = snap.blame.iter().filter(|b| !b.cleared).count();
    gauge(out, "pbs_rcu_blame_open_episodes", "", open as u64);
    for b in snap.blame.iter().filter(|b| !b.cleared) {
        gauge(
            out,
            "pbs_rcu_blame_stalled_for_ns",
            &format!("thread=\"{}\",record=\"{}\"", b.thread_name, b.record_id),
            b.stalled_for_ns,
        );
    }
}

/// Per-site attribution series plus garbage-age histograms and gauges.
fn site_series(out: &mut String, snap: &TelemetrySnapshot) {
    let sites = &snap.sites;
    gauge(out, "pbs_sites_outstanding_total", "", sites.outstanding_total);
    gauge(
        out,
        "pbs_sites_oldest_outstanding_ns",
        "",
        sites.oldest_outstanding_ns,
    );
    counter(out, "pbs_sites_dropped_total", "", sites.dropped_sites);
    counter(out, "pbs_sites_lost_stamps_total", "", sites.lost_stamps);
    for s in &sites.sites {
        let labels = format!("site=\"{}\"", s.label);
        counter(out, "pbs_site_deferred_total", &labels, s.deferred);
        counter(out, "pbs_site_reclaimed_total", &labels, s.reclaimed);
        gauge(out, "pbs_site_outstanding", &labels, s.outstanding);
        gauge(out, "pbs_site_outstanding_bytes", &labels, s.outstanding_bytes);
    }
    for h in &sites.age {
        let backend = h
            .name
            .strip_prefix("garbage_age_ns_")
            .unwrap_or(h.name.as_str());
        histogram(
            out,
            "pbs_garbage_age_ns",
            &format!("backend=\"{backend}\""),
            &h.hist,
        );
    }
}

/// Event-kind counts and ring accounting for one component.
fn ring_series(out: &mut String, component: &str, t: &ComponentTelemetry) {
    for (kind, count) in &t.event_counts {
        let _ = writeln!(out, "# TYPE pbs_events_total counter");
        let _ = writeln!(
            out,
            "pbs_events_total{{component=\"{component}\",kind=\"{kind}\"}} {count}"
        );
    }
    let labels = format!("component=\"{component}\"");
    counter(out, "pbs_events_recorded_total", &labels, t.events_recorded);
    counter(out, "pbs_events_dropped_total", &labels, t.events_dropped);
    counter(out, "pbs_events_torn_total", &labels, t.events_torn);
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

/// Series every healthy run must expose; [`validate_prometheus`] fails
/// when any is absent.
pub const REQUIRED_PROM_SERIES: [&str; 15] = [
    "pbs_rcu_gp_advances_total",
    "pbs_rcu_membarrier_advances_total",
    "pbs_rcu_fallback_fence_advances_total",
    "pbs_rcu_stall_warnings_total",
    "pbs_rcu_expedited_gps_total",
    "pbs_rcu_active_stalls",
    "pbs_rcu_gp_latency_ns_bucket",
    "pbs_cache_pressure_level",
    "pbs_cache_oom_recoveries_total",
    "pbs_cache_fastpath_hits_total",
    "pbs_cache_fastpath_fallbacks_total",
    "pbs_events_total",
    "pbs_reclaim_hp_scans_total",
    "pbs_reclaim_batch_seals_total",
    "pbs_reclaim_reader_ejects_total",
];

/// Validates Prometheus exposition text: every non-comment line must be
/// `name[{labels}] <number>`, and every [`REQUIRED_PROM_SERIES`] entry
/// must be present.
///
/// # Errors
///
/// Returns a description of the first malformed line or missing series.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    if text.trim().is_empty() {
        return Err("empty Prometheus exposition".to_owned());
    }
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no sample value: {line:?}", lineno + 1))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {}: non-numeric value: {line:?}", lineno + 1))?;
        let name = series.split('{').next().unwrap_or("");
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name: {line:?}", lineno + 1));
        }
        if series.contains('{') && !series.ends_with('}') {
            return Err(format!("line {}: unterminated labels: {line:?}", lineno + 1));
        }
    }
    for required in REQUIRED_PROM_SERIES {
        if !text.contains(required) {
            return Err(format!("missing required series {required}"));
        }
    }
    Ok(())
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
    use crate::{AllocatorKind, Testbed};
    use pbs_rcu::RcuConfig;

    fn exercised_snapshot() -> TelemetrySnapshot {
        // Pinned to the epoch domain: the assertions below count on the
        // legacy deferred path's latent-stamp events, which robust
        // backends (a PBS_RECLAIM=hp/hyaline environment) divert around.
        let bed = Testbed::new_tuned(
            AllocatorKind::Prudence,
            2,
            RcuConfig::eager(),
            None,
            None,
            None,
            None,
            Some((
                pbs_rcu::reclaim::ReclaimBackend::Epoch,
                pbs_rcu::reclaim::ReclaimConfig::default(),
            )),
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
        let mut out = String::new();
        let h = HistogramSnapshot {
            count: 3,
            sum: 12,
            buckets: {
                let mut b = vec![0u64; BUCKETS];
                b[1] = 1; // value 1
                b[3] = 2; // two values in [4,7]
                b
            },
        };
        histogram(&mut out, "t_ns", "", &h);
        assert!(out.contains("t_ns_bucket{le=\"1\"} 1"));
        assert!(out.contains("t_ns_bucket{le=\"7\"} 3"));
        assert!(out.contains("t_ns_bucket{le=\"+Inf\"} 3"));
        assert!(out.contains("t_ns_sum 12"));
        validate_prometheus(&format!(
            "{out}pbs_rcu_gp_advances_total 0\npbs_rcu_membarrier_advances_total 0\n\
             pbs_rcu_fallback_fence_advances_total 0\npbs_rcu_stall_warnings_total 0\n\
             pbs_rcu_expedited_gps_total 0\npbs_rcu_active_stalls 0\n\
             pbs_rcu_gp_latency_ns_bucket{{le=\"+Inf\"}} 0\n\
             pbs_cache_pressure_level{{cache=\"t\"}} 0\n\
             pbs_cache_oom_recoveries_total{{cache=\"t\",stage=\"1\"}} 0\n\
             pbs_cache_fastpath_hits_total{{cache=\"t\"}} 0\n\
             pbs_cache_fastpath_fallbacks_total{{cache=\"t\"}} 0\n\
             pbs_events_total{{component=\"rcu\",kind=\"gp_begin\"}} 0\n\
             pbs_reclaim_hp_scans_total{{backend=\"epoch\"}} 0\n\
             pbs_reclaim_batch_seals_total{{backend=\"epoch\"}} 0\n\
             pbs_reclaim_reader_ejects_total{{backend=\"epoch\"}} 0\n"
        ))
        .unwrap();
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
