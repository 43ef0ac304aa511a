//! The reclamation doctor: a condensed diagnosis of a telemetry snapshot
//! (who produced the garbage, how old it is, who is blocking reclaim) and
//! a dependency-free introspection endpoint serving it live.
//!
//! The endpoint is two blocking threads over [`std::net::TcpListener`] —
//! an acceptor feeding a small bounded backlog and a single server
//! draining it, deliberately not an async stack. Every connection gets a
//! whole-request read/write deadline, so a stalled or slow-dripping
//! client is evicted instead of wedging later `/metrics` polls; when the
//! backlog itself fills, further connections are shed with a 503. Three
//! routes:
//!
//! * `GET /metrics` — the full Prometheus exposition
//!   ([`to_prometheus`]);
//! * `GET /snapshot` — the [`TelemetrySnapshot`] plus a structured
//!   [`DoctorReport`], as JSON;
//! * `GET /doctor` — the human-readable diagnosis ([`render_doctor`]).
//!
//! Snapshots are produced by a caller-supplied provider closure at
//! request time, so the server holds no allocator state of its own and
//! the hit path pays nothing while nobody polls.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pbs_alloc_api::TelemetrySnapshot;
use pbs_rcu::reclaim::ReclaimBackend;
use serde::{Deserialize, Serialize};

use crate::telemetry_export::to_prometheus;

/// Sites listed in the doctor's "top offenders" table.
const TOP_SITES: usize = 10;

/// Whole-connection deadline: a client gets this long to deliver its
/// request head *and* drain the response. A slowloris client dripping a
/// byte per second used to reset the per-read timeout each time and hold
/// the serving loop for minutes; the deadline bounds the total hold.
const CONN_DEADLINE: Duration = Duration::from_secs(2);

/// Accepted connections waiting for the serving thread. While one client
/// is burning its deadline, up to this many polls queue instead of being
/// refused at the TCP layer; beyond it the accept thread sheds with a
/// best-effort 503 rather than letting the queue grow without bound.
const ACCEPT_BACKLOG: usize = 8;

/// Age percentiles of one cache's reclaimed garbage, read from its
/// `defer_delay_ns` histogram.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AgeProfile {
    /// Cache name.
    pub cache: String,
    /// Reclaimed objects the histogram observed.
    pub samples: u64,
    /// Bucket upper bound of the median age, ns (0 with no samples).
    pub p50_ns: u64,
    /// Bucket upper bound of the p99 age, ns.
    pub p99_ns: u64,
    /// Bucket upper bound of the maximum observed age, ns.
    pub max_ns: u64,
}

/// The structured diagnosis: everything `/doctor` prints, as data.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DoctorReport {
    /// Reclamation backend of the diagnosed run.
    pub backend: String,
    /// Stamped objects still outstanding (deferred, not yet reusable).
    pub outstanding: u64,
    /// Age of the oldest outstanding object, ns.
    pub oldest_outstanding_ns: u64,
    /// Top call sites by outstanding bytes.
    pub top_sites: Vec<pbs_telemetry::site::SiteStat>,
    /// Garbage-age percentiles per cache with samples (recorded when an
    /// object becomes reusable).
    pub ages: Vec<AgeProfile>,
    /// Stall-blame records, live episodes last.
    pub blame: Vec<pbs_rcu::BlameReport>,
    /// Stall warnings the watchdog has issued.
    pub stall_warnings: u64,
    /// Pressure gauge per cache (`name`, level 0..=2).
    pub pressure: Vec<(String, u8)>,
    /// Objects deferred into the reclamation domain and not yet returned.
    pub deferred_in_domain: usize,
}

impl DoctorReport {
    /// Builds the diagnosis from a snapshot.
    pub fn from_snapshot(snap: &TelemetrySnapshot) -> Self {
        let ages = snap
            .caches
            .iter()
            .filter_map(|c| {
                let hist = c.telemetry.histogram("defer_delay_ns")?;
                (hist.count > 0).then(|| AgeProfile {
                    cache: c.name.clone(),
                    samples: hist.count,
                    p50_ns: hist.quantile_upper_bound(0.5).unwrap_or(0),
                    p99_ns: hist.quantile_upper_bound(0.99).unwrap_or(0),
                    max_ns: hist.quantile_upper_bound(1.0).unwrap_or(0),
                })
            })
            .collect();
        Self {
            backend: snap.reclaim.backend.clone(),
            outstanding: snap.sites.outstanding_total,
            oldest_outstanding_ns: snap.sites.oldest_outstanding_ns,
            top_sites: snap.sites.sites.iter().take(TOP_SITES).cloned().collect(),
            ages,
            blame: snap.blame.clone(),
            stall_warnings: snap.rcu.stall_warnings,
            pressure: snap
                .caches
                .iter()
                .map(|c| (c.name.clone(), c.stats.pressure_level as u8))
                .collect(),
            deferred_in_domain: snap.reclaim.deferred_in_domain,
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the human-readable diagnosis served at `/doctor`.
pub fn render_doctor(snap: &TelemetrySnapshot) -> String {
    let report = DoctorReport::from_snapshot(snap);
    let mut out = String::new();
    use std::fmt::Write as _;
    let backend = if report.backend.is_empty() {
        "unknown"
    } else {
        report.backend.as_str()
    };
    let _ = writeln!(out, "== reclamation doctor ==");
    let _ = writeln!(
        out,
        "backend: {backend}   outstanding: {} objects (oldest {})   \
         in-domain: {}",
        report.outstanding,
        fmt_ns(report.oldest_outstanding_ns),
        report.deferred_in_domain,
    );
    let or_unset = |label: Option<&'static str>| label.unwrap_or("unset");
    let _ = writeln!(
        out,
        "fastpath: {} (PBS_FASTPATH={})   reclaim default: {} (PBS_RECLAIM={})",
        pbs_alloc_api::fastpath_default_engine(),
        or_unset(pbs_alloc_api::FastPathOverride::from_env().map(|o| o.label())),
        ReclaimBackend::from_env(),
        or_unset(ReclaimBackend::env_override().map(|b| b.label())),
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "-- top sites by outstanding bytes --");
    if report.top_sites.is_empty() {
        let _ = writeln!(out, "(no attributed defers yet)");
    }
    for s in &report.top_sites {
        let _ = writeln!(
            out,
            "{:>10} B outstanding  {:>8} deferred  {:>8} reclaimed  {}",
            s.outstanding_bytes, s.deferred, s.reclaimed, s.label,
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "-- garbage age at reclaim, per cache --");
    if report.ages.is_empty() {
        let _ = writeln!(out, "(no timed reclaims yet)");
    }
    for a in &report.ages {
        let _ = writeln!(
            out,
            "{:<16} samples {:>9}  p50 <= {:>10}  p99 <= {:>10}  max <= {:>10}",
            a.cache,
            a.samples,
            fmt_ns(a.p50_ns),
            fmt_ns(a.p99_ns),
            fmt_ns(a.max_ns),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "-- stall blame ({} warnings) --",
        report.stall_warnings
    );
    if report.blame.is_empty() {
        let _ = writeln!(out, "(no stall episodes recorded)");
    }
    for b in &report.blame {
        let state = if b.cleared { "cleared" } else { "LIVE" };
        let _ = writeln!(
            out,
            "[{state}] thread {:?} pinned epoch {} (pin #{}) for {} \
             ({} hazard slot(s) held)",
            b.thread_name,
            b.pinned_epoch,
            b.pin_seq,
            fmt_ns(b.stalled_for_ns),
            b.hazards.len(),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "-- cache pressure --");
    for (name, level) in &report.pressure {
        let word = match level {
            0 => "ok",
            1 => "soft",
            _ => "hard",
        };
        let _ = writeln!(out, "{name}: level {level} ({word})");
    }
    out
}

/// Wire shape of `GET /snapshot`.
#[derive(Debug, Serialize, Deserialize)]
pub struct SnapshotResponse {
    /// The raw snapshot the diagnosis was computed from.
    pub telemetry: TelemetrySnapshot,
    /// The structured diagnosis.
    pub doctor: DoctorReport,
}

/// The live introspection endpoint: an accept thread feeding a bounded
/// backlog and one serving thread draining it; see the module docs for
/// routes. Drop stops both threads.
pub struct DoctorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    serve_handle: Option<JoinHandle<()>>,
}

impl DoctorServer {
    /// Binds `127.0.0.1:0` (OS-assigned port) and starts serving
    /// snapshots from `provider`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start<F>(provider: F) -> std::io::Result<Self>
    where
        F: Fn() -> TelemetrySnapshot + Send + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        // The endpoint stays a diagnostic tap, not a web server: one
        // serving thread, so a poll can never contend the workload. The
        // backlog between the two threads means one stalled client burns
        // its CONN_DEADLINE without wedging later polls, which queue and
        // are answered the moment the deadline evicts the staller.
        let (queue, pending) = sync_channel::<TcpStream>(ACCEPT_BACKLOG);
        let accept_stop = Arc::clone(&stop);
        let accept_handle = std::thread::Builder::new()
            .name("pbs-doctor-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match queue.try_send(stream) {
                        Ok(()) => {}
                        // Backlog full: shed with a best-effort 503 so
                        // the client sees an answer, not a hang.
                        Err(TrySendError::Full(stream)) => shed_busy(stream),
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                // Dropping `queue` ends the serving thread's loop.
            })?;
        let serve_handle = std::thread::Builder::new()
            .name("pbs-doctor-serve".to_owned())
            .spawn(move || {
                while let Ok(stream) = pending.recv() {
                    let _ = serve_one(stream, &provider);
                }
            })?;
        Ok(Self {
            addr,
            stop,
            accept_handle: Some(accept_handle),
            serve_handle: Some(serve_handle),
        })
    }

    /// The bound address (loopback, OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for DoctorServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop; the flag makes the connection a no-op.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.serve_handle.take() {
            let _ = handle.join();
        }
    }
}

/// Best-effort "try again" answer for connections shed off a full accept
/// backlog. A short write deadline keeps even this path bounded.
fn shed_busy(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(CONN_DEADLINE));
    let _ = stream.write_all(
        b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
          Content-Length: 21\r\nConnection: close\r\n\r\ndoctor busy; retry\r\n\n",
    );
}

fn serve_one<F>(mut stream: TcpStream, provider: &F) -> std::io::Result<()>
where
    F: Fn() -> TelemetrySnapshot,
{
    let deadline = Instant::now() + CONN_DEADLINE;
    // Read the whole request head before responding: closing the socket
    // with unread client bytes pending turns the close into a TCP reset,
    // which the polling client sees as a failed read. Each read blocks
    // only until the *connection* deadline, not a fresh per-read timeout,
    // so a client dripping one byte at a time cannot extend its hold.
    let mut buf = [0u8; 2048];
    let mut len = 0;
    while len < buf.len() {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::TimedOut, "client read deadline")
            })?;
        stream.set_read_timeout(Some(remaining))?;
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf[..len]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, content_type, body) = match path {
        "/metrics" => {
            let snap = provider();
            ("200 OK", "text/plain; version=0.0.4", to_prometheus(&snap))
        }
        "/snapshot" => {
            let telemetry = provider();
            let doctor = DoctorReport::from_snapshot(&telemetry);
            let body = serde_json::to_string(&SnapshotResponse { telemetry, doctor })
                .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
            ("200 OK", "application/json", body)
        }
        "/" | "/doctor" => {
            let snap = provider();
            ("200 OK", "text/plain", render_doctor(&snap))
        }
        _ => (
            "404 Not Found",
            "text/plain",
            "unknown path; try /metrics, /snapshot or /doctor\n".to_owned(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    // The write deadline is whatever the client left of its connection
    // budget: a poller that reads nothing cannot pin the serving thread
    // in write_all either.
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::TimedOut, "client write deadline")
        })?;
    stream.set_write_timeout(Some(remaining))?;
    stream.write_all(response.as_bytes())
}

/// Minimal blocking HTTP GET against a doctor endpoint; returns the
/// response body. Used by the chaos smoke leg and tests so nothing in
/// the repo needs an HTTP client dependency.
///
/// # Errors
///
/// Propagates I/O errors; a non-200 status is reported as
/// [`std::io::ErrorKind::InvalidData`].
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header/body split"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{path}: {status}"),
        ));
    }
    Ok(body.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry_export::validate_prometheus;
    use crate::{AllocatorKind, Testbed};
    use pbs_rcu::RcuConfig;

    fn bed_snapshot() -> TelemetrySnapshot {
        let bed = Testbed::new(AllocatorKind::Prudence, 2, RcuConfig::eager(), None);
        let cache = bed.create_cache("doctor-test", 64);
        for _ in 0..32 {
            let o = cache.allocate().unwrap();
            unsafe { cache.free_deferred(o) };
        }
        cache.quiesce();
        bed.telemetry()
    }

    #[test]
    fn report_summarizes_snapshot() {
        let snap = bed_snapshot();
        let report = DoctorReport::from_snapshot(&snap);
        assert!(!report.backend.is_empty());
        let text = render_doctor(&snap);
        assert!(text.contains("reclamation doctor"));
        assert!(
            text.contains("fastpath: ") && text.contains("reclaim default: "),
            "header names both effective env settings: {text}"
        );
        assert!(text.contains("top sites"));
        assert!(text.contains("cache pressure"));
    }

    #[test]
    fn endpoint_serves_all_routes() {
        let bed = Arc::new(Testbed::new(
            AllocatorKind::Prudence,
            2,
            RcuConfig::eager(),
            None,
        ));
        let cache = bed.create_cache("doctor-endpoint", 64);
        for _ in 0..16 {
            let o = cache.allocate().unwrap();
            unsafe { cache.free_deferred(o) };
        }
        let provider_bed = Arc::clone(&bed);
        let server = DoctorServer::start(move || provider_bed.telemetry()).unwrap();
        let metrics = http_get(server.addr(), "/metrics").unwrap();
        validate_prometheus(&metrics).expect("served metrics must validate");
        let doctor = http_get(server.addr(), "/doctor").unwrap();
        assert!(doctor.contains("reclamation doctor"));
        let snapshot = http_get(server.addr(), "/snapshot").unwrap();
        let parsed: SnapshotResponse = serde_json::from_str(&snapshot).unwrap();
        assert_eq!(parsed.doctor.backend, parsed.telemetry.reclaim.backend);
        assert!(http_get(server.addr(), "/nope").is_err(), "404 surfaces as error");
        cache.quiesce();
        drop(server);
    }

    /// A client that connects, sends a partial request head and then goes
    /// silent used to hold the (single) serving loop until it felt like
    /// leaving; later polls could not even be accepted. With the deadline
    /// and accept backlog, polls issued *during* the stall queue up and
    /// succeed as soon as the staller is evicted.
    #[test]
    fn stalled_client_cannot_wedge_later_polls() {
        let bed = Arc::new(Testbed::new(
            AllocatorKind::Slub,
            2,
            RcuConfig::eager(),
            None,
        ));
        let provider_bed = Arc::clone(&bed);
        let server = DoctorServer::start(move || provider_bed.telemetry()).unwrap();
        let addr = server.addr();

        // Warm poll proves the endpoint is up before the attack.
        http_get(addr, "/doctor").expect("baseline poll");

        // The slowloris: partial head, then silence. Kept alive for the
        // whole test so eviction, not client close, unblocks the server.
        let mut staller = TcpStream::connect(addr).unwrap();
        staller.write_all(b"GET /metrics HTT").unwrap();

        // Polls racing the stall: they must queue behind it and still be
        // answered once the deadline fires, well inside http_get's own
        // 5s client timeout.
        let started = Instant::now();
        for _ in 0..3 {
            let body = http_get(addr, "/doctor").expect("poll during stall");
            assert!(body.contains("reclamation doctor"));
        }
        assert!(
            started.elapsed() < CONN_DEADLINE + Duration::from_secs(2),
            "polls behind a stalled client took {:?}",
            started.elapsed()
        );
        drop(staller);
        drop(server);
    }
}
