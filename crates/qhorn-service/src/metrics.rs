//! The service's observability subsystem: per-message latency histograms
//! and learner question counts per phase, exported as a [`MetricsSnapshot`]
//! (the `Metrics` protocol message) and as Prometheus text exposition
//! (`GET /metrics` on the HTTP frontend). The exposition is written from
//! the JSON encodings of the snapshots the protocol serves, so each
//! exported number is named once, in its wire declaration (see
//! [`render_prometheus`]).
//!
//! Latencies land in **lock-striped** histograms: each stripe is an
//! independently locked array of per-message histograms and every thread
//! sticks to one stripe (assigned round-robin on first use), so concurrent
//! request handlers never contend on one mutex. Buckets are **fixed
//! log-scale** — powers of two from 1µs to ~67s — so one layout serves
//! both a sub-millisecond `stats` call and a multi-second learning step,
//! and snapshots from different servers are always mergeable.
//!
//! Phase counts fold in each completed learner run's
//! [`LearnStats::by_phase`] accounting — the paper analyzes each subtask's
//! question cost separately (Lemmas 3.2/3.3, Thms 3.5/3.8), and the same
//! split is what an operator watches to see *where* dialogues spend the
//! user's patience.

use crate::log::LogStats;
use crate::registry::{Registry, RegistryStats};
use crate::trace::{LayerProfile, TraceStats};
use qhorn_core::learn::{LearnStats, Phase};
use qhorn_json::wire::map;
use qhorn_json::{Json, ToJson};
use qhorn_lockdep::{LockClass, OrderedMutex};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Histogram bucket count: 27 finite log-scale bounds plus `+Inf`.
pub const BUCKETS: usize = 28;

/// Number of independently locked stripes latencies are spread over.
const STRIPES: usize = 8;

/// Finite bucket upper bound `i`, in nanoseconds: `1µs · 2^i`.
///
/// Index `BUCKETS - 1` is the `+Inf` bucket and has no finite bound.
#[must_use]
pub fn bucket_bound_nanos(i: usize) -> u64 {
    debug_assert!(i < BUCKETS - 1);
    1_000u64 << i
}

/// The protocol message names latencies are recorded under, in stable
/// order (the request tags); [`MetricsSnapshot`] rows use these labels.
pub const MESSAGE_KINDS: &[&str] = crate::proto::Request::KINDS;

/// The learner phases exported as question counters, with their stable
/// Prometheus label values.
pub const PHASE_NAMES: &[(Phase, &str)] = &[
    (Phase::FreeVariableScan, "free_variable_scan"),
    (Phase::ClassifyHeads, "classify_heads"),
    (Phase::BodylessCheck, "bodyless_check"),
    (Phase::UniversalBodies, "universal_bodies"),
    (Phase::ExistentialDependence, "existential_dependence"),
    (Phase::MatrixQuestions, "matrix_questions"),
    (Phase::ExistentialLattice, "existential_lattice"),
];

/// One message kind's latency accounting inside a stripe.
#[derive(Clone, Debug)]
struct Histogram {
    counts: [u64; BUCKETS],
    sum_nanos: u64,
    count: u64,
}

impl Histogram {
    const fn new() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            sum_nanos: 0,
            count: 0,
        }
    }

    fn record(&mut self, nanos: u64) {
        let mut idx = BUCKETS - 1;
        for i in 0..BUCKETS - 1 {
            if nanos <= bucket_bound_nanos(i) {
                idx = i;
                break;
            }
        }
        self.counts[idx] += 1;
        self.sum_nanos = self.sum_nanos.saturating_add(nanos);
        self.count += 1;
    }
}

/// The live metrics registry: lock-striped latency histograms plus
/// per-phase question counters. Cheap to share behind an `Arc`.
pub struct Metrics {
    stripes: Vec<OrderedMutex<Vec<Histogram>>>,
    /// Round-robin assignment cursor for new threads.
    next_stripe: AtomicUsize,
    /// Questions per learner phase (indexed like [`PHASE_NAMES`]).
    phase_questions: Vec<AtomicU64>,
    /// Learner runs whose stats were folded in (completed learns).
    learn_runs: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            stripes: (0..STRIPES)
                .map(|_| {
                    OrderedMutex::new(
                        LockClass::new("metrics.stripe"),
                        vec![Histogram::new(); MESSAGE_KINDS.len()],
                    )
                })
                .collect(),
            next_stripe: AtomicUsize::new(0),
            phase_questions: (0..PHASE_NAMES.len()).map(|_| AtomicU64::new(0)).collect(),
            learn_runs: AtomicU64::new(0),
        }
    }

    /// The stripe this thread records into (assigned once, round-robin).
    fn stripe(&self) -> &OrderedMutex<Vec<Histogram>> {
        thread_local! {
            static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
        }
        let idx = STRIPE.with(|s| {
            if s.get() == usize::MAX {
                s.set(self.next_stripe.fetch_add(1, Ordering::Relaxed));
            }
            s.get()
        });
        &self.stripes[idx % STRIPES]
    }

    /// Records one served request's wall-clock latency under the message
    /// kind at `kind_index` (see [`MESSAGE_KINDS`]; out-of-range indices
    /// are ignored).
    pub fn record_latency(&self, kind_index: usize, elapsed: Duration) {
        if kind_index >= MESSAGE_KINDS.len() {
            return;
        }
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let mut stripe = self.stripe().lock_recover();
        stripe[kind_index].record(nanos);
    }

    /// Folds one completed learner run's per-phase question counts in.
    pub fn record_learn(&self, stats: &LearnStats) {
        self.learn_runs.fetch_add(1, Ordering::Relaxed);
        for (i, (phase, _)) in PHASE_NAMES.iter().enumerate() {
            let n = stats.phase(*phase) as u64;
            if n > 0 {
                self.phase_questions[i].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// A consistent-enough copy of every counter (stripes are summed one
    /// at a time; recording continues concurrently).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut totals = vec![Histogram::new(); MESSAGE_KINDS.len()];
        for stripe in &self.stripes {
            let stripe = stripe.lock_recover();
            for (total, h) in totals.iter_mut().zip(stripe.iter()) {
                for (t, c) in total.counts.iter_mut().zip(h.counts.iter()) {
                    *t += c;
                }
                total.sum_nanos = total.sum_nanos.saturating_add(h.sum_nanos);
                total.count += h.count;
            }
        }
        MetricsSnapshot {
            histograms: totals
                .into_iter()
                .zip(MESSAGE_KINDS.iter())
                .map(|(h, &kind)| HistogramSnapshot {
                    message: kind.to_string(),
                    count: h.count,
                    sum_nanos: h.sum_nanos,
                    buckets: h.counts.to_vec(),
                })
                .collect(),
            phases: PHASE_NAMES
                .iter()
                .zip(self.phase_questions.iter())
                .map(|((_, name), n)| ((*name).to_string(), n.load(Ordering::Relaxed)))
                .collect(),
            learn_runs: self.learn_runs.load(Ordering::Relaxed),
        }
    }
}

/// One message kind's aggregated latency histogram, as shipped by the
/// `Metrics` protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The protocol message kind (see [`MESSAGE_KINDS`]).
    pub message: String,
    /// Requests recorded.
    pub count: u64,
    /// Total latency, nanoseconds.
    pub sum_nanos: u64,
    /// Per-bucket (non-cumulative) counts, [`BUCKETS`] long; the last
    /// entry is the `+Inf` bucket.
    pub buckets: Vec<u64>,
}

/// Everything the `Metrics` protocol message carries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Per-message latency histograms, in [`MESSAGE_KINDS`] order.
    pub histograms: Vec<HistogramSnapshot>,
    /// `(phase label, questions asked)` per learner phase, in
    /// [`PHASE_NAMES`] order.
    pub phases: Vec<(String, u64)>,
    /// Completed learner runs folded into `phases`.
    pub learn_runs: u64,
}

qhorn_json::wire! {
    struct HistogramSnapshot {
        message: String,
        count: u64,
        sum_nanos: u64,
        buckets: Vec<u64>,
    }
}

qhorn_json::wire! {
    struct MetricsSnapshot {
        histograms: Vec<HistogramSnapshot>,
        phases: Vec<(String, u64)> [with = map],
        learn_runs: u64,
    }
}

// ---------------------------------------------------------------------------
// Saturation telemetry
// ---------------------------------------------------------------------------

/// Live contention counters for one frontend worker pool: accept-queue
/// depth, busy workers, and cumulative queue-wait. All atomics — updated
/// from the acceptor and every worker without locking.
pub struct PoolTelemetry {
    /// Stable pool label for export (e.g. `"lines"`, `"http"`).
    pub name: String,
    /// Workers serving this pool (fixed at construction).
    pub workers: u64,
    busy: AtomicU64,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    enqueued: AtomicU64,
    dequeued: AtomicU64,
    queue_wait_nanos: AtomicU64,
}

impl PoolTelemetry {
    /// An idle pool with `workers` workers.
    #[must_use]
    pub fn new(name: &str, workers: usize) -> Self {
        PoolTelemetry {
            name: name.to_string(),
            workers: workers as u64,
            busy: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_peak: AtomicU64::new(0),
            enqueued: AtomicU64::new(0),
            dequeued: AtomicU64::new(0),
            queue_wait_nanos: AtomicU64::new(0),
        }
    }

    /// The acceptor queued a connection. Called *before* the channel send
    /// so the gauge never reads below the true depth.
    pub fn enqueue(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// A worker dequeued a connection that waited `queued_at.elapsed()`.
    pub fn dequeue(&self, queued_at: Instant) {
        self.dequeued.fetch_add(1, Ordering::Relaxed);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let wait = u64::try_from(queued_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.queue_wait_nanos.fetch_add(wait, Ordering::Relaxed);
    }

    /// A worker started serving a connection.
    pub fn worker_busy(&self) {
        self.busy.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker finished its connection and is idle again.
    pub fn worker_idle(&self) {
        self.busy.fetch_sub(1, Ordering::Relaxed);
    }

    /// A point-in-time copy for export.
    #[must_use]
    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            name: self.name.clone(),
            workers: self.workers,
            busy: self.busy.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            enqueued: self.enqueued.load(Ordering::Relaxed),
            dequeued: self.dequeued.load(Ordering::Relaxed),
            queue_wait_nanos: self.queue_wait_nanos.load(Ordering::Relaxed),
        }
    }
}

/// One worker pool's saturation figures, as carried by the `Health` reply.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Pool label (`"lines"`, `"http"`, …).
    pub name: String,
    /// Workers serving the pool.
    pub workers: u64,
    /// Workers currently inside a connection.
    pub busy: u64,
    /// Accepted connections waiting for a worker right now.
    pub queue_depth: u64,
    /// High-water mark of `queue_depth` since startup.
    pub queue_peak: u64,
    /// Connections ever queued.
    pub enqueued: u64,
    /// Connections ever picked up by a worker.
    pub dequeued: u64,
    /// Total nanoseconds connections spent waiting in the queue.
    pub queue_wait_nanos: u64,
}

qhorn_json::wire! {
    struct PoolSnapshot {
        name: String,
        workers: u64,
        busy: u64,
        queue_depth: u64,
        queue_peak: u64,
        enqueued: u64,
        dequeued: u64,
        queue_wait_nanos: u64,
    }
}

/// Every saturation signal at one instant: worker pools and registry
/// stripe lock waits. The payload of the `Health` reply and the input to
/// the health verdict. (The store path's timings are in
/// [`qhorn_store::StoreStats`], served by `Stats`.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SaturationSnapshot {
    /// One entry per registered frontend pool.
    pub pools: Vec<PoolSnapshot>,
    /// Registry entry-stripe lock acquisitions measured.
    pub lock_waits: u64,
    /// Total nanoseconds spent waiting on registry stripe locks.
    pub lock_wait_nanos: u64,
}

qhorn_json::wire! {
    struct SaturationSnapshot {
        pools: Vec<PoolSnapshot>,
        lock_waits: u64,
        lock_wait_nanos: u64,
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Wire keys exported as gauges; every other integer is a counter.
const GAUGE_KEYS: &[&str] = &[
    "live",
    "snapshots",
    "uptime_seconds",
    "segments",
    "live_log_bytes",
    "last_compaction_seq",
    "recovered_sessions",
    "snapshot_sessions",
    "journal_spans",
    "journal_capacity",
    "workers",
    "busy",
    "queue_depth",
    "queue_peak",
];

/// Names that predate [`render_prometheus`]'s naming rule:
/// `(prefix + key, exported name)`, before any `_total`.
const LEGACY_NAMES: &[(&str, &str)] = &[
    ("qhorn_created", "qhorn_sessions_created"),
    ("qhorn_live", "qhorn_sessions_live"),
    ("qhorn_evicted", "qhorn_sessions_evicted"),
    ("qhorn_restored", "qhorn_sessions_restored"),
    ("qhorn_completed", "qhorn_sessions_completed"),
    ("qhorn_failed", "qhorn_sessions_failed"),
    ("qhorn_snapshots", "qhorn_snapshots_held"),
    ("qhorn_pool_busy", "qhorn_pool_busy_workers"),
    ("qhorn_phases", "qhorn_learner_questions"),
];

/// Arrays of objects: `(key, element prefix, label)`.
const ARRAYS: &[(&str, &str, &str)] = &[
    ("pools", "qhorn_pool_", "pool"),
    ("layers", "qhorn_profile_", "layer"),
];

/// Objects of integers keyed by label value: `(key, label)`.
const MAPS: &[(&str, &str)] = &[("phases", "phase"), ("events", "level")];

/// Walked families by exported name: type and rendered samples. Keyed by
/// name, so each family is typed once and its samples stay contiguous.
type Families = BTreeMap<String, (&'static str, String)>;

/// Walks one snapshot's encoding into `families` under `prefix`.
fn walk(families: &mut Families, prefix: &str, label: Option<(&str, &str)>, json: &Json) {
    let Json::Obj(pairs) = json else { return };
    for (key, value) in pairs {
        match value {
            Json::Obj(entries) => match MAPS.iter().find(|(k, _)| k == key) {
                Some((_, name)) => {
                    for (tag, n) in entries {
                        sample(families, prefix, key, Some((name, tag)), n);
                    }
                }
                None => walk(families, &format!("{prefix}{key}_"), label, value),
            },
            Json::Arr(items) => {
                let Some((_, item_prefix, name)) = ARRAYS.iter().find(|(k, ..)| k == key) else {
                    continue;
                };
                for item in items {
                    let tag = item
                        .as_obj()
                        .and_then(|fields| fields.iter().find_map(|(_, v)| v.as_str()));
                    walk(families, item_prefix, tag.map(|t| (*name, t)), item);
                }
            }
            _ => sample(families, prefix, key, label, value),
        }
    }
}

/// Adds one integer sample to the family the naming rule gives
/// `prefix + key` (non-integers are skipped).
fn sample(
    families: &mut Families,
    prefix: &str,
    key: &str,
    label: Option<(&str, &str)>,
    value: &Json,
) {
    let Some(value) = value.as_u64() else { return };
    let base = format!("{prefix}{key}");
    let base = LEGACY_NAMES
        .iter()
        .find(|(rule, _)| *rule == base)
        .map_or(base, |(_, legacy)| (*legacy).to_string());
    let (name, kind) = if GAUGE_KEYS.contains(&key) {
        (base, "gauge")
    } else {
        (base + "_total", "counter")
    };
    let (_, text) = families
        .entry(name.clone())
        .or_insert((kind, String::new()));
    text.push_str(&name);
    if let Some((k, v)) = label {
        let _ = write!(text, "{{{k}=\"{v}\"}}");
    }
    let _ = writeln!(text, " {value}");
}

/// Formats a finite bucket bound as a Prometheus `le` value, in seconds.
fn le_label(i: usize) -> String {
    // Exact decimal (bounds are 1µs · 2^i): print with enough precision
    // and trim trailing zeros so 0.001024 stays 0.001024, not 1.024e-3.
    let secs = bucket_bound_nanos(i) as f64 / 1e9;
    let mut s = format!("{secs:.9}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

/// Renders the exported snapshots as Prometheus text exposition (format
/// version 0.0.4).
///
/// The latency histogram, `qhorn_build_info` and the start time are
/// written by hand. Every other number is read from a snapshot's
/// [`ToJson`] encoding, walked under its group's prefix: an integer
/// field becomes `{prefix}{key}`, with `_total` appended unless the key
/// is a gauge. A nested object extends the prefix with `{key}_`. An
/// array of objects (`pools`, `layers`) exports each element's integers
/// under its own prefix, labelled with the element's string field, and
/// an object keyed by label value (`phases`, `events`) is one labelled
/// family. Other arrays, strings and booleans are skipped. A few names
/// that predate the rule are mapped to their old form.
#[must_use]
pub fn render_prometheus(
    snapshot: &MetricsSnapshot,
    stats: &RegistryStats,
    trace: &TraceStats,
    saturation: &SaturationSnapshot,
    logs: &LogStats,
    profile: &[LayerProfile],
    start_unix_seconds: u64,
) -> String {
    let mut out = String::with_capacity(16 * 1024);
    let _ = write!(
        out,
        "# HELP qhorn_build_info Build metadata; the value is always 1.\n\
         # TYPE qhorn_build_info gauge\n\
         qhorn_build_info{{version=\"{}\"}} 1\n\
         # HELP qhorn_process_start_time_seconds Unix time the process started.\n\
         # TYPE qhorn_process_start_time_seconds gauge\n\
         qhorn_process_start_time_seconds {start_unix_seconds}\n\
         # HELP qhorn_request_duration_seconds Wall-clock latency of served protocol messages.\n\
         # TYPE qhorn_request_duration_seconds histogram\n",
        env!("CARGO_PKG_VERSION")
    );
    for h in &snapshot.histograms {
        let mut cumulative = 0u64;
        for (i, n) in h.buckets.iter().enumerate() {
            cumulative += n;
            let le = if i == BUCKETS - 1 {
                "+Inf".to_string()
            } else {
                le_label(i)
            };
            let _ = writeln!(
                out,
                "qhorn_request_duration_seconds_bucket{{message=\"{}\",le=\"{le}\"}} {cumulative}",
                h.message
            );
        }
        let _ = writeln!(
            out,
            "qhorn_request_duration_seconds_sum{{message=\"{}\"}} {}\n\
             qhorn_request_duration_seconds_count{{message=\"{}\"}} {}",
            h.message,
            h.sum_nanos as f64 / 1e9,
            h.message,
            h.count
        );
    }

    let mut families = Families::new();
    let layers = Json::Obj(vec![("layers".to_string(), profile.to_json())]);
    for (prefix, json) in [
        ("qhorn_", snapshot.to_json()),
        ("qhorn_", stats.to_json()),
        ("qhorn_trace_", trace.to_json()),
        ("qhorn_registry_", saturation.to_json()),
        ("qhorn_log_", logs.to_json()),
        ("qhorn_", layers),
    ] {
        walk(&mut families, prefix, None, &json);
    }
    for (name, (kind, samples)) in &families {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        out.push_str(samples);
    }
    out
}

/// The exposition `GET /metrics` serves: [`render_prometheus`] over the
/// registry's current snapshots and the global logger's counters.
#[must_use]
pub fn scrape(registry: &Registry) -> String {
    render_prometheus(
        &registry.metrics().snapshot(),
        &registry.stats(),
        &registry.tracer().stats(),
        &registry.saturation(),
        &crate::log::stats(),
        &registry.tracer().profile(),
        registry.start_unix_seconds(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn bounds_are_log_scale_micro_to_minute() {
        assert_eq!(bucket_bound_nanos(0), 1_000); // 1µs
        assert_eq!(bucket_bound_nanos(10), 1_024_000); // ~1ms
        assert_eq!(bucket_bound_nanos(20), 1_048_576_000); // ~1s
        let top = bucket_bound_nanos(BUCKETS - 2);
        assert!(top > 60_000_000_000 && top < 120_000_000_000); // ~67s
    }

    #[test]
    fn recording_lands_in_the_right_bucket() {
        let m = Metrics::new();
        let answer = MESSAGE_KINDS.iter().position(|&k| k == "answer").unwrap();
        m.record_latency(answer, Duration::from_micros(3)); // bucket 2 (≤4µs)
        m.record_latency(answer, Duration::from_secs(200)); // +Inf
        m.record_latency(usize::MAX, Duration::from_secs(1)); // ignored
        let snap = m.snapshot();
        let h = &snap.histograms[answer];
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[BUCKETS - 1], 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), 2);
        assert!(h.sum_nanos >= 200_000_000_000);
        // Other kinds untouched.
        assert_eq!(snap.histograms[0].count, 0);
    }

    #[test]
    fn phase_counts_accumulate_across_learn_runs() {
        let m = Metrics::new();
        let mut by_phase = BTreeMap::new();
        by_phase.insert(Phase::ClassifyHeads, 5usize);
        by_phase.insert(Phase::ExistentialLattice, 2usize);
        let stats = LearnStats {
            questions: 7,
            tuples: 20,
            max_tuples_per_question: 4,
            by_phase,
            ..Default::default()
        };
        m.record_learn(&stats);
        m.record_learn(&stats);
        let snap = m.snapshot();
        assert_eq!(snap.learn_runs, 2);
        let phase = |name: &str| {
            snap.phases
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(phase("classify_heads"), 10);
        assert_eq!(phase("existential_lattice"), 4);
        assert_eq!(phase("universal_bodies"), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let m = std::sync::Arc::new(Metrics::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record_latency(0, Duration::from_micros(10));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.snapshot().histograms[0].count, 4000);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = Metrics::new();
        m.record_latency(0, Duration::from_micros(17));
        m.record_latency(8, Duration::from_millis(3));
        let snap = m.snapshot();
        let line = qhorn_json::to_string(&snap);
        let back: MetricsSnapshot = qhorn_json::from_str(&line).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn pool_telemetry_tracks_depth_peak_and_wait() {
        let pool = PoolTelemetry::new("http", 2);
        let q1 = Instant::now();
        pool.enqueue();
        pool.enqueue();
        let snap = pool.snapshot();
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.queue_peak, 2);
        pool.dequeue(q1);
        pool.worker_busy();
        let snap = pool.snapshot();
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.queue_peak, 2);
        assert_eq!(snap.busy, 1);
        assert_eq!(snap.enqueued, 2);
        assert_eq!(snap.dequeued, 1);
        pool.worker_idle();
        assert_eq!(pool.snapshot().busy, 0);
    }

    #[test]
    fn saturation_snapshot_round_trips_through_json() {
        let snap = SaturationSnapshot {
            pools: vec![PoolSnapshot {
                name: "lines".to_string(),
                workers: 4,
                busy: 3,
                queue_depth: 2,
                queue_peak: 9,
                enqueued: 100,
                dequeued: 98,
                queue_wait_nanos: 12_345,
            }],
            lock_waits: 7,
            lock_wait_nanos: 9_999,
        };
        let line = qhorn_json::to_string(&snap);
        let back: SaturationSnapshot = qhorn_json::from_str(&line).unwrap();
        assert_eq!(back, snap);
    }
}
