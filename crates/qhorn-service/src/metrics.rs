//! The service's observability subsystem: per-message latency histograms
//! and learner question counts per phase, exported as a [`MetricsSnapshot`]
//! (the `Metrics` protocol message) and as Prometheus text exposition
//! (`GET /metrics` on the HTTP frontend).
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

use qhorn_core::learn::{LearnStats, Phase};
use qhorn_json::wire::map;
use qhorn_lockdep::{LockClass, OrderedMutex};
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

/// Live append/fsync-path counters, fed by the store observer on every
/// operation (traced or not).
#[derive(Default)]
pub struct StoreTelemetry {
    appends: AtomicU64,
    append_nanos: AtomicU64,
    append_bytes: AtomicU64,
    fsyncs: AtomicU64,
    fsync_nanos: AtomicU64,
    compactions: AtomicU64,
    compaction_nanos: AtomicU64,
}

impl StoreTelemetry {
    /// Folds one store operation in.
    pub fn observe(&self, op: qhorn_store::StoreOp, duration: Duration, bytes: u64) {
        let nanos = u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX);
        match op {
            qhorn_store::StoreOp::Append => {
                self.appends.fetch_add(1, Ordering::Relaxed);
                self.append_nanos.fetch_add(nanos, Ordering::Relaxed);
                self.append_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            qhorn_store::StoreOp::Fsync => {
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
                self.fsync_nanos.fetch_add(nanos, Ordering::Relaxed);
            }
            qhorn_store::StoreOp::Compaction => {
                self.compactions.fetch_add(1, Ordering::Relaxed);
                self.compaction_nanos.fetch_add(nanos, Ordering::Relaxed);
            }
        }
    }

    /// A point-in-time copy for export.
    #[must_use]
    pub fn snapshot(&self) -> StoreOpsSnapshot {
        StoreOpsSnapshot {
            appends: self.appends.load(Ordering::Relaxed),
            append_nanos: self.append_nanos.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            fsync_nanos: self.fsync_nanos.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            compaction_nanos: self.compaction_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Observed store-operation timings, as carried by the `Health` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreOpsSnapshot {
    /// Appends observed.
    pub appends: u64,
    /// Total append wall time, nanoseconds.
    pub append_nanos: u64,
    /// Bytes appended (frame sizes as observed).
    pub append_bytes: u64,
    /// Fsyncs observed.
    pub fsyncs: u64,
    /// Total fsync wall time, nanoseconds.
    pub fsync_nanos: u64,
    /// Compactions observed.
    pub compactions: u64,
    /// Total compaction wall time, nanoseconds.
    pub compaction_nanos: u64,
}

qhorn_json::wire! {
    struct StoreOpsSnapshot {
        appends: u64,
        append_nanos: u64,
        append_bytes: u64,
        fsyncs: u64,
        fsync_nanos: u64,
        compactions: u64,
        compaction_nanos: u64,
    }
}

/// Every saturation signal at one instant: worker pools, registry stripe
/// lock waits, and the store append/fsync path. The
/// payload of the `Health` reply and the input to the health verdict.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SaturationSnapshot {
    /// One entry per registered frontend pool.
    pub pools: Vec<PoolSnapshot>,
    /// Registry entry-stripe lock acquisitions measured.
    pub lock_waits: u64,
    /// Total nanoseconds spent waiting on registry stripe locks.
    pub lock_wait_nanos: u64,
    /// Store operation timings (absent when running storeless).
    pub store: Option<StoreOpsSnapshot>,
}

qhorn_json::wire! {
    struct SaturationSnapshot {
        pools: Vec<PoolSnapshot>,
        lock_waits: u64,
        lock_wait_nanos: u64,
        store: Option<StoreOpsSnapshot> [skip],
    }
}

/// The operational counters [`render_prometheus`] exports beyond request
/// metrics: saturation, logging, the always-on profile, and uptime.
/// Bundled so the exporter signature survives future additions.
pub struct OpsSnapshot {
    /// Saturation signals (pools, locks, store path).
    pub saturation: SaturationSnapshot,
    /// Structured-log emission counters.
    pub logs: crate::log::LogStats,
    /// Always-on per-layer profile, in `PROFILE_LAYERS` order.
    pub profile: Vec<crate::trace::LayerProfile>,
    /// Seconds since process start.
    pub uptime_seconds: u64,
    /// Process start time, seconds since the Unix epoch.
    pub start_unix_seconds: u64,
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

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

/// Renders the snapshot plus the registry's cumulative counters, the
/// tracer's health gauges, and the operational bundle (saturation, logs,
/// profile, uptime) as Prometheus text exposition (format version 0.0.4).
#[must_use]
pub fn render_prometheus(
    snapshot: &MetricsSnapshot,
    stats: &crate::registry::RegistryStats,
    trace: &crate::trace::TraceStats,
    ops: &OpsSnapshot,
) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str(&format!(
        "# HELP qhorn_build_info Build metadata; the value is always 1.\n\
         # TYPE qhorn_build_info gauge\n\
         qhorn_build_info{{version=\"{}\"}} 1\n",
        env!("CARGO_PKG_VERSION")
    ));
    out.push_str(&format!(
        "# HELP qhorn_process_start_time_seconds Unix time the process started.\n\
         # TYPE qhorn_process_start_time_seconds gauge\n\
         qhorn_process_start_time_seconds {}\n\
         # HELP qhorn_uptime_seconds Seconds since process start.\n\
         # TYPE qhorn_uptime_seconds gauge\n\
         qhorn_uptime_seconds {}\n",
        ops.start_unix_seconds, ops.uptime_seconds
    ));
    out.push_str(
        "# HELP qhorn_request_duration_seconds Wall-clock latency of served protocol messages.\n\
         # TYPE qhorn_request_duration_seconds histogram\n",
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
            out.push_str(&format!(
                "qhorn_request_duration_seconds_bucket{{message=\"{}\",le=\"{le}\"}} {cumulative}\n",
                h.message
            ));
        }
        out.push_str(&format!(
            "qhorn_request_duration_seconds_sum{{message=\"{}\"}} {}\n",
            h.message,
            h.sum_nanos as f64 / 1e9
        ));
        out.push_str(&format!(
            "qhorn_request_duration_seconds_count{{message=\"{}\"}} {}\n",
            h.message, h.count
        ));
    }
    out.push_str(
        "# HELP qhorn_learner_questions_total Membership questions asked, by learning phase.\n\
         # TYPE qhorn_learner_questions_total counter\n",
    );
    for (name, n) in &snapshot.phases {
        out.push_str(&format!(
            "qhorn_learner_questions_total{{phase=\"{name}\"}} {n}\n"
        ));
    }
    out.push_str(
        "# HELP qhorn_learn_runs_total Completed learner runs folded into the phase counters.\n\
         # TYPE qhorn_learn_runs_total counter\n",
    );
    out.push_str(&format!("qhorn_learn_runs_total {}\n", snapshot.learn_runs));

    let counters: &[(&str, &str, u64)] = &[
        ("qhorn_sessions_created_total", "counter", stats.created),
        ("qhorn_sessions_live", "gauge", stats.live),
        ("qhorn_sessions_evicted_total", "counter", stats.evicted),
        ("qhorn_sessions_restored_total", "counter", stats.restored),
        ("qhorn_sessions_completed_total", "counter", stats.completed),
        ("qhorn_sessions_failed_total", "counter", stats.failed),
        ("qhorn_answers_total", "counter", stats.answers),
        ("qhorn_batch_runs_total", "counter", stats.batch_runs),
        ("qhorn_batch_objects_total", "counter", stats.batch_objects),
        (
            "qhorn_batch_signatures_total",
            "counter",
            stats.batch_signatures,
        ),
        ("qhorn_batch_answers_total", "counter", stats.batch_answers),
        (
            "qhorn_batch_threads_used_total",
            "counter",
            stats.batch_threads_used,
        ),
        ("qhorn_snapshots_held", "gauge", stats.snapshots),
        (
            "qhorn_compaction_errors_total",
            "counter",
            stats.compaction_errors,
        ),
        ("qhorn_trace_journal_spans", "gauge", trace.journal_spans),
        (
            "qhorn_trace_journal_capacity",
            "gauge",
            trace.journal_capacity,
        ),
        (
            "qhorn_trace_spans_recorded_total",
            "counter",
            trace.spans_recorded,
        ),
        (
            "qhorn_trace_traces_committed_total",
            "counter",
            trace.traces_committed,
        ),
        (
            "qhorn_trace_traces_sampled_out_total",
            "counter",
            trace.traces_sampled_out,
        ),
        (
            "qhorn_trace_slow_traces_total",
            "counter",
            trace.slow_traces,
        ),
        (
            "qhorn_trace_overhead_nanos_total",
            "counter",
            trace.overhead_nanos,
        ),
    ];
    for (name, kind, value) in counters {
        out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
    }
    if let Some(store) = &stats.store {
        let store_counters: &[(&str, &str, u64)] = &[
            (
                "qhorn_store_records_appended_total",
                "counter",
                store.records_appended,
            ),
            (
                "qhorn_store_bytes_appended_total",
                "counter",
                store.bytes_appended,
            ),
            ("qhorn_store_segments", "gauge", store.segments),
            ("qhorn_store_live_log_bytes", "gauge", store.live_log_bytes),
            (
                "qhorn_store_compactions_total",
                "counter",
                store.compactions,
            ),
            (
                "qhorn_store_recovered_sessions",
                "gauge",
                store.recovered_sessions,
            ),
            (
                "qhorn_store_torn_truncations_total",
                "counter",
                store.torn_truncations,
            ),
            (
                "qhorn_store_last_compaction_seq",
                "gauge",
                store.last_compaction_seq,
            ),
            (
                "qhorn_store_snapshot_sessions",
                "gauge",
                store.snapshot_sessions,
            ),
        ];
        for (name, kind, value) in store_counters {
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
        }
    }

    // Saturation: per-pool gauges/counters.
    type PoolSeries = (&'static str, &'static str, fn(&PoolSnapshot) -> u64);
    let pool_series: &[PoolSeries] = &[
        ("qhorn_pool_workers", "gauge", |p| p.workers),
        ("qhorn_pool_busy_workers", "gauge", |p| p.busy),
        ("qhorn_pool_queue_depth", "gauge", |p| p.queue_depth),
        ("qhorn_pool_queue_peak", "gauge", |p| p.queue_peak),
        ("qhorn_pool_enqueued_total", "counter", |p| p.enqueued),
        ("qhorn_pool_dequeued_total", "counter", |p| p.dequeued),
        ("qhorn_pool_queue_wait_nanos_total", "counter", |p| {
            p.queue_wait_nanos
        }),
    ];
    for (name, kind, get) in pool_series {
        if ops.saturation.pools.is_empty() {
            continue;
        }
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for pool in &ops.saturation.pools {
            out.push_str(&format!("{name}{{pool=\"{}\"}} {}\n", pool.name, get(pool)));
        }
    }
    let mut ops_counters: Vec<(&str, &str, u64)> = vec![
        (
            "qhorn_registry_lock_waits_total",
            "counter",
            ops.saturation.lock_waits,
        ),
        (
            "qhorn_registry_lock_wait_nanos_total",
            "counter",
            ops.saturation.lock_wait_nanos,
        ),
        ("qhorn_log_suppressed_total", "counter", ops.logs.suppressed),
    ];
    if let Some(store) = &ops.saturation.store {
        ops_counters.extend([
            ("qhorn_store_op_appends_total", "counter", store.appends),
            (
                "qhorn_store_op_append_nanos_total",
                "counter",
                store.append_nanos,
            ),
            (
                "qhorn_store_op_append_bytes_total",
                "counter",
                store.append_bytes,
            ),
            ("qhorn_store_op_fsyncs_total", "counter", store.fsyncs),
            (
                "qhorn_store_op_fsync_nanos_total",
                "counter",
                store.fsync_nanos,
            ),
            (
                "qhorn_store_op_compactions_total",
                "counter",
                store.compactions,
            ),
            (
                "qhorn_store_op_compaction_nanos_total",
                "counter",
                store.compaction_nanos,
            ),
        ]);
    }
    for (name, kind, value) in &ops_counters {
        out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
    }

    // Structured-log emission counters, by level.
    out.push_str(
        "# HELP qhorn_log_events_total Structured log lines emitted, by level.\n\
         # TYPE qhorn_log_events_total counter\n",
    );
    for (i, n) in ops.logs.events.iter().enumerate() {
        let level = crate::log::Level::from_u8(i as u8);
        out.push_str(&format!(
            "qhorn_log_events_total{{level=\"{}\"}} {n}\n",
            level.as_str()
        ));
    }

    // Always-on profile: time by layer.
    type ProfileSeries = (&'static str, fn(&crate::trace::LayerProfile) -> u64);
    let profile_series: &[ProfileSeries] = &[
        ("qhorn_profile_spans_total", |l| l.spans),
        ("qhorn_profile_self_nanos_total", |l| l.self_nanos),
        ("qhorn_profile_total_nanos_total", |l| l.total_nanos),
    ];
    for (name, get) in profile_series {
        if ops.profile.is_empty() {
            continue;
        }
        out.push_str(&format!("# TYPE {name} counter\n"));
        for layer in &ops.profile {
            out.push_str(&format!(
                "{name}{{layer=\"{}\"}} {}\n",
                layer.layer,
                get(layer)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryStats;
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

    /// One parsed exposition line: metric name, label pairs, value.
    type Row = (String, Vec<(String, String)>, f64);

    /// A minimal Prometheus text-format parser: every non-comment line
    /// must be `name[{label="value",…}] number`, histograms must be
    /// cumulative, and each histogram needs `_sum` and `_count`.
    fn parse_exposition(text: &str) -> Vec<Row> {
        let mut rows = Vec::new();
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            assert!(!line.trim().is_empty(), "blank line in exposition");
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
                panic!("no value separator in {line}");
            });
            let value: f64 = value.parse().unwrap_or_else(|_| {
                panic!("unparseable value in {line}");
            });
            let (name, labels) = match series.split_once('{') {
                None => (series.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("unterminated label set");
                    let labels = body
                        .split(',')
                        .map(|pair| {
                            let (k, v) = pair.split_once('=').expect("label without =");
                            let v = v
                                .strip_prefix('"')
                                .and_then(|v| v.strip_suffix('"'))
                                .expect("unquoted label value");
                            (k.to_string(), v.to_string())
                        })
                        .collect();
                    (name.to_string(), labels)
                }
            };
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name {name}"
            );
            rows.push((name, labels, value));
        }
        rows
    }

    #[test]
    fn prometheus_exposition_parses_and_is_cumulative() {
        let m = Metrics::new();
        let answer = MESSAGE_KINDS.iter().position(|&k| k == "answer").unwrap();
        for micros in [1u64, 5, 900, 40_000, 2_000_000] {
            m.record_latency(answer, Duration::from_micros(micros));
        }
        let mut by_phase = BTreeMap::new();
        by_phase.insert(Phase::UniversalBodies, 3usize);
        m.record_learn(&LearnStats {
            questions: 3,
            tuples: 6,
            max_tuples_per_question: 2,
            by_phase,
            ..Default::default()
        });
        let stats = RegistryStats {
            created: 4,
            live: 2,
            compaction_errors: 1,
            batch_threads_used: 7,
            store: Some(qhorn_store::StoreStats {
                records_appended: 9,
                snapshot_sessions: 3,
                ..Default::default()
            }),
            ..Default::default()
        };
        let trace = crate::trace::TraceStats {
            journal_spans: 12,
            journal_capacity: 8192,
            spans_recorded: 40,
            traces_committed: 5,
            traces_sampled_out: 11,
            slow_traces: 1,
            overhead_nanos: 9_000,
        };
        let pool = PoolTelemetry::new("lines", 4);
        pool.enqueue();
        pool.worker_busy();
        let mut logs = crate::log::LogStats::default();
        logs.events[crate::log::Level::Warn as usize] = 6;
        logs.suppressed = 2;
        let ops = OpsSnapshot {
            saturation: SaturationSnapshot {
                pools: vec![pool.snapshot()],
                lock_waits: 13,
                lock_wait_nanos: 77_000,
                store: Some(StoreOpsSnapshot {
                    appends: 21,
                    append_nanos: 1_000,
                    append_bytes: 4_096,
                    fsyncs: 2,
                    fsync_nanos: 500,
                    compactions: 0,
                    compaction_nanos: 0,
                }),
            },
            logs,
            profile: vec![crate::trace::LayerProfile {
                layer: "dispatch".to_string(),
                spans: 9,
                self_nanos: 1_234,
                total_nanos: 5_678,
            }],
            uptime_seconds: 42,
            start_unix_seconds: 1_700_000_000,
        };
        let text = render_prometheus(&m.snapshot(), &stats, &trace, &ops);
        let rows = parse_exposition(&text);

        // Build info carries the crate version as a label, value 1.
        assert!(rows.iter().any(|(name, labels, v)| {
            name == "qhorn_build_info"
                && labels
                    .iter()
                    .any(|(k, val)| k == "version" && val == env!("CARGO_PKG_VERSION"))
                && *v == 1.0
        }));

        // Histogram: one bucket series per bound per message kind, with
        // cumulative counts ending at +Inf == _count.
        for kind in MESSAGE_KINDS {
            let buckets: Vec<f64> = rows
                .iter()
                .filter(|(name, labels, _)| {
                    name == "qhorn_request_duration_seconds_bucket"
                        && labels.iter().any(|(k, v)| k == "message" && v == kind)
                })
                .map(|(_, _, v)| *v)
                .collect();
            assert_eq!(buckets.len(), BUCKETS, "{kind}");
            assert!(
                buckets.windows(2).all(|w| w[0] <= w[1]),
                "{kind} buckets not cumulative"
            );
            let count = rows
                .iter()
                .find(|(name, labels, _)| {
                    name == "qhorn_request_duration_seconds_count"
                        && labels.iter().any(|(k, v)| k == "message" && v == kind)
                })
                .map(|(_, _, v)| *v)
                .expect("missing _count");
            assert_eq!(*buckets.last().unwrap(), count, "{kind}");
            assert!(
                rows.iter().any(|(name, labels, _)| {
                    name == "qhorn_request_duration_seconds_sum"
                        && labels.iter().any(|(k, v)| k == "message" && v == kind)
                }),
                "missing _sum for {kind}"
            );
        }
        // The recorded kind has the right total.
        let answer_count = rows
            .iter()
            .find(|(name, labels, _)| {
                name == "qhorn_request_duration_seconds_count"
                    && labels.iter().any(|(k, v)| k == "message" && v == "answer")
            })
            .map(|(_, _, v)| *v)
            .unwrap();
        assert_eq!(answer_count, 5.0);

        // Phase counters: one series per phase, with the recorded value.
        let phases: Vec<&Row> = rows
            .iter()
            .filter(|(name, _, _)| name == "qhorn_learner_questions_total")
            .collect();
        assert_eq!(phases.len(), PHASE_NAMES.len());
        assert!(phases.iter().any(|(_, labels, v)| labels
            .iter()
            .any(|(k, val)| k == "phase" && val == "universal_bodies")
            && *v == 3.0));

        // Registry + store counters surface.
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_sessions_created_total" && *v == 4.0));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_store_records_appended_total" && *v == 9.0));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_store_snapshot_sessions" && *v == 3.0));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_store_last_compaction_seq" && *v == 0.0));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_compaction_errors_total" && *v == 1.0));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_batch_threads_used_total" && *v == 7.0));

        // Tracer health gauges surface.
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_trace_journal_spans" && *v == 12.0));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_trace_journal_capacity" && *v == 8192.0));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_trace_traces_committed_total" && *v == 5.0));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_trace_overhead_nanos_total" && *v == 9000.0));

        // Uptime and start time near build info.
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_uptime_seconds" && *v == 42.0));
        assert!(rows.iter().any(
            |(name, _, v)| name == "qhorn_process_start_time_seconds" && *v == 1_700_000_000.0
        ));

        // Saturation series: per-pool gauges carry the pool label.
        assert!(rows.iter().any(|(name, labels, v)| {
            name == "qhorn_pool_queue_depth"
                && labels.iter().any(|(k, val)| k == "pool" && val == "lines")
                && *v == 1.0
        }));
        assert!(rows.iter().any(|(name, labels, v)| {
            name == "qhorn_pool_busy_workers"
                && labels.iter().any(|(k, val)| k == "pool" && val == "lines")
                && *v == 1.0
        }));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_registry_lock_wait_nanos_total" && *v == 77_000.0));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_store_op_appends_total" && *v == 21.0));
        // The mailbox series went with the per-session threads.
        assert!(!rows
            .iter()
            .any(|(name, _, _)| name.starts_with("qhorn_driver_")));

        // Log counters: per-level series plus the suppression counter.
        assert!(rows.iter().any(|(name, labels, v)| {
            name == "qhorn_log_events_total"
                && labels.iter().any(|(k, val)| k == "level" && val == "warn")
                && *v == 6.0
        }));
        assert!(rows
            .iter()
            .any(|(name, _, v)| name == "qhorn_log_suppressed_total" && *v == 2.0));

        // Always-on profile series carry the layer label.
        assert!(rows.iter().any(|(name, labels, v)| {
            name == "qhorn_profile_self_nanos_total"
                && labels
                    .iter()
                    .any(|(k, val)| k == "layer" && val == "dispatch")
                && *v == 1234.0
        }));
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
            store: Some(StoreOpsSnapshot {
                appends: 4,
                append_nanos: 5,
                append_bytes: 6,
                fsyncs: 7,
                fsync_nanos: 8,
                compactions: 9,
                compaction_nanos: 10,
            }),
        };
        let line = qhorn_json::to_string(&snap);
        let back: SaturationSnapshot = qhorn_json::from_str(&line).unwrap();
        assert_eq!(back, snap);

        // Storeless snapshots omit the key entirely and still decode.
        let no_store = SaturationSnapshot {
            store: None,
            ..snap
        };
        let line = qhorn_json::to_string(&no_store);
        assert!(!line.contains("\"store\""));
        let back: SaturationSnapshot = qhorn_json::from_str(&line).unwrap();
        assert_eq!(back, no_store);
    }

    #[test]
    fn store_telemetry_buckets_by_operation() {
        let t = StoreTelemetry::default();
        t.observe(qhorn_store::StoreOp::Append, Duration::from_nanos(100), 64);
        t.observe(qhorn_store::StoreOp::Append, Duration::from_nanos(200), 32);
        t.observe(qhorn_store::StoreOp::Fsync, Duration::from_nanos(500), 0);
        let snap = t.snapshot();
        assert_eq!(snap.appends, 2);
        assert_eq!(snap.append_nanos, 300);
        assert_eq!(snap.append_bytes, 96);
        assert_eq!(snap.fsyncs, 1);
        assert_eq!(snap.fsync_nanos, 500);
        assert_eq!(snap.compactions, 0);
    }
}
