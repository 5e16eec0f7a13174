//! End-to-end request tracing: a lock-striped, bounded, in-memory span
//! journal plus per-request span trees, a slow-request log, and a
//! per-session timeline view.
//!
//! ## Model
//!
//! Every request dispatched through [`crate::dispatch`] gets a **trace**:
//! a root `dispatch` span plus child spans recorded by the layers it
//! crosses (`registry`, `learner.phase`, `kernel.batch_eval`,
//! `store.append`, `store.fsync`, `store.compact`). A `learner.phase`
//! span is one step of a session's learner or verifier: resuming it
//! with the request's answer, computing, and realizing its next
//! question. It is labelled with the learning phase of the session's
//! latest question and the questions the step answered; the name is
//! kept from when the span timed a whole phase, because trace
//! consumers filter on it. Spans carry a parent link, a monotonic start
//! offset and duration, an optional session id, and typed attributes
//! ([`AttrValue`]).
//!
//! The recording side is a **thread-local context**: [`Tracer::begin`]
//! installs the context on the request thread, [`span`] opens a child on
//! whatever context is active (a cheap no-op when none is), and
//! [`retro_span`] back-fills spans whose timing was measured elsewhere
//! (store operations, through the store's observer). This works because
//! all request-path work — dispatch, registry locking, the learner step,
//! store appends — runs on the request thread itself.
//!
//! ## Retention and overhead
//!
//! Completed traces are **head-sampled** (1-in-[`TraceConfig::sample_every`])
//! into a ring of [`TraceConfig::journal_spans`] spans, striped across 8
//! mutexes so concurrent request threads rarely contend; traces whose
//! root duration reaches [`TraceConfig::slow_threshold`] are always kept,
//! and their fully-built trees additionally land in a separate
//! **slow-request log** that survives journal eviction. Requests that
//! arrive with an explicit trace id (HTTP `X-Qhorn-Trace-Id` or the
//! JSON-lines `trace_id` envelope field) are always journaled — "trace
//! this one request" needs no config change. Unsampled traces cost two
//! atomic increments and a handful of thread-local pushes; the journaling
//! cost of the rest is itself measured and exported as
//! `qhorn_trace_overhead_nanos_total`. The slow threshold and sampling
//! rate are runtime-adjustable ([`Tracer::configure`], the
//! `set_trace_config` wire message).
//!
//! ## The always-on profile
//!
//! Separately from journaling, **every** span close — sampled out or not —
//! feeds a per-layer time accumulator: wall time is attributed to the
//! span's layer ([`PROFILE_LAYERS`], the span-name prefix before `.`) as
//! *self time* (duration minus the time its children accounted for), so
//! the accumulated self times across layers partition request wall time.
//! [`Tracer::profile`] snapshots it, `GET /v1/debug/profile` serves it,
//! and [`Tracer::reset_profile`] rewinds it — "where do the nanoseconds
//! go" without attaching a profiler.

use crate::metrics::StoreTelemetry;
use qhorn_json::wire::map;
use qhorn_json::{FromJson, Json, JsonError, ToJson};
use qhorn_lockdep::{LockClass, OrderedMutex};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Journal stripes; must be a power of two-ish small number — more
/// stripes means less lock contention but a coarser eviction pattern.
const STRIPES: usize = 8;

/// Tracing knobs, part of [`crate::registry::RegistryConfig`].
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Journal capacity in **spans** (not traces), split evenly across
    /// the stripes. Oldest spans are evicted first.
    pub journal_spans: usize,
    /// Root spans at least this long are always journaled and their full
    /// trees pushed to the slow-request log.
    pub slow_threshold: Duration,
    /// Keep 1 in `sample_every` ordinary traces (0 disables sampling —
    /// only slow or explicitly-traced requests are journaled).
    pub sample_every: u64,
    /// Slow-request log capacity, in traces.
    pub slow_log_traces: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            journal_spans: 8192,
            slow_threshold: Duration::from_millis(500),
            sample_every: 16,
            slow_log_traces: 64,
        }
    }
}

/// A typed span attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// An unsigned counter or size.
    U64(u64),
    /// A flag.
    Bool(bool),
    /// A label: borrowed for the static labels every request sets
    /// (kind, outcome, states, phase), so setting one allocates nothing.
    Str(Cow<'static, str>),
}

impl ToJson for AttrValue {
    fn to_json(&self) -> Json {
        match self {
            AttrValue::U64(v) => v.to_json(),
            AttrValue::Bool(b) => b.to_json(),
            AttrValue::Str(s) => Json::Str(s.to_string()),
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            AttrValue::U64(v) => v.write_json(out),
            AttrValue::Bool(b) => b.write_json(out),
            AttrValue::Str(s) => s.as_ref().write_json(out),
        }
    }
}

impl FromJson for AttrValue {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        if let Some(b) = j.as_bool() {
            Ok(AttrValue::Bool(b))
        } else if let Some(v) = j.as_u64() {
            Ok(AttrValue::U64(v))
        } else if let Some(s) = j.as_str() {
            Ok(AttrValue::Str(Cow::Owned(s.to_string())))
        } else {
            Err(JsonError::msg(
                "attribute value must be u64, bool, or string",
            ))
        }
    }
}

/// One completed span, as held by the journal.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Owning trace id.
    pub trace: u64,
    /// This span's id (unique within the tracer).
    pub span: u64,
    /// Parent span id; `None` for the root.
    pub parent: Option<u64>,
    /// Layer name, e.g. `"dispatch"` or `"store.append"`.
    pub name: &'static str,
    /// Start, as nanoseconds since the tracer's epoch (monotonic clock).
    pub start_nanos: u64,
    /// Wall duration in nanoseconds.
    pub duration_nanos: u64,
    /// Session the span worked on, when known.
    pub session: Option<u64>,
    /// Typed attributes, in recording order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Tracer counters, exported on `/metrics`.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceStats {
    /// Spans currently held by the journal (occupancy gauge).
    pub journal_spans: u64,
    /// Journal capacity in spans.
    pub journal_capacity: u64,
    /// Spans ever committed to the journal (cumulative).
    pub spans_recorded: u64,
    /// Traces committed to the journal (cumulative).
    pub traces_committed: u64,
    /// Traces discarded by head sampling (cumulative).
    pub traces_sampled_out: u64,
    /// Traces over the slow threshold (cumulative).
    pub slow_traces: u64,
    /// Nanoseconds spent journaling committed traces (cumulative).
    pub overhead_nanos: u64,
}

/// Filters for [`Tracer::list`] / the `list_traces` request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceFilter {
    /// Keep traces at least this long.
    pub min_duration_nanos: Option<u64>,
    /// Keep traces whose root message kind equals this label.
    pub kind: Option<String>,
    /// Keep traces that touched this session.
    pub session: Option<u64>,
    /// List the slow-request log instead of the journal.
    pub slow_only: bool,
    /// Newest-first result cap (0 = unlimited).
    pub limit: u64,
}

/// Formats a trace id as its canonical 16-digit lowercase hex form.
#[must_use]
pub fn format_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses a trace id: 1–16 hex digits (any case).
#[must_use]
pub fn parse_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

// ---------------------------------------------------------------------
// The always-on per-layer profile
// ---------------------------------------------------------------------

/// The fixed layers the self-profile attributes time to: a span named
/// `"store.append"` lands under `"store"`, `"dispatch"` under itself;
/// names with an unknown prefix fall into the trailing `"other"` bucket.
pub const PROFILE_LAYERS: &[&str] = &[
    "dispatch", "registry", "learner", "kernel", "store", "other",
];

/// Maps a span name onto its [`PROFILE_LAYERS`] slot.
fn layer_index(name: &str) -> usize {
    let prefix = name.split('.').next().unwrap_or(name);
    PROFILE_LAYERS
        .iter()
        .position(|l| *l == prefix)
        .unwrap_or(PROFILE_LAYERS.len() - 1)
}

/// One layer's accumulators (atomic; all spans feed them, sampled or not).
#[derive(Default)]
struct LayerCell {
    spans: AtomicU64,
    self_nanos: AtomicU64,
    total_nanos: AtomicU64,
}

/// One layer's cumulative time, as snapshotted by [`Tracer::profile`]
/// and served by `GET /v1/debug/profile`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerProfile {
    /// Layer name (one of [`PROFILE_LAYERS`]).
    pub layer: String,
    /// Spans closed under this layer.
    pub spans: u64,
    /// Wall nanoseconds attributed to this layer alone (excluding time
    /// its child spans accounted for). Summed across layers, self times
    /// partition traced request wall time.
    pub self_nanos: u64,
    /// Wall nanoseconds spent in this layer including its children.
    pub total_nanos: u64,
}

qhorn_json::wire! {
    struct LayerProfile {
        layer: String,
        spans: u64,
        self_nanos: u64,
        total_nanos: u64,
    }
}

// ---------------------------------------------------------------------
// Thread-local recording context
// ---------------------------------------------------------------------

struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    session: Option<u64>,
    attrs: Vec<(&'static str, AttrValue)>,
    /// Wall nanoseconds already attributed to closed children (and retro
    /// spans) of this span — subtracted at close so the profile records
    /// this span's *self* time.
    child_nanos: u64,
}

struct ActiveTrace {
    tracer: Arc<Tracer>,
    trace: u64,
    /// The client supplied the id — always journal.
    explicit: bool,
    open: Vec<OpenSpan>,
    done: Vec<SpanRecord>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
    /// This thread's sticky journal stripe (usize::MAX = unassigned).
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Round-robin stripe assignment, sticky per thread.
fn stripe_index(counter: &AtomicUsize) -> usize {
    STRIPE.with(|s| {
        let mut idx = s.get();
        if idx == usize::MAX {
            idx = counter.fetch_add(1, Ordering::Relaxed) % STRIPES;
            s.set(idx);
        }
        idx
    })
}

/// `true` iff the calling thread is inside a traced request.
#[must_use]
pub fn has_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// The calling thread's active trace id, if any — so log lines can
/// correlate to the request trace without threading ids through every
/// call site.
#[must_use]
pub fn current_trace_id() -> Option<u64> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|at| at.trace))
}

/// Opens a child span on the calling thread's active trace. A cheap
/// no-op (no allocation, no lock) when no trace is active.
#[must_use]
pub fn span(name: &'static str) -> SpanGuard {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let Some(at) = a.as_mut() else {
            return SpanGuard { id: None };
        };
        let id = at.tracer.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = at.open.last().map(|o| o.id);
        at.open.push(OpenSpan {
            id,
            parent,
            name,
            start: Instant::now(),
            session: None,
            attrs: Vec::new(),
            child_nanos: 0,
        });
        SpanGuard { id: Some(id) }
    })
}

/// Back-fills a completed span onto the active trace: it occupied
/// `[ended - duration, ended]` and becomes a child of the innermost open
/// span. Used where the timing was measured elsewhere (store
/// operations). No-op without an active trace.
pub fn retro_span(
    name: &'static str,
    ended: Instant,
    duration: Duration,
    session: Option<u64>,
    attrs: Vec<(&'static str, AttrValue)>,
) {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let Some(at) = a.as_mut() else { return };
        let id = at.tracer.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = at.open.last().map(|o| o.id);
        let end_nanos = nanos_since(at.tracer.epoch, ended);
        let duration_nanos = duration_as_nanos(duration);
        at.done.push(SpanRecord {
            trace: at.trace,
            span: id,
            parent,
            name,
            start_nanos: end_nanos.saturating_sub(duration_nanos),
            duration_nanos,
            session,
            attrs,
        });
        // The retro span's time belongs to its layer, not the enclosing
        // span's self time (a store append inside `registry` is store
        // work). Saturation keeps the parent's self time at zero rather
        // than wrapping should a reported duration exceed it.
        if let Some(parent) = at.open.last_mut() {
            parent.child_nanos = parent.child_nanos.saturating_add(duration_nanos);
        }
        at.tracer.profile_add(name, duration_nanos, duration_nanos);
    });
}

fn nanos_since(epoch: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

fn duration_as_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Mutates the open span with id `id` on the active trace, if present.
fn with_open_span(id: Option<u64>, f: impl FnOnce(&mut OpenSpan)) {
    let Some(id) = id else { return };
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let Some(at) = a.as_mut() else { return };
        if let Some(open) = at.open.iter_mut().rev().find(|o| o.id == id) {
            f(open);
        }
    });
}

/// A child span handle; closes the span when dropped. Inert when no
/// trace was active at creation.
pub struct SpanGuard {
    id: Option<u64>,
}

impl SpanGuard {
    /// Attaches a counter/size attribute.
    pub fn attr_u64(&self, key: &'static str, value: u64) {
        with_open_span(self.id, |o| o.attrs.push((key, AttrValue::U64(value))));
    }

    /// Attaches a flag attribute.
    pub fn attr_bool(&self, key: &'static str, value: bool) {
        with_open_span(self.id, |o| o.attrs.push((key, AttrValue::Bool(value))));
    }

    /// Attaches a label attribute.
    pub fn attr_str(&self, key: &'static str, value: impl Into<Cow<'static, str>>) {
        let value = value.into();
        with_open_span(self.id, |o| o.attrs.push((key, AttrValue::Str(value))));
    }

    /// Tags the span with the session it worked on.
    pub fn set_session(&self, session: u64) {
        with_open_span(self.id, |o| o.session = Some(session));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            let Some(at) = a.as_mut() else { return };
            if !at.open.iter().any(|o| o.id == id) {
                return;
            }
            let now = Instant::now();
            // Strict LIFO in practice; pop any forgotten inner spans too.
            while !at.open.is_empty() {
                if close_top(at, now) == id {
                    break;
                }
            }
        });
    }
}

/// Pops and closes the innermost open span: the finished record joins
/// `done`, its wall time is charged to the parent's child accounting,
/// and its **self time** (duration minus what its own children covered)
/// feeds the always-on per-layer profile — for every span, kept by the
/// sampler or not. Returns the closed span's id.
fn close_top(at: &mut ActiveTrace, now: Instant) -> u64 {
    let open = at.open.pop().expect("caller checked non-empty");
    let child_nanos = open.child_nanos;
    let rec = close(&at.tracer, at.trace, open, now);
    let duration = rec.duration_nanos;
    if let Some(parent) = at.open.last_mut() {
        parent.child_nanos = parent.child_nanos.saturating_add(duration);
    }
    at.tracer
        .profile_add(rec.name, duration.saturating_sub(child_nanos), duration);
    let id = rec.span;
    at.done.push(rec);
    id
}

fn close(tracer: &Tracer, trace: u64, open: OpenSpan, now: Instant) -> SpanRecord {
    SpanRecord {
        trace,
        span: open.id,
        parent: open.parent,
        name: open.name,
        start_nanos: nanos_since(tracer.epoch, open.start),
        duration_nanos: duration_as_nanos(now.saturating_duration_since(open.start)),
        session: open.session,
        attrs: open.attrs,
    }
}

/// The root span handle returned by [`Tracer::begin`]; dropping it closes
/// the trace and decides whether it is journaled.
pub struct RootGuard {
    trace: u64,
    span: u64,
    installed: bool,
}

impl RootGuard {
    /// The trace id, for wire propagation.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.trace
    }

    /// The trace id in canonical hex form.
    #[must_use]
    pub fn hex_id(&self) -> String {
        format_id(self.trace)
    }

    /// Attaches a counter/size attribute to the root span.
    pub fn attr_u64(&self, key: &'static str, value: u64) {
        with_open_span(Some(self.span), |o| {
            o.attrs.push((key, AttrValue::U64(value)));
        });
    }

    /// Attaches a label attribute to the root span.
    pub fn attr_str(&self, key: &'static str, value: impl Into<Cow<'static, str>>) {
        let value = value.into();
        with_open_span(Some(self.span), |o| {
            o.attrs.push((key, AttrValue::Str(value)));
        });
    }

    /// Tags the root span (and hence the trace) with a session id.
    pub fn set_session(&self, session: u64) {
        with_open_span(Some(self.span), |o| o.session = Some(session));
    }
}

impl Drop for RootGuard {
    fn drop(&mut self) {
        if !self.installed {
            return;
        }
        let Some(at) = ACTIVE.with(|a| a.borrow_mut().take()) else {
            return;
        };
        at.tracer.clone().finish(at);
    }
}

// ---------------------------------------------------------------------
// The tracer
// ---------------------------------------------------------------------

/// The span journal and its id mints; one per [`crate::Registry`].
pub struct Tracer {
    epoch: Instant,
    journal: Vec<OrderedMutex<VecDeque<SpanRecord>>>,
    stripe_cap: usize,
    next_stripe: AtomicUsize,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    /// Runtime-adjustable ([`Tracer::configure`]).
    slow_threshold_nanos: AtomicU64,
    /// Runtime-adjustable ([`Tracer::configure`]).
    sample_every: AtomicU64,
    /// The always-on per-layer time accumulators, [`PROFILE_LAYERS`] order.
    profile: Vec<LayerCell>,
    slow_log: OrderedMutex<VecDeque<TraceTree>>,
    slow_cap: usize,
    journal_len: AtomicU64,
    spans_recorded: AtomicU64,
    traces_committed: AtomicU64,
    traces_sampled_out: AtomicU64,
    slow_traces: AtomicU64,
    overhead_nanos: AtomicU64,
}

impl Tracer {
    /// Builds a tracer with the given knobs.
    #[must_use]
    pub fn new(config: &TraceConfig) -> Tracer {
        let stripe_cap = config.journal_spans.div_ceil(STRIPES).max(1);
        Tracer {
            epoch: Instant::now(),
            journal: (0..STRIPES)
                .map(|_| OrderedMutex::new(LockClass::new("trace.journal"), VecDeque::new()))
                .collect(),
            stripe_cap,
            next_stripe: AtomicUsize::new(0),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            slow_threshold_nanos: AtomicU64::new(duration_as_nanos(config.slow_threshold)),
            sample_every: AtomicU64::new(config.sample_every),
            profile: (0..PROFILE_LAYERS.len())
                .map(|_| LayerCell::default())
                .collect(),
            slow_log: OrderedMutex::new(LockClass::new("trace.slow_log"), VecDeque::new()),
            slow_cap: config.slow_log_traces.max(1),
            journal_len: AtomicU64::new(0),
            spans_recorded: AtomicU64::new(0),
            traces_committed: AtomicU64::new(0),
            traces_sampled_out: AtomicU64::new(0),
            slow_traces: AtomicU64::new(0),
            overhead_nanos: AtomicU64::new(0),
        }
    }

    /// Starts a trace on the calling thread: installs the thread-local
    /// context and opens the root span. `incoming` is a client-supplied
    /// trace id (from the wire); such traces are always journaled.
    ///
    /// If the thread already has an active trace (it never should — one
    /// request per thread at a time), the new guard is inert.
    pub fn begin(self: &Arc<Self>, name: &'static str, incoming: Option<u64>) -> RootGuard {
        let (trace, explicit) = match incoming {
            Some(id) => (id, true),
            None => (self.next_trace.fetch_add(1, Ordering::Relaxed) + 1, false),
        };
        let span = self.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let installed = ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if a.is_some() {
                return false;
            }
            *a = Some(ActiveTrace {
                tracer: Arc::clone(self),
                trace,
                explicit,
                open: vec![OpenSpan {
                    id: span,
                    parent: None,
                    name,
                    start: Instant::now(),
                    session: None,
                    attrs: Vec::new(),
                    child_nanos: 0,
                }],
                done: Vec::new(),
            });
            true
        });
        RootGuard {
            trace,
            span,
            installed,
        }
    }

    /// Closes a finished trace: finalize any still-open spans, decide
    /// whether to keep it, and journal it if so.
    fn finish(self: Arc<Self>, mut at: ActiveTrace) {
        let now = Instant::now();
        while !at.open.is_empty() {
            close_top(&mut at, now);
        }
        // The root is the last span closed.
        let root_duration = at.done.last().map_or(0, |r| r.duration_nanos);
        let slow_threshold_nanos = self.slow_threshold_nanos.load(Ordering::Relaxed);
        let sample_every = self.sample_every.load(Ordering::Relaxed);
        let slow = root_duration >= slow_threshold_nanos;
        let sampled = sample_every != 0 && at.trace.is_multiple_of(sample_every);
        if !(at.explicit || slow || sampled) {
            self.traces_sampled_out.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if slow {
            self.slow_traces.fetch_add(1, Ordering::Relaxed);
            if let Some(tree) = build_tree(at.trace, &at.done, slow_threshold_nanos) {
                let mut log = self.slow_log.lock_recover();
                log.push_back(tree);
                while log.len() > self.slow_cap {
                    log.pop_front();
                }
            }
        }
        self.commit(at.done);
        self.overhead_nanos
            .fetch_add(duration_as_nanos(now.elapsed()), Ordering::Relaxed);
    }

    /// Pushes one trace's spans into the journal, evicting the oldest
    /// spans past the stripe capacity.
    fn commit(&self, spans: Vec<SpanRecord>) {
        if spans.is_empty() {
            return;
        }
        let pushed = spans.len() as u64;
        let idx = stripe_index(&self.next_stripe);
        let mut evicted = 0u64;
        {
            let mut stripe = self.journal[idx].lock_recover();
            for s in spans {
                stripe.push_back(s);
            }
            while stripe.len() > self.stripe_cap {
                stripe.pop_front();
                evicted += 1;
            }
        }
        self.spans_recorded.fetch_add(pushed, Ordering::Relaxed);
        self.traces_committed.fetch_add(1, Ordering::Relaxed);
        if pushed >= evicted {
            self.journal_len
                .fetch_add(pushed - evicted, Ordering::Relaxed);
        } else {
            self.journal_len
                .fetch_sub(evicted - pushed, Ordering::Relaxed);
        }
    }

    /// Records a standalone single-span trace, bypassing the sampler —
    /// for background events with no surrounding request (e.g. a failed
    /// compaction discovered by a sweep). Returns the minted trace id.
    pub fn record_event(
        &self,
        name: &'static str,
        duration: Duration,
        session: Option<u64>,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> u64 {
        let trace = self.next_trace.fetch_add(1, Ordering::Relaxed) + 1;
        let span = self.next_span.fetch_add(1, Ordering::Relaxed) + 1;
        let end_nanos = nanos_since(self.epoch, Instant::now());
        let duration_nanos = duration_as_nanos(duration);
        self.profile_add(name, duration_nanos, duration_nanos);
        self.commit(vec![SpanRecord {
            trace,
            span,
            parent: None,
            name,
            start_nanos: end_nanos.saturating_sub(duration_nanos),
            duration_nanos,
            session,
            attrs,
        }]);
        trace
    }

    /// Every journaled span, across all stripes, in no particular order.
    #[must_use]
    pub fn snapshot_spans(&self) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        for stripe in &self.journal {
            let stripe = stripe.lock_recover();
            out.extend(stripe.iter().cloned());
        }
        out
    }

    /// The span tree for one trace, from the journal or (for evicted
    /// slow traces) the slow-request log. `None` when unknown.
    #[must_use]
    pub fn trace_tree(&self, id: u64) -> Option<TraceTree> {
        let spans: Vec<SpanRecord> = self
            .snapshot_spans()
            .into_iter()
            .filter(|s| s.trace == id)
            .collect();
        if let Some(tree) = build_tree(
            id,
            &spans,
            self.slow_threshold_nanos.load(Ordering::Relaxed),
        ) {
            return Some(tree);
        }
        let log = self.slow_log.lock_recover();
        log.iter().rev().find(|t| t.id == id).cloned()
    }

    /// Summaries of journaled traces (or the slow-request log, with
    /// [`TraceFilter::slow_only`]), newest first.
    #[must_use]
    pub fn list(&self, filter: &TraceFilter) -> Vec<TraceSummary> {
        let mut out: Vec<TraceSummary> = if filter.slow_only {
            let log = self.slow_log.lock_recover();
            log.iter().map(TraceTree::summary).collect()
        } else {
            let spans = self.snapshot_spans();
            let mut counts: std::collections::BTreeMap<u64, u64> =
                std::collections::BTreeMap::new();
            for s in &spans {
                *counts.entry(s.trace).or_insert(0) += 1;
            }
            spans
                .iter()
                .filter(|s| s.parent.is_none())
                .map(|root| TraceSummary {
                    id: root.trace,
                    kind: root_kind(root),
                    session: root.session,
                    start_nanos: root.start_nanos,
                    duration_nanos: root.duration_nanos,
                    spans: counts.get(&root.trace).copied().unwrap_or(1),
                    slow: root.duration_nanos >= self.slow_threshold_nanos.load(Ordering::Relaxed),
                })
                .collect()
        };
        out.retain(|t| {
            filter
                .min_duration_nanos
                .is_none_or(|m| t.duration_nanos >= m)
                && filter.kind.as_deref().is_none_or(|k| t.kind == k)
                && filter.session.is_none_or(|s| t.session == Some(s))
        });
        out.sort_by(|a, b| b.start_nanos.cmp(&a.start_nanos).then(b.id.cmp(&a.id)));
        if filter.limit > 0 {
            out.truncate(filter.limit as usize);
        }
        out
    }

    /// Reconstructs one session's dialogue from the journal: each traced
    /// request (kind and outcome) and each learner step (labelled with
    /// its phase), in time order.
    /// Best-effort — unsampled or evicted traces leave gaps.
    #[must_use]
    pub fn timeline(&self, session: u64) -> Vec<TimelineEvent> {
        let mut events = Vec::new();
        for s in self.snapshot_spans() {
            if s.session != Some(session) {
                continue;
            }
            if s.parent.is_none() {
                let outcome = attr_str(&s, "outcome").unwrap_or_default();
                events.push(TimelineEvent {
                    at_nanos: s.start_nanos,
                    kind: root_kind(&s),
                    detail: outcome,
                    trace: s.trace,
                    duration_nanos: s.duration_nanos,
                });
            } else if s.name == "learner.phase" {
                let phase = attr_str(&s, "phase").unwrap_or_default();
                let questions = attr_u64(&s, "questions").unwrap_or(0);
                events.push(TimelineEvent {
                    at_nanos: s.start_nanos,
                    kind: "phase".to_string(),
                    detail: format!("{phase}: {questions} questions"),
                    trace: s.trace,
                    duration_nanos: s.duration_nanos,
                });
            }
        }
        events.sort_by(|a, b| {
            a.at_nanos
                .cmp(&b.at_nanos)
                .then(a.trace.cmp(&b.trace))
                .then(a.kind.cmp(&b.kind))
        });
        events
    }

    /// Counters for `/metrics`.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            journal_spans: self.journal_len.load(Ordering::Relaxed),
            journal_capacity: (self.stripe_cap * STRIPES) as u64,
            spans_recorded: self.spans_recorded.load(Ordering::Relaxed),
            traces_committed: self.traces_committed.load(Ordering::Relaxed),
            traces_sampled_out: self.traces_sampled_out.load(Ordering::Relaxed),
            slow_traces: self.slow_traces.load(Ordering::Relaxed),
            overhead_nanos: self.overhead_nanos.load(Ordering::Relaxed),
        }
    }

    /// Charges a closed span to its layer's always-on profile cell.
    /// `self_nanos` is wall time net of already-charged children.
    fn profile_add(&self, name: &str, self_nanos: u64, total_nanos: u64) {
        let cell = &self.profile[layer_index(name)];
        cell.spans.fetch_add(1, Ordering::Relaxed);
        cell.self_nanos.fetch_add(self_nanos, Ordering::Relaxed);
        cell.total_nanos.fetch_add(total_nanos, Ordering::Relaxed);
    }

    /// The cumulative time-by-layer profile, one row per
    /// [`PROFILE_LAYERS`] entry (in that order), including empty layers.
    #[must_use]
    pub fn profile(&self) -> Vec<LayerProfile> {
        PROFILE_LAYERS
            .iter()
            .zip(&self.profile)
            .map(|(layer, cell)| LayerProfile {
                layer: (*layer).to_string(),
                spans: cell.spans.load(Ordering::Relaxed),
                self_nanos: cell.self_nanos.load(Ordering::Relaxed),
                total_nanos: cell.total_nanos.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Zeroes every profile cell. Not atomic across cells — spans closing
    /// concurrently may survive in some layers and not others.
    pub fn reset_profile(&self) {
        for cell in &self.profile {
            cell.spans.store(0, Ordering::Relaxed);
            cell.self_nanos.store(0, Ordering::Relaxed);
            cell.total_nanos.store(0, Ordering::Relaxed);
        }
    }

    /// Applies a runtime trace-config change. `None` leaves a knob as-is.
    /// Validates both knobs before touching either; returns the effective
    /// `(slow_threshold_ms, sample_every)` on success, or a message naming
    /// the out-of-bounds knob.
    ///
    /// # Errors
    /// When a knob is outside its documented bounds.
    pub fn configure(
        &self,
        slow_threshold_ms: Option<u64>,
        sample_every: Option<u64>,
    ) -> Result<(u64, u64), String> {
        if let Some(ms) = slow_threshold_ms {
            if !(MIN_SLOW_THRESHOLD_MS..=MAX_SLOW_THRESHOLD_MS).contains(&ms) {
                return Err(format!(
                    "slow_threshold_ms must be in {MIN_SLOW_THRESHOLD_MS}..={MAX_SLOW_THRESHOLD_MS}, got {ms}"
                ));
            }
        }
        if let Some(every) = sample_every {
            if every > MAX_SAMPLE_EVERY {
                return Err(format!(
                    "sample_every must be at most {MAX_SAMPLE_EVERY}, got {every}"
                ));
            }
        }
        if let Some(ms) = slow_threshold_ms {
            self.slow_threshold_nanos
                .store(ms.saturating_mul(1_000_000), Ordering::Relaxed);
        }
        if let Some(every) = sample_every {
            self.sample_every.store(every, Ordering::Relaxed);
        }
        Ok(self.current_config())
    }

    /// The effective `(slow_threshold_ms, sample_every)` pair.
    #[must_use]
    pub fn current_config(&self) -> (u64, u64) {
        (
            self.slow_threshold_nanos.load(Ordering::Relaxed) / 1_000_000,
            self.sample_every.load(Ordering::Relaxed),
        )
    }
}

/// Lower bound for the runtime-adjustable slow threshold (1 ms).
pub const MIN_SLOW_THRESHOLD_MS: u64 = 1;
/// Upper bound for the runtime-adjustable slow threshold (10 minutes).
pub const MAX_SLOW_THRESHOLD_MS: u64 = 600_000;
/// Upper bound for the head-sampling divisor (0 disables sampling).
pub const MAX_SAMPLE_EVERY: u64 = 1_000_000;

fn attr_str(s: &SpanRecord, key: &str) -> Option<String> {
    s.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Str(text) if *k == key => Some(text.to_string()),
        _ => None,
    })
}

fn attr_u64(s: &SpanRecord, key: &str) -> Option<u64> {
    s.attrs.iter().find_map(|(k, v)| match v {
        AttrValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

/// The message kind of a root span (its `kind` attribute, falling back
/// to the span name for standalone events).
fn root_kind(root: &SpanRecord) -> String {
    attr_str(root, "kind").unwrap_or_else(|| root.name.to_string())
}

// ---------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------

/// One node of a span tree, as served on the wire. Start offsets are
/// relative to the trace start (the earliest span — a retro-recorded
/// span can predate the request's own dispatch span).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// Layer name.
    pub name: String,
    /// Nanoseconds after the trace start.
    pub start_nanos: u64,
    /// Wall duration in nanoseconds.
    pub duration_nanos: u64,
    /// Session the span worked on, when known.
    pub session: Option<u64>,
    /// Typed attributes.
    pub attrs: Vec<(String, AttrValue)>,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

qhorn_json::wire! {
    struct SpanNode {
        name: String,
        start_nanos: u64,
        duration_nanos: u64,
        session: Option<u64> [skip],
        attrs: Vec<(String, AttrValue)> [with = map],
        children: Vec<SpanNode>,
    }
}

/// `[with = trace_id]`: trace ids travel as 16-digit hex strings.
mod trace_id {
    use qhorn_json::{FromJson, Json, JsonError, ToJson};

    pub(super) fn to_json(id: &u64) -> Json {
        Json::Str(super::format_id(*id))
    }

    pub(super) fn write_json(id: &u64, out: &mut String) {
        super::format_id(*id).write_json(out);
    }

    pub(super) fn from_json(j: &Json) -> Result<u64, JsonError> {
        let text = String::from_json(j)?;
        super::parse_id(&text).ok_or_else(|| JsonError::msg(format!("bad trace id `{text}`")))
    }
}

/// A full span tree for one trace, as served by `get_trace` and held by
/// the slow-request log.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceTree {
    /// Trace id.
    pub id: u64,
    /// Root message kind (e.g. `"answer"`).
    pub kind: String,
    /// Session the trace touched, when known.
    pub session: Option<u64>,
    /// Trace start, nanoseconds since the tracer epoch.
    pub start_nanos: u64,
    /// Root span duration in nanoseconds.
    pub duration_nanos: u64,
    /// Whether the trace crossed the slow threshold.
    pub slow: bool,
    /// The root span.
    pub root: SpanNode,
}

impl TraceTree {
    fn summary(&self) -> TraceSummary {
        TraceSummary {
            id: self.id,
            kind: self.kind.clone(),
            session: self.session,
            start_nanos: self.start_nanos,
            duration_nanos: self.duration_nanos,
            spans: count_nodes(&self.root),
            slow: self.slow,
        }
    }
}

fn count_nodes(n: &SpanNode) -> u64 {
    1 + n.children.iter().map(count_nodes).sum::<u64>()
}

qhorn_json::wire! {
    struct TraceTree {
        id: u64 [with = trace_id],
        kind: String,
        session: Option<u64> [skip],
        start_nanos: u64,
        duration_nanos: u64,
        slow: bool,
        root: SpanNode,
    }
}

/// One row of a `list_traces` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSummary {
    /// Trace id.
    pub id: u64,
    /// Root message kind.
    pub kind: String,
    /// Session the trace touched, when known.
    pub session: Option<u64>,
    /// Trace start, nanoseconds since the tracer epoch.
    pub start_nanos: u64,
    /// Root span duration in nanoseconds.
    pub duration_nanos: u64,
    /// Spans recorded for the trace.
    pub spans: u64,
    /// Whether the trace crossed the slow threshold.
    pub slow: bool,
}

qhorn_json::wire! {
    struct TraceSummary {
        id: u64 [with = trace_id],
        kind: String,
        session: Option<u64> [skip],
        start_nanos: u64,
        duration_nanos: u64,
        spans: u64,
        slow: bool,
    }
}

/// One event on a session timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineEvent {
    /// Event start, nanoseconds since the tracer epoch.
    pub at_nanos: u64,
    /// Event kind: a message kind (`"answer"`, `"correct"`, …) or
    /// `"phase"` for a learner step.
    pub kind: String,
    /// Human-readable detail (request outcome, or the step's phase with
    /// the questions it answered).
    pub detail: String,
    /// The trace the event came from.
    pub trace: u64,
    /// Event duration in nanoseconds.
    pub duration_nanos: u64,
}

qhorn_json::wire! {
    struct TimelineEvent {
        at_nanos: u64,
        kind: String,
        detail: String,
        trace: u64 [with = trace_id],
        duration_nanos: u64,
    }
}

/// Assembles a [`TraceTree`] from one trace's journal spans. Orphans
/// (spans whose parent was evicted) attach under the root; `None` when
/// `spans` is empty.
fn build_tree(id: u64, spans: &[SpanRecord], slow_threshold_nanos: u64) -> Option<TraceTree> {
    if spans.is_empty() {
        return None;
    }
    let trace_start = spans.iter().map(|s| s.start_nanos).min().unwrap_or(0);
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.start_nanos, s.span));
    // The root: the parentless span (ties: earliest); or, if it was
    // evicted, the earliest remaining span.
    let root = ordered
        .iter()
        .find(|s| s.parent.is_none())
        .copied()
        .or_else(|| ordered.first().copied())?;
    let known: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
    let mut children: std::collections::BTreeMap<u64, Vec<&SpanRecord>> =
        std::collections::BTreeMap::new();
    for s in &ordered {
        if s.span == root.span {
            continue;
        }
        let parent = match s.parent {
            Some(p) if known.contains(&p) && p != s.span => p,
            _ => root.span,
        };
        children.entry(parent).or_default().push(s);
    }
    let root_node = build_node(root, &children, trace_start, 0);
    Some(TraceTree {
        id,
        kind: root_kind(root),
        session: root.session,
        start_nanos: trace_start,
        duration_nanos: root.duration_nanos,
        slow: root.duration_nanos >= slow_threshold_nanos,
        root: root_node,
    })
}

/// Depth cap for tree assembly; journal spans form shallow trees, but a
/// cycle in corrupt parent links must not recurse forever.
const MAX_TREE_DEPTH: usize = 64;

fn build_node(
    s: &SpanRecord,
    children: &std::collections::BTreeMap<u64, Vec<&SpanRecord>>,
    trace_start: u64,
    depth: usize,
) -> SpanNode {
    let kids = if depth >= MAX_TREE_DEPTH {
        Vec::new()
    } else {
        children
            .get(&s.span)
            .map(|c| {
                c.iter()
                    .map(|k| build_node(k, children, trace_start, depth + 1))
                    .collect()
            })
            .unwrap_or_default()
    };
    SpanNode {
        name: s.name.to_string(),
        start_nanos: s.start_nanos.saturating_sub(trace_start),
        duration_nanos: s.duration_nanos,
        session: s.session,
        attrs: s
            .attrs
            .iter()
            .map(|(k, v)| ((*k).to_string(), v.clone()))
            .collect(),
        children: kids,
    }
}

// ---------------------------------------------------------------------
// Store observer bridge
// ---------------------------------------------------------------------

/// Forwards [`qhorn_store`] operation timings into the active trace as
/// retro spans. Without an active trace, appends and fsyncs are dropped
/// (too hot for standalone events) but compactions — rare and expensive —
/// are journaled as standalone events. Every operation — traced or not —
/// also feeds the store saturation telemetry.
pub(crate) struct TraceStoreObserver {
    tracer: Arc<Tracer>,
    telemetry: Arc<StoreTelemetry>,
}

impl TraceStoreObserver {
    pub(crate) fn new(tracer: Arc<Tracer>, telemetry: Arc<StoreTelemetry>) -> Self {
        TraceStoreObserver { tracer, telemetry }
    }
}

impl qhorn_store::StoreObserver for TraceStoreObserver {
    fn observe(&self, op: qhorn_store::StoreOp, duration: Duration, bytes: u64) {
        self.telemetry.observe(op, duration, bytes);
        let name = match op {
            qhorn_store::StoreOp::Append => "store.append",
            qhorn_store::StoreOp::Fsync => "store.fsync",
            qhorn_store::StoreOp::Compaction => "store.compact",
        };
        let attrs = vec![("bytes", AttrValue::U64(bytes))];
        if has_active() {
            retro_span(name, Instant::now(), duration, None, attrs);
        } else if matches!(op, qhorn_store::StoreOp::Compaction) {
            self.tracer.record_event(name, duration, None, attrs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(config: &TraceConfig) -> Arc<Tracer> {
        Arc::new(Tracer::new(config))
    }

    fn always_sample() -> TraceConfig {
        TraceConfig {
            sample_every: 1,
            ..TraceConfig::default()
        }
    }

    #[test]
    fn trace_ids_format_and_parse() {
        assert_eq!(format_id(0xab), "00000000000000ab");
        assert_eq!(parse_id("00000000000000ab"), Some(0xab));
        assert_eq!(parse_id("AB"), Some(0xab));
        assert_eq!(parse_id(""), None);
        assert_eq!(parse_id("xyz"), None);
        assert_eq!(parse_id("00000000000000000"), None); // 17 digits
        assert_eq!(parse_id(&format_id(u64::MAX)), Some(u64::MAX));
    }

    #[test]
    fn spans_nest_and_the_tree_reflects_it() {
        let t = tracer(&always_sample());
        let id;
        {
            let root = t.begin("dispatch", None);
            id = root.id();
            root.attr_str("kind", "answer");
            root.set_session(7);
            {
                let reg = span("registry");
                reg.set_session(7);
                reg.attr_u64("stripe_wait_nanos", 12);
                {
                    let step = span("learner.phase");
                    step.attr_str("phase", "classify_heads");
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
        let tree = t.trace_tree(id).expect("trace committed");
        assert_eq!(tree.kind, "answer");
        assert_eq!(tree.session, Some(7));
        assert_eq!(tree.root.name, "dispatch");
        assert_eq!(tree.root.children.len(), 1);
        let reg = &tree.root.children[0];
        assert_eq!(reg.name, "registry");
        assert_eq!(reg.children.len(), 1);
        assert_eq!(reg.children[0].name, "learner.phase");
        assert!(reg.children[0].duration_nanos > 0);
        assert!(tree.root.duration_nanos >= reg.duration_nanos);
        assert!(reg
            .attrs
            .iter()
            .any(|(k, v)| k == "stripe_wait_nanos" && *v == AttrValue::U64(12)));
    }

    #[test]
    fn retro_spans_attach_under_the_innermost_open_span() {
        let t = tracer(&always_sample());
        let id;
        {
            let root = t.begin("dispatch", None);
            id = root.id();
            let _reg = span("registry");
            retro_span(
                "store.append",
                Instant::now(),
                Duration::from_micros(30),
                Some(3),
                vec![("bytes", AttrValue::U64(64))],
            );
        }
        let tree = t.trace_tree(id).expect("committed");
        let reg = &tree.root.children[0];
        assert_eq!(reg.name, "registry");
        assert_eq!(reg.children.len(), 1);
        let append = &reg.children[0];
        assert_eq!(append.name, "store.append");
        assert_eq!(append.session, Some(3));
        assert_eq!(append.duration_nanos, 30_000);
    }

    #[test]
    fn head_sampling_keeps_one_in_n_and_explicit_ids_always() {
        let config = TraceConfig {
            sample_every: 4,
            ..TraceConfig::default()
        };
        let t = tracer(&config);
        for _ in 0..8 {
            let _g = t.begin("dispatch", None); // ids 1..=8; 4 and 8 kept
        }
        let stats = t.stats();
        assert_eq!(stats.traces_committed, 2);
        assert_eq!(stats.traces_sampled_out, 6);
        // An explicit id commits regardless of the sampler.
        {
            let _g = t.begin("dispatch", Some(0xdead));
        }
        assert_eq!(t.stats().traces_committed, 3);
        assert!(t.trace_tree(0xdead).is_some());
    }

    #[test]
    fn sampling_disabled_keeps_only_slow_or_explicit() {
        let config = TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        };
        let t = tracer(&config);
        for _ in 0..5 {
            let _g = t.begin("dispatch", None);
        }
        assert_eq!(t.stats().traces_committed, 0);
        assert_eq!(t.stats().traces_sampled_out, 5);
    }

    #[test]
    fn slow_traces_reach_the_slow_log_and_survive_eviction() {
        let config = TraceConfig {
            journal_spans: STRIPES, // one span per stripe: evicts fast
            slow_threshold: Duration::ZERO,
            sample_every: 0,
            slow_log_traces: 4,
        };
        let t = tracer(&config);
        let first;
        {
            let root = t.begin("dispatch", None);
            root.attr_str("kind", "stats");
            first = root.id();
        }
        // Flood the journal so the first trace's spans are evicted.
        for _ in 0..64 {
            let root = t.begin("dispatch", None);
            root.attr_str("kind", "stats");
        }
        assert!(t.stats().slow_traces >= 1);
        let slow = t.list(&TraceFilter {
            slow_only: true,
            ..TraceFilter::default()
        });
        assert!(!slow.is_empty());
        assert!(slow.len() <= 4);
        // The first trace fell out of both the bounded journal and the
        // bounded slow log, but recent ones resolve from the slow log.
        let recent = slow[0].id;
        assert!(t.trace_tree(recent).is_some());
        let _ = first;
    }

    #[test]
    fn journal_is_bounded_and_occupancy_gauge_is_exact() {
        let config = TraceConfig {
            journal_spans: 16,
            sample_every: 1,
            ..TraceConfig::default()
        };
        let t = tracer(&config);
        for _ in 0..100 {
            let _root = t.begin("dispatch", None);
            let _child = span("registry");
        }
        let held = t.snapshot_spans().len() as u64;
        let stats = t.stats();
        assert!(held <= stats.journal_capacity);
        assert_eq!(stats.journal_spans, held);
        assert_eq!(stats.spans_recorded, 200);
    }

    #[test]
    fn profile_partitions_self_time_across_layers() {
        let t = tracer(&always_sample());
        {
            let _root = t.begin("dispatch", None);
            {
                let _reg = span("registry");
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        let profile = t.profile();
        // One row per layer, in table order, empty layers included.
        assert_eq!(profile.len(), PROFILE_LAYERS.len());
        for (row, layer) in profile.iter().zip(PROFILE_LAYERS) {
            assert_eq!(row.layer, *layer);
        }
        let by_layer = |name: &str| {
            profile
                .iter()
                .find(|p| p.layer == name)
                .expect("layer row exists")
        };
        let dispatch = by_layer("dispatch");
        let registry = by_layer("registry");
        assert_eq!(dispatch.spans, 1);
        assert_eq!(registry.spans, 1);
        assert!(registry.total_nanos > 0);
        assert!(dispatch.total_nanos >= registry.total_nanos);
        // With a single nested child, the parent's self time is exactly
        // its total net of the child's, so per-layer self times sum to
        // the root's wall time — the ≥90 % accounting invariant.
        assert_eq!(
            dispatch.self_nanos,
            dispatch.total_nanos - registry.total_nanos
        );
        let self_sum: u64 = profile.iter().map(|p| p.self_nanos).sum();
        assert_eq!(self_sum, dispatch.total_nanos);
    }

    #[test]
    fn retro_spans_and_events_charge_their_layer() {
        let t = tracer(&always_sample());
        {
            let _root = t.begin("dispatch", None);
            retro_span(
                "learner.phase",
                Instant::now(),
                Duration::from_micros(30),
                None,
                vec![("phase", AttrValue::Str("matrix".into()))],
            );
        }
        t.record_event("store.append", Duration::from_micros(5), None, vec![]);
        let profile = t.profile();
        let learner = profile.iter().find(|p| p.layer == "learner").unwrap();
        assert_eq!(learner.spans, 1);
        assert_eq!(learner.total_nanos, 30_000);
        assert_eq!(learner.self_nanos, 30_000);
        let store = profile.iter().find(|p| p.layer == "store").unwrap();
        assert_eq!(store.spans, 1);
        assert_eq!(store.total_nanos, 5_000);
        // The dispatch root's self time nets out the retro-recorded
        // learner span it encloses.
        let dispatch = profile.iter().find(|p| p.layer == "dispatch").unwrap();
        assert_eq!(
            dispatch.self_nanos,
            dispatch.total_nanos.saturating_sub(30_000)
        );
        // A span with an unknown prefix lands in the catch-all layer.
        t.record_event("mystery.op", Duration::from_micros(1), None, vec![]);
        let other = t
            .profile()
            .into_iter()
            .find(|p| p.layer == "other")
            .unwrap();
        assert_eq!(other.spans, 1);
    }

    #[test]
    fn reset_profile_zeroes_every_cell() {
        let t = tracer(&always_sample());
        {
            let _root = t.begin("dispatch", None);
        }
        assert!(t.profile().iter().any(|p| p.spans > 0));
        t.reset_profile();
        for row in t.profile() {
            assert_eq!((row.spans, row.self_nanos, row.total_nanos), (0, 0, 0));
        }
    }

    #[test]
    fn configure_validates_both_knobs_before_applying_either() {
        let t = tracer(&always_sample());
        let initial = t.current_config();
        // Out-of-bounds values are rejected…
        assert!(t.configure(Some(0), None).is_err());
        assert!(t.configure(Some(MAX_SLOW_THRESHOLD_MS + 1), None).is_err());
        assert!(t.configure(None, Some(MAX_SAMPLE_EVERY + 1)).is_err());
        // …and a bad second knob must not apply a good first one.
        assert!(t.configure(Some(77), Some(MAX_SAMPLE_EVERY + 1)).is_err());
        assert_eq!(t.current_config(), initial);
        // Valid updates apply and echo the effective pair.
        assert_eq!(t.configure(Some(5), Some(3)), Ok((5, 3)));
        assert_eq!(t.current_config(), (5, 3));
        // Absent knobs keep their current values; 0 disables sampling.
        assert_eq!(t.configure(None, Some(0)), Ok((5, 0)));
        assert_eq!(t.current_config(), (5, 0));
    }

    #[test]
    fn list_filters_by_kind_session_and_duration() {
        let t = tracer(&always_sample());
        {
            let root = t.begin("dispatch", None);
            root.attr_str("kind", "answer");
            root.set_session(1);
        }
        {
            let root = t.begin("dispatch", None);
            root.attr_str("kind", "stats");
            root.set_session(2);
        }
        let all = t.list(&TraceFilter::default());
        assert_eq!(all.len(), 2);
        let answers = t.list(&TraceFilter {
            kind: Some("answer".into()),
            ..TraceFilter::default()
        });
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].session, Some(1));
        let s2 = t.list(&TraceFilter {
            session: Some(2),
            ..TraceFilter::default()
        });
        assert_eq!(s2.len(), 1);
        assert_eq!(s2[0].kind, "stats");
        let none = t.list(&TraceFilter {
            min_duration_nanos: Some(u64::MAX),
            ..TraceFilter::default()
        });
        assert!(none.is_empty());
        let limited = t.list(&TraceFilter {
            limit: 1,
            ..TraceFilter::default()
        });
        assert_eq!(limited.len(), 1);
    }

    #[test]
    fn timeline_orders_request_and_phase_events() {
        let t = tracer(&always_sample());
        {
            let root = t.begin("dispatch", None);
            root.attr_str("kind", "answer");
            root.attr_str("outcome", "question");
            root.set_session(9);
            retro_span(
                "learner.phase",
                Instant::now(),
                Duration::from_nanos(10),
                Some(9),
                vec![
                    ("phase", AttrValue::Str("classify heads".into())),
                    ("questions", AttrValue::U64(3)),
                ],
            );
        }
        {
            let root = t.begin("dispatch", None);
            root.attr_str("kind", "verify");
            root.attr_str("outcome", "verified");
            root.set_session(9);
        }
        let events = t.timeline(9);
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos));
        assert!(events
            .iter()
            .any(|e| e.kind == "phase" && e.detail.contains("3 questions")));
        assert!(events
            .iter()
            .any(|e| e.kind == "verify" && e.detail == "verified"));
        assert!(t.timeline(1234).is_empty());
    }

    #[test]
    fn standalone_events_bypass_the_sampler() {
        let config = TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        };
        let t = tracer(&config);
        let id = t.record_event(
            "store.compact_error",
            Duration::ZERO,
            None,
            vec![("error", AttrValue::Str("disk full".into()))],
        );
        let tree = t.trace_tree(id).expect("event journaled");
        assert_eq!(tree.kind, "store.compact_error");
        assert!(tree
            .root
            .attrs
            .iter()
            .any(|(k, v)| k == "error" && *v == AttrValue::Str("disk full".into())));
    }

    #[test]
    fn wire_types_round_trip_through_json() {
        let tree = TraceTree {
            id: 0xbeef,
            kind: "answer".into(),
            session: Some(4),
            start_nanos: 100,
            duration_nanos: 900,
            slow: true,
            root: SpanNode {
                name: "dispatch".into(),
                start_nanos: 0,
                duration_nanos: 900,
                session: Some(4),
                attrs: vec![
                    ("kind".into(), AttrValue::Str("answer".into())),
                    ("retried".into(), AttrValue::Bool(false)),
                ],
                children: vec![SpanNode {
                    name: "registry".into(),
                    start_nanos: 10,
                    duration_nanos: 700,
                    session: None,
                    attrs: vec![("stripe_wait_nanos".into(), AttrValue::U64(42))],
                    children: Vec::new(),
                }],
            },
        };
        let text = qhorn_json::to_string(&tree);
        let back: TraceTree = qhorn_json::from_str(&text).unwrap();
        assert_eq!(back, tree);

        let summary = TraceSummary {
            id: 1,
            kind: "stats".into(),
            session: None,
            start_nanos: 5,
            duration_nanos: 50,
            spans: 3,
            slow: false,
        };
        let text = qhorn_json::to_string(&summary);
        let back: TraceSummary = qhorn_json::from_str(&text).unwrap();
        assert_eq!(back, summary);

        let event = TimelineEvent {
            at_nanos: 7,
            kind: "phase".into(),
            detail: "classify heads: 3 questions".into(),
            trace: 0xcafe,
            duration_nanos: 11,
        };
        let text = qhorn_json::to_string(&event);
        let back: TimelineEvent = qhorn_json::from_str(&text).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn orphan_spans_attach_under_the_root() {
        let spans = vec![
            SpanRecord {
                trace: 1,
                span: 10,
                parent: None,
                name: "dispatch",
                start_nanos: 1000,
                duration_nanos: 500,
                session: None,
                attrs: vec![("kind", AttrValue::Str("answer".into()))],
            },
            SpanRecord {
                trace: 1,
                span: 11,
                parent: Some(999), // evicted parent
                name: "store.append",
                start_nanos: 1100,
                duration_nanos: 50,
                session: None,
                attrs: Vec::new(),
            },
        ];
        let tree = build_tree(1, &spans, u64::MAX).unwrap();
        assert_eq!(tree.root.children.len(), 1);
        assert_eq!(tree.root.children[0].name, "store.append");
        assert_eq!(tree.root.children[0].start_nanos, 100);
    }

    #[test]
    fn journal_survives_a_multithreaded_hammer() {
        let config = TraceConfig {
            journal_spans: 256,
            slow_threshold: Duration::from_secs(3600),
            sample_every: 1,
            slow_log_traces: 8,
        };
        let t = tracer(&config);
        let threads: u64 = 8;
        let per_thread: u64 = 200;
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for n in 0..per_thread {
                        let root = t.begin("dispatch", None);
                        root.attr_str("kind", "answer");
                        root.set_session(i);
                        {
                            let reg = span("registry");
                            reg.attr_u64("n", n);
                            let _step = span("learner.phase");
                            retro_span(
                                "store.append",
                                Instant::now(),
                                Duration::from_nanos(5),
                                None,
                                vec![("bytes", AttrValue::U64(64))],
                            );
                        }
                        if n % 16 == 0 {
                            let _ = t.list(&TraceFilter::default());
                            let _ = t.timeline(i);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("hammer thread panicked");
        }
        let stats = t.stats();
        assert_eq!(stats.traces_committed, threads * per_thread);
        assert_eq!(stats.spans_recorded, threads * per_thread * 4);
        assert!(stats.journal_spans <= stats.journal_capacity);
        assert_eq!(stats.journal_spans, t.snapshot_spans().len() as u64);
        // Every journaled trace still renders as a tree.
        for summary in t.list(&TraceFilter::default()) {
            assert!(t.trace_tree(summary.id).is_some());
        }
    }
}
