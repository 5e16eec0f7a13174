//! Structured, leveled, rate-limited JSON-lines logging.
//!
//! Every operational event the service emits goes through here: one JSON
//! object per line, written to stderr (or a test-capture sink), shaped
//!
//! ```json
//! {"ts_ms":1754650000123,"level":"info","target":"registry","msg":"session created","trace_id":"00000000000000a1","session":7,"dataset":"chocolates"}
//! ```
//!
//! * **Correlated** — when the emitting thread has an active request
//!   trace (see [`crate::trace`]), the line carries its `trace_id`, so a
//!   log line links to the span tree at `GET /v1/trace/{id}`.
//! * **Leveled, runtime-adjustable** — a global default level plus
//!   per-target overrides, both adjustable while the server runs
//!   ([`Logger::set_default_level`], [`Logger::set_target_level`]); the `QHORN_LOG`
//!   environment variable seeds the default (`trace` … `error`, default
//!   `warn` so embedding tests stay quiet).
//! * **Rate limited** — a token bucket caps sustained emission
//!   ([`Logger::BURST`] events burst, [`Logger::REFILL_PER_SEC`]/s
//!   sustained); suppressed lines are counted, never silently lost from
//!   the accounting ([`LogStats::suppressed`], exported as
//!   `qhorn_log_suppressed_total`).
//!
//! The check for a disabled level is one atomic load (plus a lock only
//! when per-target overrides exist), so disabled log sites cost nanoseconds.

use crate::trace;
use qhorn_json::wire::map;
use qhorn_json::Json;
use qhorn_lockdep::{LockClass, OrderedMutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Log severity, ordered `Trace < Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Fine-grained internals (per-connection, per-message).
    Trace = 0,
    /// Lifecycle details useful when diagnosing (thread start/stop).
    Debug = 1,
    /// Normal operational events (session created, server listening).
    Info = 2,
    /// Unexpected but handled conditions (request errors, degradation).
    Warn = 3,
    /// Failures that lose work or data (compaction errors).
    Error = 4,
}

/// How many distinct levels exist (array sizing).
pub const LEVELS: usize = 5;

impl Level {
    /// Stable lowercase wire/display name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Trace => "trace",
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses a level name (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "trace" => Some(Level::Trace),
            "debug" => Some(Level::Debug),
            "info" => Some(Level::Info),
            "warn" | "warning" => Some(Level::Warn),
            "error" => Some(Level::Error),
            _ => None,
        }
    }

    /// Maps a `repr(u8)` value back to its level (out-of-range clamps to
    /// `Error`).
    #[must_use]
    pub fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Trace,
            1 => Level::Debug,
            2 => Level::Info,
            3 => Level::Warn,
            _ => Level::Error,
        }
    }
}

/// Where rendered lines go.
enum Sink {
    /// One line per event on standard error.
    Stderr,
    /// Collected in memory (tests).
    Capture(Arc<OrderedMutex<Vec<String>>>),
}

/// Token-bucket state plus the sink, behind one mutex — taken only for
/// lines that passed the level check.
struct Inner {
    sink: Sink,
    /// Milli-tokens, so sub-second refill accrues without floats.
    tokens_milli: u64,
    last_refill: Instant,
}

/// Cumulative emission counters, for Prometheus export.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// `(level name, lines emitted)`, indexed by [`Level`]
    /// (`events[Level::Info as usize]`).
    pub events: Vec<(&'static str, u64)>,
    /// Lines dropped by the rate limiter.
    pub suppressed: u64,
}

qhorn_json::wire! {
    encode struct LogStats {
        events: Vec<(&'static str, u64)> [with = map],
        suppressed: u64,
    }
}

/// A structured logger instance. Most code uses the process-global one
/// via the free functions ([`info`], [`warn`], …); tests construct their
/// own with a capture sink.
pub struct Logger {
    default_level: AtomicU8,
    /// `(target, level)` overrides; outranks the default for that target.
    overrides: OrderedMutex<Vec<(String, Level)>>,
    /// Fast-path hint so the common no-override case skips the lock.
    has_overrides: AtomicBool,
    inner: OrderedMutex<Inner>,
    emitted: [AtomicU64; LEVELS],
    suppressed: AtomicU64,
}

impl Logger {
    /// Token-bucket burst capacity, in lines.
    pub const BURST: u64 = 512;
    /// Sustained emission rate, lines per second.
    pub const REFILL_PER_SEC: u64 = 128;

    /// A stderr logger whose default level comes from `QHORN_LOG`
    /// (falling back to `warn`).
    #[must_use]
    pub fn new() -> Logger {
        let level = std::env::var("QHORN_LOG")
            .ok()
            .and_then(|v| Level::parse(&v))
            .unwrap_or(Level::Warn);
        Logger::with_sink(Sink::Stderr, level)
    }

    /// A logger that collects rendered lines in memory, for tests.
    /// Returns the logger and the shared line buffer.
    #[must_use]
    pub fn capturing(level: Level) -> (Logger, Arc<OrderedMutex<Vec<String>>>) {
        let lines = Arc::new(OrderedMutex::new(LockClass::new("log.capture"), Vec::new()));
        let logger = Logger::with_sink(Sink::Capture(Arc::clone(&lines)), level);
        (logger, lines)
    }

    fn with_sink(sink: Sink, level: Level) -> Logger {
        Logger {
            default_level: AtomicU8::new(level as u8),
            overrides: OrderedMutex::new(LockClass::new("log.overrides"), Vec::new()),
            has_overrides: AtomicBool::new(false),
            inner: OrderedMutex::new(
                LockClass::new("log.sink"),
                Inner {
                    sink,
                    tokens_milli: Logger::BURST * 1000,
                    last_refill: Instant::now(),
                },
            ),
            emitted: Default::default(),
            suppressed: AtomicU64::new(0),
        }
    }

    /// Sets the default level for targets without an override.
    pub fn set_default_level(&self, level: Level) {
        self.default_level.store(level as u8, Ordering::Relaxed);
    }

    /// Sets (or with `None` clears) a per-target level override.
    pub fn set_target_level(&self, target: &str, level: Option<Level>) {
        let mut overrides = self.overrides.lock_recover();
        overrides.retain(|(t, _)| t != target);
        if let Some(level) = level {
            overrides.push((target.to_string(), level));
        }
        self.has_overrides
            .store(!overrides.is_empty(), Ordering::Relaxed);
    }

    /// Whether a line at `level` for `target` would be emitted (ignoring
    /// the rate limiter). The hot path for disabled sites.
    #[must_use]
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        if self.has_overrides.load(Ordering::Relaxed) {
            let overrides = self.overrides.lock_recover();
            if let Some((_, min)) = overrides.iter().find(|(t, _)| t == target) {
                return level >= *min;
            }
        }
        level as u8 >= self.default_level.load(Ordering::Relaxed)
    }

    /// Emits one structured line (level and rate limits permitting).
    /// `fields` append to the standard envelope in order; an active
    /// request trace on this thread contributes `trace_id` automatically.
    pub fn log(&self, level: Level, target: &str, msg: &str, fields: &[(&str, Json)]) {
        if !self.enabled(level, target) {
            return;
        }
        if !self.take_token() {
            self.suppressed.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let line = render_line(level, target, msg, fields);
        self.emitted[level as usize].fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock_recover();
        match &mut inner.sink {
            // The stderr sink IS the logger's terminal output — the one
            // legitimate direct print in library code.
            Sink::Stderr => eprintln!("{line}"), // qhorn-lint: allow(print-in-lib)
            Sink::Capture(lines) => lines.lock_recover().push(line),
        }
    }

    /// Cumulative counters (emitted per level, suppressed).
    #[must_use]
    pub fn stats(&self) -> LogStats {
        LogStats {
            events: self
                .emitted
                .iter()
                .enumerate()
                .map(|(i, n)| (Level::from_u8(i as u8).as_str(), n.load(Ordering::Relaxed)))
                .collect(),
            suppressed: self.suppressed.load(Ordering::Relaxed),
        }
    }

    /// Refills by elapsed time, then takes one token if available.
    fn take_token(&self) -> bool {
        let mut inner = self.inner.lock_recover();
        let elapsed = inner.last_refill.elapsed();
        inner.last_refill = Instant::now();
        let refill = (elapsed.as_nanos() as u64).saturating_mul(Logger::REFILL_PER_SEC) / 1_000_000;
        inner.tokens_milli = (inner.tokens_milli + refill).min(Logger::BURST * 1000);
        if inner.tokens_milli >= 1000 {
            inner.tokens_milli -= 1000;
            true
        } else {
            false
        }
    }
}

impl Default for Logger {
    fn default() -> Self {
        Logger::new()
    }
}

/// Renders the JSON line: standard envelope, then caller fields.
fn render_line(level: Level, target: &str, msg: &str, fields: &[(&str, Json)]) -> String {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut pairs: Vec<(String, Json)> = vec![
        ("ts_ms".into(), Json::U64(ts_ms)),
        ("level".into(), Json::Str(level.as_str().into())),
        ("target".into(), Json::Str(target.into())),
        ("msg".into(), Json::Str(msg.into())),
    ];
    if let Some(id) = trace::current_trace_id() {
        pairs.push(("trace_id".into(), Json::Str(trace::format_id(id))));
    }
    for (k, v) in fields {
        pairs.push(((*k).into(), v.clone()));
    }
    Json::Obj(pairs).to_compact()
}

/// The process-global logger behind the free functions.
pub fn global() -> &'static Logger {
    static GLOBAL: OnceLock<Logger> = OnceLock::new();
    GLOBAL.get_or_init(Logger::new)
}

/// Emits at [`Level::Trace`] on the global logger.
pub fn trace_event(target: &str, msg: &str, fields: &[(&str, Json)]) {
    global().log(Level::Trace, target, msg, fields);
}

/// Emits at [`Level::Debug`] on the global logger.
pub fn debug(target: &str, msg: &str, fields: &[(&str, Json)]) {
    global().log(Level::Debug, target, msg, fields);
}

/// Emits at [`Level::Info`] on the global logger.
pub fn info(target: &str, msg: &str, fields: &[(&str, Json)]) {
    global().log(Level::Info, target, msg, fields);
}

/// Emits at [`Level::Warn`] on the global logger.
pub fn warn(target: &str, msg: &str, fields: &[(&str, Json)]) {
    global().log(Level::Warn, target, msg, fields);
}

/// Emits at [`Level::Error`] on the global logger.
pub fn error(target: &str, msg: &str, fields: &[(&str, Json)]) {
    global().log(Level::Error, target, msg, fields);
}

/// The global logger's cumulative counters (Prometheus export).
#[must_use]
pub fn stats() -> LogStats {
    global().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhorn_json::Json;

    fn parse(line: &str) -> Json {
        qhorn_json::from_str::<Json>(line).expect("log line parses as JSON")
    }

    fn field<'a>(j: &'a Json, key: &str) -> &'a Json {
        match j {
            Json::Obj(pairs) => pairs
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing field {key} in {j:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn lines_are_json_with_the_standard_envelope() {
        let (logger, lines) = Logger::capturing(Level::Info);
        logger.log(
            Level::Info,
            "registry",
            "session created",
            &[("session", Json::U64(7))],
        );
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 1);
        let j = parse(&lines[0]);
        assert_eq!(field(&j, "level"), &Json::Str("info".into()));
        assert_eq!(field(&j, "target"), &Json::Str("registry".into()));
        assert_eq!(field(&j, "msg"), &Json::Str("session created".into()));
        assert_eq!(field(&j, "session").as_u64(), Some(7));
        assert!(field(&j, "ts_ms").as_u64().is_some_and(|ms| ms > 0));
    }

    #[test]
    fn levels_order_and_round_trip_names() {
        assert!(Level::Trace < Level::Debug && Level::Warn < Level::Error);
        for level in [
            Level::Trace,
            Level::Debug,
            Level::Info,
            Level::Warn,
            Level::Error,
        ] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
            assert_eq!(Level::from_u8(level as u8), level);
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("loud"), None);
    }

    #[test]
    fn default_level_filters_and_is_runtime_adjustable() {
        let (logger, lines) = Logger::capturing(Level::Warn);
        logger.log(Level::Info, "server", "quiet", &[]);
        assert_eq!(lines.lock().unwrap().len(), 0);
        logger.set_default_level(Level::Debug);
        logger.log(Level::Info, "server", "now heard", &[]);
        assert_eq!(lines.lock().unwrap().len(), 1);
    }

    #[test]
    fn target_overrides_outrank_the_default_both_ways() {
        let (logger, lines) = Logger::capturing(Level::Warn);
        logger.set_target_level("driver", Some(Level::Debug));
        logger.log(Level::Debug, "driver", "verbose target", &[]);
        logger.log(Level::Debug, "server", "still quiet", &[]);
        assert_eq!(lines.lock().unwrap().len(), 1);
        // Override can also silence a target below the default.
        logger.set_target_level("driver", Some(Level::Error));
        logger.log(Level::Warn, "driver", "silenced", &[]);
        assert_eq!(lines.lock().unwrap().len(), 1);
        // Clearing restores the default.
        logger.set_target_level("driver", None);
        logger.log(Level::Warn, "driver", "default again", &[]);
        assert_eq!(lines.lock().unwrap().len(), 2);
    }

    #[test]
    fn rate_limit_suppresses_and_counts_the_overflow() {
        let (logger, lines) = Logger::capturing(Level::Info);
        let total = Logger::BURST + 50;
        for i in 0..total {
            logger.log(Level::Info, "flood", "line", &[("i", Json::U64(i))]);
        }
        let stats = logger.stats();
        let emitted = lines.lock().unwrap().len() as u64;
        // The bucket refills a little while the loop runs, so bound both
        // sides instead of pinning exact counts.
        assert!(emitted >= Logger::BURST, "emitted {emitted}");
        assert!(stats.suppressed > 0, "nothing suppressed");
        assert_eq!(
            stats.events[Level::Info as usize].1 + stats.suppressed,
            total
        );
    }

    #[test]
    fn active_traces_stamp_their_id_on_the_line() {
        let tracer = std::sync::Arc::new(crate::trace::Tracer::new(
            &crate::trace::TraceConfig::default(),
        ));
        let (logger, lines) = Logger::capturing(Level::Info);
        let root = tracer.begin("dispatch", Some(0xabcd));
        logger.log(Level::Info, "server", "traced", &[]);
        drop(root);
        logger.log(Level::Info, "server", "untraced", &[]);
        let lines = lines.lock().unwrap();
        let traced = parse(&lines[0]);
        assert_eq!(
            field(&traced, "trace_id"),
            &Json::Str(crate::trace::format_id(0xabcd))
        );
        let untraced = parse(&lines[1]);
        assert!(
            matches!(&untraced, Json::Obj(pairs) if pairs.iter().all(|(k, _)| k != "trace_id"))
        );
    }
}
