//! Prometheus exposition under fire: scrape `GET /metrics` repeatedly
//! while eight threads mutate the registry (answering questions and
//! running batch evaluations), parse every exposition, and assert the
//! invariants Prometheus relies on — histogram buckets cumulative within
//! a scrape, counters monotone across scrapes, and every line well
//! formed. Lock-striped counters make this genuinely concurrent: a torn
//! read would show up as a counter going backwards.

use qhorn_core::learn::{LearnStats, Phase};
use qhorn_core::{Obj, Query, Response};
use qhorn_engine::session::LearnerKind;
use qhorn_service::dispatch::dispatch;
use qhorn_service::log::LogStats;
use qhorn_service::metrics::{
    render_prometheus, scrape, HistogramSnapshot, Metrics, MetricsSnapshot, PoolSnapshot,
    PoolTelemetry, SaturationSnapshot, BUCKETS, MESSAGE_KINDS, PHASE_NAMES,
};
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{CreateSpec, Registry, RegistryConfig, RegistryStats, StepOutcome};
use qhorn_service::store::{FsyncPolicy, StoreConfig};
use qhorn_service::trace::{LayerProfile, TraceConfig, TraceStats, PROFILE_LAYERS};
use qhorn_service::{Client, HttpServer, Server};
use qhorn_store::StoreStats;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One parsed exposition line: metric name, label pairs, value.
type Row = (String, Vec<(String, String)>, f64);

/// A Prometheus text-format parser that checks what the renderer must
/// keep: every non-comment line is `name[{label="value",…}] number` with
/// a valid metric name; each family has exactly one `# TYPE` line, ahead
/// of its samples; a family's samples are contiguous; and no
/// `(name, labels)` pair appears twice. Each row comes with its
/// family's type.
fn parse_typed(text: &str) -> Vec<(Row, String)> {
    let mut rows = Vec::new();
    let mut typed = std::collections::BTreeSet::new();
    let mut seen = std::collections::BTreeSet::new();
    // The family the latest `# TYPE` line opened, and its type.
    let mut family: Option<(String, String)> = None;
    for line in text.lines() {
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            let (name, kind) = decl
                .split_once(' ')
                .unwrap_or_else(|| panic!("TYPE without a type: {line}"));
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "unknown type in {line}"
            );
            assert!(typed.insert(name.to_string()), "second TYPE for {name}");
            family = Some((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "bad comment: {line}");
            continue;
        }
        assert!(!line.trim().is_empty(), "blank line in exposition");
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value separator in {line}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line}"));
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
        // A sample belongs to the family the latest TYPE line opened, so
        // a family typed later, typed twice or interrupted fails here.
        let (fam, kind) = family
            .as_ref()
            .unwrap_or_else(|| panic!("sample before any TYPE: {line}"));
        let suffix = name.strip_prefix(fam.as_str());
        let member = match kind.as_str() {
            "histogram" => matches!(suffix, Some("_bucket" | "_sum" | "_count")),
            _ => suffix == Some(""),
        };
        assert!(member, "{name} is outside the family {fam} it follows");
        assert!(
            seen.insert((name.clone(), labels.clone())),
            "duplicate series {line}"
        );
        rows.push(((name, labels, value), kind.clone()));
    }
    rows
}

/// [`parse_typed`] without the family types.
fn parse_exposition(text: &str) -> Vec<Row> {
    parse_typed(text).into_iter().map(|(row, _)| row).collect()
}

fn label<'a>(labels: &'a [(String, String)], key: &str) -> Option<&'a str> {
    labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// The monotone counter series of one scrape, keyed by `name{labels}`.
fn counters(rows: &[Row]) -> Vec<(String, f64)> {
    rows.iter()
        .filter(|(name, _, _)| {
            name.ends_with("_total")
                || name.ends_with("_count")
                || name.ends_with("_sum")
                || name.ends_with("_bucket")
        })
        .map(|(name, labels, value)| {
            let mut key = name.clone();
            for (k, v) in labels {
                key.push_str(&format!("|{k}={v}"));
            }
            (key, *value)
        })
        .collect()
}

fn bucket_cumulativity(rows: &[Row]) {
    // For each message kind, the bucket series must be nondecreasing in
    // exposition order and end at the _count value.
    let mut kinds: Vec<&str> = rows
        .iter()
        .filter(|(name, _, _)| name == "qhorn_request_duration_seconds_bucket")
        .filter_map(|(_, labels, _)| label(labels, "message"))
        .collect();
    kinds.dedup();
    assert!(!kinds.is_empty());
    for kind in kinds {
        let buckets: Vec<f64> = rows
            .iter()
            .filter(|(name, labels, _)| {
                name == "qhorn_request_duration_seconds_bucket"
                    && label(labels, "message") == Some(kind)
            })
            .map(|(_, _, v)| *v)
            .collect();
        assert!(
            buckets.windows(2).all(|w| w[0] <= w[1]),
            "{kind} buckets not cumulative: {buckets:?}"
        );
        let count = rows
            .iter()
            .find(|(name, labels, _)| {
                name == "qhorn_request_duration_seconds_count"
                    && label(labels, "message") == Some(kind)
            })
            .map(|(_, _, v)| *v)
            .expect("missing _count");
        assert_eq!(*buckets.last().unwrap(), count, "{kind} +Inf != _count");
    }
}

#[test]
fn exposition_stays_consistent_under_concurrent_mutation() {
    let registry = Arc::new(Registry::open(RegistryConfig::default()).unwrap());
    let server = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 4).unwrap();
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    // Connect the scraper first, so it holds one of the four HTTP workers
    // before the keep-alive mutators queue up for the rest.
    let mut scraper = qhorn_service::http::HttpClient::connect(addr).expect("connect scraper");

    // Eight mutators: each opens its own session, answers to completion,
    // then hammers batch evaluation until told to stop.
    let goal: Query = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let mutators: Vec<_> = (0..8)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let goal = goal.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_http(addr).expect("connect");
                let (session, mut step) = client
                    .step(&Request::CreateSession {
                        dataset: "chocolates".into(),
                        size: 30,
                        learner: LearnerKind::Qhorn1,
                        max_questions: Some(10_000),
                    })
                    .expect("create");
                while let StepReply::Question { question, .. } = step {
                    let reply = client
                        .request(&Request::Answer {
                            session,
                            response: goal.eval(&question),
                        })
                        .expect("answer");
                    step = match reply {
                        Reply::Step { step, .. } => step,
                        other => panic!("unexpected reply {other:?}"),
                    };
                }
                assert!(matches!(step, StepReply::Learned { .. }), "{step:?}");
                while !stop.load(Ordering::Relaxed) {
                    let reply = client
                        .request(&Request::EvaluateBatch {
                            session: Some(session),
                            dataset: None,
                            size: 0,
                            query: None,
                            workers: 2,
                        })
                        .expect("evaluate");
                    assert!(matches!(reply, Reply::Batch { .. }), "{reply:?}");
                }
            })
        })
        .collect();

    // Scrape while the mutators run: every exposition parses, buckets are
    // cumulative within a scrape, counters never move backwards between
    // scrapes.
    let mut last: Vec<(String, f64)> = Vec::new();
    for i in 0..25 {
        let text = scraper.scrape_metrics().expect("scrape");
        let rows = parse_exposition(&text);
        bucket_cumulativity(&rows);
        let now = counters(&rows);
        for (key, value) in &last {
            let current = now.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
            if let Some(current) = current {
                assert!(
                    current >= *value,
                    "counter {key} went backwards: {value} -> {current} (scrape {i})"
                );
            }
        }
        last = now;
        std::thread::sleep(Duration::from_millis(20));
    }

    stop.store(true, Ordering::Relaxed);
    for m in mutators {
        m.join().expect("mutator panicked");
    }
    // One final scrape after the dust settles: answers from 8 sessions.
    let mut c = qhorn_service::http::HttpClient::connect(addr).unwrap();
    let rows = parse_exposition(&c.scrape_metrics().unwrap());
    let answers = rows
        .iter()
        .find(|(name, _, _)| name == "qhorn_answers_total")
        .map(|(_, _, v)| *v)
        .unwrap();
    assert!(answers >= 8.0, "answers_total {answers} too small");
    let batch_runs = rows
        .iter()
        .find(|(name, _, _)| name == "qhorn_batch_runs_total")
        .map(|(_, _, v)| *v)
        .unwrap();
    assert!(batch_runs >= 8.0, "batch_runs_total {batch_runs} too small");

    // The saturation/ops series ride the same exposition: the pool's
    // accounting must balance after the load stops, the registry's
    // stripe locks must have been crossed, and the uptime/profile
    // series must be live.
    let series = |name: &str, pool: Option<&str>| {
        rows.iter()
            .find(|(n, labels, _)| {
                n == name && pool.is_none_or(|p| label(labels, "pool") == Some(p))
            })
            .map(|(_, _, v)| *v)
            .unwrap_or_else(|| panic!("missing series {name}"))
    };
    assert_eq!(series("qhorn_pool_workers", Some("http")), 4.0);
    let busy = series("qhorn_pool_busy_workers", Some("http"));
    assert!((0.0..=4.0).contains(&busy), "busy {busy} out of bounds");
    // Our own in-flight scrape may be queued, but never more than the
    // lingering keep-alive connections.
    let depth = series("qhorn_pool_queue_depth", Some("http"));
    assert!((0.0..=16.0).contains(&depth), "depth {depth} out of bounds");
    let enqueued = series("qhorn_pool_enqueued_total", Some("http"));
    let dequeued = series("qhorn_pool_dequeued_total", Some("http"));
    assert!(enqueued >= 9.0, "enqueued {enqueued} too small");
    assert!(dequeued + depth >= enqueued, "queue accounting leaked");
    assert!(series("qhorn_registry_lock_waits_total", None) > 0.0);
    assert!(series("qhorn_uptime_seconds", None) >= 0.0);
    assert!(series("qhorn_process_start_time_seconds", None) > 0.0);
    let dispatch_spans = rows
        .iter()
        .find(|(n, labels, _)| {
            n == "qhorn_profile_spans_total" && label(labels, "layer") == Some("dispatch")
        })
        .map(|(_, _, v)| *v)
        .expect("missing dispatch profile series");
    assert!(dispatch_spans >= 8.0, "dispatch spans {dispatch_spans}");
    server.shutdown();
}

/// Many clients, few workers: with a single HTTP worker pinned by held
/// connections, the queue-depth and busy-worker gauges must go non-zero
/// (scraped through a second, unsaturated frontend on the same
/// registry) and drain back to zero when the load drops.
#[test]
fn queue_depth_rises_under_load_and_drains() {
    let registry = Arc::new(Registry::open(RegistryConfig::default()).unwrap());
    let loaded = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();
    let probe = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let mut scraper = qhorn_service::http::HttpClient::connect(probe.addr()).expect("connect");

    let gauge = |rows: &[Row], name: &str, pool: &str| {
        rows.iter()
            .find(|(n, labels, _)| n == name && label(labels, "pool") == Some(pool))
            .map(|(_, _, v)| *v)
            .unwrap_or_else(|| panic!("missing series {name}{{pool={pool}}}"))
    };

    // Eight held connections against one worker: one gets served, the
    // rest queue. Both HTTP pools export; the loaded one is "http" (the
    // probe registered second, as "http-2").
    let held: Vec<std::net::TcpStream> = (0..8)
        .map(|_| std::net::TcpStream::connect(loaded.addr()).expect("connect"))
        .collect();
    let mut saturated = false;
    for _ in 0..200 {
        let rows = parse_exposition(&scraper.scrape_metrics().expect("scrape"));
        let depth = gauge(&rows, "qhorn_pool_queue_depth", "http");
        let busy = gauge(&rows, "qhorn_pool_busy_workers", "http");
        assert!(busy <= 1.0, "1-worker pool reports busy {busy}");
        assert!(depth <= 8.0, "depth {depth} exceeds held connections");
        if depth > 0.0 && busy >= 1.0 {
            saturated = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(saturated, "queue depth never rose under held connections");

    drop(held);
    let mut drained = false;
    for _ in 0..200 {
        let rows = parse_exposition(&scraper.scrape_metrics().expect("scrape"));
        if gauge(&rows, "qhorn_pool_queue_depth", "http") == 0.0
            && gauge(&rows, "qhorn_pool_busy_workers", "http") == 0.0
        {
            // Fully drained: everything enqueued was dequeued and the
            // peak recorded the pile-up.
            let enq = gauge(&rows, "qhorn_pool_enqueued_total", "http");
            let deq = gauge(&rows, "qhorn_pool_dequeued_total", "http");
            assert_eq!(enq, deq, "queue accounting leaked");
            assert!(gauge(&rows, "qhorn_pool_queue_peak", "http") >= 1.0);
            drained = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(drained, "queue never drained after dropping connections");

    loaded.shutdown();
    probe.shutdown();
}

/// Pool telemetry counts every connection exactly. N single-request
/// connections on each frontend leave each pool with `enqueued ==
/// dequeued == N`, no busy worker and an empty queue, both in
/// `registry.health()` and in the exported `qhorn_pool_*{pool=…}`
/// series. The series come from the renderer `GET /metrics` serves,
/// called directly, so reading them adds no connection of its own.
#[test]
fn pool_telemetry_counts_every_connection_exactly() {
    const N: u64 = 12;
    let registry = Arc::new(Registry::open(RegistryConfig::default()).unwrap());
    let lines = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let http = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    for _ in 0..N {
        // One request per connection; dropping the client closes it.
        let reply = Client::connect(lines.addr())
            .and_then(|mut c| c.request(&Request::Stats))
            .expect("lines request");
        assert!(matches!(reply, Reply::Stats(_)), "{reply:?}");
        let reply = Client::connect_http(http.addr())
            .and_then(|mut c| c.request(&Request::Stats))
            .expect("http request");
        assert!(matches!(reply, Reply::Stats(_)), "{reply:?}");
    }
    // A worker goes idle once it sees its peer's close, just after the
    // client has its reply: wait for that, then compare exactly.
    let mut health = registry.health();
    for _ in 0..400 {
        if health.saturation.pools.iter().all(|p| p.busy == 0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
        health = registry.health();
    }
    let pools: Vec<(&str, u64, u64, u64, u64)> = health
        .saturation
        .pools
        .iter()
        .map(|p| {
            (
                p.name.as_str(),
                p.enqueued,
                p.dequeued,
                p.busy,
                p.queue_depth,
            )
        })
        .collect();
    assert_eq!(pools, [("lines", N, N, 0, 0), ("http", N, N, 0, 0)]);

    let rows = parse_exposition(&scrape(&registry));
    for pool in ["lines", "http"] {
        for (name, want) in [
            ("qhorn_pool_workers", 2),
            ("qhorn_pool_enqueued_total", N),
            ("qhorn_pool_dequeued_total", N),
            ("qhorn_pool_busy_workers", 0),
            ("qhorn_pool_queue_depth", 0),
        ] {
            let got: Vec<f64> = rows
                .iter()
                .filter(|(n, labels, _)| n == name && label(labels, "pool") == Some(pool))
                .map(|(_, _, v)| *v)
                .collect();
            assert_eq!(got, [want as f64], "{name}{{pool=\"{pool}\"}}");
        }
    }

    lines.shutdown();
    http.shutdown();
}

/// A stopped frontend unregisters its pool: after a server over a shared
/// registry shuts down, its pool is gone from `registry.health()` and
/// from a live server's `GET /metrics`, while the two live servers keep
/// the labels they registered under (`http`, `http-2`).
#[test]
fn a_stopped_frontend_leaves_health_and_metrics() {
    let registry = Arc::new(Registry::open(RegistryConfig::default()).unwrap());
    let first = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();
    let second = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();
    let lines = Server::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();
    let third = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();
    let names = |registry: &Registry| -> Vec<String> {
        registry
            .health()
            .saturation
            .pools
            .iter()
            .map(|p| p.name.clone())
            .collect()
    };
    assert_eq!(names(&registry), ["http", "http-2", "lines", "http-3"]);

    lines.shutdown();
    third.shutdown();
    assert_eq!(names(&registry), ["http", "http-2"]);
    let mut scraper = qhorn_service::http::HttpClient::connect(second.addr()).expect("connect");
    let rows = parse_exposition(&scraper.scrape_metrics().expect("scrape"));
    let mut labelled: Vec<&str> = rows
        .iter()
        .filter(|(n, _, _)| n == "qhorn_pool_workers")
        .filter_map(|(_, labels, _)| label(labels, "pool"))
        .collect();
    labelled.sort_unstable();
    assert_eq!(labelled, ["http", "http-2"]);
    drop(scraper);

    first.shutdown();
    second.shutdown();
    assert!(names(&registry).is_empty());
}

/// What the scripted history below expects each counter to read, kept
/// by the script itself as it goes.
#[derive(Debug, Default)]
struct Counts {
    created: u64,
    evicted: u64,
    restored: u64,
    completed: u64,
    failed: u64,
    answers: u64,
    live: u64,
    snapshots: u64,
    records: u64,
    /// Fsyncs besides the one per record under `FsyncPolicy::Always`:
    /// three per compaction (rotation, the snapshot's data, its
    /// directory).
    fsyncs: u64,
    closed: u64,
    /// Sweeps whose report says they compacted.
    compactions: u64,
    /// Sessions the latest compaction's snapshot holds.
    snapshot_sessions: u64,
    /// Records appended before the latest compaction began.
    last_compaction_seq: u64,
    /// Requests sent through the dispatcher: one trace each.
    dispatched: u64,
}

/// One exported series: what the script counted, what the snapshot the
/// series is read from holds, and what the exposition says.
#[derive(Debug)]
struct Check {
    name: &'static str,
    want: u64,
    in_snapshot: u64,
    exported: f64,
}

/// Pairs each `(series, want, snapshot value)` with the series' one
/// sample in `rows`.
fn checks(rows: &[Row], series: &[(&'static str, u64, u64)]) -> Vec<Check> {
    series
        .iter()
        .map(|&(name, want, in_snapshot)| {
            let values: Vec<f64> = rows
                .iter()
                .filter(|(n, _, _)| n == name)
                .map(|(_, _, v)| *v)
                .collect();
            assert_eq!(values.len(), 1, "{name}: {values:?}");
            Check {
                name,
                want,
                in_snapshot,
                exported: values[0],
            }
        })
        .collect()
}

/// Bytes across the store's segment files, as the file system reports.
fn segment_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "qlog"))
        .map(|path| std::fs::metadata(path).unwrap().len())
        .sum()
}

/// Answers honestly, at most `max` times, until the session stops
/// asking; counts every answer, completion and failure on the way.
fn drive(
    registry: &Registry,
    id: u64,
    mut outcome: StepOutcome,
    max: usize,
    counts: &mut Counts,
) -> StepOutcome {
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let mut answered = 0;
    loop {
        match outcome {
            StepOutcome::Question(q) if answered < max => {
                outcome = registry.answer(id, target.eval(&q.question)).unwrap();
                answered += 1;
                counts.answers += 1;
                counts.records += 1; // exchange_appended
            }
            StepOutcome::Learned { .. } => {
                counts.completed += 1;
                counts.records += 1; // query_learned
                return outcome;
            }
            StepOutcome::Failed { .. } => {
                counts.failed += 1;
                return outcome;
            }
            other => return other,
        }
    }
}

/// Counts a sweep's compaction: its snapshot holds every session not
/// closed, and covers every record appended before it.
fn count_compaction(counts: &mut Counts) {
    counts.compactions += 1;
    // No dataset or closed top id is carried forward, so the compaction
    // does not sync its re-appends; its marker record syncs below.
    counts.fsyncs += 3;
    counts.snapshot_sessions = counts.created - counts.closed;
    counts.last_compaction_seq = counts.records;
    counts.records += 1; // snapshot_written
}

/// One single-threaded history (create, answer, fail, batch-evaluate,
/// evict, restore, close, compact) over a store that fsyncs every
/// append and a tracer that keeps every trace; returns each checked
/// series with the script's count, its snapshot's value and the
/// exposition's.
fn scripted_history(dir: &std::path::Path) -> Vec<Check> {
    let registry = Arc::new(
        Registry::open(RegistryConfig {
            ttl: Duration::ZERO,
            store: Some(StoreConfig {
                fsync: FsyncPolicy::Always,
                // Every sweep compacts.
                compact_threshold_bytes: 1,
                ..StoreConfig::new(dir.to_path_buf())
            }),
            trace: TraceConfig {
                sample_every: 1,
                ..TraceConfig::default()
            },
            ..RegistryConfig::default()
        })
        .unwrap(),
    );
    let mut counts = Counts::default();
    let create = |counts: &mut Counts, learner, max_questions| {
        counts.created += 1;
        counts.live += 1;
        counts.records += 1; // session_created
        registry
            .create_session(CreateSpec {
                dataset: "chocolates".into(),
                size: 30,
                learner,
                max_questions,
            })
            .unwrap()
    };
    // A learns its query; B runs out of its two-question budget; C stops
    // two answers in.
    let (a, step) = create(&mut counts, LearnerKind::Qhorn1, None);
    let a_step = drive(&registry, a, step, usize::MAX, &mut counts);
    assert!(matches!(a_step, StepOutcome::Learned { .. }), "{a_step:?}");
    let (b, step) = create(&mut counts, LearnerKind::Qhorn1, Some(2));
    let b_step = drive(&registry, b, step, usize::MAX, &mut counts);
    assert!(matches!(b_step, StepOutcome::Failed { .. }), "{b_step:?}");
    let (c, step) = create(&mut counts, LearnerKind::RolePreserving, None);
    let c_step = drive(&registry, c, step, 2, &mut counts);
    assert!(matches!(c_step, StepOutcome::Question(_)), "{c_step:?}");

    // One batch evaluation through the dispatcher over 30 objects. The
    // script counts distinct signatures and answers with the naive
    // evaluator.
    let query = "all x1";
    let reply = dispatch(
        &registry,
        Request::EvaluateBatch {
            session: None,
            dataset: Some("chocolates".into()),
            size: 30,
            query: Some(query.into()),
            workers: 1,
        },
    );
    assert!(matches!(reply, Reply::Batch { .. }), "{reply:?}");
    counts.dispatched += 1;
    let goal: Query = qhorn_lang::parse_with_arity(query, 3).unwrap();
    let (data, _) = registry.dataset("chocolates", 30).unwrap();
    let objects: Vec<&Obj> = data.boolean().iter().map(|(_, o)| o).collect();
    assert_eq!(objects.len(), 30);
    let signatures = objects.iter().collect::<BTreeSet<_>>().len() as u64;
    let answers = objects
        .iter()
        .filter(|o| goal.eval(o) == Response::Answer)
        .count() as u64;

    // Before the first compaction, every appended byte is in a segment.
    let stats = registry.stats();
    let store = stats.store.expect("a store is configured");
    let on_disk = segment_bytes(dir);
    let mut observed = checks(
        &parse_exposition(&scrape(&registry)),
        &[
            (
                "qhorn_store_bytes_appended_total",
                on_disk,
                store.bytes_appended,
            ),
            ("qhorn_store_live_log_bytes", on_disk, store.live_log_bytes),
        ],
    );

    // Evict all three; the sweep compacts.
    std::thread::sleep(Duration::from_millis(1));
    let report = registry.sweep();
    assert_eq!((report.evicted, report.compacted), (3, true), "{report:?}");
    counts.evicted += 3;
    counts.live -= 3;
    counts.snapshots += 3;
    count_compaction(&mut counts);

    // Touching each restores it; none re-learns or re-fails.
    assert!(matches!(
        registry.next_question(b).unwrap(),
        StepOutcome::Failed { .. }
    ));
    assert!(registry.learned_query(a).is_ok());
    let c_step = registry.next_question(c).unwrap();
    counts.restored += 3;
    counts.live += 3;
    counts.snapshots -= 3;
    drive(&registry, c, c_step, 1, &mut counts);
    registry.close_session(a).unwrap();
    counts.live -= 1;
    counts.closed += 1;
    counts.records += 1; // session_closed

    // Evict the other two, compact again, close one while evicted.
    std::thread::sleep(Duration::from_millis(1));
    let report = registry.sweep();
    assert_eq!((report.evicted, report.compacted), (2, true), "{report:?}");
    counts.evicted += 2;
    counts.live -= 2;
    counts.snapshots += 2;
    count_compaction(&mut counts);
    registry.close_session(c).unwrap();
    counts.snapshots -= 1;
    counts.closed += 1;
    counts.records += 1; // session_closed

    let stats = registry.stats();
    let store = stats.store.expect("a store is configured");
    let trace = registry.tracer().stats();
    // Each dispatched request is one trace, and so is each compaction
    // outside a request; the journal holds every span recorded.
    let journaled = registry.tracer().snapshot_spans().len() as u64;
    observed.extend(checks(
        &parse_exposition(&scrape(&registry)),
        &[
            (
                "qhorn_sessions_created_total",
                counts.created,
                stats.created,
            ),
            (
                "qhorn_sessions_evicted_total",
                counts.evicted,
                stats.evicted,
            ),
            (
                "qhorn_sessions_restored_total",
                counts.restored,
                stats.restored,
            ),
            (
                "qhorn_sessions_completed_total",
                counts.completed,
                stats.completed,
            ),
            ("qhorn_sessions_failed_total", counts.failed, stats.failed),
            ("qhorn_sessions_live", counts.live, stats.live),
            ("qhorn_snapshots_held", counts.snapshots, stats.snapshots),
            ("qhorn_answers_total", counts.answers, stats.answers),
            ("qhorn_batch_runs_total", 1, stats.batch_runs),
            ("qhorn_batch_objects_total", 30, stats.batch_objects),
            (
                "qhorn_batch_signatures_total",
                signatures,
                stats.batch_signatures,
            ),
            ("qhorn_batch_answers_total", answers, stats.batch_answers),
            (
                "qhorn_store_records_appended_total",
                counts.records,
                store.records_appended,
            ),
            (
                "qhorn_store_fsyncs_total",
                counts.records + counts.fsyncs,
                store.fsyncs,
            ),
            (
                "qhorn_store_compactions_total",
                counts.compactions,
                store.compactions,
            ),
            (
                "qhorn_store_snapshot_sessions",
                counts.snapshot_sessions,
                store.snapshot_sessions,
            ),
            (
                "qhorn_store_last_compaction_seq",
                counts.last_compaction_seq,
                store.last_compaction_seq,
            ),
            (
                "qhorn_trace_traces_committed_total",
                counts.dispatched + counts.compactions,
                trace.traces_committed,
            ),
            (
                "qhorn_trace_spans_recorded_total",
                journaled,
                trace.spans_recorded,
            ),
        ],
    ));
    observed
}

/// Every counter the scripted history touches reads exactly what the
/// script counted, in its snapshot (`stats()`, the tracer's stats) and in
/// the exposition alike. The registry sweeps on its own once a second at
/// TTL zero, which would evict behind the script's back: a run that
/// outlasts that interval is discarded and run again.
#[test]
fn session_counters_match_a_scripted_history_exactly() {
    for attempt in 0..3 {
        let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("metrics-history-{}-{attempt}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let observed = scripted_history(&dir);
        let in_time = started.elapsed() < Duration::from_millis(900);
        let _ = std::fs::remove_dir_all(&dir);
        if !in_time {
            continue;
        }
        for check in &observed {
            let name = check.name;
            assert_eq!(
                check.in_snapshot, check.want,
                "{name} in its snapshot: {observed:#?}"
            );
            assert_eq!(
                check.exported, check.want as f64,
                "{name} exported: {observed:#?}"
            );
        }
        return;
    }
    panic!("three runs in a row outlasted the registry's sweep interval");
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
        uptime_seconds: 42,
        store: Some(StoreStats {
            records_appended: 9,
            snapshot_sessions: 3,
            append_nanos: 1_000,
            fsyncs: 2,
            fsync_nanos: 500,
            ..Default::default()
        }),
        ..Default::default()
    };
    let trace = TraceStats {
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
    let logs = LogStats {
        events: vec![("warn", 6)],
        suppressed: 2,
    };
    let saturation = SaturationSnapshot {
        pools: vec![pool.snapshot()],
        lock_waits: 13,
        lock_wait_nanos: 77_000,
    };
    let profile = [LayerProfile {
        layer: "dispatch".to_string(),
        spans: 9,
        self_nanos: 1_234,
        total_nanos: 5_678,
    }];
    let text = render_prometheus(
        &m.snapshot(),
        &stats,
        &trace,
        &saturation,
        &logs,
        &profile,
        1_700_000_000,
    );
    let rows = parse_exposition(&text);
    let has = |name: &str, value: f64| rows.iter().any(|(n, _, v)| n == name && *v == value);
    let has_labelled = |name: &str, key: &str, val: &str, value: f64| {
        rows.iter()
            .any(|(n, labels, v)| n == name && label(labels, key) == Some(val) && *v == value)
    };

    // Build info carries the crate version as a label, value 1.
    assert!(has_labelled(
        "qhorn_build_info",
        "version",
        env!("CARGO_PKG_VERSION"),
        1.0
    ));

    // Histogram: one bucket series per bound per message kind, with
    // cumulative counts ending at +Inf == _count.
    for kind in MESSAGE_KINDS {
        let buckets: Vec<f64> = rows
            .iter()
            .filter(|(name, labels, _)| {
                name == "qhorn_request_duration_seconds_bucket"
                    && label(labels, "message") == Some(kind)
            })
            .map(|(_, _, v)| *v)
            .collect();
        assert_eq!(buckets.len(), BUCKETS, "{kind}");
        assert!(
            rows.iter().any(|(name, labels, _)| {
                name == "qhorn_request_duration_seconds_sum"
                    && label(labels, "message") == Some(kind)
            }),
            "missing _sum for {kind}"
        );
    }
    bucket_cumulativity(&rows);
    // The recorded kind has the right total.
    assert!(has_labelled(
        "qhorn_request_duration_seconds_count",
        "message",
        "answer",
        5.0
    ));

    // Phase counters: one series per phase, with the recorded value.
    let phases = rows
        .iter()
        .filter(|(name, _, _)| name == "qhorn_learner_questions_total")
        .count();
    assert_eq!(phases, PHASE_NAMES.len());
    assert!(has_labelled(
        "qhorn_learner_questions_total",
        "phase",
        "universal_bodies",
        3.0
    ));

    // Registry + store counters surface.
    assert!(has("qhorn_sessions_created_total", 4.0));
    assert!(has("qhorn_store_records_appended_total", 9.0));
    assert!(has("qhorn_store_snapshot_sessions", 3.0));
    assert!(has("qhorn_store_last_compaction_seq", 0.0));
    assert!(has("qhorn_compaction_errors_total", 1.0));
    assert!(has("qhorn_batch_threads_used_total", 7.0));

    // Tracer health gauges surface.
    assert!(has("qhorn_trace_journal_spans", 12.0));
    assert!(has("qhorn_trace_journal_capacity", 8192.0));
    assert!(has("qhorn_trace_traces_committed_total", 5.0));
    assert!(has("qhorn_trace_overhead_nanos_total", 9000.0));

    // Uptime and start time near build info.
    assert!(has("qhorn_uptime_seconds", 42.0));
    assert!(has("qhorn_process_start_time_seconds", 1_700_000_000.0));

    // Saturation series: per-pool gauges carry the pool label.
    assert!(has_labelled("qhorn_pool_queue_depth", "pool", "lines", 1.0));
    assert!(has_labelled(
        "qhorn_pool_busy_workers",
        "pool",
        "lines",
        1.0
    ));
    assert!(has("qhorn_registry_lock_wait_nanos_total", 77_000.0));
    assert!(has("qhorn_store_append_nanos_total", 1_000.0));
    assert!(has("qhorn_store_fsyncs_total", 2.0));
    // The mailbox series went with the per-session threads.
    assert!(!rows
        .iter()
        .any(|(name, _, _)| name.starts_with("qhorn_driver_")));

    // Log counters: per-level series plus the suppression counter.
    assert!(has_labelled("qhorn_log_events_total", "level", "warn", 6.0));
    assert!(has("qhorn_log_suppressed_total", 2.0));

    // Always-on profile series carry the layer label.
    assert!(has_labelled(
        "qhorn_profile_self_nanos_total",
        "layer",
        "dispatch",
        1234.0
    ));
}

/// Renders fixed, fully populated inputs: every message kind and phase,
/// a store, two pools, every profile layer and every log level. Each
/// number is distinct, so a series that reads another's field shows.
fn fixed_exposition() -> String {
    let snapshot = MetricsSnapshot {
        histograms: MESSAGE_KINDS
            .iter()
            .zip(1u64..)
            .map(|(kind, i)| {
                let buckets: Vec<u64> = (0..BUCKETS as u64).map(|b| (i + b) % 3).collect();
                HistogramSnapshot {
                    message: (*kind).to_string(),
                    count: buckets.iter().sum(),
                    sum_nanos: 1_000 * i,
                    buckets,
                }
            })
            .collect(),
        phases: PHASE_NAMES
            .iter()
            .zip(11u64..)
            .map(|((_, name), n)| ((*name).to_string(), n))
            .collect(),
        learn_runs: 6,
    };
    let stats = RegistryStats {
        created: 101,
        live: 102,
        evicted: 103,
        restored: 104,
        completed: 105,
        failed: 106,
        answers: 107,
        batch_runs: 108,
        batch_objects: 109,
        batch_signatures: 110,
        batch_answers: 111,
        batch_threads_used: 112,
        snapshots: 113,
        compaction_errors: 114,
        uptime_seconds: 42,
        store: Some(StoreStats {
            records_appended: 201,
            bytes_appended: 202,
            segments: 203,
            live_log_bytes: 204,
            compactions: 205,
            last_compaction_seq: 206,
            recovered_sessions: 207,
            torn_truncations: 208,
            snapshot_sessions: 209,
            append_nanos: 602,
            fsyncs: 604,
            fsync_nanos: 605,
            compaction_nanos: 607,
        }),
    };
    let trace = TraceStats {
        journal_spans: 301,
        journal_capacity: 302,
        spans_recorded: 303,
        traces_committed: 304,
        traces_sampled_out: 305,
        slow_traces: 306,
        overhead_nanos: 307,
    };
    let pools = [("lines", 410), ("http", 420)]
        .into_iter()
        .map(|(name, n)| PoolSnapshot {
            name: name.to_string(),
            workers: n + 1,
            busy: n + 2,
            queue_depth: n + 3,
            queue_peak: n + 4,
            enqueued: n + 5,
            dequeued: n + 6,
            queue_wait_nanos: n + 7,
        })
        .collect();
    let logs = LogStats {
        events: vec![
            ("trace", 501),
            ("debug", 502),
            ("info", 503),
            ("warn", 504),
            ("error", 505),
        ],
        suppressed: 506,
    };
    let profile: Vec<LayerProfile> = PROFILE_LAYERS
        .iter()
        .zip((700u64..).step_by(10))
        .map(|(layer, n)| LayerProfile {
            layer: (*layer).to_string(),
            spans: n + 1,
            self_nanos: n + 2,
            total_nanos: n + 3,
        })
        .collect();
    let saturation = SaturationSnapshot {
        pools,
        lock_waits: 401,
        lock_wait_nanos: 402,
    };
    render_prometheus(
        &snapshot,
        &stats,
        &trace,
        &saturation,
        &logs,
        &profile,
        1_700_000_000,
    )
}

/// The exposition of [`fixed_exposition`]'s inputs, pinned sample by
/// sample against `exposition_golden.txt`: one `name{labels} TYPE value`
/// line per sample, sorted. HELP text and sample order are not pinned;
/// the family layout is checked by the parser.
#[test]
fn exposition_of_fixed_inputs_matches_the_golden_file() {
    let mut got: Vec<String> = parse_typed(&fixed_exposition())
        .into_iter()
        .map(|((name, labels, value), kind)| {
            let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            if labels.is_empty() {
                format!("{name} {kind} {value}")
            } else {
                format!("{name}{{{}}} {kind} {value}", labels.join(","))
            }
        })
        .collect();
    got.sort();
    let want: Vec<&str> = include_str!("exposition_golden.txt").lines().collect();
    let missing: Vec<&&str> = want
        .iter()
        .filter(|w| !got.iter().any(|g| g == *w))
        .collect();
    let extra: Vec<&String> = got.iter().filter(|g| !want.contains(&g.as_str())).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "exposition differs from the golden file\nmissing: {missing:#?}\nextra: {extra:#?}"
    );
    assert_eq!(got, want, "same lines, different multiplicity");
}
