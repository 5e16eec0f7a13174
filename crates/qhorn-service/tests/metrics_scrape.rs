//! Prometheus exposition under fire: scrape `GET /metrics` repeatedly
//! while eight threads mutate the registry (answering questions and
//! running batch evaluations), parse every exposition, and assert the
//! invariants Prometheus relies on — histogram buckets cumulative within
//! a scrape, counters monotone across scrapes, and every line well
//! formed. Lock-striped counters make this genuinely concurrent: a torn
//! read would show up as a counter going backwards.

use qhorn_core::Query;
use qhorn_engine::session::LearnerKind;
use qhorn_service::metrics::render_prometheus;
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{Registry, RegistryConfig};
use qhorn_service::{Client, HttpServer, Server};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One parsed exposition line: metric name, label pairs, value.
type Row = (String, Vec<(String, String)>, f64);

/// A minimal Prometheus text-format parser: every non-comment line must
/// be `name[{label="value",…}] number`.
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
        rows.push((name, labels, value));
    }
    rows
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

    let rows = parse_exposition(&render_prometheus(
        &registry.metrics().snapshot(),
        &registry.stats(),
        &registry.tracer().stats(),
        &registry.ops_snapshot(),
    ));
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
