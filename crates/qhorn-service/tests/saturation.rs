//! Saturation observability end to end: drive a deliberately undersized
//! HTTP worker pool into queueing, watch `health` report `degraded`/
//! `saturated` with non-zero queue-depth and lock-wait signals through an
//! unsaturated probe transport, and watch it return to `ok` once the load
//! drops. Also pins the always-on profile's accounting invariant (per-
//! layer self times cover ≥ 90 % of traced dispatch wall time) and the
//! runtime trace-config endpoint's validation on both transports.

use qhorn_core::Query;
use qhorn_engine::session::LearnerKind;
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{Registry, RegistryConfig};
use qhorn_service::{Client, HttpServer, Server};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Polls `f` for up to five seconds.
fn eventually(mut f: impl FnMut() -> bool, what: &str) {
    for _ in 0..200 {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

fn health(client: &mut Client) -> qhorn_service::registry::HealthReport {
    match client.request(&Request::Health).expect("health request") {
        Reply::Health(report) => report,
        other => panic!("unexpected reply {other:?}"),
    }
}

/// Answers a session's questions against `goal` until it learns.
fn drive_to_learned(client: &mut Client, session: u64, mut step: StepReply, goal: &Query) {
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
}

/// The conformance-style saturation scenario: a 1-worker HTTP server
/// under 8 idle-held connections must report `saturated` (full busy set
/// plus queueing) through a TCP probe on the same registry, then recover
/// to `ok` when the connections drop.
#[test]
fn health_saturates_under_load_and_recovers() {
    let registry = Arc::new(Registry::open(RegistryConfig::default()).unwrap());
    let loaded = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();
    let probe_server = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let mut probe = Client::connect(probe_server.addr()).expect("probe connect");

    // A little session traffic first, so the registry's stripe-lock
    // telemetry has something to report.
    let (session, _) = probe
        .step(&Request::CreateSession {
            dataset: "chocolates".into(),
            size: 20,
            learner: LearnerKind::Qhorn1,
            max_questions: Some(10_000),
        })
        .expect("create");
    let _ = probe
        .request(&Request::NextQuestion { session })
        .expect("next");

    let baseline = health(&mut probe);
    assert_eq!(baseline.verdict, "ok", "{baseline:?}");
    assert!(baseline.saturation.lock_waits > 0, "{baseline:?}");

    // Hold 8 connections against the single worker: one occupies it, the
    // rest sit in the accept queue.
    let held: Vec<TcpStream> = (0..8)
        .map(|_| TcpStream::connect(loaded.addr()).expect("connect"))
        .collect();
    let mut observed = None;
    eventually(
        || {
            let report = health(&mut probe);
            let pool = report
                .saturation
                .pools
                .iter()
                .find(|p| p.name == "http")
                .expect("http pool registered")
                .clone();
            let saturated =
                report.verdict == "saturated" && pool.queue_depth > 0 && pool.busy >= pool.workers;
            if saturated {
                observed = Some((report, pool));
            }
            saturated
        },
        "health to report saturated",
    );
    let (report, pool) = observed.unwrap();
    assert_eq!(pool.workers, 1);
    assert!(pool.queue_peak >= pool.queue_depth, "{pool:?}");
    assert!(report.saturation.lock_waits > 0, "{report:?}");

    // Dropping the connections drains the queue and the verdict recovers.
    drop(held);
    eventually(
        || {
            let report = health(&mut probe);
            report.verdict == "ok"
                && report
                    .saturation
                    .pools
                    .iter()
                    .all(|p| p.queue_depth == 0 && p.busy < p.workers.max(2))
        },
        "health to recover to ok",
    );

    // The queue telemetry balances once drained: everything enqueued was
    // eventually dequeued, and wait time was actually measured.
    let report = health(&mut probe);
    let pool = report
        .saturation
        .pools
        .iter()
        .find(|p| p.name == "http")
        .unwrap();
    assert_eq!(pool.enqueued, pool.dequeued, "{pool:?}");
    assert!(pool.enqueued >= 8, "{pool:?}");
    assert!(pool.queue_wait_nanos > 0, "{pool:?}");

    loaded.shutdown();
    probe_server.shutdown();
}

/// The always-on profile must account for 90–105 % of traced dispatch
/// wall time: per-layer self times partition each span's duration, so
/// their sum covers the dispatch roots' total, and with the learner
/// timed live inside each request nothing is counted twice.
#[test]
fn profile_accounts_for_at_least_ninety_percent_of_dispatch_time() {
    let registry = Arc::new(Registry::open(RegistryConfig::default()).unwrap());
    let server = Server::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();
    let mut client = Client::connect(server.addr()).expect("connect");

    // Zero the accumulators, then drive a full dialogue plus a batch
    // evaluation through the wire so every layer sees traffic.
    let reply = client
        .request(&Request::Profile { reset: true })
        .expect("reset profile");
    assert!(matches!(reply, Reply::Profile { .. }), "{reply:?}");

    let goal: Query = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let (session, step) = client
        .step(&Request::CreateSession {
            dataset: "chocolates".into(),
            size: 20,
            learner: LearnerKind::Qhorn1,
            max_questions: Some(10_000),
        })
        .expect("create");
    drive_to_learned(&mut client, session, step, &goal);
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

    let layers = match client
        .request(&Request::Profile { reset: false })
        .expect("read profile")
    {
        Reply::Profile { layers, .. } => layers,
        other => panic!("unexpected reply {other:?}"),
    };
    let by_layer = |name: &str| layers.iter().find(|l| l.layer == name).expect("layer row");
    let dispatch = by_layer("dispatch");
    assert!(dispatch.spans >= 3, "{layers:?}"); // create + answers + batch
    assert!(dispatch.total_nanos > 0, "{layers:?}");
    // Layer attribution: the session dialogue crossed the registry and
    // learner layers; the batch run crossed the kernel.
    for name in ["registry", "learner", "kernel"] {
        assert!(by_layer(name).total_nanos > 0, "{name} empty: {layers:?}");
    }
    // Self times partition the dispatched wall time: they neither fall
    // short of it nor exceed it.
    let self_sum: u64 = layers.iter().map(|l| l.self_nanos).sum();
    let ratio = self_sum as f64 / dispatch.total_nanos as f64;
    assert!(
        (0.9..=1.05).contains(&ratio),
        "profile accounts for {self_sum} of {} dispatch nanos ({ratio:.3}): {layers:?}",
        dispatch.total_nanos
    );
}

/// `set_trace_config` applies in-bounds knobs (echoing the effective
/// pair), rejects out-of-bounds ones on both transports, and maps onto a
/// 422 on HTTP.
#[test]
fn trace_config_validates_on_both_transports() {
    let registry = Arc::new(Registry::open(RegistryConfig::default()).unwrap());
    let lines = Server::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();
    let http = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();

    let mut tcp = Client::connect(lines.addr()).expect("connect tcp");
    let reply = tcp
        .request(&Request::SetTraceConfig {
            slow_threshold_ms: Some(250),
            sample_every: Some(5),
        })
        .expect("set config");
    assert_eq!(
        reply,
        Reply::TraceConfig {
            slow_threshold_ms: 250,
            sample_every: 5,
        }
    );
    // A partial update keeps the other knob.
    let reply = tcp
        .request(&Request::SetTraceConfig {
            slow_threshold_ms: None,
            sample_every: Some(0),
        })
        .expect("set config");
    assert_eq!(
        reply,
        Reply::TraceConfig {
            slow_threshold_ms: 250,
            sample_every: 0,
        }
    );
    // Nonsense is rejected without applying anything (JSON-lines wraps
    // the failure as an `error` reply)…
    let reply = tcp
        .request(&Request::SetTraceConfig {
            slow_threshold_ms: Some(0),
            sample_every: Some(7),
        })
        .expect("send bad config");
    assert!(
        matches!(&reply, Reply::Error { message } if message.contains("slow_threshold_ms")),
        "{reply:?}"
    );
    let mut web = Client::connect_http(http.addr()).expect("connect http");
    let reply = web
        .request(&Request::SetTraceConfig {
            slow_threshold_ms: None,
            sample_every: Some(2_000_000),
        })
        .expect("send bad config");
    assert!(
        matches!(&reply, Reply::Error { message } if message.contains("sample_every")),
        "{reply:?}"
    );
    // …and the config is untouched.
    let reply = tcp
        .request(&Request::SetTraceConfig {
            slow_threshold_ms: None,
            sample_every: None,
        })
        .expect("read config");
    assert_eq!(
        reply,
        Reply::TraceConfig {
            slow_threshold_ms: 250,
            sample_every: 0,
        }
    );

    // The raw HTTP status for an out-of-bounds config is 422. Drop the
    // keep-alive client first: it would otherwise pin the single worker.
    drop(web);
    use std::io::{Read, Write};
    let mut raw = TcpStream::connect(http.addr()).unwrap();
    let body = r#"{"slow_threshold_ms":0}"#;
    let head = format!(
        "POST /v1/trace/config HTTP/1.1\r\nHost: qhorn\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    raw.write_all(head.as_bytes()).unwrap();
    raw.write_all(body.as_bytes()).unwrap();
    let mut response = String::new();
    raw.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 422 "),
        "{}",
        response.lines().next().unwrap_or("")
    );

    lines.shutdown();
    http.shutdown();
}

/// Per-session resource accounting: a full dialogue leaves non-zero
/// question and transcript counters, a batch run charges kernel time,
/// and both transports agree on the reply.
#[test]
fn session_resources_account_a_full_dialogue() {
    let registry = Arc::new(Registry::open(RegistryConfig::default()).unwrap());
    let lines = Server::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();
    let http = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 1).unwrap();
    let mut client = Client::connect(lines.addr()).expect("connect");

    let goal: Query = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let (session, step) = client
        .step(&Request::CreateSession {
            dataset: "chocolates".into(),
            size: 20,
            learner: LearnerKind::Qhorn1,
            max_questions: Some(10_000),
        })
        .expect("create");
    drive_to_learned(&mut client, session, step, &goal);
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

    let resources = match client
        .request(&Request::SessionResources { session })
        .expect("resources")
    {
        Reply::SessionResources(r) => r,
        other => panic!("unexpected reply {other:?}"),
    };
    assert_eq!(resources.session, session);
    assert_eq!(resources.state, "done");
    assert!(resources.questions > 0, "{resources:?}");
    assert!(resources.transcript_bytes > 0, "{resources:?}");
    assert!(resources.transcript_cache_bytes > 0, "{resources:?}");
    assert!(resources.eval_nanos > 0, "{resources:?}");
    let phase_sum: u64 = resources.questions_by_phase.iter().map(|(_, n)| n).sum();
    assert!(phase_sum > 0, "{resources:?}");
    // Storeless registry: no durable bytes to account.
    assert_eq!(resources.store_bytes, 0, "{resources:?}");

    // Both transports serve the same accounting (modulo the last-touch
    // bump the first read performed).
    let mut web = Client::connect_http(http.addr()).expect("connect http");
    let again = match web
        .request(&Request::SessionResources { session })
        .expect("resources via http")
    {
        Reply::SessionResources(r) => r,
        other => panic!("unexpected reply {other:?}"),
    };
    assert_eq!(again, resources);

    // Unknown sessions are a clean protocol error.
    let reply = client
        .request(&Request::SessionResources { session: 999 })
        .expect("bad session");
    assert!(matches!(reply, Reply::Error { .. }), "{reply:?}");

    lines.shutdown();
    http.shutdown();
}
