//! End-to-end tracing over the wire: a traced `Answer` on a learning
//! session must yield a span tree that crosses every layer (dispatch →
//! registry → learner steps → store), the trace id must round
//! trip on both transport envelopes, timelines must reconstruct the
//! dialogue, and — crucially — tracing must not change reply bytes for
//! clients that never opt in.

use qhorn_core::Query;
use qhorn_engine::session::LearnerKind;
use qhorn_service::dispatch::dispatch_traced;
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{Registry, RegistryConfig};
use qhorn_service::store::{FsyncPolicy, StoreConfig};
use qhorn_service::trace::{self, SpanNode, TraceConfig, TraceFilter};
use qhorn_service::{Client, HttpServer, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("trace-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable registry so `Answer` requests cross the store layer too.
fn durable_config(dir: &std::path::Path) -> RegistryConfig {
    RegistryConfig {
        store: Some(StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::new(dir.to_path_buf())
        }),
        ..Default::default()
    }
}

fn target() -> Query {
    qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap()
}

fn create(client: &mut Client) -> (u64, StepReply) {
    client
        .step(&Request::CreateSession {
            dataset: "chocolates".into(),
            size: 30,
            learner: LearnerKind::Qhorn1,
            max_questions: Some(10_000),
        })
        .expect("create session")
}

/// Answers honestly with an explicit trace id per request until the
/// session learns; returns the trace id of the final (learning) answer.
fn drive_to_learned_traced(client: &mut Client, session: u64, mut step: StepReply) -> String {
    let goal = target();
    let mut counter = 0x5000u64;
    loop {
        let StepReply::Question { question, .. } = step else {
            panic!("expected a question, got {step:?}");
        };
        counter += 1;
        let id = format!("{counter:016x}");
        let (reply, echoed) = client
            .request_traced(
                &Request::Answer {
                    session,
                    response: goal.eval(&question),
                },
                Some(&id),
            )
            .expect("answer");
        assert_eq!(echoed.as_deref(), Some(id.as_str()), "trace id round trip");
        step = match reply {
            Reply::Step { step, .. } => step,
            other => panic!("expected a step, got {other:?}"),
        };
        if matches!(step, StepReply::Learned { .. }) {
            return id;
        }
    }
}

fn flatten<'a>(node: &'a SpanNode, out: &mut Vec<&'a SpanNode>) {
    out.push(node);
    for child in &node.children {
        flatten(child, out);
    }
}

/// The acceptance path: a traced `Answer` that finishes learning yields
/// a span tree crossing every layer, with non-zero durations.
#[test]
fn traced_answer_crosses_every_layer() {
    let dir = temp_dir("layers");
    let registry = Arc::new(Registry::open(durable_config(&dir)).unwrap());
    let server = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let (session, step) = create(&mut client);
    let final_trace = drive_to_learned_traced(&mut client, session, step);

    let (reply, _) = client
        .request_traced(
            &Request::GetTrace {
                id: final_trace.clone(),
            },
            None,
        )
        .unwrap();
    let Reply::Trace(tree) = reply else {
        panic!("expected a trace, got {reply:?}");
    };
    assert_eq!(trace::format_id(tree.id), final_trace);
    assert_eq!(tree.kind, "answer");
    assert_eq!(tree.session, Some(session));
    assert_eq!(tree.root.name, "dispatch");
    assert!(tree.duration_nanos > 0);

    let mut spans = Vec::new();
    flatten(&tree.root, &mut spans);
    for required in ["dispatch", "registry", "learner.phase", "store.append"] {
        let found: Vec<_> = spans.iter().filter(|s| s.name == required).collect();
        assert!(!found.is_empty(), "span `{required}` missing from tree");
        assert!(
            found.iter().all(|s| s.duration_nanos > 0),
            "span `{required}` has a zero duration"
        );
    }
    // The learner phases carry their question counts.
    let phase_questions: u64 = spans
        .iter()
        .filter(|s| s.name == "learner.phase")
        .filter_map(|s| {
            s.attrs.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("questions", trace::AttrValue::U64(n)) => Some(*n),
                _ => None,
            })
        })
        .sum();
    assert!(phase_questions > 0, "phases lost their question counts");
    // The registry span observed the session's state transition.
    let registry_span = spans.iter().find(|s| s.name == "registry").unwrap();
    assert!(registry_span
        .attrs
        .iter()
        .any(|(k, _)| k == "state_before" || k == "state_after"));

    server.shutdown();
}

/// Every child span lies within its parent, and siblings do not overlap.
fn assert_nested(node: &SpanNode) {
    let end = |n: &SpanNode| n.start_nanos + n.duration_nanos;
    for child in &node.children {
        assert!(
            child.start_nanos >= node.start_nanos && end(child) <= end(node),
            "`{}` [{}, {}] outside its parent `{}` [{}, {}]",
            child.name,
            child.start_nanos,
            end(child),
            node.name,
            node.start_nanos,
            end(node)
        );
        assert_nested(child);
    }
    for pair in node.children.windows(2) {
        assert!(
            end(&pair[0]) <= pair[1].start_nanos,
            "siblings `{}` (ends {}) and `{}` (starts {}) under `{}` overlap",
            pair[0].name,
            end(&pair[0]),
            pair[1].name,
            pair[1].start_nanos,
            node.name
        );
    }
}

/// Store spans nest like every other: over a store that fsyncs every
/// append, each traced request's tree has each child within its parent
/// and disjoint siblings. A `store.append` span covers its fsync.
#[test]
fn traced_spans_nest_within_their_parents() {
    let dir = temp_dir("nesting");
    let registry = Arc::new(Registry::open(durable_config(&dir)).unwrap());
    let server = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (session, step) = create(&mut client);
    drive_to_learned_traced(&mut client, session, step);

    let traces = registry.tracer().list(&TraceFilter::default());
    assert!(traces.len() > 1, "{traces:?}");
    let mut appends = 0;
    for summary in traces {
        let tree = registry.tracer().trace_tree(summary.id).unwrap();
        let mut spans = Vec::new();
        flatten(&tree.root, &mut spans);
        appends += spans.iter().filter(|s| s.name == "store.append").count();
        assert_nested(&tree.root);
    }
    assert!(appends > 0, "no store.append span was traced");
    server.shutdown();
}

/// The timeline reconstructs the dialogue: request events in time order
/// interleaved with learner-phase events, all tied to the session.
#[test]
fn timeline_reconstructs_the_dialogue() {
    let dir = temp_dir("timeline");
    let registry = Arc::new(Registry::open(durable_config(&dir)).unwrap());
    let server = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let (session, step) = create(&mut client);
    drive_to_learned_traced(&mut client, session, step);

    let reply = client
        .request(&Request::SessionTimeline { session })
        .unwrap();
    let Reply::Timeline {
        session: echoed,
        events,
        resources,
    } = reply
    else {
        panic!("expected a timeline, got {reply:?}");
    };
    assert_eq!(echoed, session);
    assert!(!events.is_empty());
    // The live session's accounting rides along with its timeline.
    let resources = resources.expect("live session must attach resources");
    assert_eq!(resources.session, session);
    assert!(resources.questions > 0, "{resources:?}");
    assert!(resources.transcript_bytes > 0, "{resources:?}");
    assert!(
        events.windows(2).all(|w| w[0].at_nanos <= w[1].at_nanos),
        "timeline out of order"
    );
    let answers = events.iter().filter(|e| e.kind == "answer").count();
    let phases = events.iter().filter(|e| e.kind == "phase").count();
    assert!(answers > 0, "no answer events on the timeline");
    assert!(phases > 0, "no learner-phase events on the timeline");
    assert!(
        events
            .iter()
            .any(|e| e.kind == "answer" && e.detail == "learned"),
        "the learning answer is missing"
    );

    server.shutdown();
}

/// Listing filters: kind, session, and minimum duration all narrow the
/// result, and the limit caps it.
#[test]
fn trace_listing_filters_narrow_correctly() {
    let dir = temp_dir("filters");
    let registry = Arc::new(Registry::open(durable_config(&dir)).unwrap());
    let server = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let (session, step) = create(&mut client);
    drive_to_learned_traced(&mut client, session, step);

    let list = |req: Request, client: &mut Client| -> Vec<_> {
        match client.request(&req).unwrap() {
            Reply::Traces { traces } => traces,
            other => panic!("expected traces, got {other:?}"),
        }
    };
    let answers = list(
        Request::ListTraces {
            min_duration_nanos: None,
            kind: Some("answer".into()),
            session: Some(session),
            slow_only: false,
            limit: 0,
        },
        &mut client,
    );
    assert!(!answers.is_empty());
    assert!(answers
        .iter()
        .all(|t| t.kind == "answer" && t.session == Some(session)));
    // Newest first.
    assert!(answers
        .windows(2)
        .all(|w| w[0].start_nanos >= w[1].start_nanos));

    let capped = list(
        Request::ListTraces {
            min_duration_nanos: None,
            kind: None,
            session: None,
            slow_only: false,
            limit: 2,
        },
        &mut client,
    );
    assert!(capped.len() <= 2);

    let nothing = list(
        Request::ListTraces {
            min_duration_nanos: Some(u64::MAX),
            kind: None,
            session: None,
            slow_only: false,
            limit: 0,
        },
        &mut client,
    );
    assert!(nothing.is_empty());

    server.shutdown();
}

/// Replies to clients that never send the envelope field are bytewise
/// free of tracing; opting in adds exactly the `trace_id` field.
#[test]
fn tracing_never_changes_reply_bytes_for_untraced_clients() {
    let registry = Arc::new(Registry::open(RegistryConfig::default()).unwrap());
    let server = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut read_line = {
        let mut reader = stream.try_clone().unwrap();
        let mut buf = Vec::new();
        move || -> String {
            loop {
                if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let rest = buf.split_off(pos + 1);
                    let mut line = std::mem::replace(&mut buf, rest);
                    line.pop();
                    return String::from_utf8(line).unwrap();
                }
                let mut chunk = [0u8; 4096];
                let n = reader.read(&mut chunk).unwrap();
                assert!(n > 0, "server closed");
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    };

    stream.write_all(b"{\"type\":\"stats\"}\n").unwrap();
    let untraced = read_line();
    assert!(
        !untraced.contains("trace_id"),
        "unsolicited trace id in {untraced}"
    );

    stream
        .write_all(b"{\"type\":\"stats\",\"trace_id\":\"00000000000000aa\"}\n")
        .unwrap();
    let traced = read_line();
    assert!(
        traced.contains("\"trace_id\":\"00000000000000aa\""),
        "echo missing in {traced}"
    );
    // Stripping the envelope field recovers the untraced bytes exactly.
    let stripped = traced.replace(",\"trace_id\":\"00000000000000aa\"", "");
    assert_eq!(stripped, untraced);

    // The explicit id is journaled (it bypasses the sampler).
    let tree = registry.tracer().trace_tree(0xaa).expect("journaled");
    assert_eq!(tree.kind, "stats");

    server.shutdown();
}

/// The HTTP gateway: header round trip, path-parameter routes for span
/// trees and timelines, query-string filters, and error mapping.
#[test]
fn http_exposes_traces_on_path_param_routes() {
    let dir = temp_dir("http");
    let registry = Arc::new(Registry::open(durable_config(&dir)).unwrap());
    let server = HttpServer::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let mut client = Client::connect_http(server.addr()).unwrap();

    let (session, step) = create(&mut client);
    let final_trace = drive_to_learned_traced(&mut client, session, step);

    // Every HTTP response carries the trace id header, even unsolicited.
    let (_, minted) = client.request_traced(&Request::Stats, None).unwrap();
    let minted = minted.expect("header always set");
    assert_ne!(minted, final_trace);

    let raw_get = |path: &str| -> (u16, String, String) {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: q\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut bytes = Vec::new();
        s.read_to_end(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").expect("no header terminator");
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .unwrap();
        let trace_header = head
            .lines()
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("x-qhorn-trace-id"))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default();
        (status, trace_header, body.to_string())
    };

    // GET /v1/trace/{id} serves the span tree.
    let (status, header, body) = raw_get(&format!("/v1/trace/{final_trace}"));
    assert_eq!(status, 200);
    assert!(!header.is_empty(), "response without X-Qhorn-Trace-Id");
    let Reply::Trace(tree) = qhorn_json::from_str::<Reply>(&body).unwrap() else {
        panic!("expected a trace body: {body}");
    };
    assert_eq!(trace::format_id(tree.id), final_trace);
    assert_eq!(tree.root.name, "dispatch");

    // GET /v1/session/{id}/timeline reconstructs the dialogue.
    let (status, _, body) = raw_get(&format!("/v1/session/{session}/timeline"));
    assert_eq!(status, 200);
    let Reply::Timeline { events, .. } = qhorn_json::from_str::<Reply>(&body).unwrap() else {
        panic!("expected a timeline body: {body}");
    };
    assert!(!events.is_empty());

    // GET /v1/traces with query filters.
    let (status, _, body) = raw_get(&format!("/v1/traces?kind=answer&session={session}&limit=3"));
    assert_eq!(status, 200);
    let Reply::Traces { traces } = qhorn_json::from_str::<Reply>(&body).unwrap() else {
        panic!("expected traces body: {body}");
    };
    assert!(!traces.is_empty() && traces.len() <= 3);
    assert!(traces.iter().all(|t| t.kind == "answer"));

    // Error mapping: malformed id → 400, unknown id → 404.
    let (status, _, _) = raw_get("/v1/trace/not-hex");
    assert_eq!(status, 400);
    let (status, _, _) = raw_get("/v1/trace/fffffffffffffff0");
    assert_eq!(status, 404);
    let (status, _, _) = raw_get("/v1/traces?bogus=1");
    assert_eq!(status, 400);

    server.shutdown();
}

/// A zero slow threshold routes every trace to the slow-request log,
/// where `slow_only` listings and `get_trace` can find it even without
/// sampling.
#[test]
fn slow_requests_reach_the_slow_log() {
    let registry = Arc::new(
        Registry::open(RegistryConfig {
            trace: TraceConfig {
                slow_threshold: Duration::ZERO,
                sample_every: 0,
                ..TraceConfig::default()
            },
            ..Default::default()
        })
        .unwrap(),
    );
    let (reply, id) = dispatch_traced(&registry, Request::ListDatasets, None);
    assert!(matches!(reply, Reply::Datasets { .. }));

    let slow = registry.tracer().list(&TraceFilter {
        slow_only: true,
        ..Default::default()
    });
    assert!(slow.iter().any(|t| t.id == id && t.slow));
    let tree = registry.tracer().trace_tree(id).expect("in the slow log");
    assert!(tree.slow);
    assert_eq!(tree.kind, "list_datasets");
}
