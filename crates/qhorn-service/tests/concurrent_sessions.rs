//! End-to-end concurrency: one server, many interleaved user dialogues
//! over the TCP JSON-lines protocol.
//!
//! Each simulated user owns a hidden target query and labels every
//! realized membership question by evaluating the target — exactly the
//! paper's model user (§2.1.2) — over a real socket. One user is noisy
//! (flips the first answer) and recovers through `Correct` + replay (§5).

use qhorn_core::query::equiv::equivalent;
use qhorn_core::{Query, Response};
use qhorn_engine::session::LearnerKind;
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{Registry, RegistryConfig};
use qhorn_service::{Client, Server};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn start_server(workers: usize) -> Server {
    let registry = Arc::new(
        Registry::open(RegistryConfig {
            shards: 8,
            ttl: Duration::from_secs(300),
            ..RegistryConfig::default()
        })
        .expect("open registry"),
    );
    Server::start("127.0.0.1:0", registry, workers).expect("bind server")
}

struct UserSpec {
    dataset: &'static str,
    learner: LearnerKind,
    target: &'static str,
    noisy: bool,
}

const USERS: &[UserSpec] = &[
    UserSpec {
        dataset: "chocolates",
        learner: LearnerKind::Qhorn1,
        target: "all x1; some x2 x3",
        noisy: false,
    },
    UserSpec {
        dataset: "chocolates",
        learner: LearnerKind::Qhorn1,
        target: "all x1 x2 -> x3",
        noisy: false,
    },
    UserSpec {
        dataset: "chocolates",
        learner: LearnerKind::RolePreserving,
        target: "all x1; some x2 x3",
        noisy: false,
    },
    UserSpec {
        dataset: "cellars",
        learner: LearnerKind::Qhorn1,
        target: "some x1 x2 x3",
        noisy: false,
    },
    UserSpec {
        dataset: "cellars",
        learner: LearnerKind::RolePreserving,
        target: "all x2 -> x1; some x3",
        noisy: false,
    },
    UserSpec {
        dataset: "chocolates",
        learner: LearnerKind::Qhorn1,
        target: "some x1; some x2; all x3",
        noisy: false,
    },
    UserSpec {
        dataset: "cellars",
        learner: LearnerKind::Qhorn1,
        target: "all x1 -> x2; some x3",
        noisy: false,
    },
    UserSpec {
        dataset: "chocolates",
        learner: LearnerKind::RolePreserving,
        target: "all x1 -> x3; some x2",
        noisy: false,
    },
    UserSpec {
        dataset: "chocolates",
        learner: LearnerKind::RolePreserving,
        target: "all x1; some x2 x3",
        noisy: true,
    },
];

/// Runs one full dialogue: create → answer* → (correct → answer*) →
/// verify → export; returns the learned query.
fn run_user(addr: SocketAddr, spec: &UserSpec) -> Query {
    let target = qhorn_lang::parse_with_arity(spec.target, 3).expect("target parses");
    let mut client = Client::connect(addr).expect("connect");

    let learner = match spec.learner {
        LearnerKind::Qhorn1 => "qhorn1",
        LearnerKind::RolePreserving => "role_preserving",
    };
    let create = qhorn_json::from_str::<Request>(&format!(
        r#"{{"type":"create_session","dataset":"{}","size":35,"learner":"{learner}"}}"#,
        spec.dataset
    ))
    .unwrap();
    let (session, mut step) = client.step(&create).expect("create session");

    // Phase 1: answer questions. The noisy user flips the first label but
    // remembers the question they mislabeled (a UI shows the response
    // history, §5).
    let mut flipped: Option<(usize, qhorn_core::Obj)> = None;
    loop {
        match step {
            StepReply::Question {
                ref question,
                index,
                ..
            } => {
                let honest = target.eval(question);
                let label = if spec.noisy && flipped.is_none() {
                    flipped = Some((index, question.clone()));
                    honest.negate()
                } else {
                    honest
                };
                step = client
                    .step(&Request::Answer {
                        session,
                        response: label,
                    })
                    .expect("answer")
                    .1;
            }
            StepReply::Learned { .. } | StepReply::Failed { .. } => break,
            StepReply::Verified { .. } => panic!("verification before learning"),
        }
    }

    // Phase 2: the noisy user corrects their flipped answer and replays;
    // only invalidated questions come back.
    if let Some((idx, question)) = flipped {
        let honest: Response = target.eval(&question);
        step = client
            .step(&Request::Correct {
                session,
                corrections: vec![(idx, honest)],
            })
            .expect("correct")
            .1;
        loop {
            match step {
                StepReply::Question { ref question, .. } => {
                    step = client
                        .step(&Request::Answer {
                            session,
                            response: target.eval(question),
                        })
                        .expect("answer after correction")
                        .1;
                }
                StepReply::Learned { .. } => break,
                ref other => panic!("correction did not recover: {other:?}"),
            }
        }
    }

    let learned = match &step {
        StepReply::Learned { query_json, .. } => query_json.clone(),
        other => panic!("no learned query: {other:?}"),
    };

    // Phase 3: verify the learned query against the same user (§4).
    let mut step = client
        .step(&Request::Verify {
            session,
            query: None,
        })
        .expect("verify")
        .1;
    loop {
        match step {
            StepReply::Question { ref question, .. } => {
                step = client
                    .step(&Request::Answer {
                        session,
                        response: target.eval(question),
                    })
                    .expect("verification answer")
                    .1;
            }
            StepReply::Verified { verified } => {
                assert!(
                    verified,
                    "learned query failed verification against its own user"
                );
                break;
            }
            ref other => panic!("unexpected verification step: {other:?}"),
        }
    }

    // Phase 4: export and cross-check the wire text via qhorn-lang.
    match client
        .request(&Request::ExportQuery {
            session,
            format: "ascii".into(),
        })
        .expect("export")
    {
        Reply::Exported { text } => {
            let reparsed = qhorn_lang::parse_with_arity(&text, 3).expect("exported text parses");
            assert!(equivalent(&reparsed, &learned), "export/parse round trip");
        }
        other => panic!("unexpected export reply: {other:?}"),
    }

    learned
}

#[test]
fn eight_plus_concurrent_sessions_learn_their_targets() {
    let server = start_server(12);
    let addr = server.addr();

    let handles: Vec<_> = USERS
        .iter()
        .map(|spec| {
            std::thread::spawn(move || {
                let learned = run_user(addr, spec);
                let target = qhorn_lang::parse_with_arity(spec.target, 3).unwrap();
                assert!(
                    equivalent(&learned, &target),
                    "learned {learned} for target {target}"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().expect("user thread");
    }

    // Aggregate counters reflect the fleet.
    let mut client = Client::connect(addr).unwrap();
    match client.request(&Request::Stats).unwrap() {
        Reply::Stats(stats) => {
            assert_eq!(stats.created, USERS.len() as u64);
            assert!(stats.completed >= USERS.len() as u64, "{stats:?}");
            assert!(stats.answers > 0);
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn batch_over_the_wire_matches_sequential_execution() {
    let server = start_server(2);
    let addr = server.addr();

    // Sequential ground truth, computed locally over the same catalog
    // dataset the server will build.
    let query_text = "all x1 -> x2; some x3";
    let (store, _) = qhorn_service::dataset::build("cellars", 500).unwrap();
    let q = qhorn_lang::parse_with_arity(query_text, 3).unwrap();
    let plan = qhorn_engine::CompiledQuery::compile(&q);
    let expected: Vec<u32> = qhorn_engine::exec::execute(&plan, store.boolean())
        .into_iter()
        .map(|id| id.0)
        .collect();

    let mut client = Client::connect(addr).unwrap();
    for workers in [1usize, 4, 8] {
        match client
            .request(&Request::EvaluateBatch {
                session: None,
                dataset: Some("cellars".into()),
                size: 500,
                query: Some(query_text.into()),
                workers,
            })
            .unwrap()
        {
            Reply::Batch { answers, stats, .. } => {
                assert_eq!(stats.objects, 500);
                assert_eq!(stats.answers, expected.len());
                assert!(
                    stats.signatures_evaluated <= stats.objects,
                    "dedup never evaluates more signatures than objects"
                );
                assert_eq!(answers, expected, "workers={workers}");
            }
            other => panic!("unexpected batch reply: {other:?}"),
        }
    }

    // The Stats message accumulates batch execution statistics, so
    // clients can observe dedup effectiveness fleet-wide.
    match client.request(&Request::Stats).unwrap() {
        Reply::Stats(stats) => {
            assert_eq!(stats.batch_runs, 3);
            assert_eq!(stats.batch_objects, 1500);
            assert_eq!(stats.batch_answers, 3 * expected.len() as u64);
            assert!(stats.batch_signatures <= stats.batch_objects);
            assert!(stats.batch_signatures > 0);
        }
        other => panic!("unexpected stats reply: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn protocol_errors_are_replies_not_disconnects() {
    let server = start_server(1);
    let mut client = Client::connect(server.addr()).unwrap();
    // Unknown session.
    match client
        .request(&Request::NextQuestion { session: 424242 })
        .unwrap()
    {
        Reply::Error { message } => assert!(message.contains("unknown session")),
        other => panic!("expected error reply, got {other:?}"),
    }
    // Malformed request line: the connection survives.
    match client
        .request(&Request::ExportQuery {
            session: 1,
            format: "sq".into(),
        })
        .unwrap()
    {
        Reply::Error { .. } => {}
        other => panic!("expected error reply, got {other:?}"),
    }
    // The same connection still serves good requests.
    match client.request(&Request::Stats).unwrap() {
        Reply::Stats(_) => {}
        other => panic!("expected stats, got {other:?}"),
    }
    server.shutdown();
}
