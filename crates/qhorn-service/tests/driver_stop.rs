//! Closing a session stops its driver thread at the learner's next
//! question. Before, the driver answered `NonAnswer` to every remaining
//! question and realized each one on the way, so an arity-48
//! role-preserving session kept a thread and a core busy for the rest of
//! its dialogue after the user had gone.

use qhorn_core::learn::LearnOptions;
use qhorn_core::Response;
use qhorn_engine::session::{LearnerKind, Session};
use qhorn_engine::DataStore;
use qhorn_relation::generate::{generate_dataset, sweep};
use qhorn_service::dispatch::dispatch;
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{Registry, RegistryConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live `qhorn-session-driver` threads (Linux truncates thread names to
/// 15 bytes in `comm`).
fn driver_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(Result::ok)
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|name| name.trim_end() == "qhorn-session-d")
        })
        .count()
}

#[test]
fn closing_a_session_stops_its_driver_before_the_learner_would_finish() {
    let def = generate_dataset(&sweep(11, &[64], &[48])[0]);
    let name = def.name.clone();

    // What the old driver did after a close: answer every remaining
    // question `NonAnswer`, realizing each one.
    let store = DataStore::from_relation(def.relation.clone(), def.validate().expect("valid"))
        .expect("store builds");
    let mut session = Session::new(&store, def.hints.clone());
    let started = Instant::now();
    let opts = LearnOptions {
        max_questions: None,
        detect_free_variables: true,
    };
    let _ = session.learn_role_preserving(&opts, |_| Response::NonAnswer);
    let run_to_end = started.elapsed();

    let registry = Arc::new(Registry::open(RegistryConfig::default()).expect("registry"));
    assert!(matches!(
        dispatch(&registry, Request::UploadDataset { def }),
        Reply::DatasetUploaded { .. }
    ));
    let baseline = driver_threads();
    let Reply::Created { session, mut step } = dispatch(
        &registry,
        Request::CreateSession {
            dataset: name,
            size: 64,
            learner: LearnerKind::RolePreserving,
            max_questions: None,
        },
    ) else {
        panic!("create failed");
    };
    assert_eq!(driver_threads(), baseline + 1);
    for _ in 0..3 {
        assert!(matches!(step, StepReply::Question { .. }), "{step:?}");
        let reply = dispatch(
            &registry,
            Request::Answer {
                session,
                response: Response::NonAnswer,
            },
        );
        let Reply::Step { step: next, .. } = reply else {
            panic!("answer failed: {reply:?}");
        };
        step = next;
    }

    let closed = Instant::now();
    assert!(matches!(
        dispatch(&registry, Request::CloseSession { session }),
        Reply::Closed { .. }
    ));
    while driver_threads() > baseline {
        assert!(
            closed.elapsed() < run_to_end / 4,
            "driver still running {:?} after close (the rest of the dialogue takes ~{run_to_end:?})",
            closed.elapsed()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}
