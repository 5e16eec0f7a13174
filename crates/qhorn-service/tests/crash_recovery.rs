//! Crash recovery end-to-end: drive sessions over the wire, drop the
//! server **without** shutdown (the kill-9 equivalent at the process
//! level — nothing is flushed or snapshotted on the way out), restart a
//! fresh registry/server on the same store directory, and assert every
//! session resumes with identical learned queries and answers.

use qhorn_core::learn::{learn_role_preserving, LearnOptions};
use qhorn_core::oracle::FnOracle;
use qhorn_core::query::equiv::equivalent;
use qhorn_core::{Obj, Query, Response};
use qhorn_engine::session::{Dialogue, Exchange, LearnerKind};
use qhorn_relation::datasets::chocolates;
use qhorn_relation::{
    Attr, AttrType, DataTuple, DatasetDef, DomainHints, FlatSchema, NestedObject, NestedRelation,
    NestedSchema, Proposition, Synthesizer, Value,
};
use qhorn_service::proto::{Reply, Request, StepReply};
use qhorn_service::registry::{
    CreateSpec, QuestionInfo, Registry, RegistryConfig, StepOutcome, EVICTED_STATE,
};
use qhorn_service::store::{
    FsyncPolicy, LogRecord, PersistedSession, SessionMeta, SessionStore, SnapshotEntry, StoreConfig,
};
use qhorn_service::ServiceError;
use qhorn_service::{Client, Server};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

#[path = "../../qhorn-store/tests/support/snapshot_file.rs"]
mod snapshot_file;
use snapshot_file::plant_snapshot;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &std::path::Path) -> RegistryConfig {
    RegistryConfig {
        ttl: Duration::from_secs(300),
        store: Some(StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::new(dir.to_path_buf())
        }),
        ..Default::default()
    }
}

fn start_server(dir: &std::path::Path) -> Server {
    let registry = Arc::new(Registry::open(durable_config(dir)).expect("open registry"));
    Server::start("127.0.0.1:0", registry, 2).expect("bind server")
}

fn create(client: &mut Client, learner: LearnerKind) -> (u64, StepReply) {
    client
        .step(&Request::CreateSession {
            dataset: "chocolates".into(),
            size: 30,
            learner,
            max_questions: Some(10_000),
        })
        .expect("create session")
}

/// Answers honestly until learning finishes.
fn drive_to_learned(
    client: &mut Client,
    session: u64,
    mut step: StepReply,
    target: &Query,
) -> (Query, usize) {
    loop {
        match step {
            StepReply::Question { question, .. } => {
                step = client
                    .step(&Request::Answer {
                        session,
                        response: target.eval(&question),
                    })
                    .expect("answer")
                    .1;
            }
            StepReply::Learned {
                query_json,
                questions,
                ..
            } => return (query_json, questions),
            other => panic!("unexpected step {other:?}"),
        }
    }
}

#[test]
fn dropped_server_recovers_every_session_from_the_log() {
    let dir = temp_dir("three-sessions");
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();

    // --- First life: three sessions in three states. -------------------
    let server = start_server(&dir);
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    // A: learned to completion.
    let (a, step) = create(&mut client, LearnerKind::Qhorn1);
    let (a_query, a_questions) = drive_to_learned(&mut client, a, step, &target);
    assert!(equivalent(&a_query, &target));

    // B: mid-learning — four answers in, a question still pending.
    let (b, mut b_step) = create(&mut client, LearnerKind::RolePreserving);
    let mut b_answered = 0usize;
    for _ in 0..4 {
        match b_step {
            StepReply::Question { question, .. } => {
                b_answered += 1;
                b_step = client
                    .step(&Request::Answer {
                        session: b,
                        response: target.eval(&question),
                    })
                    .unwrap()
                    .1;
            }
            other => panic!("B finished too early: {other:?}"),
        }
    }

    // C: corrected — the first answer is flipped, then fixed via Correct.
    let (c, mut c_step) = create(&mut client, LearnerKind::RolePreserving);
    let mut first_question: Option<Obj> = None;
    loop {
        match c_step {
            StepReply::Question { question, .. } => {
                let honest = target.eval(&question);
                let response = if first_question.is_none() {
                    first_question = Some(question.clone());
                    honest.negate()
                } else {
                    honest
                };
                c_step = client
                    .step(&Request::Answer {
                        session: c,
                        response,
                    })
                    .unwrap()
                    .1;
            }
            StepReply::Learned { .. } | StepReply::Failed { .. } => break,
            other => panic!("unexpected step {other:?}"),
        }
    }
    let fix = target.eval(first_question.as_ref().unwrap());
    let (_, step) = client
        .step(&Request::Correct {
            session: c,
            corrections: vec![(0, fix)],
        })
        .unwrap();
    let (c_query, _) = drive_to_learned(&mut client, c, step, &target);
    assert!(equivalent(&c_query, &target));

    // --- The crash: drop everything without shutdown. -------------------
    drop(client);
    drop(server);

    // --- Second life: a fresh registry on the same directory. -----------
    let registry = Arc::new(Registry::open(durable_config(&dir)).expect("recovery"));
    let stats = registry.stats();
    assert_eq!(stats.snapshots, 3, "all three sessions recovered");
    let store_stats = stats.store.expect("store configured");
    assert_eq!(store_stats.recovered_sessions, 3);
    let server = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // A resumes Done with the identical query and answer count.
    match client.step(&Request::NextQuestion { session: a }).unwrap() {
        (
            _,
            StepReply::Learned {
                query_json,
                questions,
                ..
            },
        ) => {
            assert_eq!(query_json, a_query);
            assert_eq!(questions, a_questions);
        }
        (_, other) => panic!("A did not resume Done: {other:?}"),
    }
    // …and is fully functional: verification still passes.
    let (_, mut step) = client
        .step(&Request::Verify {
            session: a,
            query: None,
        })
        .unwrap();
    loop {
        match step {
            StepReply::Question { question, .. } => {
                step = client
                    .step(&Request::Answer {
                        session: a,
                        response: target.eval(&question),
                    })
                    .unwrap()
                    .1;
            }
            StepReply::Verified { verified } => {
                assert!(verified);
                break;
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    // C resumes Done with the corrected query.
    match client.step(&Request::NextQuestion { session: c }).unwrap() {
        (_, StepReply::Learned { query_json, .. }) => assert_eq!(query_json, c_query),
        (_, other) => panic!("C did not resume Done: {other:?}"),
    }

    // B resumes mid-learning: the replay re-serves its four answers
    // silently and the dialogue completes to the target.
    let (_, step) = client.step(&Request::NextQuestion { session: b }).unwrap();
    assert!(
        matches!(step, StepReply::Question { .. }),
        "B should resume with a question, got {step:?}"
    );
    let (b_query, b_questions) = drive_to_learned(&mut client, b, step, &target);
    assert!(equivalent(&b_query, &target), "B learned {b_query}");
    assert!(b_questions >= b_answered);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Garden(bed, Plant(isEdible, isPerennial, isNative))` — an uploaded
/// dataset with the same arity as the built-ins.
fn garden_def() -> DatasetDef {
    let schema = NestedSchema::new(
        "Garden",
        FlatSchema::new([Attr::new("bed", AttrType::Str)]).unwrap(),
        "Plant",
        FlatSchema::new([
            Attr::new("isEdible", AttrType::Bool),
            Attr::new("isPerennial", AttrType::Bool),
            Attr::new("isNative", AttrType::Bool),
        ])
        .unwrap(),
    );
    let plant = |e: bool, p: bool, n: bool| {
        DataTuple::new([Value::Bool(e), Value::Bool(p), Value::Bool(n)])
    };
    let mut relation = NestedRelation::new(schema);
    for (bed, plants) in [
        (
            "North",
            vec![plant(true, true, true), plant(false, true, false)],
        ),
        ("South", vec![plant(true, false, false)]),
    ] {
        relation
            .push(NestedObject::new(DataTuple::new([Value::str(bed)]), plants))
            .unwrap();
    }
    DatasetDef {
        name: "garden".into(),
        relation,
        propositions: vec![
            Proposition::is_true("edible", "isEdible"),
            Proposition::is_true("perennial", "isPerennial"),
            Proposition::is_true("native", "isNative"),
        ],
        hints: DomainHints::none(),
    }
}

#[test]
fn sessions_over_uploaded_datasets_survive_a_hard_crash() {
    let dir = temp_dir("uploaded");
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();

    // --- First life: upload, learn over the upload, leave one session
    // mid-learning over it, and drop nothing. ---------------------------
    let server = start_server(&dir);
    let mut client = Client::connect(server.addr()).unwrap();
    match client
        .request(&Request::UploadDataset { def: garden_def() })
        .unwrap()
    {
        Reply::DatasetUploaded { info } => {
            assert_eq!(info.name, "garden");
            assert_eq!(info.objects, Some(2));
        }
        other => panic!("unexpected reply {other:?}"),
    }
    // A: to completion over the upload.
    let (a, step) = client
        .step(&Request::CreateSession {
            dataset: "garden".into(),
            size: 10,
            learner: LearnerKind::Qhorn1,
            max_questions: Some(10_000),
        })
        .unwrap();
    let (a_query, a_questions) = drive_to_learned(&mut client, a, step, &target);
    assert!(equivalent(&a_query, &target));
    // B: mid-learning over the upload, two answers in.
    let (b, mut b_step) = client
        .step(&Request::CreateSession {
            dataset: "garden".into(),
            size: 10,
            learner: LearnerKind::RolePreserving,
            max_questions: Some(10_000),
        })
        .unwrap();
    for _ in 0..2 {
        match b_step {
            StepReply::Question { question, .. } => {
                b_step = client
                    .step(&Request::Answer {
                        session: b,
                        response: target.eval(&question),
                    })
                    .unwrap()
                    .1;
            }
            other => panic!("B finished too early: {other:?}"),
        }
    }

    // --- The crash: nothing flushed or snapshotted on the way out. ------
    drop(client);
    drop(server);

    // --- Second life: the dataset re-registers from its log record and
    // both sessions resume over it. -------------------------------------
    let registry = Arc::new(Registry::open(durable_config(&dir)).expect("recovery"));
    let listed = registry.list_datasets();
    let garden = listed
        .iter()
        .find(|d| d.name == "garden")
        .expect("uploaded dataset recovered");
    assert!(!garden.builtin);
    assert_eq!(garden.objects, Some(2));
    let server = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // A resumes Done with the identical learned query.
    match client.step(&Request::NextQuestion { session: a }).unwrap() {
        (
            _,
            StepReply::Learned {
                query_json,
                questions,
                ..
            },
        ) => {
            assert_eq!(query_json, a_query);
            assert_eq!(questions, a_questions);
        }
        (_, other) => panic!("A did not resume Done: {other:?}"),
    }
    // B resumes mid-learning and completes to the target.
    let (_, step) = client.step(&Request::NextQuestion { session: b }).unwrap();
    let (b_query, _) = drive_to_learned(&mut client, b, step, &target);
    assert!(equivalent(&b_query, &target), "B learned {b_query}");
    // New sessions over the recovered dataset work too.
    let (c, step) = client
        .step(&Request::CreateSession {
            dataset: "garden".into(),
            size: 10,
            learner: LearnerKind::Qhorn1,
            max_questions: Some(10_000),
        })
        .unwrap();
    let (c_query, _) = drive_to_learned(&mut client, c, step, &target);
    assert!(equivalent(&c_query, &target));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_size_zero_sessions_still_restore() {
    // Logs written before explicit-size validation encoded "default" as
    // size 0. Recovery must normalize that, not reject every touch of
    // the session with an InvalidSize error forever.
    use qhorn_service::store::{LogRecord, SessionMeta, SessionStore};
    let dir = temp_dir("legacy-size");
    {
        let cfg = StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::new(dir.to_path_buf())
        };
        let (mut store, _) = SessionStore::open(&cfg).unwrap();
        store
            .append(&LogRecord::SessionCreated {
                id: 1,
                meta: SessionMeta {
                    dataset: "chocolates".into(),
                    size: 0,
                    learner: LearnerKind::Qhorn1,
                    max_questions: Some(10_000),
                },
            })
            .unwrap();
    }
    let registry = Registry::open(durable_config(&dir)).unwrap();
    match registry.next_question(1) {
        Ok(qhorn_service::registry::StepOutcome::Question(_)) => {}
        other => panic!("legacy session did not restore with a question: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropped_datasets_stay_dropped_after_a_crash() {
    let dir = temp_dir("dropped-dataset");
    {
        let registry = Registry::open(durable_config(&dir)).unwrap();
        registry.upload_dataset(garden_def()).unwrap();
        registry.drop_dataset("garden").unwrap();
        // Crash without shutdown.
    }
    let registry = Registry::open(durable_config(&dir)).unwrap();
    assert!(
        registry.list_datasets().iter().all(|d| d.name != "garden"),
        "dropped dataset must not resurrect"
    );
    // And re-uploading under the freed name works.
    registry.upload_dataset(garden_def()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn close_session_is_durable_across_restarts() {
    let dir = temp_dir("close");
    let target = qhorn_lang::parse_with_arity("some x1 x2", 3).unwrap();
    {
        let server = start_server(&dir);
        let mut client = Client::connect(server.addr()).unwrap();
        let (id, step) = create(&mut client, LearnerKind::Qhorn1);
        drive_to_learned(&mut client, id, step, &target);
        match client
            .request(&Request::CloseSession { session: id })
            .unwrap()
        {
            Reply::Closed { session } => assert_eq!(session, id),
            other => panic!("unexpected reply {other:?}"),
        }
        // Closing again is an error: the id is gone everywhere.
        match client
            .request(&Request::CloseSession { session: id })
            .unwrap()
        {
            Reply::Error { message } => assert!(message.contains("unknown session")),
            other => panic!("unexpected reply {other:?}"),
        }
        drop(client);
        drop(server);
    }
    let registry = Registry::open(durable_config(&dir)).unwrap();
    assert_eq!(
        registry.stats().snapshots,
        0,
        "closed session not recovered"
    );
    // The id stays reserved: new sessions do not collide with old records.
    let (next, _) = registry
        .create_session(qhorn_service::registry::CreateSpec {
            dataset: "chocolates".into(),
            size: 30,
            learner: LearnerKind::Qhorn1,
            max_questions: Some(10_000),
        })
        .unwrap();
    assert_eq!(next, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verified_sessions_restore_as_verified() {
    let dir = temp_dir("verified");
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();

    // First life: learn to completion, then verify (honestly: passes).
    // The `Verified` log record — not a compaction snapshot — must carry
    // the outcome across the crash.
    let server = start_server(&dir);
    let mut client = Client::connect(server.addr()).unwrap();
    let (id, step) = create(&mut client, LearnerKind::Qhorn1);
    let (query, _) = drive_to_learned(&mut client, id, step, &target);
    let (_, mut step) = client
        .step(&Request::Verify {
            session: id,
            query: None,
        })
        .unwrap();
    loop {
        match step {
            StepReply::Question { question, .. } => {
                step = client
                    .step(&Request::Answer {
                        session: id,
                        response: target.eval(&question),
                    })
                    .unwrap()
                    .1;
            }
            StepReply::Verified { verified } => {
                assert!(verified);
                break;
            }
            other => panic!("unexpected step {other:?}"),
        }
    }

    // The crash: nothing flushed or snapshotted on the way out.
    drop(client);
    drop(server);

    // Second life: the session must come back *verified*, not merely
    // learned — NextQuestion on a verified Done session reports the
    // verification outcome.
    let registry = Arc::new(Registry::open(durable_config(&dir)).expect("recovery"));
    let server = Server::start("127.0.0.1:0", Arc::clone(&registry), 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    match client.step(&Request::NextQuestion { session: id }).unwrap() {
        (_, StepReply::Verified { verified }) => assert!(verified),
        (_, other) => panic!("did not restore as verified: {other:?}"),
    }
    // The learned query survived alongside the verification outcome.
    match client
        .request(&Request::ExportQuery {
            session: id,
            format: "json".into(),
        })
        .unwrap()
    {
        Reply::Exported { text } => {
            let restored: Query = qhorn_json::from_str(&text).unwrap();
            assert_eq!(restored, query);
        }
        other => panic!("unexpected reply {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_compacts_an_oversized_log_and_recovery_survives_it() {
    let dir = temp_dir("compact");
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let config = RegistryConfig {
        ttl: Duration::from_secs(300),
        store: Some(StoreConfig {
            fsync: FsyncPolicy::EveryN(4),
            segment_max_bytes: 2048,
            compact_threshold_bytes: 1024, // a couple of sessions overflow it
            ..StoreConfig::new(dir.to_path_buf())
        }),
        ..Default::default()
    };
    let learned = {
        let registry = Registry::open(config.clone()).unwrap();
        let mut learned = Vec::new();
        for _ in 0..2 {
            let (id, mut step) = registry
                .create_session(qhorn_service::registry::CreateSpec {
                    dataset: "chocolates".into(),
                    size: 30,
                    learner: LearnerKind::Qhorn1,
                    max_questions: Some(10_000),
                })
                .unwrap();
            let query = loop {
                match step {
                    qhorn_service::registry::StepOutcome::Question(q) => {
                        step = registry.answer(id, target.eval(&q.question)).unwrap();
                    }
                    qhorn_service::registry::StepOutcome::Learned { query, .. } => break query,
                    other => panic!("unexpected outcome {other:?}"),
                }
            };
            learned.push((id, query));
        }
        let report = registry.sweep();
        assert!(report.compacted, "live log should exceed the threshold");
        let stats = registry.stats().store.unwrap();
        assert_eq!(stats.compactions, 1);
        assert!(stats.last_compaction_seq > 0);
        assert!(
            stats.live_log_bytes <= 1024,
            "compaction should shrink the log: {stats:?}"
        );
        learned
    };
    // Crash + recover: state now comes from the snapshot file (plus the
    // post-compaction log tail).
    let registry = Registry::open(config).unwrap();
    for (id, query) in learned {
        assert_eq!(registry.learned_query(id).unwrap(), query);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Eviction keeps no copy in memory: every evicted session is at rest
/// in the store alone, and restores from the log.
#[test]
fn every_evicted_session_restores_from_the_log() {
    let dir = temp_dir("evicted");
    let target = qhorn_lang::parse_with_arity("some x1 x2", 3).unwrap();
    let config = RegistryConfig {
        ttl: Duration::from_millis(0),
        store: Some(StoreConfig {
            fsync: FsyncPolicy::Always,
            ..StoreConfig::new(dir.to_path_buf())
        }),
        ..Default::default()
    };
    let registry = Registry::open(config).unwrap();
    let mut ids = Vec::new();
    for _ in 0..2 {
        let (id, mut step) = registry
            .create_session(qhorn_service::registry::CreateSpec {
                dataset: "chocolates".into(),
                size: 30,
                learner: LearnerKind::Qhorn1,
                max_questions: Some(10_000),
            })
            .unwrap();
        loop {
            match step {
                qhorn_service::registry::StepOutcome::Question(q) => {
                    step = registry.answer(id, target.eval(&q.question)).unwrap();
                }
                qhorn_service::registry::StepOutcome::Learned { .. } => break,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        ids.push(id);
    }
    std::thread::sleep(Duration::from_millis(5));
    assert_eq!(registry.sweep().evicted, 2);
    assert_eq!(registry.stats().snapshots, 2);
    for id in ids {
        assert!(equivalent(&registry.learned_query(id).unwrap(), &target));
    }
    let stats = registry.stats();
    assert_eq!((stats.restored, stats.snapshots), (2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Registry::open` loads no recovered session: each is at rest in the
/// store until its first touch restores it.
#[test]
fn open_leaves_every_recovered_session_at_rest() {
    const SESSIONS: u64 = 4;
    let dir = temp_dir("open-at-rest");
    let target = qhorn_lang::parse_with_arity("some x1 x2", 3).unwrap();
    let mut ids = Vec::new();
    {
        let registry = Registry::open(durable_config(&dir)).unwrap();
        for _ in 0..SESSIONS {
            let (id, step) = registry.create_session(chocolates_spec()).unwrap();
            // Half learn their query, half stop at their first question.
            if id % 2 == 0 {
                answer_to_end(&registry, id, step, &target, &mut Vec::new());
            }
            ids.push(id);
        }
    }
    let registry = Registry::open(durable_config(&dir)).unwrap();
    let stats = registry.stats();
    assert_eq!((stats.live, stats.snapshots), (0, SESSIONS));
    for &id in &ids {
        registry.next_question(id).unwrap();
    }
    let stats = registry.stats();
    assert_eq!(
        (stats.live, stats.restored, stats.snapshots),
        (SESSIONS, SESSIONS, 0)
    );
    drop(registry);
    let _ = std::fs::remove_dir_all(&dir);
}

fn chocolates_spec() -> CreateSpec {
    CreateSpec {
        dataset: "chocolates".into(),
        size: 30,
        learner: LearnerKind::Qhorn1,
        max_questions: Some(10_000),
    }
}

/// `garden_def` with its first two propositions only: the same name and
/// relation, arity 2.
fn narrow_garden_def() -> DatasetDef {
    let mut def = garden_def();
    def.propositions.truncate(2);
    def
}

fn garden_spec() -> CreateSpec {
    CreateSpec {
        dataset: "garden".into(),
        size: 10,
        learner: LearnerKind::Qhorn1,
        max_questions: Some(10_000),
    }
}

/// A registry over the garden upload and a store in `dir` that evicts
/// every idle session on a sweep.
fn evicting_registry(dir: &std::path::Path) -> Registry {
    let registry = Registry::open(RegistryConfig {
        ttl: Duration::ZERO,
        store: Some(StoreConfig {
            fsync: FsyncPolicy::Never,
            ..StoreConfig::new(dir.to_path_buf())
        }),
        ..Default::default()
    })
    .unwrap();
    registry.upload_dataset(garden_def()).unwrap();
    registry
}

fn expect_question(outcome: StepOutcome) -> QuestionInfo {
    match outcome {
        StepOutcome::Question(q) => q,
        other => panic!("expected a question, got {other:?}"),
    }
}

/// A restore that fails must leave the session at rest: touching an
/// evicted session whose dataset was dropped fails the same way every
/// time, and once the dataset is back the session restores with its
/// pending question under the index it had.
#[test]
fn a_failed_restore_keeps_the_session() {
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let dir = temp_dir("failed-restore");
    let registry = evicting_registry(&dir);
    let (id, step) = registry.create_session(garden_spec()).unwrap();
    let first = expect_question(step);
    let pending = expect_question(registry.answer(id, target.eval(&first.question)).unwrap());
    assert_eq!(pending.index, 1);
    std::thread::sleep(Duration::from_millis(1));
    assert_eq!(registry.sweep().evicted, 1);
    registry.drop_dataset("garden").unwrap();
    for _ in 0..2 {
        assert_eq!(
            registry.next_question(id).unwrap_err(),
            ServiceError::UnknownDataset("garden".into())
        );
        assert_eq!(registry.stats().snapshots, 1);
    }
    registry.upload_dataset(garden_def()).unwrap();
    let restored = expect_question(registry.next_question(id).unwrap());
    assert_eq!((restored.index, &restored.question), (1, &pending.question));
    let stats = registry.stats();
    assert_eq!((stats.restored, stats.snapshots), (1, 0));
    drop(registry);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session at rest only restores over a dataset of its own arity. A
/// dataset dropped and uploaded again under the same name with fewer
/// propositions must not resume an arity-3 transcript with arity-2
/// questions, nor serve an arity-3 learned query over an arity-2 store.
#[test]
fn restores_check_arity_against_the_dataset() {
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let dir = temp_dir("arity-restore");
    let mut registry = evicting_registry(&dir);
    // Mid-learning, one answer in.
    let (mid, step) = registry.create_session(garden_spec()).unwrap();
    let first = expect_question(step);
    let pending = expect_question(registry.answer(mid, target.eval(&first.question)).unwrap());
    // Learned.
    let (done, mut step) = registry.create_session(garden_spec()).unwrap();
    let learned = loop {
        match step {
            StepOutcome::Question(q) => {
                step = registry.answer(done, target.eval(&q.question)).unwrap();
            }
            StepOutcome::Learned { query, .. } => break query,
            other => panic!("unexpected outcome {other:?}"),
        }
    };
    std::thread::sleep(Duration::from_millis(1));
    assert_eq!(registry.sweep().evicted, 2);
    registry.drop_dataset("garden").unwrap();
    registry.upload_dataset(narrow_garden_def()).unwrap();
    let refused = |registry: &Registry| {
        for id in [mid, done] {
            match registry.next_question(id) {
                Err(ServiceError::Engine(msg)) => {
                    assert!(msg.contains("arity 3") && msg.contains("arity 2"), "{msg}")
                }
                other => panic!("session {id} restored: {other:?}"),
            }
        }
    };
    refused(&registry);
    // A restart brings both sessions back from the log; the check still
    // holds.
    drop(registry);
    registry = Registry::open(RegistryConfig {
        ttl: Duration::ZERO,
        store: Some(StoreConfig {
            fsync: FsyncPolicy::Never,
            ..StoreConfig::new(dir.clone())
        }),
        ..Default::default()
    })
    .unwrap();
    refused(&registry);
    // Back to the original definition: both restore as they were.
    registry.drop_dataset("garden").unwrap();
    registry.upload_dataset(garden_def()).unwrap();
    let restored = expect_question(registry.next_question(mid).unwrap());
    assert_eq!((restored.index, restored.question), (1, pending.question));
    assert_eq!(registry.learned_query(done).unwrap(), learned);
    drop(registry);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Chocolates with two propositions on one attribute: a question needing
/// `origin = Madagascar` and `origin = Belgium` in one tuple cannot be
/// realized, so the session answers it `NonAnswer` without the user and
/// the transcript holds more entries than the user answered.
fn clash_def() -> DatasetDef {
    let mut def = chocolates::dataset_def("clash");
    def.propositions = vec![
        Proposition::eq("pm", "origin", Value::str("Madagascar")),
        Proposition::is_true("dark", "isDark"),
        Proposition::eq("pb", "origin", Value::str("Belgium")),
    ];
    def.hints = DomainHints::none();
    def
}

/// A registry over the store in `dir` whose every sweep compacts, and
/// evicts the sessions idle for longer than `ttl`.
fn compacting_registry(dir: &std::path::Path, ttl: Duration) -> Registry {
    Registry::open(RegistryConfig {
        ttl,
        store: Some(StoreConfig {
            fsync: FsyncPolicy::Never,
            compact_threshold_bytes: 1,
            ..StoreConfig::new(dir.to_path_buf())
        }),
        ..Default::default()
    })
    .unwrap()
}

/// Answers each question with `target`'s label until the run ends,
/// checking that each question takes the next index, and records it.
fn answer_to_end(
    registry: &Registry,
    id: u64,
    mut step: StepOutcome,
    target: &Query,
    shown: &mut Vec<Obj>,
) -> StepOutcome {
    loop {
        match step {
            StepOutcome::Question(q) => {
                assert_eq!(q.index, shown.len(), "indices follow the order shown");
                shown.push(q.question.clone());
                step = registry.answer(id, target.eval(&q.question)).unwrap();
            }
            other => return other,
        }
    }
}

/// A `Correct` index names the question shown under it, through
/// correction, eviction, restore, compaction and restart, in a session
/// whose learner asks unrealizable questions the user never sees. The
/// store, reopened at the end, holds the questions shown, in order, with
/// exactly the labels the corrections gave them.
///
/// Every sweep compacts, and a compaction replays the log.
#[test]
fn correct_indices_name_the_same_question_through_eviction_and_restart() {
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let dir = temp_dir("asked-positions");
    let spec = CreateSpec {
        dataset: "clash".into(),
        size: 1,
        learner: LearnerKind::RolePreserving,
        max_questions: Some(10_000),
    };
    let mut shown: Vec<Obj> = Vec::new();
    let mut corrections: Vec<(Obj, Response)> = Vec::new();
    let mut correct =
        |registry: &Registry, id: u64, index: usize, flip: bool, shown: &mut Vec<Obj>| {
            let honest = target.eval(&shown[index]);
            let label = if flip { honest.negate() } else { honest };
            corrections.push((shown[index].clone(), label));
            let step = registry.correct(id, &[(index, label)]).unwrap();
            let end = answer_to_end(registry, id, step, &target, shown);
            assert!(
                matches!(
                    end,
                    StepOutcome::Learned { .. } | StepOutcome::Failed { .. }
                ),
                "{end:?}"
            );
        };

    // Asked at index 0 and 1, with an auto-answered question between;
    // the sweep compacts while the session is live.
    let registry = compacting_registry(&dir, Duration::from_secs(300));
    registry.upload_dataset(clash_def()).unwrap();
    let (id, step) = registry.create_session(spec).unwrap();
    let end = answer_to_end(&registry, id, step, &target, &mut shown);
    assert!(matches!(end, StepOutcome::Learned { .. }), "{end:?}");
    assert!(shown.len() >= 2, "{shown:?}");
    correct(&registry, id, 1, true, &mut shown);
    let report = registry.sweep();
    assert_eq!((report.evicted, report.compacted), (0, true), "{report:?}");
    drop(registry);

    // Restart: the correction restores the session from the snapshot;
    // then it is evicted, compacted from the store, and restored again.
    let registry = compacting_registry(&dir, Duration::ZERO);
    correct(&registry, id, 0, true, &mut shown);
    assert_eq!(registry.stats().restored, 1);
    std::thread::sleep(Duration::from_millis(1));
    let report = registry.sweep();
    assert_eq!((report.evicted, report.compacted), (1, true), "{report:?}");
    registry.next_question(id).unwrap();
    assert_eq!(registry.stats().restored, 2);
    drop(registry);

    // Restart again: the first correction is undone by index, and a
    // compaction captures the result.
    let registry = compacting_registry(&dir, Duration::from_secs(300));
    correct(&registry, id, 1, false, &mut shown);
    assert!(registry.sweep().compacted);
    drop(registry);

    let (_, recovered) = SessionStore::open(&StoreConfig::new(dir.clone())).unwrap();
    let session = recovered.sessions.iter().find(|s| s.id == id).unwrap();
    let questions: Vec<Obj> = session
        .transcript
        .iter()
        .map(|e| e.question.clone())
        .collect();
    assert_eq!(questions, shown, "the questions, in the order shown");
    for e in &session.transcript {
        let want = corrections
            .iter()
            .rev()
            .find(|(c, _)| *c == e.question)
            .map_or_else(|| target.eval(&e.question), |&(_, r)| r);
        assert_eq!(e.response, want, "{:?}", e.question);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two pairs of one `Correct` that name one question: the later pair
/// wins, in the live session and in the log's replay alike, so a session
/// restarted after the correction learns what it would have learned
/// without the restart.
#[test]
fn a_correction_naming_one_question_twice_replays_as_it_ran() {
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let open = |dir: &std::path::Path| {
        Registry::open(RegistryConfig {
            store: Some(StoreConfig {
                fsync: FsyncPolicy::Never,
                ..StoreConfig::new(dir.to_path_buf())
            }),
            ..Default::default()
        })
        .unwrap()
    };
    let run = |restart: bool| {
        let dir = temp_dir(&format!("one-question-twice-{restart}"));
        let mut registry = open(&dir);
        let (id, step) = registry.create_session(chocolates_spec()).unwrap();
        let mut shown = Vec::new();
        let first = answer_to_end(&registry, id, step, &target, &mut shown);
        let honest = target.eval(&shown[0]);
        let step = registry
            .correct(id, &[(0, honest), (0, honest.negate())])
            .unwrap();
        let corrected = answer_to_end(&registry, id, step, &target, &mut shown);
        if restart {
            drop(registry);
            registry = open(&dir);
        }
        let step = registry.correct(id, &[]).unwrap();
        let replayed = answer_to_end(&registry, id, step, &target, &mut shown);
        drop(registry);
        let _ = std::fs::remove_dir_all(&dir);
        (
            shown,
            [first, corrected, replayed].map(|o| format!("{o:?}")),
        )
    };
    assert_eq!(run(true), run(false));
}

/// A snapshot entry written with an asked list (see
/// `PersistedSession::asked`) whose questions are not, in order,
/// questions of its transcript cannot be given `Correct` indices: its
/// restore fails with an error naming that, every time, and it stays at
/// rest.
#[test]
fn asked_questions_missing_from_the_transcript_fail_the_restore() {
    let dir = temp_dir("asked-missing");
    let config = StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::new(dir.clone())
    };
    {
        let (mut store, _) = SessionStore::open(&config).unwrap();
        let meta = SessionMeta {
            dataset: "chocolates".into(),
            size: 30,
            learner: LearnerKind::Qhorn1,
            max_questions: Some(10_000),
        };
        store
            .append(&LogRecord::SessionCreated {
                id: 1,
                meta: meta.clone(),
            })
            .unwrap();
        let mut session = PersistedSession::new(1, meta);
        session.transcript.push(Exchange {
            question: Obj::from_bits("110"),
            from_store: false,
            response: Response::Answer,
        });
        session.asked = Some(vec![Obj::from_bits("011")]);
        session.answered = Some(1);
        plant_snapshot(
            &dir,
            &[SnapshotEntry {
                through_seq: store.last_seq(),
                session,
            }],
        );
    }
    let registry = Registry::open(RegistryConfig {
        store: Some(config),
        ..Default::default()
    })
    .unwrap();
    for _ in 0..2 {
        match registry.next_question(1) {
            Err(ServiceError::Engine(msg)) => assert!(msg.contains("asked"), "{msg}"),
            other => panic!("restored: {other:?}"),
        }
        let stats = registry.stats();
        assert_eq!((stats.live, stats.snapshots, stats.restored), (0, 1, 0));
    }
    assert_eq!(registry.session_resources(1).unwrap().state, EVICTED_STATE);
    drop(registry);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Before compaction replayed the log, it wrote each live session as the
/// registry held it: auto-answered exchanges between the asked ones in
/// the transcript and, in older versions, a question in flight listed in
/// `asked`. Such a snapshot entry, with the in-flight question's answer
/// in the log after its `through_seq`, still restores: every `Correct`
/// index names the question shown under it before the restart, as in a
/// session that never left memory.
#[test]
fn a_snapshot_captured_from_a_live_session_keeps_its_correct_indices() {
    let target = qhorn_lang::parse_with_arity("all x1; some x2 x3", 3).unwrap();
    let spec = CreateSpec {
        dataset: "clash".into(),
        size: 1,
        learner: LearnerKind::RolePreserving,
        max_questions: Some(10_000),
    };
    let opts = LearnOptions {
        max_questions: spec.max_questions,
        detect_free_variables: true,
    };
    let reference = Registry::open(RegistryConfig::default()).unwrap();
    reference.upload_dataset(clash_def()).unwrap();

    // The transcript as those versions recorded it: every question the
    // learner asked, an unrealizable one answered `NonAnswer` without the
    // user.
    let (data, hints) = reference.dataset("clash", 1).unwrap();
    let synth = Arc::new(Synthesizer::new(data.bridge(), &hints));
    let dialogue = Dialogue::new(Arc::clone(&data), synth, Vec::new());
    let mut recorded: Vec<(Exchange, bool)> = Vec::new();
    learn_role_preserving(
        data.bridge().n(),
        &mut FnOracle(|question: &Obj| {
            let (response, from_store, shown) = match dialogue.realize(question) {
                Ok(realized) => (target.eval(question), realized.is_stored(), true),
                Err(_) => (Response::NonAnswer, false, false),
            };
            recorded.push((
                Exchange {
                    question: question.clone(),
                    from_store,
                    response,
                },
                shown,
            ));
            response
        }),
        &opts,
    )
    .unwrap();
    // The live session: answered until an auto-answered exchange follows
    // an asked one, with the next question in flight.
    let first_shown = recorded.iter().position(|&(_, shown)| shown).unwrap();
    let auto_after = first_shown
        + recorded[first_shown..]
            .iter()
            .position(|&(_, shown)| !shown)
            .expect("an auto-answered exchange follows an asked one");
    let flight = auto_after
        + recorded[auto_after..]
            .iter()
            .position(|&(_, shown)| shown)
            .expect("a question follows it");
    let transcript: Vec<Exchange> = recorded[..flight].iter().map(|(e, _)| e.clone()).collect();
    let asked: Vec<Obj> = recorded[..flight]
        .iter()
        .filter(|&&(_, shown)| shown)
        .map(|(e, _)| e.question.clone())
        .collect();
    let in_flight = recorded[flight].0.clone();

    // The same session in a registry that never restores it, answered
    // the same way, the question in flight included.
    let shown: Vec<Obj> = asked.iter().chain([&in_flight.question]).cloned().collect();
    let live = |registry: &Registry| -> u64 {
        let (id, mut step) = registry.create_session(spec.clone()).unwrap();
        for (index, question) in shown.iter().enumerate() {
            let q = expect_question(step);
            assert_eq!((q.index, &q.question), (index, question));
            step = registry.answer(id, target.eval(question)).unwrap();
        }
        id
    };

    for index in 0..shown.len() {
        // The snapshot covers the upload and the creation in the log; the
        // answer to the question in flight follows it.
        let dir = temp_dir(&format!("live-capture-{index}"));
        let config = StoreConfig {
            fsync: FsyncPolicy::Never,
            ..StoreConfig::new(dir.clone())
        };
        {
            let (mut store, _) = SessionStore::open(&config).unwrap();
            let meta = SessionMeta {
                dataset: spec.dataset.clone(),
                size: spec.size,
                learner: spec.learner,
                max_questions: spec.max_questions,
            };
            store
                .append(&LogRecord::DatasetRegistered { def: clash_def() })
                .unwrap();
            store
                .append(&LogRecord::SessionCreated {
                    id: 1,
                    meta: meta.clone(),
                })
                .unwrap();
            let mut session = PersistedSession::new(1, meta);
            session.transcript = transcript.clone();
            session.asked = Some(shown.clone());
            session.answered = Some(asked.len());
            plant_snapshot(
                &dir,
                &[SnapshotEntry {
                    through_seq: store.last_seq(),
                    session,
                }],
            );
            store
                .append(&LogRecord::ExchangeAppended {
                    id: 1,
                    exchange: in_flight.clone(),
                })
                .unwrap();
        }
        let restored = Registry::open(RegistryConfig {
            store: Some(config),
            ..Default::default()
        })
        .unwrap();
        // Both run to the end, then correct the answer at `index` and run
        // to the end again.
        let flipped = [(index, target.eval(&shown[index]).negate())];
        let run = |registry: &Registry, id: u64| {
            let mut seen = shown.clone();
            let step = registry.next_question(id).unwrap();
            let honest = answer_to_end(registry, id, step, &target, &mut seen);
            let step = registry.correct(id, &flipped).unwrap();
            let corrected = answer_to_end(registry, id, step, &target, &mut seen);
            (seen, format!("{honest:?}"), format!("{corrected:?}"))
        };
        let reference_id = live(&reference);
        assert_eq!(
            run(&restored, 1),
            run(&reference, reference_id),
            "Correct at index {index}"
        );
        assert_eq!(restored.stats().restored, 1);
        drop(restored);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
