//! Filesystem-level store tests: append/recover round trips, rotation,
//! compaction, fsync policies, and on-demand single-session loads.

use qhorn_core::{Obj, Response};
use qhorn_engine::session::{Exchange, LearnerKind};
use qhorn_lang::parse_with_arity;
use qhorn_store::{FsyncPolicy, LogRecord, SessionMeta, SessionStore, SnapshotEntry, StoreConfig};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> StoreConfig {
    StoreConfig {
        fsync: FsyncPolicy::Always,
        ..StoreConfig::new(dir.to_path_buf())
    }
}

fn meta(dataset: &str) -> SessionMeta {
    SessionMeta {
        dataset: dataset.into(),
        size: 30,
        learner: LearnerKind::Qhorn1,
        max_questions: Some(500),
    }
}

fn exchange(bits: &str, response: Response) -> Exchange {
    Exchange {
        question: Obj::from_bits(bits),
        from_store: false,
        response,
    }
}

/// A small session history: created, two exchanges, learned.
fn drive_session(store: &mut SessionStore, id: u64) {
    store
        .append(&LogRecord::SessionCreated {
            id,
            meta: meta("chocolates"),
        })
        .unwrap();
    store
        .append(&LogRecord::ExchangeAppended {
            id,
            exchange: exchange("110 011", Response::Answer),
        })
        .unwrap();
    store
        .append(&LogRecord::ExchangeAppended {
            id,
            exchange: exchange("000", Response::NonAnswer),
        })
        .unwrap();
    store
        .append(&LogRecord::QueryLearned {
            id,
            query: parse_with_arity("all x1; some x2 x3", 3).unwrap(),
        })
        .unwrap();
}

#[test]
fn append_then_reopen_recovers_everything() {
    let dir = temp_dir("roundtrip");
    for policy in [
        FsyncPolicy::Always,
        FsyncPolicy::EveryN(3),
        FsyncPolicy::Never,
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            fsync: policy,
            ..StoreConfig::new(dir.to_path_buf())
        };
        {
            let (mut store, recovered) = SessionStore::open(&cfg).unwrap();
            assert!(recovered.sessions.is_empty());
            drive_session(&mut store, 1);
            drive_session(&mut store, 2);
            assert_eq!(store.stats().records_appended, 8);
        }
        // Process "crash": the store was dropped without ceremony.
        let (store, recovered) = SessionStore::open(&cfg).unwrap();
        assert_eq!(recovered.sessions.len(), 2, "policy {policy:?}");
        assert_eq!(recovered.max_session_id, 2);
        for s in &recovered.sessions {
            assert_eq!(s.answered, 2);
            assert_eq!(s.transcript.len(), 2);
            assert!(s.learned.is_some());
            assert_eq!(s.asked.len(), 2);
        }
        assert_eq!(store.stats().recovered_sessions, 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_sessions_are_not_recovered_but_their_ids_stay_reserved() {
    let dir = temp_dir("closed");
    let cfg = config(&dir);
    {
        let (mut store, _) = SessionStore::open(&cfg).unwrap();
        drive_session(&mut store, 1);
        drive_session(&mut store, 2);
        store.append(&LogRecord::SessionClosed { id: 2 }).unwrap();
    }
    let (_, recovered) = SessionStore::open(&cfg).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    assert_eq!(recovered.sessions[0].id, 1);
    // Id 2 must not be handed out again: old records still mention it.
    assert_eq!(recovered.max_session_id, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Compaction deletes every record of a closed session; when that
/// session had the highest id, the id must still stay reserved, through
/// any number of compactions.
#[test]
fn a_closed_top_id_stays_reserved_across_compactions() {
    let dir = temp_dir("closed-compact");
    let cfg = config(&dir);
    {
        let (mut store, _) = SessionStore::open(&cfg).unwrap();
        drive_session(&mut store, 1);
        drive_session(&mut store, 2);
        store.append(&LogRecord::SessionClosed { id: 2 }).unwrap();
        for _ in 0..2 {
            let boundary = store.rotate().unwrap();
            store.write_snapshot(&[], boundary).unwrap();
        }
    }
    let (_, recovered) = SessionStore::open(&cfg).unwrap();
    let ids: Vec<u64> = recovered.sessions.iter().map(|s| s.id).collect();
    assert_eq!(ids, [1]);
    assert_eq!(recovered.max_session_id, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiny_segments_rotate_and_still_recover() {
    let dir = temp_dir("rotate");
    let cfg = StoreConfig {
        segment_max_bytes: 256, // a few records per segment
        ..config(&dir)
    };
    {
        let (mut store, _) = SessionStore::open(&cfg).unwrap();
        for id in 1..=5 {
            drive_session(&mut store, id);
        }
        assert!(store.stats().segments > 1, "{:?}", store.stats());
    }
    let (_, recovered) = SessionStore::open(&cfg).unwrap();
    assert_eq!(recovered.sessions.len(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_truncates_the_log_and_preserves_state() {
    let dir = temp_dir("compact");
    let cfg = StoreConfig {
        segment_max_bytes: 256,
        ..config(&dir)
    };
    {
        let (mut store, _) = SessionStore::open(&cfg).unwrap();
        for id in 1..=4 {
            drive_session(&mut store, id);
        }
        let before = store.live_log_bytes();
        let boundary = store.rotate().unwrap();
        // No states re-captured by the caller: every session is carried
        // forward from disk.
        store.write_snapshot(&[], boundary).unwrap();
        assert!(store.live_log_bytes() < before);
        assert_eq!(store.stats().compactions, 1);
    }
    let (store, recovered) = SessionStore::open(&cfg).unwrap();
    assert_eq!(recovered.sessions.len(), 4);
    for s in &recovered.sessions {
        assert_eq!(s.transcript.len(), 2);
        assert!(s.learned.is_some());
    }
    // Records appended after the snapshot still apply on top of it.
    drop(store);
    {
        let (mut store, _) = SessionStore::open(&cfg).unwrap();
        store
            .append(&LogRecord::ExchangeAppended {
                id: 1,
                exchange: exchange("111", Response::Answer),
            })
            .unwrap();
    }
    let (_, recovered) = SessionStore::open(&cfg).unwrap();
    let s1 = recovered.sessions.iter().find(|s| s.id == 1).unwrap();
    assert_eq!(s1.transcript.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn caller_captured_states_override_disk_state() {
    let dir = temp_dir("captured");
    let cfg = config(&dir);
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    drive_session(&mut store, 1);
    let boundary = store.rotate().unwrap();
    // Capture a richer state than the log shows (as the registry does for
    // live sessions whose transcripts contain auto-answered entries).
    let mut session = store.load_session(1).unwrap().unwrap();
    session.verified = Some(true);
    let through = store.last_seq();
    store
        .write_snapshot(
            &[SnapshotEntry {
                through_seq: through,
                session,
            }],
            boundary,
        )
        .unwrap();
    drop(store);
    let (_, recovered) = SessionStore::open(&cfg).unwrap();
    assert_eq!(recovered.sessions[0].verified, Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn records_racing_past_the_compaction_boundary_survive() {
    // The compaction window: rotate → capture states → write snapshot.
    // An append landing between capture and write can itself auto-rotate
    // (tiny segments force it here); the segment it seals postdates the
    // boundary, so the snapshot must NOT delete it — otherwise an
    // acknowledged record vanishes.
    let dir = temp_dir("race");
    let cfg = StoreConfig {
        segment_max_bytes: 128, // every exchange record forces a rotation
        ..config(&dir)
    };
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    drive_session(&mut store, 1);
    let boundary = store.rotate().unwrap();
    // "Capture" session 1 now…
    let stale = SnapshotEntry {
        through_seq: store.last_seq(),
        session: store.load_session(1).unwrap().unwrap(),
    };
    // …then three more answers race in, auto-rotating past the boundary.
    for _ in 0..3 {
        store
            .append(&LogRecord::ExchangeAppended {
                id: 1,
                exchange: exchange("111", Response::Answer),
            })
            .unwrap();
    }
    store.write_snapshot(&[stale], boundary).unwrap();
    drop(store);
    let (_, recovered) = SessionStore::open(&cfg).unwrap();
    let s1 = recovered.sessions.iter().find(|s| s.id == 1).unwrap();
    assert_eq!(
        s1.transcript.len(),
        5,
        "the 2 captured + 3 racing exchanges must all survive compaction"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dataset_registrations_survive_restart_and_compaction() {
    let def = qhorn_relation::datasets::chocolates::dataset_def;
    let dir = temp_dir("datasets");
    let cfg = StoreConfig {
        segment_max_bytes: 256,
        ..config(&dir)
    };
    {
        let (mut store, _) = SessionStore::open(&cfg).unwrap();
        store
            .append(&LogRecord::DatasetRegistered { def: def("shop-a") })
            .unwrap();
        store
            .append(&LogRecord::DatasetRegistered { def: def("shop-b") })
            .unwrap();
        drive_session(&mut store, 1);
        store
            .append(&LogRecord::DatasetDropped {
                name: "shop-b".into(),
            })
            .unwrap();
    }
    // Restart: registrations replay (minus the drop).
    {
        let (mut store, recovered) = SessionStore::open(&cfg).unwrap();
        let names: Vec<&str> = recovered.datasets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["shop-a"]);
        assert_eq!(recovered.datasets[0].relation.len(), 2);
        // Compaction deletes the segments holding the original
        // registration records; the definitions must be re-appended into
        // the fresh log, not lost with them.
        let boundary = store.rotate().unwrap();
        store.write_snapshot(&[], boundary).unwrap();
        assert_eq!(store.stats().compactions, 1);
    }
    let (_, recovered) = SessionStore::open(&cfg).unwrap();
    let names: Vec<&str> = recovered.datasets.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, ["shop-a"], "registration survived compaction");
    recovered.datasets[0].validate().unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_session_replays_one_id_on_demand() {
    let dir = temp_dir("load");
    let cfg = config(&dir);
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    drive_session(&mut store, 1);
    drive_session(&mut store, 2);
    let s = store.load_session(2).unwrap().unwrap();
    assert_eq!(s.id, 2);
    assert_eq!(s.transcript.len(), 2);
    assert!(store.load_session(99).unwrap().is_none());
    store.append(&LogRecord::SessionClosed { id: 2 }).unwrap();
    assert!(store.load_session(2).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_written_marker_lands_in_the_log() {
    let dir = temp_dir("marker");
    let cfg = config(&dir);
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    drive_session(&mut store, 1);
    let boundary = store.rotate().unwrap();
    store.write_snapshot(&[], boundary).unwrap();
    assert_eq!(store.stats().last_compaction_seq, 4);
    // The marker is informational; recovery ignores it.
    drop(store);
    let (_, recovered) = SessionStore::open(&cfg).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fsyncs` counts every fsync the store completes, not only the
/// policy's after appends: with `FsyncPolicy::Never` a compaction still
/// fsyncs at rotation and for the snapshot's data and directory, and an
/// open that truncates a torn tail fsyncs the cut segment.
#[test]
fn fsyncs_outside_the_append_policy_are_counted() {
    let dir = temp_dir("fsyncs");
    let cfg = StoreConfig {
        fsync: FsyncPolicy::Never,
        ..config(&dir)
    };
    {
        let (mut store, _) = SessionStore::open(&cfg).unwrap();
        drive_session(&mut store, 1);
        assert_eq!(store.stats().fsyncs, 0, "the policy never fsyncs");
        let boundary = store.rotate().unwrap();
        assert_eq!(store.stats().fsyncs, 1, "rotation syncs the sealed segment");
        store.write_snapshot(&[], boundary).unwrap();
        assert_eq!(
            store.stats().fsyncs,
            3,
            "the snapshot's data and its directory"
        );
        store.sync().unwrap();
        assert_eq!(store.stats().fsyncs, 4);
        let fsync_nanos = store.stats().fsync_nanos;
        assert!(fsync_nanos > 0, "{fsync_nanos}");
    }
    // A torn tail: half a frame header at the end of the newest segment.
    let newest = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "qlog"))
        .max()
        .unwrap();
    let mut bytes = std::fs::read(&newest).unwrap();
    bytes.extend_from_slice(&[7, 0]);
    std::fs::write(&newest, bytes).unwrap();
    let (store, recovered) = SessionStore::open(&cfg).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    let stats = store.stats();
    assert_eq!((stats.torn_truncations, stats.fsyncs), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}
