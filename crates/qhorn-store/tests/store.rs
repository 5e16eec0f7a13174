//! Filesystem-level store tests: append/recover round trips, rotation,
//! compaction, fsync policies, and on-demand single-session loads.

use qhorn_core::{Obj, Response};
use qhorn_engine::session::{Exchange, LearnerKind};
use qhorn_lang::parse_with_arity;
use qhorn_store::{
    FsyncPolicy, LogRecord, PersistedSession, SessionMeta, SessionStore, StoreConfig,
};
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
            assert_eq!(s.transcript.len(), 2);
            assert!(s.learned.is_some());
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
            store.compact().unwrap();
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
        store.compact().unwrap();
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

/// The segment files in `dir`, by index.
fn segment_indices(dir: &std::path::Path) -> Vec<u64> {
    let mut indices: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_prefix("seg-")?
                .strip_suffix(".qlog")?
                .parse()
                .ok()
        })
        .collect();
    indices.sort_unstable();
    indices
}

/// Every session id's state in `ids`, as the indexed load returns it;
/// the full-scan load must return the same.
fn states(
    store: &SessionStore,
    ids: std::ops::RangeInclusive<u64>,
) -> Vec<Option<PersistedSession>> {
    ids.map(|id| {
        let indexed = store.load_session(id).unwrap();
        assert_eq!(
            indexed,
            store.load_session_unindexed(id).unwrap(),
            "session {id}"
        );
        indexed
    })
    .collect()
}

/// Compaction is a replay of the log. Over segments small enough that
/// most records seal one, each session (open, corrected, learned and
/// verified, closed under the top id) reads the same before and after
/// two compactions with appends between them, and after a reopen; a
/// dropped dataset stays dropped and a registered one registered. No
/// segment sealed before a compaction survives it.
#[test]
fn compaction_replays_every_session_and_deletes_what_it_sealed() {
    let def = qhorn_relation::datasets::chocolates::dataset_def;
    let dir = temp_dir("replay");
    let cfg = StoreConfig {
        segment_max_bytes: 128,
        ..config(&dir)
    };
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    store
        .append(&LogRecord::DatasetRegistered { def: def("shop-a") })
        .unwrap();
    store
        .append(&LogRecord::DatasetRegistered { def: def("shop-b") })
        .unwrap();
    // 1: open, one exchange.
    store
        .append(&LogRecord::SessionCreated {
            id: 1,
            meta: meta("chocolates"),
        })
        .unwrap();
    store
        .append(&LogRecord::ExchangeAppended {
            id: 1,
            exchange: exchange("111", Response::Answer),
        })
        .unwrap();
    // 2: learned, then corrected.
    drive_session(&mut store, 2);
    store
        .append(&LogRecord::Corrected {
            id: 2,
            corrections: vec![(1, Response::Answer)],
        })
        .unwrap();
    // 3: learned and verified.
    drive_session(&mut store, 3);
    store
        .append(&LogRecord::Verified {
            id: 3,
            verified: true,
        })
        .unwrap();
    // 4: the top id, closed.
    drive_session(&mut store, 4);
    store.append(&LogRecord::SessionClosed { id: 4 }).unwrap();
    store
        .append(&LogRecord::DatasetDropped {
            name: "shop-b".into(),
        })
        .unwrap();

    let mut expected = states(&store, 0..=5);
    assert!(expected[1].is_some() && expected[4].is_none());
    assert_eq!(expected[2].as_ref().unwrap().learned, None);
    assert_eq!(expected[3].as_ref().unwrap().verified, Some(true));
    for round in 0..2 {
        let sealed = segment_indices(&dir);
        assert!(sealed.len() > 1, "{sealed:?}");
        store.compact().unwrap();
        let left = segment_indices(&dir);
        assert!(
            left.iter().all(|i| i > sealed.last().unwrap()),
            "round {round}: {sealed:?} before, {left:?} after"
        );
        assert_eq!(states(&store, 0..=5), expected, "round {round}");
        // An append after a compaction applies on top of its snapshot.
        store
            .append(&LogRecord::ExchangeAppended {
                id: 1,
                exchange: exchange("000", Response::NonAnswer),
            })
            .unwrap();
        expected = states(&store, 0..=5);
        assert_eq!(expected[1].as_ref().unwrap().transcript.len(), round + 2);
    }
    assert_eq!(store.stats().compactions, 2);
    drop(store);
    let (store, recovered) = SessionStore::open(&cfg).unwrap();
    assert_eq!(states(&store, 0..=5), expected);
    assert_eq!(recovered.max_session_id, 4);
    let names: Vec<&str> = recovered.datasets.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, ["shop-a"]);
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
        store.compact().unwrap();
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
    store.compact().unwrap();
    assert_eq!(store.stats().last_compaction_seq, 4);
    // The marker is informational; recovery ignores it.
    drop(store);
    let (_, recovered) = SessionStore::open(&cfg).unwrap();
    assert_eq!(recovered.sessions.len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `fsyncs` counts every fsync the store completes, not only the
/// policy's after appends: with `FsyncPolicy::Never` a compaction still
/// fsyncs the segment it seals and the snapshot's data and directory, and an
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
        store.compact().unwrap();
        assert_eq!(
            store.stats().fsyncs,
            3,
            "the sealed segment, the snapshot's data and its directory"
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
