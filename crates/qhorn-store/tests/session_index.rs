//! Differential suite for the per-session secondary indexes, of the log
//! and of the snapshot file: for every session id (live, closed,
//! snapshot-only, or unknown) and across rotation, reopen, and
//! compaction, the indexed [`SessionStore::load_session`] must return
//! exactly what the full-scan reference path
//! [`SessionStore::load_session_unindexed`] returns. An indexed load
//! reads its session's own snapshot frame, so in-place corruption of
//! another session's frame neither hides it nor goes unreported.

use qhorn_core::{Obj, Response};
use qhorn_engine::session::{Exchange, LearnerKind};
use qhorn_lang::parse_with_arity;
use qhorn_store::{
    FsyncPolicy, LogRecord, PersistedSession, SessionMeta, SessionStore, SnapshotEntry,
    StoreConfig, StoreError,
};
use std::path::PathBuf;

#[path = "support/snapshot_file.rs"]
mod snapshot_file;
use snapshot_file::plant_snapshot;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("session-index-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Appends a varied history for `id`: create, exchanges, a correction, a
/// learned query, a verification.
fn drive(store: &mut SessionStore, id: u64, exchanges: usize) {
    store
        .append(&LogRecord::SessionCreated {
            id,
            meta: meta("chocolates"),
        })
        .unwrap();
    for i in 0..exchanges {
        let label = if i % 3 == 0 {
            Response::NonAnswer
        } else {
            Response::Answer
        };
        store
            .append(&LogRecord::ExchangeAppended {
                id,
                exchange: exchange(if i % 2 == 0 { "110 011" } else { "000" }, label),
            })
            .unwrap();
    }
    if exchanges > 1 {
        store
            .append(&LogRecord::Corrected {
                id,
                corrections: vec![(0, Response::Answer)],
            })
            .unwrap();
    }
    store
        .append(&LogRecord::QueryLearned {
            id,
            query: parse_with_arity("all x1; some x2 x3", 3).unwrap(),
        })
        .unwrap();
    store
        .append(&LogRecord::Verified { id, verified: true })
        .unwrap();
}

/// Asserts indexed ≡ full-scan for every id in `ids` (which should
/// include ids that do not exist and ids that were closed).
fn assert_paths_agree(store: &SessionStore, ids: &[u64]) {
    for &id in ids {
        let indexed = store.load_session(id).unwrap();
        let scanned = store.load_session_unindexed(id).unwrap();
        assert_eq!(indexed, scanned, "paths diverge for session {id}");
    }
}

#[test]
fn indexed_load_matches_full_scan_across_rotation() {
    let dir = temp_dir("rotation");
    let cfg = StoreConfig {
        fsync: FsyncPolicy::Never,
        segment_max_bytes: 256, // force many segments
        ..StoreConfig::new(dir.clone())
    };
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    for id in 1..=6u64 {
        drive(&mut store, id, id as usize);
    }
    store.append(&LogRecord::SessionClosed { id: 3 }).unwrap();
    // Store-level records must not perturb the index.
    store
        .append(&LogRecord::DatasetDropped {
            name: "nope".into(),
        })
        .unwrap();
    let probe: Vec<u64> = (0..=8).collect(); // includes unknown 0, 7, 8
    assert_paths_agree(&store, &probe);
    assert!(store.load_session(3).unwrap().is_none(), "closed is gone");
    assert!(store.load_session(5).unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn index_is_rebuilt_on_reopen() {
    let dir = temp_dir("reopen");
    let cfg = StoreConfig {
        fsync: FsyncPolicy::Always,
        segment_max_bytes: 512,
        ..StoreConfig::new(dir.clone())
    };
    {
        let (mut store, _) = SessionStore::open(&cfg).unwrap();
        for id in 1..=4u64 {
            drive(&mut store, id, 3);
        }
        store.append(&LogRecord::SessionClosed { id: 2 }).unwrap();
    }
    // Crash-reopen: the index exists only in memory, so this exercises
    // the recovery-scan rebuild.
    let (mut store, recovered) = SessionStore::open(&cfg).unwrap();
    assert_eq!(recovered.sessions.len(), 3);
    let probe: Vec<u64> = (0..=6).collect();
    assert_paths_agree(&store, &probe);
    // Appends after reopen extend the rebuilt index seamlessly.
    drive(&mut store, 9, 2);
    assert_paths_agree(&store, &[2, 9]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn index_survives_compaction_and_snapshot_only_sessions() {
    let dir = temp_dir("compaction");
    let cfg = StoreConfig {
        fsync: FsyncPolicy::Never,
        segment_max_bytes: 256,
        ..StoreConfig::new(dir.clone())
    };
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    for id in 1..=5u64 {
        drive(&mut store, id, 2);
    }
    store.append(&LogRecord::SessionClosed { id: 4 }).unwrap();

    // Plant a snapshot state for session 1 that its log frames do not
    // show, covering every record so far, as a registry once captured a
    // live session; then compact, which carries it forward. Sessions 2,
    // 3, 5 become snapshot-only (all their frames predate the
    // compaction).
    let mut planted = PersistedSession::new(1, meta("chocolates"));
    // Visibly distinct planted state: 99 exchanges.
    planted.transcript = vec![exchange("111", Response::Answer); 99];
    plant_snapshot(
        &dir,
        &[SnapshotEntry {
            through_seq: store.last_seq(),
            session: planted,
        }],
    );
    drop(store);
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    store.compact().unwrap();

    let probe: Vec<u64> = (0..=7).collect();
    assert_paths_agree(&store, &probe);
    assert_eq!(store.load_session(1).unwrap().unwrap().transcript.len(), 99);
    assert!(store.load_session(4).unwrap().is_none());

    // New history after compaction lands in the index and still agrees.
    drive(&mut store, 6, 4);
    store
        .append(&LogRecord::ExchangeAppended {
            id: 5,
            exchange: exchange("111", Response::Answer),
        })
        .unwrap();
    assert_paths_agree(&store, &probe);

    // And a reopen after compaction rebuilds the pruned index correctly.
    drop(store);
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    assert_paths_agree(&store, &probe);

    // Close a snapshot-only session and compact again: the snapshot
    // index is rebuilt from the offsets the new file was written at.
    store.append(&LogRecord::SessionClosed { id: 2 }).unwrap();
    store.compact().unwrap();
    assert_paths_agree(&store, &probe);
    assert!(store.load_session(2).unwrap().is_none(), "closed is gone");
    assert_eq!(store.load_session(1).unwrap().unwrap().transcript.len(), 99);
    drop(store);
    let (store, _) = SessionStore::open(&cfg).unwrap();
    assert_paths_agree(&store, &probe);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The start offsets of the snapshot file's frames, header first.
fn snapshot_frames(bytes: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        starts.push(at);
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
    }
    starts
}

/// A load reads its own session's snapshot frame: corrupting session 2's
/// frame in place leaves session 3 intact, and loading session 2 reports
/// the corruption rather than a missing session.
#[test]
fn a_corrupt_snapshot_frame_spares_the_sessions_after_it() {
    let dir = temp_dir("corrupt-snapshot-frame");
    let cfg = StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::new(dir.clone())
    };
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    for id in 1..=3u64 {
        drive(&mut store, id, 3);
    }
    // Every session becomes snapshot-only.
    store.compact().unwrap();
    let third = store.load_session(3).unwrap().expect("session 3");
    assert_paths_agree(&store, &[1, 2, 3]);

    let path = dir.join("snapshot.qsnap");
    let mut bytes = std::fs::read(&path).unwrap();
    let starts = snapshot_frames(&bytes);
    assert_eq!(starts.len(), 4, "a header and three sessions");
    // Sessions are written in id order: frame 2 is session 2's. Flip a
    // payload byte so its checksum fails.
    bytes[starts[2] + 8] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    assert_eq!(store.load_session(3).unwrap(), Some(third));
    assert!(store.load_session(1).unwrap().is_some());
    match store.load_session(2) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("snapshot"), "{msg}"),
        other => panic!("a corrupt frame loaded as {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
