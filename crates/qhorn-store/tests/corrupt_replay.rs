//! Regression: a CRC-valid but undecodable frame **mid-segment** must
//! surface as [`StoreError::Corrupt`] from the replay paths
//! (`load_session` when the session's own frames are affected,
//! `load_session_unindexed` and `compact` always), not silently
//! discard every record behind it. Since the per-session index, a
//! session whose own frames are intact restores completely even when an
//! unrelated frame is corrupt — isolation, not silence. Compaction
//! replays the whole log to write its snapshot, so it refuses to run and
//! deletes nothing until the corruption is dealt with. (A torn physical
//! tail — incomplete or checksum-failing trailing bytes — is different:
//! crashes produce those legitimately, and recovery truncates them.)
//!
//! The bug this pins: `replay_disk` used to `break` out of a segment on
//! the first undecodable frame, so `load_session` reported sessions whose
//! later exchanges existed on disk as missing or stale.

use qhorn_engine::session::LearnerKind;
use qhorn_store::crc::crc32;
use qhorn_store::{FsyncPolicy, LogRecord, SessionMeta, SessionStore, StoreConfig, StoreError};
use std::io::Write;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &std::path::Path) -> StoreConfig {
    StoreConfig {
        fsync: FsyncPolicy::Never,
        ..StoreConfig::new(dir.to_path_buf())
    }
}

fn meta() -> SessionMeta {
    SessionMeta {
        dataset: "chocolates".into(),
        size: 30,
        learner: LearnerKind::Qhorn1,
        max_questions: None,
    }
}

/// A complete, checksum-correct frame whose payload is not a decodable
/// log record — the shape in-place corruption (or a buggy writer) leaves,
/// which a crash cannot.
fn garbage_frame() -> Vec<u8> {
    let payload = b"{\"seq\":999,\"kind\":\"no_such_kind\"}";
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

#[test]
fn valid_crc_garbage_mid_segment_is_corrupt_not_silent_truncation() {
    let dir = temp_dir("mid-segment");
    let (mut store, _) = SessionStore::open(&config(&dir)).unwrap();
    store
        .append(&LogRecord::SessionCreated {
            id: 1,
            meta: meta(),
        })
        .unwrap();

    // Plant the garbage frame in the middle of the active segment by
    // appending through a second file handle, then append a real record
    // behind it through the store (its O_APPEND handle lands after the
    // garbage).
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("seg-000001.qlog"))
            .unwrap();
        f.write_all(&garbage_frame()).unwrap();
    }
    store
        .append(&LogRecord::SessionCreated {
            id: 2,
            meta: meta(),
        })
        .unwrap();

    // Before the fix both replay paths returned Ok with session 2's
    // record silently dropped (`load_session(2)` came back `None`).
    // Session 2's post-garbage frame is desynchronized from the store's
    // offset accounting, so the indexed read lands on the garbage and
    // reports it loudly.
    match store.load_session(2) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("seg-000001"), "{msg}");
        }
        other => panic!("expected StoreError::Corrupt, got {other:?}"),
    }
    // Session 1's own frames are intact, and the per-session index lets
    // its restore avoid other sessions' frames entirely — so it is served
    // complete rather than refused (corruption isolation, not silence:
    // nothing of session 1's history is missing). The full-scan
    // reference path still refuses, as before the index existed.
    assert_eq!(store.load_session(1).unwrap().map(|s| s.id), Some(1));
    assert!(matches!(
        store.load_session_unindexed(1),
        Err(StoreError::Corrupt(_))
    ));
    // Compaction replays the whole log, so it refuses too, and deletes
    // nothing.
    assert!(matches!(store.compact(), Err(StoreError::Corrupt(_))));
    assert!(dir.join("seg-000001.qlog").exists());
    assert_eq!(store.stats().compactions, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_at_open_still_truncates_at_the_garbage() {
    // `SessionStore::open` keeps its recover-don't-refuse contract: the
    // garbage frame marks a torn tail, later records are cut, and the
    // truncation is counted.
    let dir = temp_dir("reopen");
    {
        let (mut store, _) = SessionStore::open(&config(&dir)).unwrap();
        store
            .append(&LogRecord::SessionCreated {
                id: 1,
                meta: meta(),
            })
            .unwrap();
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(dir.join("seg-000001.qlog"))
                .unwrap();
            f.write_all(&garbage_frame()).unwrap();
        }
        store
            .append(&LogRecord::SessionCreated {
                id: 2,
                meta: meta(),
            })
            .unwrap();
    }
    let (store, recovered) = SessionStore::open(&config(&dir)).unwrap();
    let ids: Vec<u64> = recovered.sessions.iter().map(|s| s.id).collect();
    assert_eq!(ids, vec![1], "records behind the garbage are cut at open");
    assert_eq!(store.stats().torn_truncations, 1);
    // And the replay paths are clean again after the truncation.
    assert!(store.load_session(1).unwrap().is_some());
    assert!(store.load_session(2).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_physical_tail_stays_recoverable_in_replay_paths() {
    // An incomplete trailing frame (what a crash actually leaves) must
    // NOT trip the corruption error: replay skips it exactly as before.
    let dir = temp_dir("tail");
    let (mut store, _) = SessionStore::open(&config(&dir)).unwrap();
    store
        .append(&LogRecord::SessionCreated {
            id: 1,
            meta: meta(),
        })
        .unwrap();
    store.sync().unwrap();
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("seg-000001.qlog"))
            .unwrap();
        // Half a frame: a length prefix promising more bytes than exist.
        f.write_all(&[0x40, 0, 0, 0, 0xde, 0xad]).unwrap();
    }
    let loaded = store.load_session(1).unwrap().expect("session readable");
    assert_eq!(loaded.id, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
