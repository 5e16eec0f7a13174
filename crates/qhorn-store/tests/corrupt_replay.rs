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
//! later exchanges existed on disk as missing or stale. The same replay
//! once took a snapshot that does not read to its end for its readable
//! part, and a segment it could not read for an empty one; compaction
//! then wrote the partial state and deleted the segments. It now refuses
//! both and deletes nothing.

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

/// A snapshot whose middle frame was corrupted in place does not read to
/// its end. Compaction must not rewrite it from the part that reads:
/// the sessions behind the damage are in no segment any more, so they
/// would be gone for good. It refuses, and leaves the file as it was.
#[test]
fn compaction_refuses_a_torn_snapshot_and_keeps_it() {
    let dir = temp_dir("torn-snapshot");
    let (mut store, _) = SessionStore::open(&config(&dir)).unwrap();
    for id in 1..=3 {
        store
            .append(&LogRecord::SessionCreated { id, meta: meta() })
            .unwrap();
    }
    // Every session becomes snapshot-only.
    store.compact().unwrap();
    let third = store.load_session(3).unwrap().expect("session 3");

    let path = dir.join("snapshot.qsnap");
    let mut bytes = std::fs::read(&path).unwrap();
    let starts = snapshot_frames(&bytes);
    assert_eq!(starts.len(), 4, "a header and three sessions");
    // Sessions are written in id order: frame 2 is session 2's. Flip a
    // payload byte so its checksum fails.
    bytes[starts[2] + 8] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    assert!(matches!(store.compact(), Err(StoreError::Corrupt(_))));
    assert_eq!(store.load_session(3).unwrap(), Some(third));
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "the snapshot is kept");
    assert_eq!(store.stats().compactions, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The segment files in `dir`, by name.
fn segment_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("seg-"))
        .collect();
    names.sort();
    names
}

/// A sealed segment that cannot be read is not an empty one: compaction
/// deletes the segments it replayed, so it refuses, and every segment
/// stays. (A directory in the segment's place gives a read error even to
/// a user whom file modes do not stop.)
#[test]
fn compaction_refuses_an_unreadable_segment_and_deletes_nothing() {
    let dir = temp_dir("unreadable-segment");
    let cfg = StoreConfig {
        segment_max_bytes: 128,
        ..config(&dir)
    };
    let (mut store, _) = SessionStore::open(&cfg).unwrap();
    for id in 1..=4 {
        store
            .append(&LogRecord::SessionCreated { id, meta: meta() })
            .unwrap();
    }
    let before = segment_names(&dir);
    assert!(before.len() > 2, "{before:?}");
    let sealed = dir.join(&before[0]);
    std::fs::remove_file(&sealed).unwrap();
    std::fs::create_dir(&sealed).unwrap();

    assert!(matches!(store.compact(), Err(StoreError::Io(_))));
    let after = segment_names(&dir);
    assert!(
        before.iter().all(|name| after.contains(name)),
        "{before:?} before, {after:?} after"
    );
    assert!(sealed.is_dir());
    assert_eq!(store.stats().compactions, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
