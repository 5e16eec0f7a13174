//! A real write failure inside `SessionStore::append`: the append must
//! return `Err` and leave the segment as it was, so the next
//! acknowledged record is readable at once and survives a reopen.
//!
//! The failure comes from the kernel, not from bytes added through a
//! second handle: this test runs itself again as a child process under
//! `ulimit -f` (with `SIGXFSZ` ignored), so a write crossing the file
//! size limit lands short and the rest of it fails with `EFBIG`. The
//! limit applies to the child process only.

#![cfg(unix)]

use qhorn_engine::session::LearnerKind;
use qhorn_store::{FsyncPolicy, LogRecord, SessionMeta, SessionStore, StoreConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Set in the child process: the store directory it appends to.
const CHILD_DIR: &str = "QHORN_APPEND_FAULT_DIR";

/// The child's file size limit, in `ulimit -f` blocks (512 or 1024
/// bytes, by shell): at least 1,024 bytes either way, and far below the
/// large record's frame.
const LIMIT_BLOCKS: u32 = 2;

fn config(dir: &Path) -> StoreConfig {
    StoreConfig {
        fsync: FsyncPolicy::Always,
        ..StoreConfig::new(dir.to_path_buf())
    }
}

fn created(id: u64, dataset: String) -> LogRecord {
    LogRecord::SessionCreated {
        id,
        meta: SessionMeta {
            dataset,
            size: 30,
            learner: LearnerKind::Qhorn1,
            max_questions: None,
        },
    }
}

/// The child's script: a small record, a record whose frame crosses the
/// size limit, then another small record.
fn append_across_the_limit(dir: &Path) {
    let (mut store, _) = SessionStore::open(&config(dir)).unwrap();
    store.append(&created(1, "chocolates".into())).unwrap();
    let before = store.stats();
    let torn = store.append(&created(2, "x".repeat(8 << 10)));
    assert!(torn.is_err(), "the write crossing the limit must fail");
    assert_eq!(store.stats(), before, "a failed append counts nothing");
    let segment_bytes: u64 = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "qlog"))
        .map(|p| std::fs::metadata(p).unwrap().len())
        .sum();
    assert_eq!(
        segment_bytes, before.live_log_bytes,
        "the torn bytes are cut back off the segment"
    );
    store.append(&created(3, "chocolates".into())).unwrap();
    let next = store
        .load_session(3)
        .expect("the record after the torn write reads back")
        .expect("session 3 exists");
    assert_eq!(next.meta.dataset, "chocolates");
    assert!(store.load_session(2).unwrap().is_none());
}

#[test]
fn a_failed_write_is_cut_back_before_the_next_record() {
    if let Some(dir) = std::env::var_os(CHILD_DIR) {
        append_across_the_limit(Path::new(&dir));
        return;
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("append-fault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().unwrap();
    let output = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "trap '' XFSZ; ulimit -f {LIMIT_BLOCKS}; exec \"$0\" \"$1\" --exact --nocapture --test-threads=1"
        ))
        .arg(&exe)
        .arg("a_failed_write_is_cut_back_before_the_next_record")
        .env(CHILD_DIR, &dir)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    // The child ran the script (and did not filter it out).
    assert!(
        String::from_utf8_lossy(&output.stdout).contains("1 passed"),
        "{}",
        String::from_utf8_lossy(&output.stdout)
    );

    // Reopened without the limit: both acknowledged sessions are there,
    // and recovery found no torn tail to cut.
    let (store, recovered) = SessionStore::open(&config(&dir)).unwrap();
    let ids: Vec<u64> = recovered.sessions.iter().map(|s| s.id).collect();
    assert_eq!(ids, [1, 3]);
    assert_eq!(store.stats().torn_truncations, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
