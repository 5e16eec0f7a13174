//! # qhorn-store
//!
//! An embedded, append-only **durable store** for learning-session state —
//! the persistence subsystem under `qhorn-service`. The paper's
//! interactive dialogues (question → answer → correction → verification)
//! are long-lived; this crate makes them survive process crashes: the log
//! *is* the membership-query transcript, so **recovery is replay**.
//!
//! Std-only, no external dependencies (consistent with the workspace's
//! vendored-deps constraint). Records go in; sessions and [`StoreStats`]
//! come out. The store calls nothing back into its embedder, which times
//! and traces store calls from its own side. Three pieces:
//!
//! * **Append-only log** ([`SessionStore::append`]) — segmented files of
//!   length-prefixed, CRC-32-checksummed JSON records ([`LogRecord`]:
//!   `SessionCreated`, `ExchangeAppended`, `Corrected`, `QueryLearned`,
//!   `SessionClosed`, `DatasetRegistered`/`DatasetDropped` for uploaded
//!   dataset definitions, `SnapshotWritten`), with a configurable
//!   [`FsyncPolicy`] (`Always` / `EveryN` / `Never`). One shared log for
//!   all sessions (not file-per-session): a single fsync stream batches
//!   durability across concurrent dialogues, and compaction/recovery scan
//!   one directory; the cost — recovery reads other sessions' records —
//!   is bounded by snapshotting.
//! * **Snapshot + compaction** ([`SessionStore::compact`]) — the store
//!   seals its active segment, replays the snapshot and segments, writes
//!   every live [`PersistedSession`] to a new snapshot file (write-tmp →
//!   fsync → atomic rename), and deletes the segments it sealed. It holds
//!   the store exclusively throughout, so no record lands during it; each
//!   entry records the log sequence number it covers, and recovery
//!   replays only the records after it.
//! * **Recovery** ([`SessionStore::open`]) — scan the snapshot and
//!   segments, truncate torn tails (bad checksum / short frame ⇒ cut at
//!   the last valid record), and rebuild a [`RecoveredState`] of live
//!   sessions. Recovery never panics on corrupt input and never
//!   resurrects a half-written record.
//!
//! ```no_run
//! use qhorn_store::{LogRecord, SessionMeta, SessionStore, StoreConfig};
//! use qhorn_engine::session::LearnerKind;
//!
//! let config = StoreConfig::new("/var/lib/qhorn/sessions");
//! let (mut store, recovered) = SessionStore::open(&config).unwrap();
//! println!("{} sessions survived the restart", recovered.sessions.len());
//! store
//!     .append(&LogRecord::SessionCreated {
//!         id: recovered.max_session_id + 1,
//!         meta: SessionMeta {
//!             dataset: "chocolates".into(),
//!             size: 30,
//!             learner: LearnerKind::Qhorn1,
//!             max_questions: None,
//!         },
//!     })
//!     .unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc;
mod log;
mod record;
mod sync;

pub use log::{RecoveredState, SessionStore};
pub use record::{LogRecord, PersistedSession, SessionMeta, SnapshotEntry};
pub use sync::SyncSessionStore;

use qhorn_json::JsonError;
use std::fmt;
use std::path::PathBuf;

/// When appended records reach disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every record: a crash loses nothing acknowledged.
    Always,
    /// `fsync` after every `n` records: a crash loses at most the last
    /// `n - 1` acknowledged records (plus whatever the OS had not yet
    /// written back on its own).
    EveryN(u32),
    /// Never `fsync`; the OS writes back on its own schedule. Fastest,
    /// weakest — still safe against process crashes (the kernel holds the
    /// data), but not against power loss.
    Never,
}

/// Store construction parameters.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Directory holding the log segments and snapshot.
    pub dir: PathBuf,
    /// Durability policy for appends.
    pub fsync: FsyncPolicy,
    /// Rotate the active segment once it exceeds this size.
    pub segment_max_bytes: u64,
    /// `Registry::sweep` triggers compaction once the live log exceeds
    /// this size.
    pub compact_threshold_bytes: u64,
}

impl StoreConfig {
    /// A config with production-ish defaults: `EveryN(8)`, 4 MiB
    /// segments, compaction past 16 MiB of live log.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::EveryN(8),
            segment_max_bytes: 4 << 20,
            compact_threshold_bytes: 16 << 20,
        }
    }
}

/// Store failures.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// (De)serialization failure on a non-recovery path.
    Json(JsonError),
    /// Structurally impossible payload (e.g. a record over the frame
    /// size limit).
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Json(e) => write!(f, "store json error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt store payload: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<JsonError> for StoreError {
    fn from(e: JsonError) -> Self {
        StoreError::Json(e)
    }
}

/// Store counters, as served by the service's `Stats` protocol reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended since open (cumulative).
    pub records_appended: u64,
    /// Frame bytes appended since open (cumulative).
    pub bytes_appended: u64,
    /// Current segment files (sealed + active).
    pub segments: u64,
    /// Bytes across all current segments.
    pub live_log_bytes: u64,
    /// Compactions run since open (cumulative).
    pub compactions: u64,
    /// Log sequence number the latest compaction covered (0 = never).
    pub last_compaction_seq: u64,
    /// Sessions rebuilt by recovery at open.
    pub recovered_sessions: u64,
    /// Torn tails truncated by recovery at open.
    pub torn_truncations: u64,
    /// Sessions captured in the current snapshot file (0 = no snapshot).
    pub snapshot_sessions: u64,
    /// Wall time spent writing appended frames, nanoseconds (cumulative;
    /// includes any rotation an append triggered).
    pub append_nanos: u64,
    /// Fsyncs the store completed (cumulative): the durability policy's
    /// after appends, and also those at rotation, on
    /// [`SessionStore::sync`], of a snapshot's data and of its directory
    /// at compaction, and of a torn tail truncated at open (counted in
    /// the store that open returns).
    pub fsyncs: u64,
    /// Wall time spent in those fsyncs, nanoseconds (cumulative).
    pub fsync_nanos: u64,
    /// Wall time spent compacting, nanoseconds (cumulative).
    pub compaction_nanos: u64,
}

qhorn_json::wire! {
    struct StoreStats {
        records_appended: u64,
        bytes_appended: u64,
        segments: u64,
        live_log_bytes: u64,
        compactions: u64,
        last_compaction_seq: u64,
        recovered_sessions: u64,
        torn_truncations: u64,
        snapshot_sessions: u64,
        append_nanos: u64 [default],
        fsyncs: u64 [default],
        fsync_nanos: u64 [default],
        compaction_nanos: u64 [default],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_stats_round_trip() {
        let stats = StoreStats {
            records_appended: 41,
            bytes_appended: 9000,
            segments: 3,
            live_log_bytes: 4096,
            compactions: 2,
            last_compaction_seq: 37,
            recovered_sessions: 5,
            torn_truncations: 1,
            snapshot_sessions: 4,
            append_nanos: 6,
            fsyncs: 7,
            fsync_nanos: 8,
            compaction_nanos: 9,
        };
        let json = qhorn_json::to_string(&stats);
        let back: StoreStats = qhorn_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        // Documents written before the timings were counted still decode.
        let older = r#"{"records_appended":41,"bytes_appended":9000,"segments":3,"live_log_bytes":4096,"compactions":2,"last_compaction_seq":37,"recovered_sessions":5,"torn_truncations":1,"snapshot_sessions":4}"#;
        let back: StoreStats = qhorn_json::from_str(older).unwrap();
        assert_eq!(
            (back.append_nanos, back.fsyncs, back.fsync_nanos),
            (0, 0, 0)
        );
        assert_eq!(back.compaction_nanos, 0);
    }

    #[test]
    fn default_config_is_sane() {
        let c = StoreConfig::new("/tmp/x");
        assert!(c.segment_max_bytes > 0);
        assert!(c.compact_threshold_bytes >= c.segment_max_bytes);
        assert_eq!(c.fsync, FsyncPolicy::EveryN(8));
    }
}
