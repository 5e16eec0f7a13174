//! The segmented append-only log and its snapshot/compaction/recovery
//! machinery.
//!
//! ## On-disk layout
//!
//! ```text
//! <dir>/
//!   seg-000001.qlog      sealed segment (immutable once rotated)
//!   seg-000002.qlog      …
//!   seg-000003.qlog      active segment (appends go here)
//!   snapshot.qsnap       latest full snapshot (atomically renamed into place)
//! ```
//!
//! Every file is a sequence of **frames**:
//!
//! ```text
//! ┌────────────┬────────────┬──────────────────────────┐
//! │ len: u32 LE│ crc: u32 LE│ payload (len bytes, JSON) │
//! └────────────┴────────────┴──────────────────────────┘
//! ```
//!
//! `crc` is CRC-32 (IEEE) of the payload. A short read, an oversized
//! length, a checksum mismatch, or unparseable JSON all mark a **torn
//! tail**: recovery truncates the segment at the last valid frame and
//! ignores (and removes) any later segments — exactly the half-written
//! state a crash mid-`write` can leave behind.

use crate::crc::crc32;
use crate::record::{LogRecord, PersistedSession, Replayer, SnapshotEntry};
use crate::{FsyncPolicy, StoreConfig, StoreError, StoreStats};
use qhorn_json::{FromJson, Json, ToJson};
use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Largest accepted frame payload; a corrupt length field cannot make
/// recovery attempt a multi-gigabyte allocation.
const MAX_RECORD_BYTES: u32 = 1 << 24;

const SNAPSHOT_FILE: &str = "snapshot.qsnap";
const SNAPSHOT_TMP: &str = "snapshot.qsnap.tmp";

/// What [`SessionStore::open`] rebuilt from disk.
#[derive(Clone, Debug, Default)]
pub struct RecoveredState {
    /// Live (non-closed) sessions, in id order.
    pub sessions: Vec<PersistedSession>,
    /// Registered (and not since dropped) uploaded datasets, in name
    /// order — the service re-registers these with its catalog so
    /// recovered sessions over uploaded data can rebuild their stores.
    pub datasets: Vec<qhorn_relation::DatasetDef>,
    /// Highest session id ever logged (live or closed); resume id
    /// assignment above this.
    pub max_session_id: u64,
}

/// The embedded durable store: one shared segmented log plus a snapshot
/// file, guarding one service's sessions.
///
/// Not internally synchronized — the service wraps it in a `Mutex`.
/// Appends are a single `write(2)` of a whole frame, so a crash can only
/// tear the final frame, never interleave two.
pub struct SessionStore {
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_max_bytes: u64,
    active: File,
    active_index: u64,
    active_len: u64,
    /// Sealed (rotated-out) segments: `(index, bytes)`.
    sealed: Vec<(u64, u64)>,
    /// Next record sequence number to assign.
    next_seq: u64,
    /// Appends since the last fsync (for [`FsyncPolicy::EveryN`]).
    unsynced: u32,
    records_appended: u64,
    bytes_appended: u64,
    compactions: u64,
    last_compaction_seq: u64,
    recovered_sessions: u64,
    torn_truncations: u64,
    snapshot_sessions: u64,
    append_nanos: u64,
    fsyncs: u64,
    fsync_nanos: u64,
    compaction_nanos: u64,
    /// Set when a failed append left part of a frame in the active
    /// segment and cutting it off failed too: every later append and
    /// rotation is refused, as a record written behind the torn bytes
    /// would be lost at recovery. Reopening truncates the torn tail.
    torn: bool,
    /// Per-session secondary index: for each session id, the
    /// `(segment index, frame start offset)` of every log frame that
    /// belongs to it, in append (= sequence) order. Maintained on
    /// [`SessionStore::append`], rebuilt during [`SessionStore::open`]'s
    /// recovery scan, and pruned when compaction deletes segments —
    /// so [`SessionStore::load_session`] reads only one session's
    /// frames instead of replaying the whole log. A `SessionClosed`
    /// record collapses its id's entry to just the closing frame
    /// (earlier frames can no longer change the outcome), keeping the
    /// index bounded for long-gone sessions.
    session_index: BTreeMap<u64, Vec<(u64, u64)>>,
    /// The snapshot file's counterpart: for each session it holds, the
    /// start offset of that session's frame. Built by
    /// [`SessionStore::open`] and rebuilt by
    /// [`SessionStore::compact`] from the offsets it writes, so
    /// [`SessionStore::load_session`] reads one snapshot frame, not the
    /// whole file.
    snapshot_index: BTreeMap<u64, u64>,
}

/// Records `frame` (spanning `[start, start+len)` of segment `segment`)
/// in the per-session index, if it belongs to a session.
fn index_record(
    index: &mut BTreeMap<u64, Vec<(u64, u64)>>,
    rec: &LogRecord,
    segment: u64,
    start: u64,
) {
    let Some(id) = rec.session_id() else { return };
    let slots = index.entry(id).or_default();
    if matches!(rec, LogRecord::SessionClosed { .. }) {
        // Replaying the close alone (over any snapshot state) yields
        // "no such session", same as replaying the full history.
        slots.clear();
    }
    slots.push((segment, start));
}

impl SessionStore {
    /// Opens (or creates) the store at `config.dir`, running recovery:
    /// read the snapshot, scan the segments, truncate any torn tail, and
    /// rebuild every live session.
    ///
    /// # Errors
    /// I/O failures only — corrupt data degrades to truncation, never to
    /// an error.
    pub fn open(config: &StoreConfig) -> Result<(SessionStore, RecoveredState), StoreError> {
        fs::create_dir_all(&config.dir)?;
        let mut torn_truncations = 0u64;
        let (mut fsyncs, mut fsync_nanos) = (0u64, 0u64);

        let (snapshot_entries, snapshot_torn) = read_snapshot(&config.dir.join(SNAPSHOT_FILE))?;
        if snapshot_torn {
            torn_truncations += 1;
        }
        let snapshot_sessions = snapshot_entries.len() as u64;
        let mut max_seq = snapshot_entries
            .iter()
            .map(|(_, e)| e.through_seq)
            .max()
            .unwrap_or(0);
        let snapshot_index = snapshot_entries
            .iter()
            .map(|(start, e)| (e.session.id, *start))
            .collect();
        let mut replayer = Replayer::new();
        replayer.seed(snapshot_entries.into_iter().map(|(_, e)| e));

        let mut segments = list_segments(&config.dir)?;
        let mut scanned: Vec<(u64, u64)> = Vec::new(); // (index, valid bytes)
        let mut stop_at: Option<usize> = None;
        let mut session_index: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for (i, &(index, ref path)) in segments.iter().enumerate() {
            let (frames, torn_scan) = scan_frames(&fs::read(path)?);
            let mut valid_len = 0u64;
            let mut torn = torn_scan;
            for (end, payload) in frames {
                match LogRecord::from_payload(&payload) {
                    Ok((seq, rec)) => {
                        max_seq = max_seq.max(seq);
                        index_record(&mut session_index, &rec, index, valid_len);
                        replayer.apply(seq, rec);
                        valid_len = end;
                    }
                    Err(_) => {
                        torn = true;
                        break;
                    }
                }
            }
            if torn {
                torn_truncations += 1;
                fsync_nanos += nanos(truncate_file(path, valid_len)?);
                fsyncs += 1;
                scanned.push((index, valid_len));
                // Later segments postdate a torn tail; a crash cannot
                // produce that, so treat them as garbage.
                for (_, later) in &segments[i + 1..] {
                    let _ = fs::remove_file(later);
                }
                stop_at = Some(i + 1);
                break;
            }
            scanned.push((index, valid_len));
        }
        if let Some(n) = stop_at {
            segments.truncate(n);
        }

        // Reuse the last segment while it has room; otherwise start a new
        // one so sealed segments stay immutable.
        let (active_index, active_len, sealed) = match scanned.split_last() {
            Some((&(last_index, last_len), rest)) if last_len < config.segment_max_bytes => {
                (last_index, last_len, rest.to_vec())
            }
            Some((&(last_index, _), _)) => (last_index + 1, 0, scanned.clone()),
            None => (1, 0, Vec::new()),
        };
        let active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&config.dir, active_index))?;

        let max_session_id = replayer.max_id();
        let datasets = replayer.take_datasets();
        let sessions = replayer.finish();
        let store = SessionStore {
            dir: config.dir.clone(),
            fsync: config.fsync,
            segment_max_bytes: config.segment_max_bytes,
            active,
            active_index,
            active_len,
            sealed,
            next_seq: max_seq + 1,
            unsynced: 0,
            records_appended: 0,
            bytes_appended: 0,
            compactions: 0,
            last_compaction_seq: 0,
            recovered_sessions: sessions.len() as u64,
            torn_truncations,
            snapshot_sessions,
            append_nanos: 0,
            fsyncs,
            fsync_nanos,
            compaction_nanos: 0,
            torn: false,
            session_index,
            snapshot_index,
        };
        Ok((
            store,
            RecoveredState {
                sessions,
                datasets,
                max_session_id,
            },
        ))
    }

    /// Appends one record, returning its assigned sequence number. The
    /// frame is written with a single `write`, then synced per the
    /// configured [`FsyncPolicy`]. A write that fails partway is cut
    /// back off the segment, so the next record lands where the index
    /// says it does.
    ///
    /// # Errors
    /// I/O failures; oversized records; every append after a torn write
    /// that could not be cut back, until the store is reopened.
    pub fn append(&mut self, rec: &LogRecord) -> Result<u64, StoreError> {
        self.check_untorn()?;
        let seq = self.next_seq;
        let frame = frame(&rec.to_payload(seq))?;
        let write_started = Instant::now();
        if self.active_len > 0 && self.active_len + frame.len() as u64 > self.segment_max_bytes {
            self.rotate()?;
        }
        let (frame_segment, frame_start) = (self.active_index, self.active_len);
        if let Err(e) = self.active.write_all(&frame) {
            // Part of the frame may have reached the file (a full disk,
            // a file size limit). Left there, it would sit between the
            // last indexed frame and the next one, and recovery would
            // cut the segment at it, losing every later record.
            if self.active.set_len(self.active_len).is_err() {
                self.torn = true;
            }
            return Err(e.into());
        }
        // Index only after the write succeeds — a failed append must not
        // leave the index pointing at bytes that never reached the file.
        index_record(&mut self.session_index, rec, frame_segment, frame_start);
        self.active_len += frame.len() as u64;
        self.next_seq += 1;
        self.records_appended += 1;
        self.bytes_appended += frame.len() as u64;
        self.append_nanos += nanos(write_started.elapsed());
        let policy_fsync = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                self.unsynced >= n.max(1)
            }
            FsyncPolicy::Never => false,
        };
        if policy_fsync {
            self.sync_active()?;
        }
        Ok(seq)
    }

    /// Seals the active segment and starts a new one, returning the new
    /// active segment's index. Every segment below it is sealed.
    ///
    /// # Errors
    /// I/O failures; a torn write [`append`](Self::append) could not cut
    /// back, until the store is reopened.
    fn rotate(&mut self) -> Result<u64, StoreError> {
        self.check_untorn()?;
        self.sync_active()?;
        self.sealed.push((self.active_index, self.active_len));
        self.active_index += 1;
        self.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, self.active_index))?;
        self.active_len = 0;
        Ok(self.active_index)
    }

    /// Forces everything appended so far to disk regardless of policy.
    ///
    /// # Errors
    /// I/O failures.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.sync_active()
    }

    /// Fsyncs the active segment's data, counting it.
    fn sync_active(&mut self) -> Result<(), StoreError> {
        let elapsed = timed(|| self.active.sync_data())?;
        self.unsynced = 0;
        self.count_fsync(elapsed);
        Ok(())
    }

    /// Counts one completed fsync in [`StoreStats::fsyncs`] and its time
    /// in [`StoreStats::fsync_nanos`].
    fn count_fsync(&mut self, elapsed: Duration) {
        self.fsyncs += 1;
        self.fsync_nanos += nanos(elapsed);
    }

    /// Refuses to write once a torn append could not be cut back.
    fn check_untorn(&self) -> Result<(), StoreError> {
        if self.torn {
            return Err(StoreError::Io(std::io::Error::other(
                "the active segment holds a torn frame that could not be cut off; \
                 reopen the store to recover",
            )));
        }
        Ok(())
    }

    /// The sequence number of the last appended record (0 when the log
    /// has never held one).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Total framed bytes appended over this store's lifetime. Sampling
    /// this around an [`append`](Self::append) yields the exact byte cost
    /// of that record — the service's per-session accounting does so.
    #[must_use]
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Total bytes across all live segments — the `sweep` compaction
    /// trigger compares this against `compact_threshold_bytes`.
    #[must_use]
    pub fn live_log_bytes(&self) -> u64 {
        self.sealed.iter().map(|&(_, len)| len).sum::<u64>() + self.active_len
    }

    /// Counters for the `Stats` protocol reply.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            records_appended: self.records_appended,
            bytes_appended: self.bytes_appended,
            segments: self.sealed.len() as u64 + 1,
            live_log_bytes: self.live_log_bytes(),
            compactions: self.compactions,
            last_compaction_seq: self.last_compaction_seq,
            recovered_sessions: self.recovered_sessions,
            torn_truncations: self.torn_truncations,
            snapshot_sessions: self.snapshot_sessions,
            append_nanos: self.append_nanos,
            fsyncs: self.fsyncs,
            fsync_nanos: self.fsync_nanos,
            compaction_nanos: self.compaction_nanos,
        }
    }

    /// Compacts the log: seals the active segment, replays the snapshot
    /// and every segment, writes each live session to a new snapshot file
    /// covering every record so far, and deletes every segment sealed
    /// before the call. The snapshot index is rebuilt from the offsets
    /// the new file is written at. Returns the snapshot file's size in
    /// bytes.
    ///
    /// The uploaded datasets and a closed top session id live only in
    /// the log, so they are appended again (and synced, whatever the
    /// fsync policy) before the segments holding the originals go.
    ///
    /// # Errors
    /// I/O failures, a segment that cannot be read among them (the old
    /// snapshot and log stay intact on error); [`StoreError::Corrupt`]
    /// when a segment or the snapshot was corrupted in place.
    pub fn compact(&mut self) -> Result<u64, StoreError> {
        let compact_started = Instant::now();
        let boundary = self.rotate()?;
        let mut disk = self.replay_disk()?;
        let datasets = disk.take_datasets();
        let max_id = disk.max_id();
        let through_seq = self.last_seq();
        let sessions = disk.finish();

        // Write-tmp → fsync → rename: the snapshot file is always either
        // the complete old one or the complete new one.
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let mut snapshot_bytes = 0u64;
        let mut snapshot_index = BTreeMap::new();
        {
            let mut f = File::create(&tmp)?;
            let header = Json::object([
                ("kind", Json::Str("snapshot_header".into())),
                ("version", 1u64.to_json()),
                ("sessions", (sessions.len() as u64).to_json()),
            ]);
            let header_frame = frame(header.to_string().as_bytes())?;
            snapshot_bytes += header_frame.len() as u64;
            f.write_all(&header_frame)?;
            for session in sessions {
                snapshot_index.insert(session.id, snapshot_bytes);
                let entry = SnapshotEntry {
                    through_seq,
                    session,
                };
                let entry_frame = frame(entry.to_json().to_string().as_bytes())?;
                snapshot_bytes += entry_frame.len() as u64;
                f.write_all(&entry_frame)?;
            }
            let elapsed = timed(|| f.sync_data())?;
            self.count_fsync(elapsed);
        }
        fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))?;
        self.snapshot_index = snapshot_index;
        // Make the rename durable; best-effort (not all platforms support
        // fsync on directories).
        if let Ok(d) = File::open(&self.dir) {
            if let Ok(elapsed) = timed(|| d.sync_all()) {
                self.count_fsync(elapsed);
            }
        }

        // Re-append what only the log remembers *before* deleting the
        // segments that held the originals — a crash between the two
        // steps must not lose any. Replay is last-wins, so the duplicates
        // a crash can leave behind are harmless. When the highest session
        // id ever issued is closed, only a log record remembers it, and
        // recovery must resume id assignment above it.
        let mut carried: Vec<LogRecord> = datasets
            .into_iter()
            .map(|def| LogRecord::DatasetRegistered { def })
            .collect();
        if max_id > 0 && !self.snapshot_index.contains_key(&max_id) {
            carried.push(LogRecord::SessionClosed { id: max_id });
        }
        for record in &carried {
            self.append(record)?;
        }
        if !carried.is_empty() {
            // The originals may have been durable for days; the
            // re-appends must hit disk before the files holding the
            // originals are unlinked, regardless of fsync policy —
            // otherwise power loss in the window loses both copies.
            self.sync()?;
        }

        // A re-append can seal segments of its own (tiny segments); they
        // hold only records after `through_seq` and stay.
        for &(index, _) in self.sealed.iter().filter(|&&(index, _)| index < boundary) {
            let _ = fs::remove_file(segment_path(&self.dir, index));
        }
        self.sealed.retain(|&(index, _)| index >= boundary);
        // Deleted segments' frames are now covered by the snapshot; a
        // session left with no frames is served from the snapshot alone
        // (or, for closed sessions, correctly not at all).
        self.session_index.retain(|_, slots| {
            slots.retain(|&(segment, _)| segment >= boundary);
            !slots.is_empty()
        });
        self.compactions += 1;
        self.last_compaction_seq = through_seq;
        self.snapshot_sessions = self.snapshot_index.len() as u64;
        self.append(&LogRecord::SnapshotWritten {
            through_seq,
            sessions: self.snapshot_sessions,
        })?;
        self.compaction_nanos += nanos(compact_started.elapsed());
        Ok(snapshot_bytes)
    }

    /// Rebuilds one session's state from disk: every restore of a
    /// session at rest reads it here. Returns `None` for unknown or
    /// closed ids.
    ///
    /// Uses the two indexes: only `id`'s snapshot frame (if any) plus
    /// that session's own log frames are read, so restore cost scales
    /// with the session's history, not with every other session's log
    /// or snapshot volume.
    /// [`load_session_unindexed`](Self::load_session_unindexed) is the
    /// reference full-scan path; the differential suite pins the two
    /// equal.
    ///
    /// # Errors
    /// I/O failures; [`StoreError::Corrupt`] when an indexed frame fails
    /// its checksum or does not decode (appends and snapshots only ever
    /// frame decodable payloads, so that means in-place file corruption).
    pub fn load_session(&self, id: u64) -> Result<Option<PersistedSession>, StoreError> {
        let mut replayer = Replayer::new();
        if let Some(&start) = self.snapshot_index.get(&id) {
            let path = self.dir.join(SNAPSHOT_FILE);
            let entry = read_frame_at(&mut File::open(&path)?, start)
                .and_then(|payload| {
                    decode_snapshot_entry(&payload).ok_or_else(|| "undecodable entry".to_string())
                })
                .map_err(|e| {
                    StoreError::Corrupt(format!(
                        "indexed snapshot frame at byte {start} of {}: {e}",
                        path.display()
                    ))
                })?;
            replayer.seed([entry]);
        }
        let mut records: Vec<(u64, LogRecord)> = Vec::new();
        if let Some(slots) = self.session_index.get(&id) {
            // Group by segment so each file is opened once; offsets
            // within a segment are already in append (sequence) order.
            let mut by_segment: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for &(segment, start) in slots {
                by_segment.entry(segment).or_default().push(start);
            }
            for (segment, starts) in by_segment {
                let path = segment_path(&self.dir, segment);
                let mut file = File::open(&path)?;
                for start in starts {
                    let payload = read_frame_at(&mut file, start).map_err(|e| {
                        StoreError::Corrupt(format!(
                            "indexed frame at byte {start} of {}: {e}",
                            path.display()
                        ))
                    })?;
                    let (seq, rec) = LogRecord::from_payload(&payload).map_err(|e| {
                        StoreError::Corrupt(format!(
                            "undecodable indexed record at byte {start} of {}: {e}",
                            path.display()
                        ))
                    })?;
                    records.push((seq, rec));
                }
            }
        }
        // The snapshot's `through_seq` gate skips any frame it already
        // covers, so replaying snapshot + indexed frames is exact.
        records.sort_by_key(|&(seq, _)| seq);
        for (seq, rec) in records {
            replayer.apply(seq, rec);
        }
        Ok(replayer.finish().into_iter().find(|s| s.id == id))
    }

    /// The pre-index reference restore path: replays the snapshot and
    /// **every** frame of **every** segment, then picks out `id`. Kept
    /// for the differential test and the load harness's restore-scaling
    /// bench; prefer [`load_session`](Self::load_session).
    ///
    /// # Errors
    /// I/O failures; [`StoreError::Corrupt`] on in-place corruption.
    pub fn load_session_unindexed(&self, id: u64) -> Result<Option<PersistedSession>, StoreError> {
        let replayer = self.replay_disk()?;
        Ok(replayer.finish().into_iter().find(|s| s.id == id))
    }

    /// Replays the full current disk state (snapshot + every segment)
    /// into a fresh [`Replayer`].
    ///
    /// An incomplete or checksum-failing **physical tail** of a segment
    /// is skipped, as at recovery — a crash can legitimately leave one.
    /// A CRC-valid frame whose payload does not decode is a different
    /// animal: appends only ever frame decodable payloads, so one of
    /// these means the file was corrupted in place, and silently dropping
    /// every record behind it (as this method once did) would serve
    /// readers a truncated history as if it were complete. Surfaced as
    /// [`StoreError::Corrupt`] instead. So is a snapshot that does not
    /// read to its end: the atomic rename never leaves one, and the
    /// sessions behind the damage exist nowhere else. A file that cannot
    /// be read is an error too, never an empty segment, since compaction
    /// deletes the segments it replayed.
    fn replay_disk(&self) -> Result<Replayer, StoreError> {
        let path = self.dir.join(SNAPSHOT_FILE);
        let (entries, torn) = read_snapshot(&path)?;
        if torn {
            return Err(StoreError::Corrupt(format!(
                "{} does not read to its end; {} entries are intact",
                path.display(),
                entries.len()
            )));
        }
        let mut replayer = Replayer::new();
        replayer.seed(entries.into_iter().map(|(_, e)| e));
        let mut indices: Vec<u64> = self.sealed.iter().map(|&(i, _)| i).collect();
        indices.push(self.active_index);
        for index in indices {
            let path = segment_path(&self.dir, index);
            let (frames, _) = scan_frames(&fs::read(&path)?);
            for (end, payload) in frames {
                let (seq, rec) = LogRecord::from_payload(&payload).map_err(|e| {
                    StoreError::Corrupt(format!(
                        "undecodable record ending at byte {end} of {}: {e}",
                        path.display()
                    ))
                })?;
                replayer.apply(seq, rec);
            }
        }
        Ok(replayer)
    }
}

/// Builds one frame: `len (u32 LE) ‖ crc32(payload) (u32 LE) ‖ payload`.
fn frame(payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_RECORD_BYTES)
        .ok_or_else(|| StoreError::Corrupt(format!("record too large: {} bytes", payload.len())))?;
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Reads and checksum-verifies the single frame starting at byte
/// `start` of `file`, returning its payload. Errors (I/O, oversized
/// length, CRC mismatch) are reported as strings for the caller to wrap.
fn read_frame_at(file: &mut File, start: u64) -> Result<Vec<u8>, String> {
    file.seek(SeekFrom::Start(start))
        .map_err(|e| e.to_string())?;
    let mut header = [0u8; 8];
    file.read_exact(&mut header).map_err(|e| e.to_string())?;
    let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if len > MAX_RECORD_BYTES {
        return Err(format!("oversized frame length {len}"));
    }
    let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload).map_err(|e| e.to_string())?;
    if crc32(&payload) != crc {
        return Err("checksum mismatch".to_string());
    }
    Ok(payload)
}

/// Parses frames from raw bytes. Returns `(frames, torn)` where each
/// frame is `(end offset, payload)`; `torn` is set when trailing bytes
/// did not form a complete valid frame.
fn scan_frames(bytes: &[u8]) -> (Vec<(u64, Vec<u8>)>, bool) {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        if bytes.len() - at < 8 {
            return (frames, true);
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_BYTES as usize || bytes.len() - at - 8 < len {
            return (frames, true);
        }
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let payload = &bytes[at + 8..at + 8 + len];
        if crc32(payload) != crc {
            return (frames, true);
        }
        at += 8 + len;
        frames.push((at as u64, payload.to_vec()));
    }
    (frames, false)
}

/// Runs one fsync, returning how long it took.
fn timed(fsync: impl FnOnce() -> std::io::Result<()>) -> std::io::Result<Duration> {
    let started = Instant::now();
    fsync()?;
    Ok(started.elapsed())
}

/// A duration in whole nanoseconds, saturating.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.qlog"))
}

/// Segment files in `dir`, sorted by index.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".qlog"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            segments.push((index, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|&(index, _)| index);
    Ok(segments)
}

/// Cuts `path` to `len` bytes and fsyncs it; returns how long the fsync
/// took.
fn truncate_file(path: &Path, len: u64) -> Result<Duration, StoreError> {
    let f = OpenOptions::new().write(true).open(path)?;
    f.set_len(len)?;
    Ok(timed(|| f.sync_data())?)
}

/// Reads the snapshot file: `(entries, torn)`, each entry with the
/// offset its frame starts at. A missing file is an empty snapshot; a
/// torn or corrupt one degrades to its valid prefix (the atomic-rename
/// protocol makes that unreachable short of media errors).
fn read_snapshot(path: &Path) -> Result<(Vec<(u64, SnapshotEntry)>, bool), StoreError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), false)),
        Err(e) => return Err(e.into()),
    };
    let (frames, mut torn) = scan_frames(&bytes);
    let mut entries = Vec::new();
    let mut start = 0u64;
    for (i, (end, payload)) in frames.into_iter().enumerate() {
        let valid = if i == 0 {
            // Header frame; validated loosely (version 1 only).
            parse_json(&payload).is_some_and(|j| {
                j.get("kind").and_then(Json::as_str) == Some("snapshot_header")
                    && j.get("version").and_then(Json::as_u64) == Some(1)
            })
        } else {
            decode_snapshot_entry(&payload)
                .map(|e| entries.push((start, e)))
                .is_some()
        };
        if !valid {
            torn = true;
            break;
        }
        start = end;
    }
    Ok((entries, torn))
}

fn parse_json(payload: &[u8]) -> Option<Json> {
    Json::parse(std::str::from_utf8(payload).ok()?).ok()
}

/// Decodes one snapshot-file session frame.
fn decode_snapshot_entry(payload: &[u8]) -> Option<SnapshotEntry> {
    SnapshotEntry::from_json(&parse_json(payload)?).ok()
}
