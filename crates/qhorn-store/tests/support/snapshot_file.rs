//! Writes a `snapshot.qsnap` frame by frame, the way stores before
//! `SessionStore::compact` could: from entries the caller built, not from
//! a replay of the log. Tests plant states through it that a compaction
//! no longer writes, to check that such snapshots still restore (or are
//! still refused).

use qhorn_json::ToJson;
use qhorn_store::crc::crc32;
use qhorn_store::SnapshotEntry;
use std::path::Path;

/// Appends one frame: `len (u32 LE) ‖ crc32(payload) (u32 LE) ‖ payload`.
fn push_frame(out: &mut Vec<u8>, payload: &str) {
    let payload = payload.as_bytes();
    out.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Replaces the snapshot file in `dir` with a header and one frame per
/// entry, in the order given. A store open on `dir` must be reopened to
/// read it.
pub fn plant_snapshot(dir: &Path, entries: &[SnapshotEntry]) {
    let mut bytes = Vec::new();
    push_frame(
        &mut bytes,
        &format!(
            r#"{{"kind":"snapshot_header","version":1,"sessions":{}}}"#,
            entries.len()
        ),
    );
    for entry in entries {
        push_frame(&mut bytes, &entry.to_json().to_string());
    }
    std::fs::write(dir.join("snapshot.qsnap"), bytes).unwrap();
}
