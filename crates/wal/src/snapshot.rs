//! Snapshot files: one encoded [`EngineState`] behind a magic, the covered
//! LSN and a CRC32, written atomically (temp file + fsync + rename) so a
//! crash mid-write can never clobber the previous snapshot.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;
use crate::record::EngineState;

/// The snapshot format: payload is [`EngineState::encode`] (one dedup
/// table of distinct preferences, occurrences as `u32` indices).
const SNAPSHOT_MAGIC: &[u8; 8] = b"PMSNAP02";
/// Keep this many snapshots around; older ones are pruned after a
/// successful write (the extras are the fallback when the newest turns
/// out corrupt).
const KEEP_SNAPSHOTS: usize = 2;

fn snapshot_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("snapshot-{lsn:020}.pmsnap"))
}

fn list_snapshots(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut snapshots = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(lsn) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".pmsnap"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            snapshots.push((lsn, entry.path()));
        }
    }
    snapshots.sort_unstable();
    Ok(snapshots)
}

/// Writes `state` as `snapshot-<last_lsn>.pmsnap` in `dir` (creating the
/// directory if needed), atomically, then prunes all but the newest two
/// snapshots (`KEEP_SNAPSHOTS`). Returns the final path.
pub fn write_snapshot(dir: &Path, state: &EngineState) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let payload = state.encode();
    let mut bytes = Vec::with_capacity(payload.len() + 24);
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&state.last_lsn.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let tmp = dir.join(format!(".snapshot-{:020}.tmp", state.last_lsn));
    {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    let path = snapshot_path(dir, state.last_lsn);
    fs::rename(&tmp, &path)?;
    // Make the rename itself durable.
    if let Ok(dirf) = File::open(dir) {
        let _ = dirf.sync_all();
    }
    let snapshots = list_snapshots(dir)?;
    if snapshots.len() > KEEP_SNAPSHOTS {
        for (_, old) in &snapshots[..snapshots.len() - KEEP_SNAPSHOTS] {
            let _ = fs::remove_file(old);
        }
    }
    Ok(path)
}

/// A snapshot successfully loaded from disk.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The decoded engine state.
    pub state: EngineState,
    /// The file it came from.
    pub path: PathBuf,
    /// Newer snapshot files that failed validation and were skipped.
    pub skipped: usize,
}

fn read_snapshot(path: &Path) -> Result<EngineState, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("unreadable: {e}"))?;
    if bytes.len() < 24 {
        return Err("bad snapshot magic".into());
    }
    let magic: &[u8; 8] = bytes[..8].try_into().unwrap();
    if magic != SNAPSHOT_MAGIC {
        return Err("bad snapshot magic".into());
    }
    let lsn = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[20..24].try_into().unwrap());
    let payload = bytes
        .get(24..24 + len)
        .ok_or_else(|| "truncated snapshot payload".to_string())?;
    if bytes.len() != 24 + len {
        return Err("trailing snapshot bytes".into());
    }
    if crc32(payload) != crc {
        return Err("snapshot CRC mismatch".into());
    }
    let state = EngineState::decode(payload).map_err(|e| format!("undecodable snapshot: {e}"))?;
    if state.last_lsn != lsn {
        return Err("snapshot LSN header disagrees with payload".into());
    }
    Ok(state)
}

/// Loads the newest snapshot in `dir` that validates (magic, CRC, decode),
/// skipping corrupt ones newest-first. `Ok(None)` when the directory holds
/// no usable snapshot (including when it does not exist) — recovery then
/// replays the WAL from LSN 0.
pub fn load_latest_snapshot(dir: &Path) -> io::Result<Option<LoadedSnapshot>> {
    let snapshots = match list_snapshots(dir) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut skipped = 0;
    for (_, path) in snapshots.into_iter().rev() {
        match read_snapshot(&path) {
            Ok(state) => {
                return Ok(Some(LoadedSnapshot {
                    state,
                    path,
                    skipped,
                }))
            }
            Err(_) => skipped += 1,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pm-snap-test-{}-{}-{tag}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn state(lsn: u64) -> EngineState {
        EngineState {
            backend: "baseline".into(),
            shards: 1,
            arity: 2,
            last_lsn: lsn,
            next_id: lsn * 10,
            ..EngineState::default()
        }
    }

    #[test]
    fn write_then_load_newest() {
        let dir = test_dir("roundtrip");
        write_snapshot(&dir, &state(5)).unwrap();
        write_snapshot(&dir, &state(9)).unwrap();
        let loaded = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded.state.last_lsn, 9);
        assert_eq!(loaded.state.next_id, 90);
        assert_eq!(loaded.skipped, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = test_dir("fallback");
        write_snapshot(&dir, &state(5)).unwrap();
        let newest = write_snapshot(&dir, &state(9)).unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let loaded = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(
            loaded.state.last_lsn, 5,
            "fell back across the corrupt file"
        );
        assert_eq!(loaded.skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_no_snapshot() {
        let dir = test_dir("missing");
        assert!(load_latest_snapshot(&dir).unwrap().is_none());
    }

    #[test]
    fn unknown_magic_is_skipped_as_corrupt() {
        let dir = test_dir("magic");
        write_snapshot(&dir, &state(5)).unwrap();
        let newest = write_snapshot(&dir, &state(9)).unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        bytes[..8].copy_from_slice(b"PMSNAP00");
        fs::write(&newest, &bytes).unwrap();
        let loaded = load_latest_snapshot(&dir).unwrap().unwrap();
        assert_eq!(loaded.state.last_lsn, 5, "fell back to the older file");
        assert_eq!(loaded.skipped, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn old_snapshots_are_pruned() {
        let dir = test_dir("prune");
        for lsn in [1, 2, 3, 4] {
            write_snapshot(&dir, &state(lsn)).unwrap();
        }
        let remaining = list_snapshots(&dir).unwrap();
        assert_eq!(remaining.len(), KEEP_SNAPSHOTS);
        assert_eq!(remaining.last().unwrap().0, 4);
        fs::remove_dir_all(&dir).unwrap();
    }
}
