//! # pm-wal
//!
//! Durability for the sharded frontier engine: an append-only write-ahead
//! log of the mutation stream plus point-in-time snapshots of exactly the
//! state PR 5 proved minimal (compact history groups with id multiplicity,
//! the [`pm_porder::PreferenceUniverse`] behind them, memberships and the
//! monotonic counters).
//!
//! ## Log format
//!
//! The log is a sequence of segment files `wal-<base>.pmwal`, rotated by
//! size. Each segment starts with a 16-byte header — the magic `PMWAL001`
//! followed by the little-endian LSN of its first record — and then holds
//! records framed as `[u32 len][u32 crc32(payload)][payload]` (both
//! little-endian). LSNs are record ordinals, not byte offsets: record `n`
//! is the `n`-th mutation applied by the engine since genesis, which is
//! what makes "snapshot covers records `< lsn`, replay starts at `lsn`"
//! exact.
//!
//! Reading stops at the first ill-formed frame (short header, absurd
//! length, CRC mismatch, short payload): everything before it is the valid
//! prefix, everything after — including any later segment — is discarded,
//! and [`Wal::open`] truncates the torn bytes so the writer never appends
//! after garbage.
//!
//! ## Fsync policy
//!
//! [`SyncPolicy`] mirrors the server's `--wal-sync` flag: `always` fsyncs
//! every record (no acknowledged mutation is ever lost), `batch`
//! group-commits (fsync after ~256 KiB of unsynced records, on segment
//! rotation, on snapshot and on shutdown — bounded loss, near-zero
//! overhead), `off` never fsyncs (the OS page cache decides).
//!
//! ## Snapshots
//!
//! A snapshot file `snapshot-<lsn>.pmsnap` holds one encoded
//! [`EngineState`] behind a magic, its covered LSN and a CRC32. The
//! current magic is `PMSNAP02`: the payload carries one dedup table of
//! distinct preferences (each behind its stable
//! [`pm_porder::Fingerprint`]) and references it by index from every
//! membership and observed-history occurrence, so snapshot size scales
//! with *distinct* preferences rather than population size. A file with
//! any other magic is skipped like a corrupt one. Snapshots are written to a temporary file, fsynced
//! and renamed into place, so a crash mid-snapshot leaves the previous
//! one intact; loading tries newest-first and falls back across corrupt
//! files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod log;
pub mod record;
pub mod snapshot;

pub use crc::crc32;
pub use log::{scan, ScanOutcome, SyncPolicy, TornTail, Wal, WalStats};
pub use record::{
    encode_ingest_batch, encode_register, encode_unregister, encode_update, DecodeError,
    EngineState, WalRecord,
};
pub use snapshot::{load_latest_snapshot, write_snapshot, LoadedSnapshot};
