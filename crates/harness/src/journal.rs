//! The run journal: an append-only, checksummed WAL of completed
//! sweep points.
//!
//! One journal file accompanies one sweep run. Each line is a framed
//! record — `<crc16hex> <json>\n`, where the CRC
//! ([`stable_hash64`](crate::hash::stable_hash64) as 16 hex chars)
//! covers the JSON payload bytes *exactly as written*. The first record
//! is a header naming the sweep, the evaluator tag, the base seed and a
//! grid content key; `--resume` refuses a journal whose header
//! disagrees with the sweep being run (a journal is not portable across
//! grids or evaluator versions).
//!
//! Appends are **written through, then group-committed**. Every record
//! reaches the kernel (`write(2)`) before [`RunJournal::append`]
//! returns, so a `kill -9` finds every completed point in the file. The
//! `fdatasync` that makes records durable is shared: the appender that
//! finds no sync in flight leads one covering everything written so
//! far; an appender that finds one in flight returns at once, and that
//! sync or a later one covers its record. A record is *acknowledged*
//! once a completed `fdatasync` covers it. [`RunJournal::sync`] (called
//! by the sweep before it reports, and on drop) is the blocking final
//! commit. A lone appender still syncs every record.
//!
//! Recovery is first-corruption-wins: records are replayed in order
//! until the first line that is torn, bit-flipped, or malformed; that
//! line and everything after it are discarded (the file is truncated
//! back to the last valid record before new appends). A `kill -9` can
//! therefore lose at most the in-flight write, an OS crash or power
//! loss at most the records written since the last completed sync —
//! and neither can resurrect a torn record.
//!
//! Journaling is *best-effort by design*: evaluation is deterministic
//! and results are content-addressed, so a lost record merely costs a
//! recompute on resume — it can never change the canonical artifact.
//! Write and sync errors (disk full, torn write, failed `fdatasync`)
//! mark the journal broken for the rest of the run and are counted, not
//! raised.

use crate::hash::stable_hash64;
use parking_lot::Mutex;
use serde_json::Value;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Journal format identifier; bump on incompatible layout changes.
pub const JOURNAL_FORMAT: &str = "cryowire-journal/v1";

/// Identity of the run a journal belongs to. Resume requires an exact
/// match — replaying another sweep's keys would silently skip work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// The sweep name (the CLI's `--sweep` argument).
    pub sweep: String,
    /// The evaluator tag (versioned; changes invalidate results).
    pub eval_tag: String,
    /// The sweep's base RNG seed.
    pub base_seed: u64,
    /// Content key over the full grid's point keys, in grid order —
    /// pins the exact point set and ordering.
    pub grid_key: String,
}

impl JournalHeader {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("format".to_string(), Value::String(JOURNAL_FORMAT.into())),
            ("sweep".to_string(), Value::String(self.sweep.clone())),
            ("eval_tag".to_string(), Value::String(self.eval_tag.clone())),
            ("base_seed".to_string(), Value::UInt(self.base_seed)),
            ("grid_key".to_string(), Value::String(self.grid_key.clone())),
        ])
    }

    fn from_value(v: &Value) -> Option<JournalHeader> {
        if v.get("format").and_then(Value::as_str) != Some(JOURNAL_FORMAT) {
            return None;
        }
        Some(JournalHeader {
            sweep: v.get("sweep")?.as_str()?.to_string(),
            eval_tag: v.get("eval_tag")?.as_str()?.to_string(),
            base_seed: v.get("base_seed")?.as_u64()?,
            grid_key: v.get("grid_key")?.as_str()?.to_string(),
        })
    }
}

/// What [`RunJournal::recover`] found in an existing journal file.
#[derive(Debug)]
pub struct Recovered {
    /// The header record, if the first line was valid.
    pub header: Option<JournalHeader>,
    /// Valid `(point key, value)` records, in append order — every
    /// record written through, whether or not a sync covered it yet.
    /// Later records for the same key win (a record appended twice by
    /// racing duplicates is identical anyway).
    pub records: Vec<(String, Value)>,
    /// Byte offset of the end of the last valid record — the truncate
    /// point for reopening in append mode.
    pub valid_len: u64,
    /// True if a torn/corrupt tail was discarded.
    pub torn: bool,
}

/// An open, append-mode run journal.
///
/// Workers on many threads journal concurrently. Writes are serialized
/// through an internal lock, each one a single framed line handed to
/// the kernel whole; `fdatasync`s run outside that lock and are shared
/// among concurrent appenders (group commit, see the [module
/// docs](self)). Any write or sync error permanently marks the journal
/// broken — subsequent appends are skipped and counted — so a short
/// write can never be fused with a later record into one corrupt line.
#[derive(Debug)]
pub struct RunJournal {
    /// Shared by the writers (`&File` is `Write`) and the sync leader.
    file: File,
    path: PathBuf,
    /// The write lock; `true` once a write or sync failed.
    broken: Mutex<bool>,
    /// The sync leader flag, taken with `try_lock` by appenders: how
    /// many appends the last completed `fdatasync` covers, or `None`
    /// once one failed (the kernel may have dropped the dirty pages, so
    /// no later sync can vouch for them).
    synced: Mutex<Option<u64>>,
    /// Records written through; also the sequence number a sync covers.
    /// Bumped with `Release` after each write returns, read with
    /// `Acquire` by the sync leader: a count the leader sees is a count
    /// of writes that completed before its `fdatasync` starts.
    appended: AtomicU64,
    write_errors: AtomicU64,
    syncs: AtomicU64,
}

impl RunJournal {
    fn open(file: File, path: PathBuf) -> RunJournal {
        RunJournal {
            file,
            path,
            broken: Mutex::new(false),
            synced: Mutex::new(Some(0)),
            appended: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
        }
    }

    /// Creates (truncating) a fresh journal at `path` and writes the
    /// header record.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or syncing the file.
    pub fn create(path: impl Into<PathBuf>, header: &JournalHeader) -> io::Result<RunJournal> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)?;
        let mut payload = String::new();
        header.to_value().write_json(&mut payload);
        file.write_all(frame(&payload).as_bytes())?;
        file.sync_data()?;
        Ok(RunJournal::open(file, path))
    }

    /// Reads a journal without opening it for writing: parses the
    /// header and every valid record, stopping at the first corrupt
    /// line (first-corruption-wins).
    ///
    /// # Errors
    ///
    /// Any I/O error reading `path` (including it not existing).
    pub fn recover(path: impl AsRef<Path>) -> io::Result<Recovered> {
        let mut bytes = Vec::new();
        File::open(path.as_ref())?.read_to_end(&mut bytes)?;
        let mut header = None;
        let mut records = Vec::new();
        let mut valid_len = 0u64;
        let mut torn = false;
        for (i, raw) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
            // A bit-flipped byte can leave the line non-UTF-8; that is
            // corruption like any other, not a read error.
            let Some(payload) = std::str::from_utf8(raw).ok().and_then(unframe) else {
                torn = true;
                break;
            };
            let Ok(doc) = serde_json::from_str(payload) else {
                torn = true;
                break;
            };
            if i == 0 {
                let Some(h) = JournalHeader::from_value(&doc) else {
                    torn = true;
                    break;
                };
                header = Some(h);
            } else {
                let (Some(key), Some(value)) =
                    (doc.get("key").and_then(Value::as_str), doc.get("value"))
                else {
                    torn = true;
                    break;
                };
                records.push((key.to_string(), value.clone()));
            }
            valid_len += raw.len() as u64;
        }
        // Bytes past the last valid record (if any) are a torn tail
        // even when they didn't form a parseable line.
        if valid_len < bytes.len() as u64 {
            torn = true;
        }
        Ok(Recovered {
            header,
            records,
            valid_len,
            torn,
        })
    }

    /// Opens `path` for resumption: recovers its records, verifies the
    /// header matches `header`, truncates any torn tail, and reopens in
    /// append mode. A missing file (or one whose very first line is
    /// corrupt) degrades to a fresh [`RunJournal::create`] with no
    /// records.
    ///
    /// # Errors
    ///
    /// `InvalidData` if the journal belongs to a different run (sweep,
    /// tag, seed, or grid mismatch); otherwise any underlying I/O
    /// error.
    pub fn resume(
        path: impl Into<PathBuf>,
        header: &JournalHeader,
    ) -> io::Result<(RunJournal, Vec<(String, Value)>)> {
        let path = path.into();
        let recovered = match RunJournal::recover(&path) {
            Ok(r) => r,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok((RunJournal::create(path, header)?, Vec::new()));
            }
            Err(e) => return Err(e),
        };
        let Some(found) = recovered.header else {
            // Unreadable header: the journal acknowledges nothing, so
            // start over.
            return Ok((RunJournal::create(path, header)?, Vec::new()));
        };
        if found != *header {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal {} belongs to a different run (journal: sweep={} tag={} seed={} grid={}; \
                     requested: sweep={} tag={} seed={} grid={})",
                    path.display(),
                    found.sweep,
                    found.eval_tag,
                    found.base_seed,
                    found.grid_key,
                    header.sweep,
                    header.eval_tag,
                    header.base_seed,
                    header.grid_key,
                ),
            ));
        }
        let mut file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(recovered.valid_len)?;
        file.seek(io::SeekFrom::End(0))?;
        file.sync_data()?;
        Ok((RunJournal::open(file, path), recovered.records))
    }

    /// Journal location.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a `(key, value)` record: writes it through to the file,
    /// then joins a group commit. Best-effort: on any error the journal
    /// is marked broken (the error is counted, this and all later
    /// appends are dropped) — determinism makes the lost records
    /// recomputable on resume.
    pub fn append(&self, key: &str, value: &Value) {
        let rec = Value::Object(vec![
            ("key".to_string(), Value::String(key.to_string())),
            ("value".to_string(), value.clone()),
        ]);
        let mut payload = String::new();
        rec.write_json(&mut payload);
        let line = frame(&payload);
        {
            let mut broken = self.broken.lock();
            if *broken {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                return;
            }
            if self.write_line(line.as_bytes()).is_err() {
                // A partially-written line would corrupt the next
                // record's framing; stop journaling for this run.
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                *broken = true;
                return;
            }
            self.appended.fetch_add(1, Ordering::Release);
        }
        // Lead a sync if none is in flight; otherwise that sync or a
        // later one covers this record.
        if let Some(mut synced) = self.synced.try_lock() {
            self.commit(&mut synced);
        }
    }

    /// Blocks until every record written so far is covered by a
    /// completed `fdatasync`: waits out a sync in flight, then leads
    /// one if records remain. A no-op once a sync has failed.
    pub fn sync(&self) {
        self.commit(&mut self.synced.lock());
    }

    /// One group commit by the holder of the leader flag: a single
    /// `fdatasync` covering every record written before it starts.
    fn commit(&self, synced: &mut Option<u64>) {
        let Some(covered) = *synced else { return };
        let written = self.appended.load(Ordering::Acquire);
        if written <= covered {
            return;
        }
        match self.sync_data() {
            Ok(()) => {
                *synced = Some(written);
                self.syncs.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                *synced = None;
                *self.broken.lock() = true;
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn write_line(&self, bytes: &[u8]) -> io::Result<()> {
        let mut file = &self.file;
        if let Some(action) = crate::failpoint::fire("journal::append") {
            let n = crate::failpoint::apply_to_write(action, bytes)?;
            // A short write lands the truncated prefix in the file, as
            // a real torn write would, then reports failure.
            file.write_all(&bytes[..n])?;
            return Err(io::Error::other("failpoint: short journal append"));
        }
        file.write_all(bytes)
    }

    fn sync_data(&self) -> io::Result<()> {
        if crate::failpoint::fire("journal::sync").is_some() {
            return Err(io::Error::other("failpoint: journal fdatasync failed"));
        }
        self.file.sync_data()
    }

    /// Records written through to the file by this handle.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Group commits (`fdatasync`s covering appended records) completed
    /// by this handle. A lone appender syncs once per record; concurrent
    /// appenders share syncs, so this falls below [`RunJournal::appended`].
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Write and sync failures, plus the appends dropped after the
    /// journal broke.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// True if a write or sync has failed and journaling stopped.
    #[must_use]
    pub fn broken(&self) -> bool {
        *self.broken.lock()
    }
}

impl Drop for RunJournal {
    /// Standalone handles are as durable as a sweep's: records still
    /// awaiting a group commit are synced before the file closes.
    fn drop(&mut self) {
        self.sync();
    }
}

/// Frames a payload as one journal line: CRC over the payload bytes
/// exactly as written, then the payload, newline-terminated.
fn frame(payload: &str) -> String {
    format!("{:016x} {payload}\n", stable_hash64(payload.as_bytes()))
}

/// Unframes one newline-terminated line; `None` if the line is
/// unterminated (torn), malformed, or fails its checksum.
fn unframe(line: &str) -> Option<&str> {
    let body = line.strip_suffix('\n')?;
    let (crc, payload) = body.split_at_checked(16)?;
    let payload = payload.strip_prefix(' ')?;
    let want = u64::from_str_radix(crc, 16).ok()?;
    (stable_hash64(payload.as_bytes()) == want).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cryowire-journal-{tag}-{}.wal", std::process::id()))
    }

    fn header() -> JournalHeader {
        JournalHeader {
            sweep: "depth".into(),
            eval_tag: "depth/v1".into(),
            base_seed: 42,
            grid_key: "abc123".into(),
        }
    }

    #[test]
    fn roundtrip_append_recover() {
        let path = tmp("roundtrip");
        let j = RunJournal::create(&path, &header()).unwrap();
        j.append("k1", &Value::Float(1.5));
        j.append("k2", &Value::Int(-3));
        assert_eq!(j.appended(), 2);
        assert_eq!(j.write_errors(), 0);

        let rec = RunJournal::recover(&path).unwrap();
        assert_eq!(rec.header, Some(header()));
        assert!(!rec.torn);
        assert_eq!(
            rec.records,
            vec![
                ("k1".to_string(), Value::Float(1.5)),
                ("k2".to_string(), Value::Int(-3)),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_not_resurrected() {
        let path = tmp("torn");
        let j = RunJournal::create(&path, &header()).unwrap();
        j.append("k1", &Value::Int(1));
        j.append("k2", &Value::Int(2));
        drop(j);
        // Tear the last record mid-line (no trailing newline).
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 5]).unwrap();

        let rec = RunJournal::recover(&path).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.records, vec![("k1".to_string(), Value::Int(1))]);

        // Resume truncates the tear and new appends extend cleanly.
        let (j, records) = RunJournal::resume(&path, &header()).unwrap();
        assert_eq!(records.len(), 1);
        j.append("k2", &Value::Int(2));
        let rec = RunJournal::recover(&path).unwrap();
        assert!(!rec.torn);
        assert_eq!(rec.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_missing_file_starts_fresh() {
        let path = tmp("fresh");
        let _ = std::fs::remove_file(&path);
        let (j, records) = RunJournal::resume(&path, &header()).unwrap();
        assert!(records.is_empty());
        assert!(!j.broken());
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_foreign_journal() {
        let path = tmp("foreign");
        let j = RunJournal::create(&path, &header()).unwrap();
        drop(j);
        let mut other = header();
        other.base_seed = 43;
        let err = RunJournal::resume(&path, &other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different run"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_stops_replay_at_first_corruption() {
        let path = tmp("bitflip");
        let j = RunJournal::create(&path, &header()).unwrap();
        for i in 0..5 {
            j.append(&format!("k{i}"), &Value::Int(i));
        }
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside record 2 (third record line after header).
        let lines: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i)
            .collect();
        let target = lines[2] + 10;
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let rec = RunJournal::recover(&path).unwrap();
        assert!(rec.torn);
        assert_eq!(
            rec.records.len(),
            2,
            "replay stops before the flipped record"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_failure_breaks_journal_permanently() {
        crate::failpoint::reset();
        let path = tmp("break");
        let j = RunJournal::create(&path, &header()).unwrap();
        j.append("k1", &Value::Int(1));
        crate::failpoint::arm(
            "journal::append",
            crate::failpoint::FailAction::Io("No space left on device (os error 28)".into()),
            1,
        );
        j.append("k2", &Value::Int(2));
        crate::failpoint::reset();
        // Journal is broken: even though the failpoint is gone, no
        // further appends land (a torn line may be on disk).
        j.append("k3", &Value::Int(3));
        assert!(j.broken());
        assert_eq!(j.write_errors(), 2);
        assert_eq!(j.appended(), 1);
        let rec = RunJournal::recover(&path).unwrap();
        assert_eq!(rec.records, vec![("k1".to_string(), Value::Int(1))]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lone_appender_syncs_every_record() {
        let path = tmp("lone");
        let j = RunJournal::create(&path, &header()).unwrap();
        for i in 0..3 {
            j.append(&format!("k{i}"), &Value::Int(i));
            assert_eq!(j.syncs(), j.appended(), "no sync in flight to share");
        }
        j.sync();
        assert_eq!(j.syncs(), 3, "nothing left for the final commit");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn appenders_finding_a_sync_in_flight_leave_their_records_to_it() {
        let path = tmp("group");
        let j = RunJournal::create(&path, &header()).unwrap();
        let in_flight = j.synced.lock();
        j.append("k1", &Value::Int(1));
        j.append("k2", &Value::Int(2));
        assert_eq!((j.appended(), j.syncs()), (2, 0), "written, not synced");
        // Written through: both records are in the file already.
        assert_eq!(RunJournal::recover(&path).unwrap().records.len(), 2);
        drop(in_flight);
        j.sync();
        assert_eq!(j.syncs(), 1, "one commit covers both records");
        j.sync();
        assert_eq!(j.syncs(), 1, "nothing left to cover");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_failure_breaks_journal_but_keeps_written_records() {
        crate::failpoint::reset();
        let path = tmp("syncfail");
        let j = RunJournal::create(&path, &header()).unwrap();
        j.append("k1", &Value::Int(1));
        crate::failpoint::arm(
            "journal::sync",
            crate::failpoint::FailAction::Io("Input/output error (os error 5)".into()),
            1,
        );
        j.append("k2", &Value::Int(2));
        assert_eq!(crate::failpoint::disarm("journal::sync"), 1);
        assert!(j.broken());
        assert_eq!(j.write_errors(), 1);
        assert_eq!((j.appended(), j.syncs()), (2, 1));
        // Later appends are dropped and the final commit no longer
        // syncs: nothing after a failed fdatasync can be vouched for.
        j.append("k3", &Value::Int(3));
        j.sync();
        assert_eq!(j.write_errors(), 2);
        assert_eq!(j.syncs(), 1);
        drop(j);
        // k2 was written through before its sync failed, so it is in
        // the file and replays on resume.
        let rec = RunJournal::recover(&path).unwrap();
        assert!(!rec.torn);
        assert_eq!(
            rec.records,
            vec![
                ("k1".to_string(), Value::Int(1)),
                ("k2".to_string(), Value::Int(2)),
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn short_write_leaves_recoverable_prefix() {
        crate::failpoint::reset();
        let path = tmp("short");
        let j = RunJournal::create(&path, &header()).unwrap();
        j.append("k1", &Value::Int(1));
        crate::failpoint::arm(
            "journal::append",
            crate::failpoint::FailAction::ShortWrite(7),
            1,
        );
        j.append("k2", &Value::Int(2));
        crate::failpoint::reset();
        assert!(j.broken());
        drop(j);
        // The torn 7-byte fragment is on disk; recovery must not see
        // k2, and resume must truncate the fragment.
        let rec = RunJournal::recover(&path).unwrap();
        assert!(rec.torn);
        assert_eq!(rec.records, vec![("k1".to_string(), Value::Int(1))]);
        let (j, records) = RunJournal::resume(&path, &header()).unwrap();
        assert_eq!(records.len(), 1);
        j.append("k2", &Value::Int(2));
        let rec = RunJournal::recover(&path).unwrap();
        assert!(!rec.torn);
        assert_eq!(rec.records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn values_round_trip_exactly() {
        // The journal stores values as JSON; the vendored writer uses
        // shortest-round-trip float formatting, so replayed values are
        // bit-identical — the property canonical byte-identity rests on.
        let path = tmp("exact");
        let j = RunJournal::create(&path, &header()).unwrap();
        let v = Value::Object(vec![
            ("f".to_string(), Value::Float(0.1 + 0.2)),
            ("neg".to_string(), Value::Float(-1.0 / 3.0)),
            ("i".to_string(), Value::Int(i64::MIN)),
            ("u".to_string(), Value::UInt(u64::MAX)),
            ("s".to_string(), Value::String("x\"\\\n".into())),
            (
                "a".to_string(),
                Value::Array(vec![Value::Null, Value::Bool(true)]),
            ),
        ]);
        j.append("k", &v);
        drop(j);
        let rec = RunJournal::recover(&path).unwrap();
        assert_eq!(rec.records[0].1, v);
        let _ = std::fs::remove_file(&path);
    }
}
