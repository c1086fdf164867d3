//! Property tests for journal recovery: arbitrary truncation or bit
//! flips of the journal tail must never lose an acknowledged record,
//! never resurrect a torn one, and never change the canonical artifact
//! a resumed sweep produces — with one appender or with several sharing
//! group commits.

use cryowire_harness::journal::{JournalHeader, RunJournal};
use cryowire_harness::{Sweep, SweepSpec};
use proptest::prelude::*;
use serde_json::Value;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch path per proptest case (cases run sequentially, but
/// distinct tests run in parallel in one process).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "cryowire-recovery-{tag}-{}-{n}.wal",
        std::process::id()
    ))
}

fn header() -> JournalHeader {
    JournalHeader {
        sweep: "recovery".into(),
        eval_tag: "recovery/v1".into(),
        base_seed: 7,
        grid_key: "feedbeef".into(),
    }
}

/// Writes `values` as journal records `k0..kN` and returns the raw
/// bytes plus every line-end offset (`ends[0]` is the header line's).
fn journal_bytes(path: &PathBuf, values: &[f64]) -> (Vec<u8>, Vec<usize>) {
    let journal = RunJournal::create(path, &header()).unwrap();
    for (i, v) in values.iter().enumerate() {
        journal.append(&format!("k{i}"), &Value::Float(*v));
    }
    assert_eq!(journal.write_errors(), 0);
    drop(journal);
    let bytes = std::fs::read(path).unwrap();
    let ends: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(ends.len(), values.len() + 1, "one line per record + header");
    (bytes, ends)
}

/// Asserts `recovered` is an exact prefix of the originally appended
/// records — the core no-loss / no-resurrection contract.
fn assert_prefix(recovered: &[(String, Value)], values: &[f64]) -> Result<(), TestCaseError> {
    prop_assert!(recovered.len() <= values.len());
    for (i, (key, value)) in recovered.iter().enumerate() {
        let want_key = format!("k{i}");
        prop_assert_eq!(key.as_str(), want_key.as_str());
        prop_assert_eq!(value, &Value::Float(values[i]));
    }
    Ok(())
}

/// Appends `per_thread` records from each of `threads` concurrent
/// threads (keys `t{t}-{i}`, values `t * 1000 + i`) and returns the
/// still-open journal.
fn concurrent_journal(path: &PathBuf, threads: usize, per_thread: usize) -> RunJournal {
    let journal = RunJournal::create(path, &header()).unwrap();
    std::thread::scope(|s| {
        for t in 0..threads {
            let journal = &journal;
            s.spawn(move || {
                for i in 0..per_thread {
                    journal.append(&format!("t{t}-{i}"), &Value::Int((t * 1000 + i) as i64));
                }
            });
        }
    });
    assert_eq!(journal.write_errors(), 0);
    assert_eq!(journal.appended(), (threads * per_thread) as u64);
    journal
}

/// Asserts `records` hold every concurrently appended record exactly
/// once, each with its value, and each thread's records in its own
/// append order.
fn assert_every_record_once(records: &[(String, Value)], threads: usize, per_thread: usize) {
    assert_eq!(records.len(), threads * per_thread);
    let keys: HashSet<&str> = records.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys.len(), records.len(), "no record twice");
    let mut next = vec![0; threads];
    for (key, value) in records {
        let (t, i) = key[1..].split_once('-').unwrap();
        let (t, i): (usize, usize) = (t.parse().unwrap(), i.parse().unwrap());
        assert_eq!(i, next[t], "thread {t}'s records stay in append order");
        next[t] += 1;
        assert_eq!(value, &Value::Int((t * 1000 + i) as i64));
    }
}

/// Four threads journal concurrently; however the handle ends — an
/// explicit final `sync()`, a drop, or no final commit at all (leaked,
/// standing in for `kill -9`) — every record is in the file exactly
/// once: group commit shares syncs, never writes.
#[test]
fn concurrent_appenders_recover_every_record_once() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 200;
    for ending in ["sync", "drop", "leak"] {
        let path = scratch("concurrent");
        let journal = concurrent_journal(&path, THREADS, PER_THREAD);
        match ending {
            "sync" => {
                journal.sync();
                let syncs = journal.syncs();
                assert!(syncs >= 1 && syncs <= journal.appended(), "{syncs} syncs");
                drop(journal);
            }
            "drop" => drop(journal),
            _ => std::mem::forget(journal),
        }
        let recovered = RunJournal::recover(&path).unwrap();
        assert_eq!(recovered.header.as_ref(), Some(&header()));
        assert!(!recovered.torn, "{ending}: no torn tail");
        assert_every_record_once(&recovered.records, THREADS, PER_THREAD);
        let _ = std::fs::remove_file(&path);
    }
}

/// A journaled 2-thread run over a temperature × pipeline-depth grid,
/// the shape of the `depth` sweep, evaluated by a pure stand-in for the
/// depth model.
fn depth_sweep(path: Option<&PathBuf>, resume: bool) -> cryowire_harness::RunArtifact {
    let temps: Vec<f64> = (0..16).map(|i| 77.0 + 14.0 * f64::from(i)).collect();
    let mut sweep = Sweep::new(
        SweepSpec::new("depth")
            .axis("temperature", temps)
            .axis("split", [1i64, 2, 3, 4]),
    )
    .eval_tag("depth-grid/v1")
    .threads(2);
    if let Some(path) = path {
        sweep = if resume {
            sweep.resume(path)
        } else {
            sweep.journal(path)
        };
    }
    sweep.run(|p, seed| {
        let depth = 13 * p.i64("split");
        Value::Float(p.f64("temperature").sqrt() * depth as f64 + (seed % 17) as f64)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncating a concurrently written journal at ANY byte past the
    /// header recovers exactly the whole records before the cut, as a
    /// prefix of the file's record order.
    #[test]
    fn concurrent_journal_truncation_keeps_the_intact_prefix(
        per_thread in 1usize..24,
        cut_frac in 0.0f64..1.0,
    ) {
        let path = scratch("concurrent-cut");
        drop(concurrent_journal(&path, 4, per_thread));
        let full = RunJournal::recover(&path).unwrap();
        assert_every_record_once(&full.records, 4, per_thread);
        let bytes = std::fs::read(&path).unwrap();
        let ends: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        let cut = ends[0] + ((bytes.len() - ends[0]) as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let recovered = RunJournal::recover(&path).unwrap();
        let intact = ends[1..].iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(&recovered.records[..], &full.records[..intact]);
        prop_assert_eq!(recovered.torn, !ends.contains(&cut));
        let _ = std::fs::remove_file(&path);
    }

    /// A 2-thread journaled depth sweep, its journal cut anywhere,
    /// resumes on 2 threads to a canonical artifact byte-identical to an
    /// unjournaled run.
    #[test]
    fn two_thread_depth_sweep_resumes_byte_identically(cut_frac in 0.0f64..1.0) {
        let path = scratch("depth");
        let reference = depth_sweep(None, false);
        let journaled = depth_sweep(Some(&path), false);
        prop_assert_eq!(journaled.canonical_json(), reference.canonical_json());
        prop_assert_eq!(journaled.stats.journal_errors, 0);
        prop_assert!(journaled.stats.journal_syncs >= 1);
        prop_assert_eq!(journaled.stats.journal_appended, journaled.stats.evaluated as u64);
        prop_assert!(journaled.stats.journal_syncs <= journaled.stats.journal_appended);

        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate((bytes.len() as f64 * cut_frac) as usize);
        std::fs::write(&path, &bytes).unwrap();
        let resumed = depth_sweep(Some(&path), true);
        prop_assert_eq!(resumed.canonical_json(), reference.canonical_json());
        prop_assert_eq!(resumed.stats.failed, 0);
        let _ = std::fs::remove_file(&path);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncating the file at ANY byte position at or past the header
    /// keeps exactly the records whose whole line survived the cut —
    /// an acknowledged record is never dropped, a torn line never
    /// replayed.
    #[test]
    fn truncation_keeps_exactly_the_intact_prefix(
        values in proptest::collection::vec(-1.0e12f64..1.0e12, 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let path = scratch("cut");
        let (bytes, ends) = journal_bytes(&path, &values);
        let header_end = ends[0];
        let span = bytes.len() - header_end;
        let cut = header_end + ((span as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let recovered = RunJournal::recover(&path).unwrap();
        prop_assert_eq!(recovered.header.as_ref(), Some(&header()));
        let intact = ends[1..].iter().filter(|&&e| e <= cut).count();
        prop_assert_eq!(recovered.records.len(), intact);
        assert_prefix(&recovered.records, &values)?;
        let last_end = *ends.iter().rfind(|&&e| e <= cut).unwrap();
        prop_assert_eq!(recovered.torn, cut != last_end);
        let _ = std::fs::remove_file(&path);
    }

    /// Flipping ANY bit at or past the header leaves recovery with an
    /// exact prefix of the appended records: everything before the
    /// damaged line survives, nothing is replayed with altered
    /// content. (A flip that happens to leave the line valid — e.g.
    /// hex-case in the CRC field — replays identical data, which the
    /// prefix check still accepts.)
    #[test]
    fn bit_flips_never_lose_or_alter_acknowledged_records(
        values in proptest::collection::vec(-1.0e6f64..1.0e6, 1..16),
        pos_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let path = scratch("flip");
        let (mut bytes, ends) = journal_bytes(&path, &values);
        let header_end = ends[0];
        let span = bytes.len() - header_end;
        let pos = header_end + ((span.saturating_sub(1)) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = RunJournal::recover(&path).unwrap();
        prop_assert_eq!(recovered.header.as_ref(), Some(&header()));
        // Records whose whole line lies before the damaged byte are
        // guaranteed; the damaged line and everything after survive
        // only if the flip left them verifiably intact.
        let before_damage = ends[1..].iter().filter(|&&e| e <= pos).count();
        prop_assert!(recovered.records.len() >= before_damage);
        assert_prefix(&recovered.records, &values)?;
        let _ = std::fs::remove_file(&path);
    }

    /// End-to-end: journal a sweep, damage the journal arbitrarily
    /// (truncate anywhere — even inside the header — or flip a bit),
    /// resume, and the canonical artifact is byte-identical to an
    /// uninterrupted run. Lost records only cost recomputation.
    #[test]
    fn resumed_artifact_survives_arbitrary_journal_damage(
        n_points in 2i64..10,
        damage_frac in 0.0f64..1.0,
        flip_not_cut in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let path = scratch("resume");
        let xs: Vec<i64> = (0..n_points).collect();
        let eval = |p: &cryowire_harness::Point, s: u64| {
            Value::Float(p.i64("x") as f64 * 1.5 + (s % 101) as f64)
        };
        let reference = Sweep::new(SweepSpec::new("rec").axis("x", xs.clone()))
            .eval_tag("rec/v1")
            .base_seed(seed)
            .run(eval);
        let journaled = Sweep::new(SweepSpec::new("rec").axis("x", xs.clone()))
            .eval_tag("rec/v1")
            .base_seed(seed)
            .journal(&path)
            .run(eval);
        prop_assert_eq!(journaled.canonical_json(), reference.canonical_json());

        let mut bytes = std::fs::read(&path).unwrap();
        if flip_not_cut {
            let pos = ((bytes.len() - 1) as f64 * damage_frac) as usize;
            bytes[pos] ^= 0x10;
        } else {
            let cut = (bytes.len() as f64 * damage_frac) as usize;
            bytes.truncate(cut);
        }
        std::fs::write(&path, &bytes).unwrap();

        let resumed = Sweep::new(SweepSpec::new("rec").axis("x", xs))
            .eval_tag("rec/v1")
            .base_seed(seed)
            .resume(&path)
            .run(eval);
        prop_assert_eq!(resumed.canonical_json(), reference.canonical_json());
        prop_assert_eq!(resumed.stats.failed, 0);
        let _ = std::fs::remove_file(&path);
    }
}

/// Deterministic (non-property) regression: garbage appended after a
/// clean journal is discarded on resume, and the resumed handle
/// appends cleanly after the truncation point.
#[test]
fn garbage_tail_is_truncated_on_resume() {
    let path = scratch("garbage");
    let values = [1.0, 2.0, 3.0];
    let (_, _) = journal_bytes(&path, &values);
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(b"\x00\xffgarbage not a record\n0123 nope\n")
        .unwrap();
    drop(f);

    let (journal, records) = RunJournal::resume(&path, &header()).unwrap();
    assert_eq!(records.len(), 3, "all real records recovered");
    journal.append("k3", &Value::Float(4.0));
    drop(journal);

    let recovered = RunJournal::recover(&path).unwrap();
    assert!(!recovered.torn, "garbage gone, new record framed cleanly");
    assert_eq!(recovered.records.len(), 4);
    assert_eq!(recovered.records[3], ("k3".to_string(), Value::Float(4.0)));
    let _ = std::fs::remove_file(&path);
}
