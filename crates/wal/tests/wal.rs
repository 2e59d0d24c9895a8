//! Durability-layer tests: segment round-trip, CRC-detected torn-tail
//! truncation, fixed-size (preallocated) live segments, checkpoint-bounded
//! replay, and segment GC.
//!
//! Crash simulations write where a crash would: at the live segment's
//! logical end (just past its last record), not at EOF, which is the end
//! of the preallocated padding.

use std::fs::{self, OpenOptions};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proust_wal::{inject_torn_tail, FsyncPolicy, Wal};

/// A fresh scratch directory, removed on drop. No tempfile crate in the
/// offline build environment, so roll the idiom by hand.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("proust-wal-{tag}-{}-{unique}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn payload(i: u64) -> Vec<u8> {
    format!("record-{i}-{}", "x".repeat((i % 7) as usize * 10)).into_bytes()
}

/// Segment header bytes (magic + start LSN).
const HEADER: u64 = 16;

/// Framed length of a record: len + crc words, lsn, commit_ts, payload.
fn frame_len(payload: &[u8]) -> u64 {
    24 + payload.len() as u64
}

/// The directory's segment files in LSN order (zero-padded hex names
/// sort as their LSNs do).
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "seg"))
        .collect();
    paths.sort();
    paths
}

fn live_segment(dir: &Path) -> PathBuf {
    segment_files(dir).pop().expect("a segment exists")
}

fn file_len(path: &Path) -> u64 {
    fs::metadata(path).expect("stat").len()
}

/// Write `bytes` at `offset` of `path`, as a crash mid-write would leave them.
fn write_at(path: &Path, offset: u64, bytes: &[u8]) {
    let file = OpenOptions::new().write(true).open(path).expect("open seg");
    file.write_all_at(bytes, offset).expect("write");
}

#[test]
fn segment_round_trip() {
    let dir = ScratchDir::new("roundtrip");
    {
        let (wal, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("open");
        assert!(recovery.records.is_empty());
        assert!(recovery.checkpoint.is_none());
        for i in 0..100u64 {
            let lsn = wal.append(1000 + i, &payload(i)).expect("append");
            assert_eq!(lsn, i + 1, "LSNs are dense and start at 1");
        }
        assert!(wal.sync().expect("sync"), "first sync must hit the file");
        assert!(!wal.sync().expect("sync"), "second sync is absorbed");
        assert_eq!(wal.last_lsn(), 100);
        assert_eq!(wal.durable_lsn(), 100);
    }
    let (wal, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("reopen");
    assert_eq!(recovery.records.len(), 100);
    assert!(!recovery.torn_tail);
    for (i, record) in recovery.records.iter().enumerate() {
        assert_eq!(record.lsn, i as u64 + 1);
        assert_eq!(record.commit_ts, 1000 + i as u64);
        assert_eq!(record.payload, payload(i as u64));
    }
    // Appends continue after the recovered tail.
    assert_eq!(wal.append(2000, b"after").expect("append"), 101);
}

#[test]
fn rotation_spreads_records_across_segments() {
    let dir = ScratchDir::new("rotate");
    {
        // Tiny threshold: every record should trigger a rotation check.
        let (wal, _) = Wal::open(&dir.0, 64).expect("open");
        for i in 0..50u64 {
            wal.append(i, &payload(i)).expect("append");
        }
        wal.sync().expect("sync");
        assert!(
            wal.stats().rotations.load(Ordering::Relaxed) > 5,
            "a 64-byte threshold must rotate many times over 50 records"
        );
    }
    let segments = fs::read_dir(&dir.0)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
        .count();
    assert!(segments > 5, "expected many segments, found {segments}");
    let (_, recovery) = Wal::open(&dir.0, 64).expect("reopen");
    assert_eq!(recovery.records.len(), 50, "all records recovered across segments");
    assert!(!recovery.torn_tail);
}

#[test]
fn torn_tail_is_truncated_not_replayed() {
    let dir = ScratchDir::new("torn");
    {
        let (wal, _) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("open");
        for i in 0..10u64 {
            wal.append(i, &payload(i)).expect("append");
        }
        wal.sync().expect("sync");
    }
    assert!(inject_torn_tail(&dir.0).expect("inject"), "segments exist, must inject");
    let (wal, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("recover");
    assert!(recovery.torn_tail, "the injected tail must be detected");
    assert!(recovery.truncated_bytes > 0);
    assert_eq!(recovery.records.len(), 10, "only the intact prefix replays");
    // The log keeps working where the truncation left off, and a further
    // recovery sees a clean log.
    assert_eq!(wal.append(99, b"next").expect("append"), 11);
    wal.sync().expect("sync");
    drop(wal);
    let (_, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("reopen");
    assert!(!recovery.torn_tail, "truncation healed the log");
    assert_eq!(recovery.records.len(), 11);
}

#[test]
fn raw_garbage_tail_is_truncated() {
    let end = HEADER + frame_len(b"keep me");
    // A frame cut 20 bytes in: its len and crc words, then 12 of the 32
    // payload bytes the len word promises.
    let mut partial = Vec::new();
    partial.extend_from_slice(&(16u32 + 32).to_le_bytes());
    partial.extend_from_slice(&0x1234_5678u32.to_le_bytes());
    partial.extend_from_slice(&[0x5A; 12]);
    let deep = Wal::DEFAULT_SEGMENT_BYTES / 2;
    let cases: [(u64, &[u8], u64); 3] = [
        // Half a length word of a second record, at the logical end
        // where that record would have gone.
        (end, &[0x55, 0x66], 2),
        // A partial frame there, counted at exactly its length.
        (end, &partial, partial.len() as u64),
        // One stray byte deep in the preallocated padding: counted
        // through the last nonzero byte.
        (deep, &[0x77], deep + 1 - end),
    ];
    for (at, garbage, truncated) in cases {
        let dir = ScratchDir::new("garbage");
        {
            let (wal, _) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("open");
            wal.append(1, b"keep me").expect("append");
            wal.sync().expect("sync");
        }
        let seg = live_segment(&dir.0);
        write_at(&seg, at, garbage);
        let (wal, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("recover");
        assert!(recovery.torn_tail);
        assert_eq!(recovery.truncated_bytes, truncated, "garbage at {at}");
        assert_eq!(recovery.records.len(), 1);
        assert_eq!(recovery.records[0].payload, b"keep me");
        assert_eq!(
            file_len(&seg),
            Wal::DEFAULT_SEGMENT_BYTES,
            "the healed tail is preallocated again"
        );
        let bytes = fs::read(&seg).expect("read seg");
        assert!(bytes[end as usize..].iter().all(|&b| b == 0), "the torn bytes are gone");
        assert_eq!(wal.append(2, b"next").expect("append"), 2);
        wal.sync().expect("sync");
        drop(wal);
        let (_, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("reopen");
        assert!(!recovery.torn_tail, "garbage at {at}: the heal holds");
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.records.len(), 2);
    }
}

#[test]
fn preallocated_tail_reopens_clean() {
    let dir = ScratchDir::new("prealloc");
    {
        let (wal, _) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("open");
        let seg = live_segment(&dir.0);
        assert_eq!(file_len(&seg), Wal::DEFAULT_SEGMENT_BYTES, "a new segment is preallocated");
        for i in 0..10u64 {
            wal.append(i, &payload(i)).expect("append");
        }
        wal.sync().expect("sync");
        assert_eq!(file_len(&seg), Wal::DEFAULT_SEGMENT_BYTES, "appends land inside it");
    }
    for round in 0..2 {
        let (_, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("reopen");
        assert!(!recovery.torn_tail, "round {round}: zero padding is not a torn tail");
        assert_eq!(recovery.truncated_bytes, 0, "round {round}: padding is never counted");
        assert_eq!(recovery.records.len(), 10, "round {round}");
        assert_eq!(file_len(&live_segment(&dir.0)), Wal::DEFAULT_SEGMENT_BYTES, "round {round}");
    }
}

#[test]
fn stale_frames_past_a_tear_never_replay() {
    let dir = ScratchDir::new("stale");
    let old = vec![b's'; 10];
    {
        let (wal, _) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("open");
        for i in 1..=20u64 {
            wal.append(i, &old).expect("append");
        }
        wal.sync().expect("sync");
    }
    // Tear record 11 by clobbering its CRC word: records 12..=20 stay
    // CRC-valid behind the tear.
    let seg = live_segment(&dir.0);
    let record_11 = HEADER + 10 * frame_len(&old);
    write_at(&seg, record_11 + 4, &[0xDE, 0xAD, 0xBE, 0xEF]);
    let (wal, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("recover");
    assert!(recovery.torn_tail);
    assert_eq!(recovery.records.len(), 10);
    assert_eq!(recovery.truncated_bytes, 10 * frame_len(&old), "records 11..=20 are cut");
    // Two new records as long as stale records 11 and 12 together, split
    // differently: left in place, stale record 13 would start right after
    // them and carry the very LSN recovery expects next.
    let (short, long) = (vec![b'n'; 4], vec![b'N'; 16]);
    assert_eq!(frame_len(&short) + frame_len(&long), 2 * frame_len(&old));
    assert_eq!(wal.append(111, &short).expect("append"), 11);
    assert_eq!(wal.append(112, &long).expect("append"), 12);
    wal.sync().expect("sync");
    drop(wal);
    let (_, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("reopen");
    assert!(!recovery.torn_tail);
    assert_eq!(
        recovery.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
        (1..=12).collect::<Vec<_>>()
    );
    assert_eq!(recovery.records[10].payload, short);
    assert_eq!(recovery.records[11].payload, long);
    assert_eq!(recovery.records[11].commit_ts, 112, "only the new records replay");
}

#[test]
fn closed_segments_are_trimmed_to_their_records() {
    let dir = ScratchDir::new("trim");
    let body = vec![b't'; 40];
    {
        let (wal, _) = Wal::open(&dir.0, 256).expect("open");
        for i in 0..38u64 {
            wal.append(i, &body).expect("append");
        }
        wal.sync().expect("sync");
    }
    let start_lsn = |path: &Path| {
        let name = path.file_name().unwrap().to_str().unwrap();
        u64::from_str_radix(&name["wal-".len()..name.len() - ".seg".len()], 16).unwrap()
    };
    let files = segment_files(&dir.0);
    assert!(files.len() > 3, "a 256-byte threshold over 38 records rotates, found {}", files.len());
    for pair in files.windows(2) {
        let records = start_lsn(&pair[1]) - start_lsn(&pair[0]);
        assert_eq!(
            file_len(&pair[0]),
            HEADER + records * frame_len(&body),
            "{} holds its {records} frames and nothing else",
            pair[0].display()
        );
    }
    assert_eq!(file_len(files.last().unwrap()), 256, "the live tail stays preallocated");
    let (_, recovery) = Wal::open(&dir.0, 256).expect("reopen");
    assert!(!recovery.torn_tail);
    assert_eq!(recovery.records.len(), 38);
}

#[test]
fn unpreallocated_log_opens_appends_and_recovers() {
    let dir = ScratchDir::new("legacy");
    {
        let (wal, _) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("open");
        for i in 0..5u64 {
            wal.append(i, &payload(i)).expect("append");
        }
        wal.sync().expect("sync");
    }
    // The layout before preallocation: the live tail ends at its last record.
    let seg = live_segment(&dir.0);
    let end = HEADER + (0..5u64).map(|i| frame_len(&payload(i))).sum::<u64>();
    OpenOptions::new().write(true).open(&seg).expect("open seg").set_len(end).expect("trim");
    {
        let (wal, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("open old log");
        assert!(!recovery.torn_tail);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.records.len(), 5);
        assert_eq!(
            file_len(&seg),
            Wal::DEFAULT_SEGMENT_BYTES,
            "the old tail is preallocated on open"
        );
        for i in 5..8u64 {
            assert_eq!(wal.append(i, &payload(i)).expect("append"), i + 1);
        }
        wal.sync().expect("sync");
    }
    let (_, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("reopen");
    assert!(!recovery.torn_tail);
    assert_eq!(recovery.truncated_bytes, 0);
    let payloads: Vec<Vec<u8>> = recovery.records.into_iter().map(|r| r.payload).collect();
    assert_eq!(payloads, (0..8u64).map(payload).collect::<Vec<_>>());
}

#[test]
fn headerless_tail_segment_is_dropped() {
    let dir = ScratchDir::new("headerless");
    {
        let (wal, _) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("open");
        for i in 0..10u64 {
            wal.append(i, &payload(i)).expect("append");
        }
        wal.sync().expect("sync");
    }
    // A crash mid-rotation: the closed segment is already trimmed to its
    // records, and the next one got four bytes into its header.
    let closed = live_segment(&dir.0);
    let end = HEADER + (0..10u64).map(|i| frame_len(&payload(i))).sum::<u64>();
    OpenOptions::new().write(true).open(&closed).expect("open seg").set_len(end).expect("trim");
    let next = dir.0.join(format!("wal-{:016x}.seg", 11));
    fs::write(&next, b"PWAL").expect("write torn header");
    let (wal, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("recover");
    assert!(recovery.torn_tail);
    assert_eq!(recovery.truncated_bytes, 4);
    assert_eq!(recovery.records.len(), 10);
    assert!(!next.exists(), "the headerless segment is removed, not left behind");
    assert_eq!(wal.append(10, &payload(10)).expect("append"), 11);
    wal.sync().expect("sync");
    drop(wal);
    let (_, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("reopen");
    assert!(!recovery.torn_tail);
    assert_eq!(recovery.records.len(), 11);
}

#[test]
fn checkpoint_bounds_replay_and_gcs_segments() {
    let dir = ScratchDir::new("ckpt");
    {
        let (wal, _) = Wal::open(&dir.0, 256).expect("open");
        for i in 0..40u64 {
            wal.append(i, &payload(i)).expect("append");
        }
        let ckpt_lsn = wal.checkpoint(b"state-dump-at-40").expect("checkpoint");
        assert_eq!(ckpt_lsn, 40);
        assert_eq!(wal.checkpoint_lsn(), 40);
        assert!(
            wal.stats().gc_removed.load(Ordering::Relaxed) > 0,
            "a 256-byte threshold over 40 records must leave dead segments to GC"
        );
        // Suffix written after the checkpoint must still replay.
        for i in 40..45u64 {
            wal.append(i, &payload(i)).expect("append");
        }
        wal.sync().expect("sync");
    }
    let (wal, recovery) = Wal::open(&dir.0, 256).expect("recover");
    let checkpoint = recovery.checkpoint.expect("checkpoint present");
    assert_eq!(checkpoint.lsn, 40);
    assert_eq!(checkpoint.payload, b"state-dump-at-40");
    assert_eq!(
        recovery.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
        (41..=45).collect::<Vec<_>>(),
        "replay is bounded to the suffix after the checkpoint"
    );
    assert!(recovery.skipped_records <= 40, "pre-checkpoint records are skipped, not replayed");
    assert_eq!(wal.checkpoint_lsn(), 40, "recovered checkpoint LSN survives reopen");
}

#[test]
fn corrupt_checkpoint_falls_back_to_full_replay() {
    let dir = ScratchDir::new("badckpt");
    {
        let (wal, _) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("open");
        for i in 0..8u64 {
            wal.append(i, &payload(i)).expect("append");
        }
        wal.checkpoint(b"dump").expect("checkpoint");
    }
    // Flip a byte inside the checkpoint body: its CRC must reject it.
    let ckpt = dir.0.join("checkpoint");
    let mut bytes = fs::read(&ckpt).expect("read checkpoint");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fs::write(&ckpt, &bytes).expect("corrupt checkpoint");
    let (_, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("recover");
    assert!(recovery.checkpoint.is_none(), "corrupt checkpoint must be ignored");
    assert_eq!(recovery.records.len(), 8, "full-log replay covers everything");
}

#[test]
fn fsync_policy_parses() {
    assert_eq!(FsyncPolicy::parse("batch"), Some(FsyncPolicy::Batch));
    assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
    assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
    assert_eq!(FsyncPolicy::parse("sometimes"), None);
    assert_eq!(FsyncPolicy::Batch.name(), "batch");
    assert_eq!(FsyncPolicy::default(), FsyncPolicy::Batch);
}

#[test]
fn concurrent_appends_group_commit() {
    let dir = ScratchDir::new("group");
    let (wal, _) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("open");
    let wal = std::sync::Arc::new(wal);
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let wal = wal.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..50u64 {
                wal.append(t * 1000 + i, &payload(i)).expect("append");
                wal.sync().expect("sync");
            }
        }));
    }
    for handle in handles {
        handle.join().expect("join");
    }
    assert_eq!(wal.last_lsn(), 200, "every append got a distinct dense LSN");
    assert_eq!(wal.durable_lsn(), 200);
    let stats = wal.stats();
    assert_eq!(stats.records.load(Ordering::Relaxed), 200);
    // Group commit: with 4 threads racing, at least some syncs must have
    // been absorbed by another thread's covering fsync.
    let fsyncs = stats.fsyncs.load(Ordering::Relaxed);
    let absorbed = stats.syncs_absorbed.load(Ordering::Relaxed);
    assert_eq!(fsyncs + absorbed, 200, "every sync call accounted for");
    drop(wal);
    let (_, recovery) = Wal::open(&dir.0, Wal::DEFAULT_SEGMENT_BYTES).expect("recover");
    assert_eq!(recovery.records.len(), 200);
    let lsns: Vec<u64> = recovery.records.iter().map(|r| r.lsn).collect();
    assert_eq!(lsns, (1..=200).collect::<Vec<_>>(), "replay is in LSN order");
}
