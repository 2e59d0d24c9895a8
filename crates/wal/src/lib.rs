//! A segmented write-ahead log for the Proust server — the durability
//! substrate behind `--data-dir` (ROADMAP open item 3).
//!
//! The WAL is *logical*: each record is one committed transaction's
//! replay log (the paper's §4 representation, serialized by the engine
//! as `DurableOp` byte sequences), not physical page images. The crate
//! itself is payload-agnostic — it stores, fsyncs, and recovers framed
//! byte records; the engine owns the encoding.
//!
//! # Record framing
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][lsn: u64 LE][commit_ts: u64 LE][payload]
//! ```
//!
//! `len` counts everything after the crc word (16 + payload bytes); the
//! CRC32 (IEEE) covers the same span. A torn tail — a record cut short
//! by a crash mid-`write`, or one whose CRC does not match — is detected
//! on recovery and **truncated, never replayed**. LSNs are assigned at
//! append under the log mutex, so LSN order is append order, which the
//! engine arranges to be the commit serialization order.
//!
//! # Segments, group fsync, checkpoints
//!
//! Records append to `wal-<start_lsn>.seg` files that rotate at a size
//! threshold; a closed segment is fsynced before the next one opens, so
//! only the live tail can ever be torn. [`Wal::sync`] is the group-commit
//! primitive: it fsyncs the live segment once for everything appended so
//! far, and absorbs concurrent callers (a sync that arrives after another
//! thread's fsync already covered its records is a no-op).
//!
//! The live segment is a fixed-size file: it is preallocated to the
//! rotation threshold when it opens, and records are written at its
//! *logical end* (the end of the last valid record), not at EOF. An
//! append then changes no inode size, so a group fsync flushes the data
//! block alone. On rotation the closed segment is trimmed to its logical
//! length, so closed segments hold records and nothing else. Recovery
//! finds the live tail's logical end by parsing: an all-zero remainder
//! is untouched padding, any nonzero byte past it is a torn tail, which
//! is cut off (`set_len`) and preallocated again as zeros so that no
//! stale frame beyond the tear can line up with a later append.
//!
//! A checkpoint ([`Wal::checkpoint`]) atomically replaces `checkpoint`
//! (write tmp, fsync, rename, fsync dir) with a state dump tagged with
//! the last applied LSN, then garbage-collects every segment whose
//! records all fall at or before that LSN. Recovery loads the checkpoint
//! (if its CRC validates) and replays only the log suffix after it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic prefix opening every segment file, followed by the segment's
/// first LSN (u64 LE). A file too short to hold it is dropped whole.
const SEGMENT_MAGIC: &[u8; 8] = b"PWAL0001";

/// Magic prefix of the checkpoint file.
const CHECKPOINT_MAGIC: &[u8; 8] = b"PCKP0001";

/// Upper bound on one record's framed length: a `len` word beyond this is
/// torn garbage, not a real record (the engine's batches are far smaller).
const MAX_RECORD_BYTES: u32 = 1 << 26;

/// Bytes of framing around each payload: len + crc words, lsn, commit_ts.
const FRAME_BYTES: u64 = 4 + 4 + 8 + 8;

/// When to fsync appended records — the server's `--fsync-policy` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// One fsync per pipelined commit batch (group commit): the engine
    /// calls [`Wal::sync`] once before acknowledging a batch.
    #[default]
    Batch,
    /// Fsync after every appended record.
    Always,
    /// Never fsync (durability only as good as the page cache).
    Off,
}

impl FsyncPolicy {
    /// Parse an `--fsync-policy` value.
    pub fn parse(name: &str) -> Option<FsyncPolicy> {
        match name {
            "batch" => Some(FsyncPolicy::Batch),
            "always" => Some(FsyncPolicy::Always),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }

    /// Stable name used in flags and STATS.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Always => "always",
            FsyncPolicy::Off => "off",
        }
    }
}

/// CRC32 (IEEE 802.3 polynomial, reflected), table-driven. Hand-rolled:
/// the build environment has no crates.io mirror.
fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *slot = crc;
        }
        table
    });
    let mut crc = !0u32;
    for &byte in bytes {
        crc = (crc >> 8) ^ table[((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// One recovered (or checkpoint) record: CRC-validated, ready to replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Log sequence number (commit order).
    pub lsn: u64,
    /// STM clock value at the record's commit.
    pub commit_ts: u64,
    /// The engine's serialized replay log.
    pub payload: Vec<u8>,
}

/// What recovery found and did.
#[derive(Debug, Default)]
pub struct Recovery {
    /// The checkpoint state dump, when a CRC-valid checkpoint existed.
    pub checkpoint: Option<Record>,
    /// Committed records after the checkpoint, in LSN order.
    pub records: Vec<Record>,
    /// Bytes of torn/corrupt tail truncated from the last segment: from
    /// its logical end through its last nonzero byte. Preallocated zero
    /// padding is not counted.
    pub truncated_bytes: u64,
    /// Whether a torn tail (a nonzero byte past the logical end) was
    /// detected (and truncated).
    pub torn_tail: bool,
    /// Records skipped because the checkpoint already covers them.
    pub skipped_records: u64,
}

/// Monotonic counters the server exports as STATS/Prometheus fields.
#[derive(Debug, Default)]
pub struct WalStats {
    /// Framed bytes appended (payload + framing).
    pub append_bytes: AtomicU64,
    /// Records appended.
    pub records: AtomicU64,
    /// fsync calls that actually hit the file (absorbed syncs excluded).
    pub fsyncs: AtomicU64,
    /// Syncs absorbed by another thread's covering fsync.
    pub syncs_absorbed: AtomicU64,
    /// Segment rotations since open.
    pub rotations: AtomicU64,
    /// Segments removed by checkpoint GC.
    pub gc_removed: AtomicU64,
    /// Live segment files (gauge).
    pub segments: AtomicU64,
}

struct Segment {
    start_lsn: u64,
    path: PathBuf,
}

struct WalInner {
    dir: PathBuf,
    segment_bytes: u64,
    file: File,
    /// Logical end of the live segment, where the next record is written;
    /// the file itself is preallocated past it to `segment_bytes`.
    segment_len: u64,
    /// All live segments in start-LSN order; the last one is being
    /// appended to.
    segments: Vec<Segment>,
    next_lsn: u64,
    /// Highest LSN handed to the OS (written, not necessarily durable).
    appended_lsn: u64,
    /// Highest LSN known to have been fsynced.
    durable_lsn: u64,
    /// LSN recorded in the last checkpoint (0 = none).
    checkpoint_lsn: u64,
}

/// The segmented append-only log. All mutation goes through one mutex;
/// [`Wal::sync`] holds it across the fsync, which is exactly the group
/// commit semantics — concurrent batches queue behind the fsync and find
/// their records already durable when they get the lock.
pub struct Wal {
    inner: Mutex<WalInner>,
    stats: WalStats,
    /// Chaos hook (`--chaos-fsync-delay-ms`): milliseconds of artificial
    /// stall injected before every real fsync, while the log mutex is
    /// held — so concurrent committers queue behind it exactly like a
    /// slow disk. 0 (the default) injects nothing.
    sync_delay_ms: AtomicU64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("stats", &self.stats).finish_non_exhaustive()
    }
}

fn segment_path(dir: &Path, start_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{start_lsn:016x}.seg"))
}

/// Create (or truncate) a segment: the 16-byte header first, then the
/// file preallocated to `segment_bytes`. Not fsynced.
fn create_segment(path: &Path, start_lsn: u64, segment_bytes: u64) -> io::Result<File> {
    let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(path)?;
    file.write_all(SEGMENT_MAGIC)?;
    file.write_all(&start_lsn.to_le_bytes())?;
    preallocate(&file, segment_bytes)?;
    Ok(file)
}

/// Reserve blocks up to `len` bytes and grow the file's size to it (never
/// shrinking it), so a write inside that range leaves the inode's size
/// alone and its fsync has no size change to journal.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn preallocate(file: &File, len: u64) -> io::Result<()> {
    use std::os::fd::AsRawFd as _;
    extern "C" {
        fn posix_fallocate(fd: i32, offset: i64, len: i64) -> i32;
    }
    let len = i64::try_from(len).unwrap_or(i64::MAX);
    // SAFETY: posix_fallocate takes no pointers; the fd is open for writing.
    match unsafe { posix_fallocate(file.as_raw_fd(), 0, len) } {
        // It returns the error number instead of setting errno.
        0 => Ok(()),
        errno => Err(io::Error::from_raw_os_error(errno)),
    }
}

/// Without a `posix_fallocate` binding, a sparse extension still fixes
/// the size.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn preallocate(file: &File, len: u64) -> io::Result<()> {
    if file.metadata()?.len() < len {
        file.set_len(len)?;
    }
    Ok(())
}

/// A segment's bytes, and how many of them the file holds as data. Past
/// that point the file is holes or preallocated blocks never written,
/// which read as zeros: the buffer is zero-initialized and only the data
/// prefix is read into it, so a live segment's untouched padding is
/// neither copied nor scanned.
fn read_segment(path: &Path) -> io::Result<(Vec<u8>, usize)> {
    let file = File::open(path)?;
    let len = file.metadata()?.len() as usize;
    let data_len = data_len(&file, len);
    let mut bytes = vec![0u8; len];
    file.read_exact_at(&mut bytes[..data_len], 0)?;
    Ok((bytes, data_len))
}

/// End of the last data region of `file` (`len` bytes long), found with
/// `SEEK_DATA`/`SEEK_HOLE`. Conservative: a filesystem that cannot tell
/// reports everything as data, and so does any error here.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn data_len(file: &File, len: usize) -> usize {
    use std::os::fd::AsRawFd as _;
    extern "C" {
        fn lseek(fd: i32, offset: i64, whence: i32) -> i64;
    }
    const SEEK_DATA: i32 = 3;
    const SEEK_HOLE: i32 = 4;
    const ENXIO: i32 = 6;
    let mut end = 0i64;
    while (end as usize) < len {
        // SAFETY: lseek takes no pointers; the fd is open.
        let data = unsafe { lseek(file.as_raw_fd(), end, SEEK_DATA) };
        if data < 0 {
            // ENXIO: no data at or past `end`.
            let no_more = io::Error::last_os_error().raw_os_error() == Some(ENXIO);
            return if no_more { end as usize } else { len };
        }
        // SAFETY: as above.
        end = unsafe { lseek(file.as_raw_fd(), data, SEEK_HOLE) };
        if end < 0 {
            return len;
        }
    }
    len
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn data_len(_file: &File, len: usize) -> usize {
    len
}

/// Length of `bytes` up to and including its last nonzero byte: 0 when
/// it is all zero, i.e. preallocated padding nothing was written into.
fn written_len(bytes: &[u8]) -> usize {
    // OR-folding whole chunks vectorizes; only the last nonzero chunk is
    // searched byte by byte.
    const CHUNK: usize = 4096;
    let Some(index) =
        bytes.chunks(CHUNK).rposition(|chunk| chunk.iter().fold(0, |a, b| a | b) != 0)
    else {
        return 0;
    };
    let chunk = &bytes[index * CHUNK..bytes.len().min((index + 1) * CHUNK)];
    index * CHUNK + chunk.iter().rposition(|&byte| byte != 0).map_or(0, |at| at + 1)
}

/// fsync the directory itself so segment creation/rename/unlink are
/// durable. Best-effort on platforms where directories cannot be synced.
fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

fn frame_record(lsn: u64, commit_ts: u64, payload: &[u8]) -> Vec<u8> {
    let len = 16 + payload.len() as u32;
    let mut frame = Vec::with_capacity(8 + len as usize);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&[0; 4]); // crc, patched once the body is in
    frame.extend_from_slice(&lsn.to_le_bytes());
    frame.extend_from_slice(&commit_ts.to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame[8..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Parse one framed record at `bytes[offset..]`. Returns the record and
/// the next offset, or `None` when the bytes are torn/corrupt/short.
fn parse_record(bytes: &[u8], offset: usize) -> Option<(Record, usize)> {
    let rest = &bytes[offset..];
    if rest.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
    if !(16..=MAX_RECORD_BYTES).contains(&len) || rest.len() < 8 + len as usize {
        return None;
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    let body = &rest[8..8 + len as usize];
    if crc32(body) != crc {
        return None;
    }
    let lsn = u64::from_le_bytes(body[0..8].try_into().unwrap());
    let commit_ts = u64::from_le_bytes(body[8..16].try_into().unwrap());
    Some((Record { lsn, commit_ts, payload: body[16..].to_vec() }, offset + 8 + len as usize))
}

impl Wal {
    /// Default segment rotation threshold.
    pub const DEFAULT_SEGMENT_BYTES: u64 = 8 * 1024 * 1024;

    /// Open (or create) the log in `dir`, running recovery first: load
    /// the checkpoint if present and CRC-valid, scan every segment in
    /// LSN order, truncate a torn tail, and return the committed records
    /// after the checkpoint. Appends continue after the recovered tail.
    ///
    /// # Errors
    ///
    /// I/O failures, or CRC-invalid records *before* the tail — mid-log
    /// corruption is not a crash artifact and refuses to open rather
    /// than silently dropping committed history.
    pub fn open(dir: impl Into<PathBuf>, segment_bytes: u64) -> io::Result<(Wal, Recovery)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut recovery = Recovery::default();

        // Checkpoint first: it bounds which records need replaying. An
        // invalid checkpoint (torn rename window, bad CRC) is ignored —
        // full-log replay is always correct, just slower.
        let mut checkpoint_lsn = 0u64;
        let checkpoint_path = dir.join("checkpoint");
        if let Ok(bytes) = fs::read(&checkpoint_path) {
            if bytes.len() >= 8 && &bytes[0..8] == CHECKPOINT_MAGIC {
                if let Some((record, _)) = parse_record(&bytes, 8) {
                    checkpoint_lsn = record.lsn;
                    recovery.checkpoint = Some(record);
                }
            }
        }

        // Discover segments in start-LSN order.
        let mut segments: Vec<Segment> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(start_lsn) = name
                .to_str()
                .and_then(|s| s.strip_prefix("wal-"))
                .and_then(|s| s.strip_suffix(".seg"))
                .and_then(|s| u64::from_str_radix(s, 16).ok())
            else {
                continue;
            };
            segments.push(Segment { start_lsn, path: entry.path() });
        }
        segments.sort_by_key(|segment| segment.start_lsn);

        // Scan: every record must CRC-validate and carry the expected
        // LSN. A failure in the *last* segment is a torn tail (truncate
        // there); anywhere else is corruption (refuse).
        // Checkpoint GC removes whole leading segments, so the log may
        // start past LSN 1 — legal only when the checkpoint covers the
        // gap; otherwise committed history is missing and we refuse.
        let mut next_lsn = match segments.first() {
            Some(first) if first.start_lsn > 1 => {
                if first.start_lsn > checkpoint_lsn + 1 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "log starts at LSN {} but the checkpoint only covers up to {}",
                            first.start_lsn, checkpoint_lsn
                        ),
                    ));
                }
                first.start_lsn
            }
            _ => 1,
        };
        let segment_bytes = segment_bytes.max(FRAME_BYTES + 16);
        // Logical end of the last segment, and whether bytes past it
        // must be cut off before appends resume.
        let mut live_len = 16u64;
        let mut live_torn = false;
        let mut headerless_tail = false;
        for (index, segment) in segments.iter().enumerate() {
            let is_last = index == segments.len() - 1;
            let (bytes, data_len) = read_segment(&segment.path)?;
            let header_ok = bytes.len() >= 16
                && &bytes[0..8] == SEGMENT_MAGIC
                && u64::from_le_bytes(bytes[8..16].try_into().unwrap()) == segment.start_lsn;
            if !header_ok {
                if is_last && segment.start_lsn == next_lsn {
                    // The crash landed inside the header write of a fresh
                    // segment: nothing in it was ever acknowledged. Drop
                    // it; the previous segment (or a new one) goes live.
                    let torn = written_len(&bytes[..data_len]) as u64;
                    recovery.torn_tail |= torn > 0;
                    recovery.truncated_bytes += torn;
                    fs::remove_file(&segment.path)?;
                    headerless_tail = true;
                    continue;
                }
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("segment {} has a corrupt header", segment.path.display()),
                ));
            }
            if segment.start_lsn != next_lsn {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "segment {} starts at LSN {} but the log continues from {}",
                        segment.path.display(),
                        segment.start_lsn,
                        next_lsn
                    ),
                ));
            }
            let mut offset = 16usize;
            while offset < bytes.len() {
                match parse_record(&bytes, offset) {
                    Some((record, next_offset)) if record.lsn == next_lsn => {
                        if record.lsn > checkpoint_lsn {
                            recovery.records.push(record);
                        } else {
                            recovery.skipped_records += 1;
                        }
                        next_lsn += 1;
                        offset = next_offset;
                    }
                    _ => {
                        if !is_last {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "CRC-invalid record mid-log in {} at offset {offset}",
                                    segment.path.display()
                                ),
                            ));
                        }
                        // The live tail's logical end. All-zero bytes past
                        // it are preallocated padding; any nonzero byte is
                        // a torn tail, truncated below.
                        let torn = written_len(&bytes[offset..data_len.max(offset)]) as u64;
                        live_torn = torn > 0;
                        recovery.torn_tail |= live_torn;
                        recovery.truncated_bytes += torn;
                        break;
                    }
                }
            }
            live_len = offset as u64;
        }
        if headerless_tail {
            // Make the unlink durable before appends resume in the
            // previous segment: a resurrected headerless file behind them
            // would no longer start at the log's next LSN.
            sync_dir(&dir);
            segments.pop();
        }

        // Open (or create) the live tail segment. An existing tail is cut
        // at its logical end when torn, so stale frames past the tear are
        // gone, and (re)preallocated — which also upgrades a tail written
        // without preallocation.
        let (file, segment_len) = match segments.last() {
            Some(last) => {
                let file = OpenOptions::new().write(true).open(&last.path)?;
                if live_torn {
                    file.set_len(live_len)?;
                }
                preallocate(&file, segment_bytes)?;
                file.sync_all()?;
                (file, live_len)
            }
            None => {
                let path = segment_path(&dir, next_lsn);
                let file = create_segment(&path, next_lsn, segment_bytes)?;
                file.sync_all()?;
                sync_dir(&dir);
                segments.push(Segment { start_lsn: next_lsn, path });
                (file, 16)
            }
        };

        let stats = WalStats::default();
        stats.segments.store(segments.len() as u64, Ordering::Relaxed);
        let wal = Wal {
            inner: Mutex::new(WalInner {
                dir,
                segment_bytes,
                file,
                segment_len,
                segments,
                next_lsn,
                appended_lsn: next_lsn.saturating_sub(1),
                durable_lsn: next_lsn.saturating_sub(1),
                checkpoint_lsn,
            }),
            stats,
            sync_delay_ms: AtomicU64::new(0),
        };
        Ok((wal, recovery))
    }

    /// Append one commit record, returning its LSN. Does **not** fsync —
    /// callers pick the moment via [`Wal::sync`] (group commit) or call
    /// it immediately after (the `always` policy).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the segment write or rotation.
    pub fn append(&self, commit_ts: u64, payload: &[u8]) -> io::Result<u64> {
        let mut inner = self.inner.lock().expect("wal mutex poisoned");
        if inner.segment_len >= inner.segment_bytes {
            self.rotate(&mut inner)?;
        }
        let lsn = inner.next_lsn;
        let frame = frame_record(lsn, commit_ts, payload);
        inner.file.write_all_at(&frame, inner.segment_len)?;
        inner.segment_len += frame.len() as u64;
        inner.next_lsn += 1;
        inner.appended_lsn = lsn;
        self.stats.append_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.stats.records.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Close the live segment (trimmed to its records and fsynced, so
    /// closed segments are never torn and carry no padding) and open the
    /// next one, preallocated.
    fn rotate(&self, inner: &mut WalInner) -> io::Result<()> {
        inner.file.set_len(inner.segment_len)?;
        inner.file.sync_all()?;
        inner.durable_lsn = inner.appended_lsn;
        let start_lsn = inner.next_lsn;
        let path = segment_path(&inner.dir, start_lsn);
        inner.file = create_segment(&path, start_lsn, inner.segment_bytes)?;
        inner.segment_len = 16;
        inner.segments.push(Segment { start_lsn, path });
        sync_dir(&inner.dir);
        self.stats.rotations.fetch_add(1, Ordering::Relaxed);
        self.stats.segments.store(inner.segments.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Group-commit fsync: make every appended record durable. Returns
    /// `false` when the sync was absorbed (another thread's fsync already
    /// covered everything appended so far).
    ///
    /// # Errors
    ///
    /// Propagates the fsync failure; the caller must treat affected
    /// acknowledgements as undurable.
    pub fn sync(&self) -> io::Result<bool> {
        let mut inner = self.inner.lock().expect("wal mutex poisoned");
        if inner.durable_lsn >= inner.appended_lsn {
            self.stats.syncs_absorbed.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        let delay_ms = self.sync_delay_ms.load(Ordering::Relaxed);
        if delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(delay_ms));
        }
        inner.file.sync_all()?;
        inner.durable_lsn = inner.appended_lsn;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Write a point-in-time checkpoint: `payload` is the engine's state
    /// dump covering every record up to the current last LSN. Atomic
    /// (tmp + fsync + rename + dir fsync), then garbage-collects segments
    /// whose records all fall at or before the checkpoint.
    ///
    /// The caller must be quiesced (no concurrent commits) so the dump
    /// and the LSN agree; the server checkpoints only after
    /// `Stm::quiesce` succeeds.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a failed checkpoint leaves the previous
    /// one (if any) intact.
    pub fn checkpoint(&self, payload: &[u8]) -> io::Result<u64> {
        let mut inner = self.inner.lock().expect("wal mutex poisoned");
        // Everything appended must be durable before the checkpoint can
        // claim to cover it.
        inner.file.sync_all()?;
        inner.durable_lsn = inner.appended_lsn;
        let lsn = inner.appended_lsn;
        let tmp = inner.dir.join("checkpoint.tmp");
        {
            let mut file = OpenOptions::new().create(true).write(true).truncate(true).open(&tmp)?;
            file.write_all(CHECKPOINT_MAGIC)?;
            file.write_all(&frame_record(lsn, 0, payload))?;
            file.sync_all()?;
        }
        fs::rename(&tmp, inner.dir.join("checkpoint"))?;
        sync_dir(&inner.dir);
        inner.checkpoint_lsn = lsn;

        // GC: a segment is dead when every record it holds is ≤ the
        // checkpoint LSN — i.e. the *next* segment starts at or below
        // lsn + 1. The live tail segment always survives.
        let mut removed = 0u64;
        while inner.segments.len() > 1 {
            let next_start = inner.segments[1].start_lsn;
            if next_start > lsn + 1 {
                break;
            }
            let dead = inner.segments.remove(0);
            fs::remove_file(&dead.path)?;
            removed += 1;
        }
        if removed > 0 {
            sync_dir(&inner.dir);
            self.stats.gc_removed.fetch_add(removed, Ordering::Relaxed);
            self.stats.segments.store(inner.segments.len() as u64, Ordering::Relaxed);
        }
        Ok(lsn)
    }

    /// The monotonic counters (exported as STATS v4 / Prometheus fields).
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Chaos: stall every subsequent real fsync by `delay_ms`
    /// milliseconds, under the log mutex (committers queue behind it
    /// like a slow disk). Used by the server's `--chaos-fsync-delay-ms`
    /// flag and the `fsync_wait`-attribution test; 0 disables.
    pub fn set_sync_delay_ms(&self, delay_ms: u64) {
        self.sync_delay_ms.store(delay_ms, Ordering::Relaxed);
    }

    /// Highest LSN appended so far (0 = empty log).
    pub fn last_lsn(&self) -> u64 {
        self.inner.lock().expect("wal mutex poisoned").appended_lsn
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> u64 {
        self.inner.lock().expect("wal mutex poisoned").durable_lsn
    }

    /// LSN of the last checkpoint taken or recovered (0 = none).
    pub fn checkpoint_lsn(&self) -> u64 {
        self.inner.lock().expect("wal mutex poisoned").checkpoint_lsn
    }
}

/// Fault injection for the recovery gate (`--chaos-torn-tail`): write a
/// deliberately CRC-corrupt, truncated record frame at the logical end of
/// the newest segment in `dir` (where the next append would land),
/// simulating a crash mid-write. Returns whether anything was injected
/// (false when the directory holds no segments yet).
///
/// # Errors
///
/// Propagates I/O failures reading the directory or the segment, or
/// writing.
pub fn inject_torn_tail(dir: &Path) -> io::Result<bool> {
    let Ok(entries) = fs::read_dir(dir) else { return Ok(false) };
    let mut newest: Option<(u64, PathBuf)> = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(start_lsn) = name
            .to_str()
            .and_then(|s| s.strip_prefix("wal-"))
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| u64::from_str_radix(s, 16).ok())
        else {
            continue;
        };
        if newest.as_ref().is_none_or(|(lsn, _)| start_lsn > *lsn) {
            newest = Some((start_lsn, entry.path()));
        }
    }
    let Some((_, path)) = newest else { return Ok(false) };
    let bytes = fs::read(&path)?;
    let mut logical_end = bytes.len().min(16);
    while let Some((_, next_offset)) = parse_record(&bytes, logical_end) {
        logical_end = next_offset;
    }
    let file = OpenOptions::new().write(true).open(&path)?;
    // A frame that claims 64 payload bytes but delivers 3, with a junk
    // CRC: both the length check and the CRC check must reject it.
    let mut torn = Vec::new();
    torn.extend_from_slice(&(16u32 + 64).to_le_bytes());
    torn.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
    torn.extend_from_slice(&[0xAB; 3]);
    file.write_all_at(&torn, logical_end as u64)?;
    file.sync_all()?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_and_parse_round_trip() {
        let frame = frame_record(7, 42, b"hello");
        let (record, next) = parse_record(&frame, 0).expect("round trip");
        assert_eq!(record, Record { lsn: 7, commit_ts: 42, payload: b"hello".to_vec() });
        assert_eq!(next, frame.len());
    }

    #[test]
    fn sync_delay_chaos_stalls_real_fsyncs_only() {
        let dir = std::env::temp_dir().join(format!("proust-wal-delay-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (wal, _recovery) = Wal::open(&dir, Wal::DEFAULT_SEGMENT_BYTES).expect("open");
        wal.set_sync_delay_ms(25);
        wal.append(1, b"x").expect("append");
        let start = std::time::Instant::now();
        assert!(wal.sync().expect("sync"), "first sync is real");
        assert!(start.elapsed() >= std::time::Duration::from_millis(25), "delay injected");
        // An absorbed sync (nothing new appended) skips the stall.
        let start = std::time::Instant::now();
        assert!(!wal.sync().expect("sync"), "second sync absorbed");
        assert!(start.elapsed() < std::time::Duration::from_millis(25), "absorbed sync is fast");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_rejects_corrupt_and_short_frames() {
        let mut frame = frame_record(1, 1, b"payload");
        frame[10] ^= 0xFF; // flip a body byte: CRC mismatch
        assert!(parse_record(&frame, 0).is_none());
        let frame = frame_record(1, 1, b"payload");
        assert!(parse_record(&frame[..frame.len() - 1], 0).is_none(), "short tail");
        assert!(parse_record(&[0u8; 4], 0).is_none(), "shorter than the frame words");
    }
}
