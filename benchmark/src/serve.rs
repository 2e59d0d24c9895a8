//! The serving workloads: spawn the release `proust-server` binary, preload
//! every key over the binary wire, drive it with `proust_loadgen::run` from
//! this process, and judge the run by what the client saw.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use proust_codec::{self as codec, resp, Parsed};
use proust_loadgen::{verify_journal, LoadConfig, LoadReport, Mode, STAGE_NAMES};
use proust_stm::obs::{Histogram, JsonValue};

use crate::cpu::{self, Place};
use crate::gen::{Mix, POINT, SCAN};
use crate::report::{Outcome, OUT_DIR};
use crate::stats::{highest_supported_percentile, median, quantile, quartiles};
use crate::trace::Spans;
use crate::Run;

/// A serving workload: a mix, a pacing mode, and whether the WAL is on.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub name: &'static str,
    mix: Mix,
    /// Open-loop arrival rate, requests/s; `None` is a closed loop.
    open_rate: Option<f64>,
    wal: bool,
}

/// Fixed open-loop rate: about 40% of what one closed-loop connection
/// reaches on the 2-core box the benchmark was defined on (20k
/// committed/s, server on one core and client on the other).
const OPEN_RATE: f64 = 8_000.0;
/// Side rates of the traced open-loop pass, with [`OPEN_RATE`] between.
const SIDE_RATES: [(f64, &str); 2] =
    [(4_000.0, "loadgen.open.r4k.p99_us"), (12_000.0, "loadgen.open.r12k.p99_us")];
/// A rate "holds" when its p99 stays under this and the generator kept
/// at least [`MIN_ACHIEVED`] of its schedule.
const RATE_OK_P99_US: f64 = 1_000.0;
const MIN_ACHIEVED: f64 = 0.99;
/// Untraced/traced window pairs in a traced run.
const TRACE_PAIRS: u32 = 2;

pub const SPECS: [ServeSpec; 4] = [
    ServeSpec { name: "serve-closed-mem", mix: POINT, open_rate: None, wal: false },
    ServeSpec { name: "serve-open-mem", mix: POINT, open_rate: Some(OPEN_RATE), wal: false },
    ServeSpec { name: "serve-closed-wal", mix: POINT, open_rate: None, wal: true },
    ServeSpec { name: "serve-closed-scan", mix: SCAN, open_rate: None, wal: false },
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Measured slices per untraced run; each end-to-end metric is the median
/// over slices, so one scheduler hiccup cannot move it.
const SLICES: u32 = 5;
/// Puts per preload BATCH, and batches in flight before reading replies.
const PRELOAD_BATCH: usize = 1024;
const PRELOAD_WINDOW: usize = 4;

/// Client threads, one connection each. A closed loop runs two: its
/// threads block on the reply, so two share a client CPU without harm.
/// An open loop runs one per client CPU, two at most: a generator thread
/// must get its CPU the moment an arrival is due, and two sharing a CPU
/// wait out each other's scheduler slice (measured: p99 of 4-5 ms, a
/// scheduler tick, against 0.5 ms alone).
fn client_threads(mode: Mode) -> usize {
    match mode {
        Mode::Closed => 2,
        Mode::Open { .. } => cpu::client_cpus().min(2),
    }
}

/// A running `proust-server` child. Dropping it kills the process and
/// waits for it, so no path out of a run leaves one behind.
struct Server {
    child: Child,
    addr: String,
    /// Held so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn the server binary built next to this one and wait for its
    /// `LISTENING` line. One shard; flight recorder off until a traced
    /// window turns it on. The child is placed on the server's CPU; the
    /// calling thread, and so every load-generator thread it starts
    /// later, on the clients'.
    fn spawn(data_dir: Option<&Path>) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|err| format!("current_exe: {err}"))?;
        let bin = exe.with_file_name("proust-server");
        let mut command = Command::new(&bin);
        command.args(["--addr", "127.0.0.1:0", "--shards", "1", "--trace-sample", "0"]);
        if let Some(dir) = data_dir {
            command.arg("--data-dir").arg(dir).args(["--fsync-policy", "batch"]);
        }
        cpu::pin(Place::Server);
        let spawned = command.stdin(Stdio::null()).stdout(Stdio::piped()).spawn();
        cpu::pin(Place::Clients);
        let mut child = spawned.map_err(|err| format!("spawn {}: {err}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before LISTENING".to_string());
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("LISTENING ") {
                break addr.to_string();
            }
        };
        Ok(Server { child, addr, _stdout: stdout })
    }

    /// Peak resident set of the child so far (`VmHWM`), MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of `/proc/<pid>`, MiB (`pid` may be `self`).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|err| format!("{path}: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// One text-protocol request on a fresh connection.
fn text_roundtrip(addr: &str, line: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
    stream.write_all(format!("{line}\n").as_bytes()).map_err(|err| format!("{line}: {err}"))?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).map_err(|err| format!("{line}: {err}"))?;
    Ok(reply.trim_end().to_string())
}

/// Send the preload frames, a window at a time, and require an all-`OK`
/// BATCH reply to each.
fn preload(addr: &str, frames: &[Vec<u8>]) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|err| format!("connect {addr}: {err}"))?;
    stream.set_nodelay(true).map_err(|err| format!("nodelay: {err}"))?;
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    for window in frames.chunks(PRELOAD_WINDOW) {
        stream.write_all(&window.concat()).map_err(|err| format!("preload write: {err}"))?;
        let mut answered = 0;
        while answered < window.len() {
            let consumed = match codec::parse_frame(&inbuf, codec::RESP_MAGIC) {
                Ok(Parsed::Frame { view, consumed }) => {
                    let all_ok = view.code == resp::BATCH
                        && view
                            .batch(codec::RESP_MAGIC)
                            .is_ok_and(|inner| inner.iter().all(|frame| frame.code == resp::OK));
                    if !all_ok {
                        return Err(format!("preload batch refused (code 0x{:02X})", view.code));
                    }
                    consumed
                }
                Ok(Parsed::Incomplete) => {
                    let n =
                        stream.read(&mut chunk).map_err(|err| format!("preload read: {err}"))?;
                    if n == 0 {
                        return Err("server closed the preload connection".to_string());
                    }
                    inbuf.extend_from_slice(&chunk[..n]);
                    continue;
                }
                Err(err) => return Err(format!("preload reply: {err}")),
            };
            inbuf.drain(..consumed);
            answered += 1;
        }
    }
    Ok(())
}

fn stat(stats: &JsonValue, key: &str) -> f64 {
    stats.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One serving run in progress: the live server plus everything needed
/// to call the load generator against it again.
struct Session<'a> {
    spec: ServeSpec,
    run: &'a Run,
    spans: &'a Spans,
    server: Server,
    data_dir: Option<PathBuf>,
    /// Ack journals written so far (WAL workloads journal every window:
    /// `verify_journal` needs every INC the directory ever saw).
    journals: Vec<PathBuf>,
    /// Units sent and units not committed, over every window.
    attempted: u64,
    failed: u64,
}

fn scratch(run: &Run, what: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{what}-{}", run.tag()))
}

impl<'a> Session<'a> {
    /// Spawn + preload `count` times; keep the last server. Returns the
    /// session and each set-up's seconds.
    fn open(
        spec: ServeSpec,
        run: &'a Run,
        spans: &'a Spans,
        count: usize,
    ) -> Result<(Session<'a>, Vec<f64>), String> {
        let frames = spec.mix.preload_frames(PRELOAD_BATCH);
        let data_dir = spec.wal.then(|| scratch(run, "wal"));
        let mut setups = Vec::new();
        let mut last = None;
        for _ in 0..count {
            // Drop the previous server before reusing its directory.
            drop(last.take());
            let server = spans.span("setup", || -> Result<Server, String> {
                if let Some(dir) = &data_dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
                let start = Instant::now();
                let server = spans.span("setup.spawn", || Server::spawn(data_dir.as_deref()))?;
                spans.span("setup.preload", || preload(&server.addr, &frames))?;
                setups.push(start.elapsed().as_secs_f64());
                Ok(server)
            })?;
            last = Some(server);
        }
        let server = last.expect("at least one set-up");
        let session = Session {
            spec,
            run,
            spans,
            server,
            data_dir,
            journals: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        Ok((session, setups))
    }

    /// One load-generator window, gated: any lost update or protocol
    /// error invalidates the whole run.
    fn window(
        &mut self,
        label: &str,
        mode: Mode,
        secs: f64,
        waterfall_sample: usize,
    ) -> Result<LoadReport, String> {
        let mut config: LoadConfig =
            self.spec.mix.load_config(&self.server.addr, self.run.seed, client_threads(mode), mode);
        config.duration = Duration::from_secs_f64(secs);
        config.waterfall_sample = waterfall_sample;
        if self.spec.wal {
            let path = scratch(self.run, &format!("journal{}", self.journals.len()));
            config.ack_journal = Some(path.to_string_lossy().into_owned());
            self.journals.push(path);
        }
        let report = self.spans.span(label, || proust_loadgen::run(&config))?;
        self.attempted += report.requests;
        self.failed += report.requests - report.committed;
        if report.lost_updates > 0 {
            return Err(format!("{label}: {} lost updates", report.lost_updates));
        }
        if report.protocol_errors > 0 {
            return Err(format!("{label}: {} protocol errors", report.protocol_errors));
        }
        Ok(report)
    }

    fn mode(&self) -> Mode {
        match self.spec.open_rate {
            Some(rate) => Mode::Open { rate },
            None => Mode::Closed,
        }
    }

    /// A window of the workload's own traffic. Its open loop must have
    /// kept its schedule, or latency "from the due time" means nothing.
    fn own_window(
        &mut self,
        label: &str,
        secs: f64,
        waterfall_sample: usize,
    ) -> Result<LoadReport, String> {
        let mode = self.mode();
        let report = self.window(label, mode, secs, waterfall_sample)?;
        let achieved = achieved_rate_frac(&report, mode);
        if achieved < MIN_ACHIEVED {
            return Err(format!("{label}: open loop achieved only {achieved:.4} of its rate"));
        }
        Ok(report)
    }

    fn trace_command(&self, line: &str) -> Result<(), String> {
        match text_roundtrip(&self.server.addr, line)?.as_str() {
            "OK" => Ok(()),
            other => Err(format!("{line} answered {other:?}")),
        }
    }

    /// The kill-recover drill of a WAL workload: SIGKILL, restart on the
    /// same directory, time until the first answered request, then hold
    /// the recovered counters against the ack journals. Returns
    /// `recovery_s`.
    fn recover(&mut self) -> Result<f64, String> {
        let dir = self.data_dir.clone().expect("recover is for WAL workloads");
        let start = Instant::now();
        self.server = self.spans.span("recover.restart", || {
            // Assigning drops — SIGKILLs and reaps — the old server first.
            let fresh = Server::spawn(Some(&dir))?;
            match text_roundtrip(&fresh.addr, "PING")?.as_str() {
                "PONG" => Ok(fresh),
                other => Err(format!("recovered server answered PING with {other:?}")),
            }
        })?;
        let recovery_s = start.elapsed().as_secs_f64();

        let journal = scratch(self.run, "journal-all");
        let mut all = Vec::new();
        for path in &self.journals {
            all.extend(std::fs::read(path).map_err(|err| format!("{}: {err}", path.display()))?);
        }
        if self.run.inject_fault {
            // Demonstrates the gate: half the acks and sends vanish, so the
            // recovered counters exceed what the journal says was sent.
            all.truncate(all.len() / 2);
            while all.last().is_some_and(|byte| *byte != b'\n') {
                all.pop();
            }
        }
        std::fs::write(&journal, all).map_err(|err| format!("{}: {err}", journal.display()))?;
        let summary = self.spans.span("recover.verify_journal", || {
            verify_journal(&self.server.addr, &journal.to_string_lossy())
        })?;
        if !summary.violations.is_empty() {
            return Err(format!(
                "verify_journal: {} violation(s); first: {}",
                summary.violations.len(),
                summary.violations[0]
            ));
        }
        if summary.acked_sum == 0 {
            return Err("verify_journal: journal acknowledged no increments".to_string());
        }
        println!(
            "  recovery: SIGKILL, restart in {recovery_s:.3} s, verify_journal held acked {} <= \
             recovered {} <= sent {} over {} counters. The OS page cache survives a SIGKILL: \
             this checks recovery ordering, not device durability.",
            summary.acked_sum, summary.recovered_sum, summary.sent_sum, summary.counters
        );
        Ok(recovery_s)
    }
}

/// The end of a serving run, however it ends: scratch files go, and the
/// calling thread may run anywhere again. (The server dies with its field.)
impl Drop for Session<'_> {
    fn drop(&mut self) {
        for path in self.journals.iter().chain(self.data_dir.iter()) {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_dir_all(path);
        }
        let _ = std::fs::remove_file(scratch(self.run, "journal-all"));
        cpu::pin(Place::Anywhere);
    }
}

/// Share of the schedule the generator kept; a closed loop has none to
/// fall behind.
fn achieved_rate_frac(report: &LoadReport, mode: Mode) -> f64 {
    match mode {
        Mode::Open { rate } => report.requests as f64 / report.elapsed_s.max(1e-9) / rate,
        Mode::Closed => 1.0,
    }
}

fn us(hist: &Histogram, q: f64) -> f64 {
    quantile(hist, q) / 1e3
}

/// Run one serving workload. Untraced: three set-ups, a warm-up, five
/// measured slices, the end-to-end metrics. Traced: one set-up, untraced
/// and traced windows alternating on the same server, the per-layer
/// metrics this workload exercises (the caller adds the rungs).
pub fn run(spec: ServeSpec, run: &Run, spans: &Spans) -> Result<Outcome, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|err| format!("{OUT_DIR}: {err}"))?;
    cpu::precise_timers();
    // Only the open loop lets CPUs go idle between requests; a closed loop
    // gains nothing from the spinners, and beside an fsync they made
    // `serve-closed-wal` unsteady (p99 spread 186% against 5% without).
    let _awake = spec.open_rate.map(|_| cpu::KeepAwake::start());
    let (mut session, setups) =
        Session::open(spec, run, spans, if run.traced { 1 } else { SETUPS })?;
    if run.traced {
        traced(&mut session)
    } else {
        untraced(&mut session, &setups)
    }
}

fn sizing(session: &Session, out: &mut Outcome) {
    let threads = client_threads(session.mode()) as f64;
    out.size("client_threads", threads);
    out.size("connections", threads);
    out.size("server_shards", 1.0);
}

fn untraced(session: &mut Session, setups: &[f64]) -> Result<Outcome, String> {
    let secs = session.run.seconds;
    session.own_window("warmup", (secs * 0.1).max(0.2), 0)?;
    let mut slices = Vec::new();
    for _ in 0..SLICES {
        slices.push(session.own_window("measure", secs / f64::from(SLICES), 0)?);
    }
    let samples: u64 = slices.iter().map(|r| r.latency.count()).min().unwrap_or(0);
    if samples < 1_000 {
        return Err(format!("a slice holds {samples} latency samples; p99 needs 1000"));
    }
    let rss = session.server.peak_rss_mb()?;
    if session.spec.wal {
        session.recover()?;
    }
    let per_slice = |f: fn(&LoadReport) -> f64| slices.iter().map(f).collect::<Vec<_>>();
    let throughput = per_slice(|r| r.throughput_rps);
    let mut out = Outcome::new(session.attempted, session.failed);
    out.metric("throughput_ops_s", median(&throughput));
    out.metric("lat_p50_us", median(&per_slice(|r| us(&r.latency, 0.50))));
    out.metric("lat_p99_us", median(&per_slice(|r| us(&r.latency, 0.99))));
    out.metric("setup_s", median(setups));
    out.metric("peak_rss_mb", rss);
    sizing(session, &mut out);
    out.size("slices", f64::from(SLICES));
    out.size("latency_samples_per_slice", samples as f64);
    out.size("setups", setups.len() as f64);
    // How steady the run was inside itself: the slices' own spread.
    let (q1, q3) = quartiles(&throughput);
    out.size("throughput_slice_iqr_frac", (q3 - q1) / median(&throughput));
    Ok(out)
}

/// Windows of one kind (traced or not), pooled.
struct Pool {
    latency: Histogram,
    stage_ns: [Histogram; 8],
    requests: u64,
    committed: u64,
    elapsed_s: f64,
    achieved: Vec<f64>,
    waterfalls: u64,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            latency: Histogram::new(),
            stage_ns: std::array::from_fn(|_| Histogram::new()),
            requests: 0,
            committed: 0,
            elapsed_s: 0.0,
            achieved: Vec::new(),
            waterfalls: 0,
        }
    }

    fn add(&mut self, report: &LoadReport, mode: Mode) {
        self.latency.merge(&report.latency);
        for (mine, theirs) in self.stage_ns.iter().zip(&report.stage_ns) {
            mine.merge(theirs);
        }
        self.requests += report.requests;
        self.committed += report.committed;
        self.elapsed_s += report.elapsed_s;
        self.achieved.push(achieved_rate_frac(report, mode));
        self.waterfalls += report.waterfalls;
    }

    fn throughput(&self) -> f64 {
        ratio(self.committed as f64, self.elapsed_s)
    }
}

fn traced(session: &mut Session) -> Result<Outcome, String> {
    let secs = session.run.seconds;
    let mode = session.mode();
    let before = session
        .own_window("warmup", (secs * 0.1).max(0.2), 0)?
        .server_stats
        .ok_or("warm-up scraped no STATS")?;
    // Untraced and traced windows alternate, so drift in the machine's
    // speed lands on both sides of the overhead ratio.
    let (mut plain, mut traced) = (Pool::new(), Pool::new());
    let mut after = None;
    for _ in 0..TRACE_PAIRS {
        let window = secs * 0.5 / f64::from(2 * TRACE_PAIRS);
        plain.add(&session.own_window("measure.untraced", window, 0)?, mode);
        session.trace_command("TRACE START 64")?;
        let report = session.own_window("measure.traced", window, 16)?;
        session.trace_command("TRACE STOP")?;
        traced.add(&report, mode);
        after = report.server_stats;
    }
    let after = after.ok_or("traced window scraped no STATS")?;

    let mut out = Outcome::new(0, 0);
    let delta = |key: &str| stat(&after, key) - stat(&before, key);

    // Stage anatomy. The six stages up to the fsync come from the echoed
    // waterfalls (the traced windows' requests only). The echo is encoded
    // before resp_encode and sock_flush happen, so those two come from
    // the server's own histograms in STATS, which cover its whole life.
    let mut stage_sum_ns = 0.0;
    for (index, stage) in STAGE_NAMES.iter().enumerate() {
        let (p50, p99) = if index < 6 {
            (quantile(&traced.stage_ns[index], 0.50), quantile(&traced.stage_ns[index], 0.99))
        } else {
            let of = |field: &str| after.get(field).map_or(0.0, |obj| stat(obj, stage));
            (of("stage_p50_ns"), of("stage_p99_ns"))
        };
        stage_sum_ns += p50;
        out.metric(&format!("server.stage.{stage}.p50_ns"), p50);
        out.metric(&format!("server.stage.{stage}.p99_ns"), p99);
    }
    let traced_p50_us = us(&traced.latency, 0.50);
    out.metric("server.residual_p50_us", traced_p50_us - stage_sum_ns / 1e3);
    out.metric("server.batch_occupancy_p50", stat(&after, "batch_occupancy_p50"));
    out.metric("server.batch_fallbacks", delta("batch_fallbacks"));
    out.metric("server.busy", delta("busy"));

    let requests = (plain.requests + traced.requests) as f64;
    out.metric("reactor.wakeups_per_req", ratio(delta("reactor_wakeups"), requests));
    out.metric("reactor.backpressure_events", delta("reactor_backpressure"));
    out.metric("stm.abort_frac", ratio(delta("conflicts"), delta("starts")));
    out.metric("stm.attempts_per_commit", ratio(delta("starts"), delta("commits")));
    out.metric("stm.lock_wait_ns_per_commit", ratio(delta("lock_wait_ns"), delta("commits")));
    out.metric("stm.serial_escalations", delta("serial_escalations"));
    out.metric("wal.commits_per_fsync", ratio(delta("wal_records"), delta("wal_fsyncs")));
    out.metric("wal.bytes_per_commit", ratio(delta("wal_append_bytes"), delta("wal_records")));
    out.metric("wal.fsyncs", delta("wal_fsyncs"));

    // How late the generator ran, on the untraced windows.
    out.metric("loadgen.overrun_s", plain.elapsed_s - secs * 0.25);
    out.metric("loadgen.achieved_rate_frac", median(&plain.achieved));
    let tail = highest_supported_percentile(plain.latency.count()).map_or(0.5, |(_, q)| q);
    out.metric("loadgen.lat_p999_us", us(&plain.latency, tail.min(0.999)));
    out.metric(
        "obs.trace_overhead_frac",
        ratio(plain.throughput() - traced.throughput(), plain.throughput()),
    );

    // Where latency turns up before throughput flattens: the fixed rate
    // and one side rate below and above it, on the open-loop workload.
    if let Some(own_rate) = session.spec.open_rate {
        let holds =
            |p99_us: f64, achieved: f64| p99_us <= RATE_OK_P99_US && achieved >= MIN_ACHIEVED;
        let mut max_rate_ok = 0.0;
        if holds(us(&plain.latency, 0.99), median(&plain.achieved)) {
            max_rate_ok = own_rate;
        }
        for (rate, name) in SIDE_RATES {
            let mode = Mode::Open { rate };
            let report = session.window(name, mode, secs * 0.1, 0)?;
            let p99_us = us(&report.latency, 0.99);
            if holds(p99_us, achieved_rate_frac(&report, mode)) {
                max_rate_ok = f64::max(max_rate_ok, rate);
            }
            out.metric(name, p99_us);
        }
        out.metric("loadgen.max_rate_ok_rps", max_rate_ok);
    }
    if session.spec.wal {
        out.metric("wal.recovery_s", session.recover()?);
    }
    out.attempted = session.attempted;
    out.failed = session.failed;
    out.metric("failed_frac", ratio(session.failed as f64, session.attempted as f64));

    sizing(session, &mut out);
    out.size("latency_samples_untraced", plain.latency.count() as f64);
    out.size("latency_samples_traced", traced.latency.count() as f64);
    out.size("waterfalls", traced.waterfalls as f64);
    out.note(format!(
        "traced windows: client p50 {traced_p50_us:.2} us = sum of the eight stage p50s {:.2} us + residual {:.2} us",
        stage_sum_ns / 1e3,
        traced_p50_us - stage_sum_ns / 1e3
    ));
    // The ladder composes the client's untraced median.
    out.keep("lat_p50_us", us(&plain.latency, 0.50));
    Ok(out)
}
