//! The layer rungs: each crate's public functions timed alone on one
//! thread (two client threads for the reactor echo and the baselines),
//! so that an end-to-end number can be read as a composition of floors.
//! Every rung is time-boxed and reports the median over its batches.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use proust_bench::maps::MapKind;
use proust_bench::workload::WorkloadSpec;
use proust_codec::{self as codec, op, FrameView, Parsed};
use proust_conc::{CowQueue, OrdMap, SnapMap, StripedHashMap};
use proust_reactor::{Conn, ConnHandler, Directive, ReactorMetrics, Shard};
use proust_server::proto::Cmd;
use proust_server::{Engine, ServerConfig, Unit};
use proust_stm::obs::Histogram;
use proust_stm::{ConflictDetection, Stm, StmConfig, TVar};
use proust_wal::Wal;

use crate::cpu::{self, Place};
use crate::gen::{self, Req, POINT};
use crate::lib_maps::{self, QUADRANTS};
use crate::report::{Outcome, OUT_DIR};
use crate::stats::{median, quantile};
use crate::trace::Spans;
use crate::Run;

/// Units in the pinned frame mix the codec and engine rungs consume.
const PINNED_UNITS: usize = 4_096;
/// Timed sections below; a run's rung budget is split evenly over them.
const SECTIONS: u32 = 34;

/// Median nanoseconds per call of `body` over batches of `batch` calls,
/// until `budget` is spent (three batches at least). One batch runs
/// untimed first so caches and lazily built state are warm.
fn ns_per_call(budget: Duration, batch: usize, mut body: impl FnMut()) -> f64 {
    for _ in 0..batch {
        body();
    }
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 3 || Instant::now() < deadline {
        let start = Instant::now();
        for _ in 0..batch {
            body();
        }
        samples.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// Run every rung and add its metrics to `out`. `seconds` is the whole
/// rung budget of the run.
pub fn run_all(run: &Run, seconds: f64, spans: &Spans, out: &mut Outcome) -> Result<(), String> {
    let budget = Duration::from_secs_f64(seconds / f64::from(SECTIONS));
    let units = POINT.units(run.seed, PINNED_UNITS);
    spans.span("rungs", || {
        spans.span("rung.codec", || codec_rung(budget, &units, out));
        spans.span("rung.reactor", || reactor_rung(budget * 3, out))?;
        spans.span("rung.server.engine", || engine_rung(budget, &units, out))?;
        spans.span("rung.stm", || stm_rung(budget, out));
        spans.span("rung.core", || core_rung(budget, run.seed, out));
        spans.span("rung.conc", || conc_rung(budget, out));
        spans.span("rung.wal", || wal_rung(budget, run, out))?;
        spans.span("rung.baselines", || baselines_rung(budget * 2, run.seed, out));
        Ok(())
    })
}

fn request_frames(units: &[Req]) -> Vec<u8> {
    let mut wire = Vec::new();
    for unit in units {
        gen::encode_request(unit, &mut wire);
    }
    wire
}

/// Walk `wire` frame by frame as the server does, nested BATCH bodies
/// included; returns the frames seen.
fn decode_all(wire: &[u8]) -> usize {
    let mut rest = wire;
    let mut frames = 0;
    while let Ok(Parsed::Frame { view, consumed }) = codec::parse_frame(rest, codec::REQ_MAGIC) {
        if view.code == op::BATCH {
            black_box(view.batch(codec::REQ_MAGIC).expect("generated batches are well formed"));
        }
        black_box(view);
        frames += 1;
        rest = &rest[consumed..];
    }
    frames
}

fn codec_rung(budget: Duration, units: &[Req], out: &mut Outcome) {
    let wire = request_frames(units);
    assert_eq!(decode_all(&wire), units.len(), "every pinned unit is one top-level frame");
    let per_pass = ns_per_call(budget, 1, || {
        black_box(decode_all(black_box(&wire)));
    });
    out.metric("codec.decode_ns_per_frame", per_pass / units.len() as f64);
    out.metric("codec.decode_mb_s", wire.len() as f64 / 1e6 / (per_pass / 1e9));

    let entries: Vec<(u64, u64)> = (0..64).map(|key| (key, key)).collect();
    let mut reply = Vec::with_capacity(wire.len());
    let per_pass = ns_per_call(budget, 1, || {
        reply.clear();
        for unit in units {
            gen::encode_response(unit, &entries, &mut reply);
        }
        black_box(&reply);
    });
    out.metric("codec.encode_ns_per_frame", per_pass / units.len() as f64);
    out.metric(
        "codec.scan_resp_encode_ns",
        ns_per_call(budget, 256, || {
            reply.clear();
            codec::put_entries(&mut reply, black_box(&entries));
            black_box(&reply);
        }),
    );
}

/// Answers every byte it reads with the same byte: the readiness path
/// with nothing behind it.
struct Echo;

impl ConnHandler for Echo {
    fn on_data(&mut self, conn: &mut Conn) -> Directive {
        let mut bytes = std::mem::take(&mut conn.inbuf);
        conn.queue(&bytes);
        bytes.clear();
        conn.inbuf = bytes;
        Directive::Continue
    }
}

const ECHO_CLIENTS: usize = 2;

fn reactor_rung(budget: Duration, out: &mut Outcome) -> Result<(), String> {
    let io = |err: std::io::Error| format!("reactor echo: {err}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let (shard, inbox) = Shard::new(0).map_err(io)?;
    let metrics = ReactorMetrics::new(1);
    let stop = AtomicBool::new(false);
    let rtt = Histogram::new();
    let mut frame = Vec::new();
    codec::put_request(&mut frame, op::MAP_GET, "m0", &[7]);

    let elapsed = std::thread::scope(|scope| -> Result<Duration, String> {
        // Placed as the serving workloads place a server and its clients,
        // so the rung composes into their latency.
        scope.spawn(|| {
            cpu::pin(Place::Server);
            shard.run(|| Echo, &metrics, &stop)
        });
        let clients: Vec<_> = (0..ECHO_CLIENTS)
            .map(|_| {
                let (rtt, frame) = (&rtt, &frame);
                scope.spawn(move || -> std::io::Result<()> {
                    cpu::pin(Place::Clients);
                    let mut stream = TcpStream::connect(addr)?;
                    stream.set_nodelay(true)?;
                    let mut reply = vec![0u8; frame.len()];
                    let deadline = Instant::now() + budget;
                    let mut warm = 0;
                    while Instant::now() < deadline {
                        let start = Instant::now();
                        stream.write_all(frame)?;
                        stream.read_exact(&mut reply)?;
                        // The first round trips include accept and adopt.
                        if warm < 100 {
                            warm += 1;
                        } else {
                            rtt.record(start.elapsed().as_nanos() as u64);
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        let accepted: std::io::Result<()> = (0..ECHO_CLIENTS).try_for_each(|_| {
            inbox.push(listener.accept()?.0);
            Ok(())
        });
        let start = Instant::now();
        let joined: Vec<_> = clients.into_iter().map(|client| client.join()).collect();
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Release);
        inbox.notify();
        accepted.map_err(io)?;
        for result in joined {
            result.map_err(|_| "reactor echo client panicked".to_string())?.map_err(io)?;
        }
        Ok(elapsed)
    })?;
    out.metric("reactor.echo_rps", rtt.count() as f64 / elapsed.as_secs_f64());
    out.metric("reactor.echo_rtt_p50_us", quantile(&rtt, 0.50) / 1e3);
    out.metric("reactor.echo_rtt_p99_us", quantile(&rtt, 0.99) / 1e3);
    out.size("reactor_echo_samples", rtt.count() as f64);
    Ok(())
}

/// A generated data frame as the server's command model. The frames are
/// the generator's own, so the arity is known.
fn to_cmd(view: &FrameView<'_>) -> Cmd {
    let name = view.name_str().expect("generated names are ASCII").to_string();
    let arg = |index| view.arg(index).expect("generated frames carry their arguments");
    match view.code {
        op::MAP_GET => Cmd::MapGet { name, key: arg(0) },
        op::MAP_PUT => Cmd::MapPut { name, key: arg(0), value: arg(1) },
        op::MAP_DEL => Cmd::MapDel { name, key: arg(0) },
        op::CTR_INC => Cmd::CounterInc { name, delta: arg(0) },
        op::Q_ENQ => Cmd::QueueEnq { name, value: arg(0) },
        op::Q_DEQ => Cmd::QueueDeq { name },
        op::ORD_PUT => Cmd::OrdPut { name, key: arg(0), value: arg(1) },
        op::ORD_SCAN => Cmd::OrdScan { name, lo: arg(0), hi: arg(1) },
        other => unreachable!("the generator emits no opcode 0x{other:02X}"),
    }
}

/// Decode the pinned frames into one command list per unit.
fn pinned_cmds(wire: &[u8]) -> Vec<Vec<Cmd>> {
    let mut rest = wire;
    let mut units = Vec::new();
    while let Ok(Parsed::Frame { view, consumed }) = codec::parse_frame(rest, codec::REQ_MAGIC) {
        units.push(if view.code == op::BATCH {
            view.batch(codec::REQ_MAGIC).expect("generated batch").iter().map(to_cmd).collect()
        } else {
            vec![to_cmd(&view)]
        });
        rest = &rest[consumed..];
    }
    units
}

fn engine_rung(budget: Duration, units: &[Req], out: &mut Outcome) -> Result<(), String> {
    let engine =
        Engine::new(&ServerConfig { shards: 1, trace_sample: 0, ..ServerConfig::default() });
    let resolve = |cmds: &[Cmd]| -> Result<Unit, String> {
        Ok(Unit { ops: cmds.iter().map(|cmd| engine.resolve(cmd)).collect::<Result<_, _>>()? })
    };
    // Preload as the serving workloads do, then run the mix once untimed.
    for frame in POINT.preload_frames(128) {
        let puts = pinned_cmds(&frame);
        engine.execute(&[resolve(&puts[0])?]);
    }
    let cmds = pinned_cmds(&request_frames(units));
    for (name, burst) in
        [("server.engine_ns_per_unit.b1", 1), ("server.engine_ns_per_unit.b16", 16)]
    {
        let mut failure = None;
        let per_pass = ns_per_call(budget, 1, || {
            for chunk in cmds.chunks(burst) {
                match chunk.iter().map(|cmds| resolve(cmds)).collect::<Result<Vec<Unit>, String>>()
                {
                    Ok(resolved) => drop(black_box(engine.execute_stages(&resolved))),
                    Err(reason) => failure = Some(reason),
                }
            }
        });
        if let Some(reason) = failure {
            return Err(format!("engine rung: {reason}"));
        }
        out.metric(name, per_pass / cmds.len() as f64);
    }
    Ok(())
}

fn stm_rung(budget: Duration, out: &mut Outcome) {
    for (backend, detection) in [
        ("mixed", ConflictDetection::Mixed),
        ("eager_all", ConflictDetection::EagerAll),
        ("lazy_all", ConflictDetection::LazyAll),
    ] {
        let stm = Stm::new(StmConfig::with_detection(detection));
        let vars: Vec<TVar<u64>> = (0..4).map(TVar::new).collect();
        out.metric(
            &format!("stm.{backend}.ro_txn_ns"),
            ns_per_call(budget, 1_000, || {
                let sum = stm.atomically(|tx| {
                    let mut sum = 0u64;
                    for var in &vars {
                        sum = sum.wrapping_add(var.read(tx)?);
                    }
                    Ok(sum)
                });
                black_box(sum.expect("uncontended transaction commits"));
            }),
        );
        out.metric(
            &format!("stm.{backend}.rw_txn_ns"),
            ns_per_call(budget, 1_000, || {
                stm.atomically(|tx| {
                    for var in &vars {
                        let value = var.read(tx)?;
                        var.write(tx, value.wrapping_add(1))?;
                    }
                    Ok(())
                })
                .expect("uncontended transaction commits");
            }),
        );
    }
}

/// Single-thread wrapper cost per operation, on the update cell.
fn core_rung(budget: Duration, seed: u64, out: &mut Outcome) {
    let cell = WorkloadSpec { total_ops: 10_000, ..lib_maps::SPECS[0].cell(seed, 1) };
    for (quadrant, kind) in QUADRANTS {
        let (stm, map) = lib_maps::build(kind);
        let per_execution = ns_per_call(budget, 1, || {
            black_box(lib_maps::execute(&stm, &map, &cell, &Histogram::new()).transactions);
        });
        out.metric(&format!("core.{quadrant}.ns_per_op_1t"), per_execution / cell.total_ops as f64);
    }
}

fn conc_rung(budget: Duration, out: &mut Outcome) {
    const KEYS: u64 = 1_024;
    let mut next = 0u64;
    let mut key = move || {
        next = next.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (next >> 32) % KEYS
    };

    let striped: StripedHashMap<u64, u64> = StripedHashMap::new();
    let snap: SnapMap<u64, u64> = SnapMap::new();
    for k in 0..KEYS {
        striped.insert(k, k);
        snap.insert(k, k);
    }
    out.metric(
        "conc.striped.get_ns",
        ns_per_call(budget, 4_096, || {
            black_box(striped.get(&key()));
        }),
    );
    out.metric(
        "conc.striped.put_ns",
        ns_per_call(budget, 4_096, || {
            black_box(striped.insert(key(), 1));
        }),
    );
    out.metric(
        "conc.snapmap.get_ns",
        ns_per_call(budget, 4_096, || {
            black_box(snap.get(&key()));
        }),
    );
    out.metric(
        "conc.snapmap.put_ns",
        ns_per_call(budget, 4_096, || {
            black_box(snap.insert(key(), 1));
        }),
    );
    out.metric(
        "conc.snapmap.snapshot_ns",
        ns_per_call(budget, 4_096, || {
            black_box(snap.snapshot());
        }),
    );

    let ordered: OrdMap<u64> = OrdMap::new();
    for k in 0..8 * KEYS {
        ordered.insert(k, k);
    }
    out.metric(
        "conc.ordmap.scan64_ns",
        ns_per_call(budget, 1_024, || {
            let lo = key() * 7;
            black_box(ordered.range(lo, lo + 64));
        }),
    );

    let queue: CowQueue<u64> = CowQueue::new();
    for k in 0..64 {
        queue.push_back(k);
    }
    out.metric(
        "conc.fifo.enq_deq_ns",
        ns_per_call(budget, 4_096, || {
            queue.push_back(1);
            black_box(queue.pop_front());
        }),
    );
}

/// A commit record about the size the point mix logs.
const WAL_PAYLOAD: [u8; 48] = [0xA5; 48];

fn wal_rung(budget: Duration, run: &Run, out: &mut Outcome) -> Result<(), String> {
    let dir = Path::new(OUT_DIR).join(format!("wal-rung-{}", run.tag()));
    let _ = std::fs::remove_dir_all(&dir);
    let io = |err: std::io::Error| format!("wal rung: {err}");
    let (wal, _) = Wal::open(&dir, Wal::DEFAULT_SEGMENT_BYTES).map_err(io)?;

    let mut failure = None;
    let bytes_before = wal.stats().append_bytes.load(Ordering::Relaxed);
    let appended_before = wal.stats().records.load(Ordering::Relaxed);
    let append_ns = ns_per_call(budget, 1_024, || {
        if let Err(err) = wal.append(1, black_box(&WAL_PAYLOAD)) {
            failure = Some(err);
        }
    });
    let framed = (wal.stats().append_bytes.load(Ordering::Relaxed) - bytes_before) as f64
        / (wal.stats().records.load(Ordering::Relaxed) - appended_before) as f64;
    out.metric("wal.append_ns", append_ns);
    out.metric("wal.append_mb_s", framed / 1e6 / (append_ns / 1e9));

    // One record, one fsync: the `always` policy's cost, and the floor
    // under a `batch` fsync that covers a single commit.
    let syncs = Histogram::new();
    let deadline = Instant::now() + budget * 3;
    while failure.is_none() && (syncs.count() < 20 || Instant::now() < deadline) {
        let synced = wal.append(1, &WAL_PAYLOAD).and_then(|_| {
            let start = Instant::now();
            wal.sync()?;
            Ok(start.elapsed())
        });
        match synced {
            Ok(took) => syncs.record(took.as_nanos() as u64),
            Err(err) => failure = Some(err),
        }
    }
    out.metric("wal.sync_p50_us", quantile(&syncs, 0.50) / 1e3);
    out.metric("wal.sync_p99_us", quantile(&syncs, 0.99) / 1e3);
    out.size("wal_sync_samples", syncs.count() as f64);

    drop(wal);
    let start = Instant::now();
    let reopened = Wal::open(&dir, Wal::DEFAULT_SEGMENT_BYTES);
    let took = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(err) = failure {
        return Err(io(err));
    }
    let (_, recovery) = reopened.map_err(io)?;
    out.metric("wal.recover_records_s", recovery.records.len() as f64 / took.as_secs_f64());
    Ok(())
}

/// The paper's comparison series on the update cell, two threads.
fn baselines_rung(budget: Duration, seed: u64, out: &mut Outcome) {
    let cell = lib_maps::SPECS[0].cell(seed, lib_maps::THREADS);
    for (name, kind) in [
        ("baselines.stm_map.ops_s", MapKind::StmMap),
        ("baselines.predication.ops_s", MapKind::Predication),
    ] {
        let (stm, map) = lib_maps::build(kind);
        let per_execution = ns_per_call(budget, 1, || {
            black_box(lib_maps::execute(&stm, &map, &cell, &Histogram::new()).transactions);
        });
        out.metric(name, cell.total_ops as f64 / (per_execution / 1e9));
    }
}
