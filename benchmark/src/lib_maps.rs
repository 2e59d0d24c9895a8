//! The library workloads: the paper's Figure 4 map cell, in process, for
//! each of the four Proust quadrants — the embedder's view of the system.
//! Transactions are timed from outside, around `Stm::atomically`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proust_bench::maps::MapKind;
use proust_bench::workload::{ActionStream, MapAction, WorkloadSpec};
use proust_core::TxMap;
use proust_stm::obs::{Histogram, Tracer};
use proust_stm::{Stm, StmStatsSnapshot};

use crate::cpu;
use crate::report::Outcome;
use crate::serve::peak_rss_mb;
use crate::stats::{geomean, median, quantile};
use crate::trace::Spans;
use crate::Run;

/// A Figure 4 cell: `t` threads, `o` operations per transaction, write
/// fraction `u`, keys uniform over the paper's fixed range of 1,024.
#[derive(Debug, Clone, Copy)]
pub struct LibSpec {
    pub name: &'static str,
    ops_per_txn: usize,
    write_fraction: f64,
}

pub const SPECS: [LibSpec; 2] = [
    // t2-o4-u50: the write path, where lazy-snap trails the other quadrants.
    LibSpec { name: "lib-map-update", ops_per_txn: 4, write_fraction: 0.5 },
    // t2-o16-u10: long read-mostly transactions.
    LibSpec { name: "lib-map-read", ops_per_txn: 16, write_fraction: 0.1 },
];

/// The four Proust quadrants, by the name their metrics carry.
pub const QUADRANTS: [(&str, MapKind); 4] = [
    ("eager_opt", MapKind::ProustEagerOpt),
    ("lazy_snap", MapKind::ProustLazySnap),
    ("lazy_memo", MapKind::ProustLazyMemo),
    ("pessimistic", MapKind::ProustPessimistic),
];

pub const THREADS: usize = 2;
pub const KEY_RANGE: u64 = 1_024;
/// Operations per execution. The paper times 1,000,000; a run here has
/// `--seconds / 4` per quadrant, so executions are short and many, and
/// the reported rate is their median.
pub const EXEC_OPS: usize = 40_000;
const WARMUPS: usize = 2;
const SETUPS: usize = 3;
/// Fewest timed executions behind a median, whatever the time box says.
const MIN_EXECUTIONS: usize = 5;

impl LibSpec {
    pub fn cell(&self, seed: u64, threads: usize) -> WorkloadSpec {
        WorkloadSpec {
            total_ops: EXEC_OPS,
            threads,
            ops_per_txn: self.ops_per_txn,
            write_fraction: self.write_fraction,
            key_range: KEY_RANGE,
            seed,
        }
    }
}

/// One execution's outcome.
pub struct Execution {
    pub elapsed: Duration,
    pub stats: StmStatsSnapshot,
    pub transactions: u64,
    pub gave_ups: u64,
}

/// Run `spec` once against `map`: every thread draws its transactions
/// from its own seeded stream and times each `atomically` call into its
/// own histogram, merged into `latency` afterwards (a shared histogram
/// would put two threads on one cache line per sample).
pub fn execute(
    stm: &Stm,
    map: &Arc<dyn TxMap<u64, u64>>,
    spec: &WorkloadSpec,
    latency: &Histogram,
) -> Execution {
    let before = stm.stats();
    let gave_ups = AtomicU64::new(0);
    let transactions = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..spec.threads {
            let (gave_ups, transactions) = (&gave_ups, &transactions);
            scope.spawn(move || {
                cpu::pin_nth(thread);
                let own = Histogram::new();
                let mut stream = ActionStream::new(spec, thread);
                let mut remaining = spec.ops_per_thread();
                let mut issued = 0u64;
                while remaining > 0 {
                    let batch = remaining.min(spec.ops_per_txn.max(1));
                    // Drawn before the transaction so a retry replays the
                    // same logical transaction.
                    let actions: Vec<MapAction> =
                        (0..batch).map(|_| stream.next_action()).collect();
                    let begun = Instant::now();
                    let result = stm.atomically(|tx| {
                        for action in &actions {
                            match action {
                                MapAction::Put(key, value) => drop(map.put(tx, *key, *value)?),
                                MapAction::Remove(key) => drop(map.remove(tx, key)?),
                                MapAction::Get(key) => drop(map.get(tx, key)?),
                            }
                        }
                        Ok(())
                    });
                    own.record(begun.elapsed().as_nanos() as u64);
                    issued += 1;
                    if let Err(err) = result {
                        assert!(
                            err.is_exhausted(),
                            "transaction failed outside the retry bound: {err}"
                        );
                        gave_ups.fetch_add(1, Ordering::Relaxed);
                    }
                    remaining -= batch;
                }
                transactions.fetch_add(issued, Ordering::Relaxed);
                latency.merge(&own);
            });
        }
    });
    Execution {
        elapsed: start.elapsed(),
        stats: stm.stats().delta(&before),
        transactions: transactions.load(Ordering::Relaxed),
        gave_ups: gave_ups.load(Ordering::Relaxed),
    }
}

/// Construct a quadrant's runtime and map and fill every other key, so
/// the evenly split puts and removes start at their equilibrium.
pub fn build(kind: MapKind) -> (Stm, Arc<dyn TxMap<u64, u64>>) {
    let (stm, map) = kind.build();
    for key in (0..KEY_RANGE).step_by(2) {
        stm.atomically(|tx| map.put(tx, key, key)).expect("uncontended prefill commits");
    }
    (stm, map)
}

/// Timed executions until `budget` is spent (at least [`MIN_EXECUTIONS`]).
struct Timed {
    ops_s: Vec<f64>,
    latency: Histogram,
    stats: StmStatsSnapshot,
    transactions: u64,
    gave_ups: u64,
}

fn timed(
    stm: &Stm,
    map: &Arc<dyn TxMap<u64, u64>>,
    cell: &WorkloadSpec,
    budget: Duration,
) -> Result<Timed, String> {
    let mut out = Timed {
        ops_s: Vec::new(),
        latency: Histogram::new(),
        stats: StmStatsSnapshot::default(),
        transactions: 0,
        gave_ups: 0,
    };
    let deadline = Instant::now() + budget;
    let mut round = 0u64;
    while out.ops_s.len() < MIN_EXECUTIONS || Instant::now() < deadline {
        // A fresh stream per execution: same seed, same sequence of
        // executions, but no execution repeats the one before.
        round += 1;
        let cell = WorkloadSpec { seed: cell.seed.wrapping_add(round), ..*cell };
        let exec = execute(stm, map, &cell, &out.latency);
        if exec.stats.commits + exec.gave_ups != exec.transactions {
            return Err(format!(
                "commits {} + gave-ups {} != transactions issued {}",
                exec.stats.commits, exec.gave_ups, exec.transactions
            ));
        }
        out.ops_s.push(cell.total_ops as f64 / exec.elapsed.as_secs_f64());
        out.stats = out.stats.merged(&exec.stats);
        out.transactions += exec.transactions;
        out.gave_ups += exec.gave_ups;
    }
    Ok(out)
}

/// Construct, prefill and warm up one quadrant; returns the seconds it
/// took beside the runtime and map.
fn set_up(
    kind: MapKind,
    cell: &WorkloadSpec,
    spans: &Spans,
) -> (Stm, Arc<dyn TxMap<u64, u64>>, f64) {
    spans.span("setup", || {
        let start = Instant::now();
        let (stm, map) = build(kind);
        for _ in 0..WARMUPS {
            execute(&stm, &map, cell, &Histogram::new());
        }
        (stm, map, start.elapsed().as_secs_f64())
    })
}

/// Run one library workload over the four quadrants, each in its share of
/// `--seconds`. Every end-to-end metric is the geometric mean over the
/// quadrants of that quadrant's median; the quadrants themselves are
/// per-layer metrics (`core.<quadrant>.*`).
pub fn run(spec: LibSpec, run: &Run, spans: &Spans) -> Result<Outcome, String> {
    let cell = spec.cell(run.seed, THREADS);
    let mut out =
        if run.traced { traced(&cell, run, spans)? } else { untraced(&cell, run, spans)? };
    out.size("threads", THREADS as f64);
    out.size("key_range", KEY_RANGE as f64);
    out.size("ops_per_execution", EXEC_OPS as f64);
    Ok(out)
}

fn untraced(cell: &WorkloadSpec, run: &Run, spans: &Spans) -> Result<Outcome, String> {
    let per_quadrant = Duration::from_secs_f64(run.seconds / QUADRANTS.len() as f64);
    let mut out = Outcome::new(0, 0);
    let (mut ops, mut p50s, mut p99s, mut setups) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut samples = u64::MAX;
    for (quadrant, kind) in QUADRANTS {
        let begun = Instant::now();
        let mut setup_s = Vec::new();
        let mut built = None;
        for _ in 0..SETUPS {
            let (stm, map, took) = set_up(kind, cell, spans);
            setup_s.push(took);
            built = Some((stm, map));
        }
        let (stm, map) = built.expect("at least one set-up");
        let left = per_quadrant.saturating_sub(begun.elapsed());
        let timed = spans.span("measure", || timed(&stm, &map, cell, left))?;
        ops.push(median(&timed.ops_s));
        p50s.push(quantile(&timed.latency, 0.50) / 1e3);
        p99s.push(quantile(&timed.latency, 0.99) / 1e3);
        setups.push(median(&setup_s));
        samples = samples.min(timed.latency.count());
        out.attempted += timed.transactions;
        out.failed += timed.gave_ups;
        out.size(&format!("executions.{quadrant}"), timed.ops_s.len() as f64);
    }
    if samples < 1_000 {
        return Err(format!("a quadrant holds {samples} latency samples; p99 needs 1000"));
    }
    out.metric("throughput_ops_s", geomean(&ops));
    out.metric("lat_p50_us", geomean(&p50s));
    out.metric("lat_p99_us", geomean(&p99s));
    out.metric("setup_s", geomean(&setups));
    out.metric("peak_rss_mb", peak_rss_mb("self")?);
    out.size("latency_samples_min_quadrant", samples as f64);
    out.size("setups_per_quadrant", SETUPS as f64);
    Ok(out)
}

/// The traced run: per quadrant, half its share with the flight recorder
/// off and half with it sampling 1 transaction in 64; the difference is
/// what tracing costs. (The other half of `--seconds` goes to the rungs.)
fn traced(cell: &WorkloadSpec, run: &Run, spans: &Spans) -> Result<Outcome, String> {
    let per_quadrant = Duration::from_secs_f64(run.seconds * 0.5 / QUADRANTS.len() as f64);
    let mut out = Outcome::new(0, 0);
    let (mut plain_ops, mut traced_ops) = (Vec::new(), Vec::new());
    let mut stats = StmStatsSnapshot::default();
    for (quadrant, kind) in QUADRANTS {
        let begun = Instant::now();
        let (stm, map, _) = set_up(kind, cell, spans);
        let half = per_quadrant.saturating_sub(begun.elapsed()) / 2;
        let plain = spans
            .span(&format!("measure.untraced.{quadrant}"), || timed(&stm, &map, cell, half))?;
        let tracer = Tracer::global();
        tracer.set_sample_every(64);
        tracer.enable();
        let traced =
            spans.span(&format!("measure.traced.{quadrant}"), || timed(&stm, &map, cell, half));
        tracer.disable();
        tracer.clear();
        let traced = traced?;
        out.metric(&format!("core.{quadrant}.ops_s"), median(&plain.ops_s));
        out.metric(
            &format!("core.{quadrant}.abort_frac"),
            plain.stats.conflicts as f64 / plain.stats.starts.max(1) as f64,
        );
        out.metric(&format!("core.{quadrant}.txn_p99_us"), quantile(&traced.latency, 0.99) / 1e3);
        plain_ops.push(median(&plain.ops_s));
        traced_ops.push(median(&traced.ops_s));
        stats = stats.merged(&plain.stats).merged(&traced.stats);
        out.attempted += plain.transactions + traced.transactions;
        out.failed += plain.gave_ups + traced.gave_ups;
    }
    let commits = stats.commits.max(1) as f64;
    out.metric("stm.abort_frac", stats.conflicts as f64 / stats.starts.max(1) as f64);
    out.metric("stm.attempts_per_commit", stats.starts as f64 / commits);
    out.metric("stm.lock_wait_ns_per_commit", stats.lock_wait_ns as f64 / commits);
    out.metric("stm.serial_escalations", stats.serial_escalations as f64);
    // Folded over the quadrants as the end-to-end throughput folds them.
    out.metric("obs.trace_overhead_frac", 1.0 - geomean(&traced_ops) / geomean(&plain_ops));
    out.metric("failed_frac", out.failed as f64 / out.attempted.max(1) as f64);
    Ok(out)
}
