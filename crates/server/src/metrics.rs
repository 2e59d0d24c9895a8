//! The metrics table: every quantity the engine exports, one row each.
//!
//! `STATS` (one JSON object) and `GET /metrics` (Prometheus text
//! exposition) are two loops over [`ROWS`]. A row names its Prometheus
//! family, its `STATS` key with that key's position in the `STATS` object
//! (the two surfaces order their fields differently, and scrapers pin
//! both orders), and one reader over a per-scrape [`Snapshot`]. A
//! quantity both surfaces export is read once, by one function; adding a
//! metric means adding one row. Every row renders on every scrape, zeroed
//! or empty when its subsystem (WAL, reactor) is absent, so scrapers never
//! branch on configuration.

use proust_bench::report::{abort_causes_json, histogram_json};
use proust_reactor::ReactorMetrics;
use proust_stm::obs::{
    ConflictCell, Histogram, JsonValue, PromWriter, Tracer, SHARED_NS_BUCKET_BOUNDS, STAGES,
};
use proust_stm::{StmMetrics, StmStatsSnapshot};
use proust_wal::Wal;

use crate::engine::{load, Engine, Waterfall, OP_LABELS};

/// How many conflict-matrix cells `STATS` reports (`/metrics` always
/// exports the full matrix).
const CONFLICT_TOP_K: usize = 8;

/// Bucket boundaries for the batch-occupancy histogram: pending request
/// counts per commit-batch flush, not nanoseconds.
const OCCUPANCY_BUCKET_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Everything one scrape reads: a single copy of the STM counters, so
/// every row renders from the same instant's values.
struct Snapshot<'a> {
    engine: &'a Engine,
    stats: StmStatsSnapshot,
    stm: &'a StmMetrics,
    reactor: Option<&'a ReactorMetrics>,
}

/// A Prometheus family header: `(name, type, help)`.
type Family = (&'static str, &'static str, &'static str);

/// A `STATS` key and its position in the `STATS` object.
type Key = (usize, &'static str);

enum Row {
    /// One number: a counter or gauge sample (gauges as `f64`), a `u64`
    /// in `STATS`, or both.
    Scalar { family: Option<Family>, stats: Option<Key>, read: fn(&Snapshot<'_>) -> u64 },
    /// A composite `STATS` value (string, object or array).
    Json { stats: Key, read: fn(&Snapshot<'_>) -> JsonValue },
    /// A labelled or histogram family; `write` emits its samples under the
    /// header, given the family name.
    Samples { family: Family, write: fn(&Snapshot<'_>, &str, &mut PromWriter) },
}

const fn counter(name: &'static str, help: &'static str, read: fn(&Snapshot<'_>) -> u64) -> Row {
    Row::Scalar { family: Some((name, "counter", help)), stats: None, read }
}

const fn gauge(name: &'static str, help: &'static str, read: fn(&Snapshot<'_>) -> u64) -> Row {
    Row::Scalar { family: Some((name, "gauge", help)), stats: None, read }
}

/// A number only `STATS` carries.
const fn stat(at: usize, key: &'static str, read: fn(&Snapshot<'_>) -> u64) -> Row {
    Row::Scalar { family: None, stats: Some((at, key)), read }
}

const fn json(at: usize, key: &'static str, read: fn(&Snapshot<'_>) -> JsonValue) -> Row {
    Row::Json { stats: (at, key), read }
}

const fn samples(
    name: &'static str,
    kind: &'static str,
    help: &'static str,
    write: fn(&Snapshot<'_>, &str, &mut PromWriter),
) -> Row {
    Row::Samples { family: (name, kind, help), write }
}

impl Row {
    /// Export a counter or gauge in `STATS` too, as `key` at position `at`.
    const fn stats(self, at: usize, key: &'static str) -> Row {
        match self {
            Row::Scalar { family, stats: None, read } => {
                Row::Scalar { family, stats: Some((at, key)), read }
            }
            _ => panic!("only a counter or gauge takes a STATS key"),
        }
    }
}

/// One STATS object of per-stage quantiles, in [`STAGES`] order.
fn stage_quantiles(s: &Snapshot<'_>, quantile: fn(&Histogram) -> u64) -> JsonValue {
    JsonValue::obj(
        STAGES
            .iter()
            .zip(&s.engine.stage_ns)
            .map(|(stage, hist)| (stage.name(), JsonValue::u64(quantile(hist)))),
    )
}

/// One sample per conflict-matrix cell, labelled by its site pair.
fn conflict_pairs(
    s: &Snapshot<'_>,
    name: &str,
    w: &mut PromWriter,
    value: fn(&ConflictCell) -> u64,
) {
    for cell in s.stm.conflicts.cells() {
        let labels = [("aborter_site", cell.aborter.name()), ("victim_site", cell.victim.name())];
        w.sample(name, &labels, value(&cell) as f64);
    }
}

/// The table, in `/metrics` order; `STATS` order is each row's key
/// position.
#[rustfmt::skip]
static ROWS: &[Row] = &[
    json(0, "lap", |s| JsonValue::str(s.engine.lap.name())),
    json(1, "update", |s| JsonValue::str(s.engine.update.name())),
    // Always null: the server serves Proustian maps only (the comparison
    // maps are measured in process). Kept for scrapers.
    json(2, "baseline", |_| JsonValue::Null),

    // --- Wire traffic --------------------------------------------------
    counter("proust_requests_total", "Data requests received (each op of a MULTI counts once).",
        |s| load(&s.engine.acct.requests)).stats(3, "requests"),
    counter("proust_protocol_errors_total", "Malformed request lines answered with ERR.",
        |s| load(&s.engine.acct.protocol_errors)).stats(4, "protocol_errors"),
    counter("proust_busy_total", "Units answered BUSY after exhausting their retry budget.",
        |s| load(&s.engine.acct.busy)).stats(5, "busy"),
    counter("proust_batch_fallbacks_total",
        "Commit batches that fell back to per-request transactions.",
        |s| load(&s.engine.acct.batch_fallbacks)).stats(6, "batch_fallbacks"),
    counter("proust_connections_total", "Client connections accepted since startup.",
        |s| load(&s.engine.acct.connections_total)).stats(8, "connections_total"),
    gauge("proust_connections_open", "Client connections currently being served.",
        |s| load(&s.engine.acct.connections_open)).stats(7, "connections"),
    counter("proust_slow_txns_total", "Requests that exceeded the slow-transaction threshold.",
        |s| load(&s.engine.acct.slow_txns)).stats(10, "slow_txns"),

    // --- Reactor serving path ------------------------------------------
    stat(42, "reactor_shards", |s| s.reactor.map_or(0, |r| r.shard_count() as u64)),
    counter("proust_reactor_wakeups_total", "epoll_wait returns across all reactor shards.",
        |s| s.reactor.map_or(0, ReactorMetrics::wakeups_total)).stats(43, "reactor_wakeups"),
    counter("proust_conn_backpressure_total",
        "Connections paused for crossing the output high-water mark.",
        |s| s.reactor.map_or(0, ReactorMetrics::backpressure_total))
        .stats(44, "reactor_backpressure"),
    json(45, "connections_per_shard", |s| JsonValue::Arr(
        s.reactor.map(ReactorMetrics::connections_per_shard).unwrap_or_default()
            .into_iter().map(JsonValue::u64).collect())),
    samples("proust_connections", "gauge", "Open connections per reactor shard.", |s, name, w| {
        match s.reactor {
            Some(r) => {
                for (shard, count) in r.connections_per_shard().into_iter().enumerate() {
                    w.sample(name, &[("shard", &shard.to_string())], count as f64);
                }
            }
            None => w.sample(name, &[("shard", "0")], 0.0),
        }
    }),
    samples("proust_reactor_ready_events", "histogram", "Ready-event batch size per epoll wakeup.",
        |s, name, w| {
            let empty = Histogram::new();
            w.histogram(name, &[], s.reactor.map_or(&empty, |r| &r.ready_events));
        }),

    // --- STM lifecycle ---------------------------------------------------
    counter("proust_txn_starts_total", "Transaction attempts started, including retries.",
        |s| s.stats.starts).stats(12, "starts"),
    counter("proust_txn_commits_total", "Transactions committed.",
        |s| s.stats.commits).stats(13, "commits"),
    stat(14, "conflicts", |s| s.stats.conflicts),
    stat(15, "exhausted", |s| s.stats.exhausted),
    json(25, "abort_causes", |s| abort_causes_json(&s.stats)),
    samples("proust_txn_aborts_total", "counter", "Permanent aborts by kind.", |s, name, w| {
        w.sample(name, &[("kind", "user")], s.stats.user_aborts as f64);
        w.sample(name, &[("kind", "exhausted")], s.stats.exhausted as f64);
    }),
    samples("proust_txn_conflicts_total", "counter", "Transient conflict aborts by kind.",
        |s, name, w| {
            let st = &s.stats;
            for (kind, count) in [
                ("read_invalid", st.read_invalid),
                ("read_too_new", st.read_too_new),
                ("write_locked", st.write_locked),
                ("read_locked", st.read_locked),
                ("visible_readers", st.visible_readers),
                ("wounded", st.wounded),
                ("abstract_lock", st.abstract_lock),
                ("external", st.external),
            ] {
                w.sample(name, &[("kind", kind)], count as f64);
            }
        }),
    counter("proust_retries_requested_total", "User-requested retries (Harris retry).",
        |s| s.stats.retries_requested),
    counter("proust_wounds_issued_total", "Wounds issued by contention-management arbitration.",
        |s| s.stats.wounds_issued).stats(24, "wounds_issued"),
    counter("proust_serial_escalations_total", "Escalations into serial-irrevocable mode.",
        |s| s.stats.serial_escalations).stats(16, "serial_escalations"),
    gauge("proust_txn_in_flight", "Transactions currently running.",
        |s| s.engine.stm().in_flight()).stats(9, "in_flight"),
    gauge("proust_serial_mode", "1 while the serial-irrevocable gate is held.",
        |s| u64::from(s.engine.stm().serial_mode_active())),
    gauge("proust_trace_sample_every",
        "Flight-recorder sampling period (1-in-N transactions; 0 = off).",
        |_| Tracer::global().sample_every()).stats(11, "trace_sample_every"),

    // --- Request latency and the request-lifecycle waterfall -------------
    json(27, "latency", |s| histogram_json(&s.engine.latency)),
    json(28, "op_p99_ns", |s| JsonValue::obj(OP_LABELS.iter().zip(&s.engine.op_latency)
        .map(|((op, _), hist)| (*op, JsonValue::u64(hist.p99()))))),
    samples("proust_request_latency_ns", "histogram",
        "Request service latency (parse to response) by op, ns.", |s, name, w| {
            for ((op, _), hist) in OP_LABELS.iter().zip(&s.engine.op_latency) {
                if hist.count() > 0 {
                    w.histogram(name, &[("op", op)], hist);
                }
            }
        }),
    counter("proust_slow_requests_total", "Requests whose waterfall breached the slow threshold.",
        |s| load(&s.engine.acct.slow_requests)).stats(46, "slow_requests"),
    json(47, "stage_p50_ns", |s| stage_quantiles(s, Histogram::p50)),
    json(48, "stage_p99_ns", |s| stage_quantiles(s, Histogram::p99)),
    // The stage whose tail costs the most, ranked by p99 contribution as
    // the proust-top waterfall panel ranks it.
    json(49, "top_stage", |s| JsonValue::str(STAGES.iter().zip(&s.engine.stage_ns)
        .max_by_key(|(_, hist)| hist.p99()).map(|(stage, _)| stage.name())
        .expect("eight stages, never empty"))),
    // Every stage series emits the full shared bucket ladder, even empty,
    // so dashboards stack the stages without branching on which fired.
    samples("proust_request_stage_ns", "histogram",
        "Request-lifecycle stage latency by pipeline stage, ns.", |s, name, w| {
            for (stage, hist) in STAGES.iter().zip(&s.engine.stage_ns) {
                w.histogram_bounded(name, &[("stage", stage.name())], hist,
                    &SHARED_NS_BUCKET_BOUNDS);
            }
        }),
    stat(50, "batch_occupancy_p50", |s| s.engine.batch_occupancy.p50()),
    stat(51, "batch_occupancy_p99", |s| s.engine.batch_occupancy.p99()),
    samples("proust_batch_occupancy", "histogram", "Pending parsed ops per commit-batch flush.",
        |s, name, w| w.histogram_bounded(name, &[], &s.engine.batch_occupancy,
            &OCCUPANCY_BUCKET_BOUNDS)),
    // The worst requests since the previous scrape: reading drains them.
    json(52, "stage_exemplars", |s| JsonValue::Arr(
        s.engine.take_exemplars().iter().map(Waterfall::to_json).collect())),
    samples("proust_txn_phase_ns", "histogram",
        "Transaction phase latency (trace feature only), ns.", |s, name, w| {
            for (phase, hist) in [
                ("txn", &s.stm.txn_latency),
                ("validation", &s.stm.validation),
                ("lock_writeback", &s.stm.lock_writeback),
                ("replay", &s.stm.replay),
            ] {
                if hist.count() > 0 {
                    w.histogram_bounded(name, &[("phase", phase)], hist,
                        &SHARED_NS_BUCKET_BOUNDS);
                }
            }
        }),

    // --- Contention ----------------------------------------------------
    // Wait and hold histograms share one bucket table, so dashboards can
    // overlay any pair of `le` series without re-bucketing.
    samples("proust_lock_wait_ns", "histogram",
        "Contended lock/ownership wait time by blocked op site, ns.", |s, name, w| {
            for (site, hist) in s.stm.lock_wait.cells() {
                w.histogram_bounded(name, &[("site", site.name())], &hist,
                    &SHARED_NS_BUCKET_BOUNDS);
            }
        }),
    samples("proust_lock_hold_ns", "histogram",
        "Lock/ownership hold duration (sampled transactions), ns.",
        |s, name, w| w.histogram_bounded(name, &[], &s.stm.lock_hold, &SHARED_NS_BUCKET_BOUNDS)),
    samples("proust_park_ns", "histogram",
        "Condvar park latency of blocked retry and serial-gate waiters, ns.",
        |s, name, w| w.histogram_bounded(name, &[], &s.stm.park, &SHARED_NS_BUCKET_BOUNDS)),
    counter("proust_lock_waits_total", "Contended lock/ownership acquisitions that had to wait.",
        |s| s.stats.lock_waits).stats(19, "lock_waits"),
    counter("proust_lock_wait_ns_total", "Cumulative nanoseconds spent waiting on contended locks.",
        |s| s.stats.lock_wait_ns).stats(20, "lock_wait_ns"),
    counter("proust_parks_total", "Threads parked on the commit-wakeup channel or serial gate.",
        |s| s.stats.parks).stats(21, "parks"),
    stat(22, "park_ns", |s| s.stats.park_ns),
    counter("proust_serial_held_ns_total",
        "Cumulative nanoseconds the serial-irrevocable token was held.",
        |s| s.stats.serial_held_ns).stats(18, "serial_held_ns"),
    gauge("proust_serial_queue_depth", "Threads currently parked at the serial-irrevocable gate.",
        |s| s.engine.stm().serial_queue_depth()).stats(17, "serial_queue_depth"),

    // --- Durability: zeros without --data-dir ----------------------------
    gauge("proust_wal_enabled", "1 when a write-ahead log is attached (--data-dir).",
        |s| u64::from(s.engine.wal.is_some())).stats(29, "wal_enabled"),
    json(30, "fsync_policy", |s| JsonValue::str(s.engine.fsync_policy.name())),
    counter("proust_wal_append_bytes_total", "Framed bytes appended to the write-ahead log.",
        |s| s.engine.wal_u64(|w| load(&w.stats().append_bytes))).stats(32, "wal_append_bytes"),
    counter("proust_wal_records_total", "Commit records appended to the write-ahead log.",
        |s| s.engine.wal_u64(|w| load(&w.stats().records))).stats(31, "wal_records"),
    counter("proust_wal_fsyncs_total",
        "fsync calls that hit the log file (group-commit absorbed syncs excluded).",
        |s| s.engine.wal_u64(|w| load(&w.stats().fsyncs))).stats(33, "wal_fsyncs"),
    counter("proust_wal_syncs_absorbed_total",
        "Sync requests satisfied by another commit's covering fsync.",
        |s| s.engine.wal_u64(|w| load(&w.stats().syncs_absorbed))),
    counter("proust_wal_rotations_total", "Segment rotations since the log was opened.",
        |s| s.engine.wal_u64(|w| load(&w.stats().rotations))),
    gauge("proust_wal_segments", "Live write-ahead-log segment files.",
        |s| s.engine.wal_u64(|w| load(&w.stats().segments))).stats(34, "wal_segments"),
    stat(35, "wal_last_lsn", |s| s.engine.wal_u64(Wal::last_lsn)),
    gauge("proust_wal_durable_lsn", "Highest log sequence number known durable on disk.",
        |s| s.engine.wal_u64(Wal::durable_lsn)).stats(36, "wal_durable_lsn"),
    gauge("proust_wal_checkpoint_lsn", "LSN covered by the most recent checkpoint (0 = none).",
        |s| s.engine.wal_u64(Wal::checkpoint_lsn)).stats(37, "wal_checkpoint_lsn"),
    counter("proust_recovery_replayed_total",
        "Committed WAL records replayed during startup recovery.",
        |s| load(&s.engine.acct.recovery_replayed)).stats(39, "recovery_replayed"),
    counter("proust_recovery_truncated_bytes_total",
        "Torn-tail bytes truncated (never replayed) during recovery.",
        |s| load(&s.engine.acct.recovery_truncated_bytes)).stats(40, "recovery_truncated_bytes"),
    counter("proust_wal_torn_tails_total", "Torn tails detected and healed during recovery.",
        |s| load(&s.engine.acct.recovery_torn_tails)).stats(41, "recovery_torn_tails"),
    stat(38, "wal_fsync_p99_ns", |s| s.engine.wal_fsync_ns.p99()),
    samples("proust_wal_fsync_ns", "histogram", "WAL fsync latency, ns.",
        |s, name, w| w.histogram_bounded(name, &[], &s.engine.wal_fsync_ns,
            &SHARED_NS_BUCKET_BOUNDS)),

    // --- Conflict matrix -------------------------------------------------
    json(26, "conflict_matrix_top", |s| JsonValue::Arr(
        s.stm.conflicts.cells().into_iter().take(CONFLICT_TOP_K).map(|cell| JsonValue::obj([
            ("aborter", JsonValue::str(cell.aborter.name())),
            ("victim", JsonValue::str(cell.victim.name())),
            ("count", JsonValue::u64(cell.count)),
            ("ns_lost", JsonValue::u64(cell.ns_lost)),
        ])).collect())),
    samples("proust_conflict_pairs_total", "counter",
        "Conflict-driven aborts by (aborter op site, victim op site).",
        |s, name, w| conflict_pairs(s, name, w, |cell| cell.count)),
    stat(23, "contention_ns_lost", |s| s.stm.conflicts.total_ns_lost()),
    samples("proust_contention_ns_total", "counter",
        "Victim wall-clock nanoseconds lost, by (aborter, victim) op-site pair.",
        |s, name, w| conflict_pairs(s, name, w, |cell| cell.ns_lost)),
];

impl Engine {
    fn snapshot<'a>(&'a self, reactor: Option<&'a ReactorMetrics>) -> Snapshot<'a> {
        Snapshot { engine: self, stats: self.stm().stats(), stm: self.stm().metrics(), reactor }
    }

    /// The one-line JSON snapshot served by `STATS`: every row of the
    /// metrics table with a `STATS` key, in key-position order. `reactor`
    /// carries the serving path's I/O counters when the engine runs inside
    /// the server (absent in embedded and test use, where they read zero).
    /// Drains the per-shard tail exemplars.
    pub fn stats_json(&self, reactor: Option<&ReactorMetrics>) -> JsonValue {
        let snapshot = self.snapshot(reactor);
        let mut fields: Vec<(usize, &str, JsonValue)> = Vec::new();
        for row in ROWS {
            match *row {
                Row::Scalar { stats: Some((at, key)), read, .. } => {
                    fields.push((at, key, JsonValue::u64(read(&snapshot))));
                }
                Row::Json { stats: (at, key), read } => fields.push((at, key, read(&snapshot))),
                _ => {}
            }
        }
        fields.sort_by_key(|(at, ..)| *at);
        JsonValue::obj(fields.into_iter().map(|(_, key, value)| (key, value)))
    }

    /// The live metrics in Prometheus text exposition format, the payload
    /// behind `GET /metrics`: every row of the metrics table with a
    /// family, in table order. `reactor` as for [`Engine::stats_json`].
    pub fn prometheus(&self, reactor: Option<&ReactorMetrics>) -> String {
        let snapshot = self.snapshot(reactor);
        let mut w = PromWriter::new();
        for row in ROWS {
            match *row {
                Row::Scalar { family: Some((name, kind, help)), read, .. } => {
                    w.header(name, help, kind);
                    w.sample(name, &[], read(&snapshot) as f64);
                }
                Row::Samples { family: (name, kind, help), write } => {
                    w.header(name, help, kind);
                    write(&snapshot, name, &mut w);
                }
                _ => {}
            }
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_positions_are_a_permutation() {
        let mut positions: Vec<usize> = ROWS
            .iter()
            .filter_map(|row| match row {
                Row::Scalar { stats: Some((at, _)), .. } | Row::Json { stats: (at, _), .. } => {
                    Some(*at)
                }
                _ => None,
            })
            .collect();
        positions.sort_unstable();
        assert_eq!(positions, (0..positions.len()).collect::<Vec<_>>());
    }
}
