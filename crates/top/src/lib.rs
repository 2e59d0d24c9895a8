//! Model and renderer for the `proust-top` live dashboard.
//!
//! The binary scrapes one or more `proust-server` `/metrics` endpoints at
//! a fixed cadence; this library turns two consecutive scrapes into a
//! [`Frame`] of interval rates (committed/s, time lost to locks per
//! second, tail latency over the interval, …) and renders it as a block
//! of text with hand-rolled ANSI styling — no terminal library involved.
//!
//! Everything here is pure: [`build_frame`] consumes parsed
//! [`PromSample`] slices and [`render_frame`] produces a `String`, so the
//! whole pipeline is unit-testable from synthetic exposition text.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeMap;

use proust_obs::PromSample;

/// One rendered dashboard interval, computed from two consecutive
/// scrapes `dt_s` seconds apart. Counter fields are per-second interval
/// rates; gauge fields are the current scrape's value.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    /// Committed transactions per second over the interval.
    pub committed_per_s: f64,
    /// Protocol requests per second over the interval.
    pub requests_per_s: f64,
    /// Transactions currently executing (gauge).
    pub in_flight: f64,
    /// Open client connections (gauge).
    pub connections: f64,
    /// Request-latency quantiles over the interval, microseconds.
    /// Computed from the per-op histogram bucket deltas, so they describe
    /// this interval's traffic, not the process lifetime.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    pub p999_us: f64,
    /// Abort/conflict causes that fired this interval: `(kind, per_s)`,
    /// sorted by rate descending. Quiet kinds are omitted.
    pub aborts: Vec<(String, f64)>,
    /// Top-K contended sites by lock-wait time lost this interval:
    /// `(site, ms_lost)`, sorted descending.
    pub top_sites: Vec<(String, f64)>,
    /// Top-K (aborter → victim) pairs by nanoseconds lost this interval:
    /// `("aborter → victim", ms_lost)`, sorted descending.
    pub top_pairs: Vec<(String, f64)>,
    /// Milliseconds of lock-wait accumulated per second of wall clock
    /// (a direct "time lost to contention" gauge; can exceed 1000 with
    /// many threads waiting concurrently).
    pub lock_wait_ms_per_s: f64,
    /// Condvar parks per second (retry + serial-gate waiters).
    pub parks_per_s: f64,
    /// Whether the serial-irrevocable gate is held right now (gauge).
    pub serial_mode: bool,
    /// Threads parked at the serial gate right now (gauge).
    pub serial_queue_depth: f64,
    /// Serial escalations per second over the interval.
    pub serial_escalations_per_s: f64,
    /// Milliseconds the serial token was held, per second of wall clock.
    pub serial_held_ms_per_s: f64,
    /// Request-lifecycle waterfall: per-stage p99 over the interval,
    /// microseconds — `(stage, p99_us)`, ranked descending by
    /// contribution. Stages with no traffic this interval are dropped.
    pub stages: Vec<(String, f64)>,
    /// Commit-batch occupancy p99 (ops per flush) over the interval.
    pub batch_occupancy_p99: f64,
}

/// Sum of every sample of one family (histogram families have many).
fn family_sum(samples: &[PromSample], name: &str) -> f64 {
    samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
}

/// Non-negative counter movement of a family across two scrapes. A
/// server restart resets counters; clamping at zero keeps one garbage
/// frame from rendering negative rates.
fn family_delta(prev: &[PromSample], cur: &[PromSample], name: &str) -> f64 {
    (family_sum(cur, name) - family_sum(prev, name)).max(0.0)
}

/// Per-label-value sums of one family: `label_value -> sum`.
fn by_label(samples: &[PromSample], name: &str, key: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for sample in samples.iter().filter(|s| s.name == name) {
        if let Some(value) = sample.label(key) {
            *out.entry(value.to_string()).or_insert(0.0) += sample.value;
        }
    }
    out
}

/// Per-label counter movement across two scrapes, clamped at zero,
/// with zero-movement entries dropped.
fn label_deltas(
    prev: &[PromSample],
    cur: &[PromSample],
    name: &str,
    key: &str,
) -> Vec<(String, f64)> {
    let before = by_label(prev, name, key);
    let mut out: Vec<(String, f64)> = by_label(cur, name, key)
        .into_iter()
        .map(|(label, value)| {
            let moved = (value - before.get(&label).copied().unwrap_or(0.0)).max(0.0);
            (label, moved)
        })
        .filter(|(_, moved)| *moved > 0.0)
        .collect();
    out.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    out
}

/// Cumulative histogram buckets of a family, summed across every other
/// label: sorted `(le_ns, cumulative_count)`. `le="+Inf"` maps to
/// `f64::INFINITY`.
fn bucket_cdf(samples: &[PromSample], family: &str) -> Vec<(f64, f64)> {
    let bucket_name = format!("{family}_bucket");
    let mut by_le: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for sample in samples.iter().filter(|s| s.name == bucket_name) {
        let Some(le) = sample.label("le") else { continue };
        let bound = if le == "+Inf" { f64::INFINITY } else { le.parse().unwrap_or(f64::NAN) };
        if bound.is_nan() {
            continue;
        }
        // f64 is not Ord; key by the bit pattern (non-negative bounds
        // order the same way their bits do).
        let entry = by_le.entry(bound.to_bits()).or_insert((bound, 0.0));
        entry.1 += sample.value;
    }
    by_le.into_values().collect()
}

/// Quantile estimate from cumulative `(le, count)` buckets: the upper
/// bound of the first bucket whose cumulative count covers `q` of the
/// total. The `+Inf` bucket resolves to the largest finite bound — the
/// histogram cannot say more. Returns 0 for an empty histogram.
pub fn quantile_ns(cdf: &[(f64, f64)], q: f64) -> f64 {
    let total = cdf.last().map_or(0.0, |&(_, count)| count);
    if total <= 0.0 {
        return 0.0;
    }
    let target = q * total;
    let largest_finite = cdf.iter().rev().find(|(le, _)| le.is_finite()).map_or(0.0, |&(le, _)| le);
    for &(le, count) in cdf {
        if count >= target {
            return if le.is_finite() { le } else { largest_finite };
        }
    }
    largest_finite
}

/// Interval CDF: per-bucket movement between two scrapes of the same
/// cumulative histogram (still cumulative in `le`, clamped at zero).
fn cdf_delta(prev: &[(f64, f64)], cur: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let before: BTreeMap<u64, f64> =
        prev.iter().map(|&(le, count)| (le.to_bits(), count)).collect();
    cur.iter()
        .map(|&(le, count)| {
            (le, (count - before.get(&le.to_bits()).copied().unwrap_or(0.0)).max(0.0))
        })
        .collect()
}

/// The eight request-lifecycle stage names, pipeline order — matches
/// the server's `proust_request_stage_ns{stage=…}` label values.
const STAGE_NAMES: [&str; 8] = [
    "sock_read",
    "parse",
    "batch_wait",
    "stm_exec",
    "wal_append",
    "fsync_wait",
    "resp_encode",
    "sock_flush",
];

/// Interval p99 of one stage of the request waterfall, from the
/// stage-labelled histogram family. `None` when the stage saw no traffic
/// this interval.
fn stage_p99_ns(prev: &[PromSample], cur: &[PromSample], stage: &str) -> Option<f64> {
    let only = |samples: &[PromSample]| -> Vec<PromSample> {
        samples.iter().filter(|s| s.label("stage") == Some(stage)).cloned().collect()
    };
    let cdf = cdf_delta(
        &bucket_cdf(&only(prev), "proust_request_stage_ns"),
        &bucket_cdf(&only(cur), "proust_request_stage_ns"),
    );
    let moved = cdf.last().map_or(0.0, |&(_, count)| count);
    (moved > 0.0).then(|| quantile_ns(&cdf, 0.99))
}

/// Compute one dashboard interval from two consecutive scrapes.
///
/// `dt_s` is the wall-clock gap between them; `top_k` caps the contended
/// sites and conflict-pair tables.
pub fn build_frame(prev: &[PromSample], cur: &[PromSample], dt_s: f64, top_k: usize) -> Frame {
    let dt = dt_s.max(1e-9);
    let latency = cdf_delta(
        &bucket_cdf(prev, "proust_request_latency_ns"),
        &bucket_cdf(cur, "proust_request_latency_ns"),
    );

    // Abort causes: permanent aborts and transient conflicts share one
    // table; the label value is the cause either way.
    let mut aborts = label_deltas(prev, cur, "proust_txn_conflicts_total", "kind");
    aborts.extend(label_deltas(prev, cur, "proust_txn_aborts_total", "kind"));
    aborts.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    for entry in &mut aborts {
        entry.1 /= dt;
    }

    // Per-site time lost: the `_sum` series of the per-site wait
    // histogram is exactly "ns waited at this site".
    let mut top_sites = label_deltas(prev, cur, "proust_lock_wait_ns_sum", "site");
    top_sites.truncate(top_k);
    for entry in &mut top_sites {
        entry.1 /= 1e6; // ns -> ms
    }

    // (aborter, victim) pairs ranked by ns lost. The two site labels are
    // folded into one display key before ranking.
    let keyed: Vec<PromSample> =
        cur.iter().filter(|s| s.name == "proust_contention_ns_total").map(pair_keyed).collect();
    let keyed_prev: Vec<PromSample> =
        prev.iter().filter(|s| s.name == "proust_contention_ns_total").map(pair_keyed).collect();
    let mut top_pairs = label_deltas(&keyed_prev, &keyed, "proust_contention_ns_total", "pair");
    top_pairs.truncate(top_k);
    for entry in &mut top_pairs {
        entry.1 /= 1e6; // ns -> ms
    }

    // Waterfall panel: stage p99s over the interval, ranked by how much
    // each stage contributes to the request tail.
    let mut stages: Vec<(String, f64)> = STAGE_NAMES
        .iter()
        .filter_map(|stage| {
            stage_p99_ns(prev, cur, stage).map(|p99| (stage.to_string(), p99 / 1e3))
        })
        .collect();
    stages.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    let occupancy = cdf_delta(
        &bucket_cdf(prev, "proust_batch_occupancy"),
        &bucket_cdf(cur, "proust_batch_occupancy"),
    );

    Frame {
        stages,
        batch_occupancy_p99: quantile_ns(&occupancy, 0.99),
        committed_per_s: family_delta(prev, cur, "proust_txn_commits_total") / dt,
        requests_per_s: family_delta(prev, cur, "proust_requests_total") / dt,
        in_flight: family_sum(cur, "proust_txn_in_flight"),
        connections: family_sum(cur, "proust_connections_open"),
        p50_us: quantile_ns(&latency, 0.50) / 1e3,
        p99_us: quantile_ns(&latency, 0.99) / 1e3,
        p999_us: quantile_ns(&latency, 0.999) / 1e3,
        aborts,
        top_sites,
        top_pairs,
        lock_wait_ms_per_s: family_delta(prev, cur, "proust_lock_wait_ns_total") / 1e6 / dt,
        parks_per_s: family_delta(prev, cur, "proust_parks_total") / dt,
        serial_mode: family_sum(cur, "proust_serial_mode") > 0.0,
        serial_queue_depth: family_sum(cur, "proust_serial_queue_depth"),
        serial_escalations_per_s: family_delta(prev, cur, "proust_serial_escalations_total") / dt,
        serial_held_ms_per_s: family_delta(prev, cur, "proust_serial_held_ns_total") / 1e6 / dt,
    }
}

/// Rewrite a `{aborter_site, victim_site}` sample into one with a single
/// `pair` label so the generic label-delta machinery can rank it.
fn pair_keyed(sample: &PromSample) -> PromSample {
    let aborter = sample.label("aborter_site").unwrap_or("?");
    let victim = sample.label("victim_site").unwrap_or("?");
    PromSample {
        name: sample.name.clone(),
        labels: vec![("pair".to_string(), format!("{aborter} -> {victim}"))],
        value: sample.value,
    }
}

const BOLD: &str = "\x1b[1m";
const DIM: &str = "\x1b[2m";
const RED: &str = "\x1b[31m";
const YELLOW: &str = "\x1b[33m";
const GREEN: &str = "\x1b[32m";
const RESET: &str = "\x1b[0m";

/// Proportional bar of `value/max` in `width` cells.
fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round().min(width as f64) as usize
    } else {
        0
    };
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

/// Render one frame as a block of text. With `color` false every ANSI
/// escape is suppressed, which is what the unit tests and `--plain`
/// assert on.
pub fn render_frame(frame: &Frame, title: &str, color: bool) -> String {
    let style = |code: &str| if color { code.to_string() } else { String::new() };
    let mut out = String::new();
    out.push_str(&format!("{}proust-top{} — {title}\n", style(BOLD), style(RESET)));
    out.push_str(&format!(
        "  {:>10.0} commit/s  {:>10.0} req/s  in-flight {:>4.0}  conns {:>3.0}\n",
        frame.committed_per_s, frame.requests_per_s, frame.in_flight, frame.connections,
    ));
    out.push_str(&format!(
        "  latency us: p50 {:>8.1}  p99 {:>8.1}  p999 {:>8.1}\n",
        frame.p50_us, frame.p99_us, frame.p999_us,
    ));

    let serial_style = if frame.serial_mode { style(RED) } else { style(GREEN) };
    out.push_str(&format!(
        "  serial gate: {}{}{}  queue {:.0}  escalations/s {:.1}  held {:.1} ms/s\n",
        serial_style,
        if frame.serial_mode { "HELD" } else { "idle" },
        style(RESET),
        frame.serial_queue_depth,
        frame.serial_escalations_per_s,
        frame.serial_held_ms_per_s,
    ));
    out.push_str(&format!(
        "  contention: lock-wait {:.1} ms/s  parks/s {:.1}\n",
        frame.lock_wait_ms_per_s, frame.parks_per_s,
    ));

    out.push_str(&format!("{}aborts by cause (per s){}\n", style(BOLD), style(RESET)));
    if frame.aborts.is_empty() {
        out.push_str(&format!("  {}none this interval{}\n", style(DIM), style(RESET)));
    }
    for (kind, rate) in &frame.aborts {
        out.push_str(&format!("  {}{kind:<14}{} {rate:>9.1}\n", style(YELLOW), style(RESET)));
    }

    out.push_str(&format!(
        "{}top contended sites (ms lost this interval){}\n",
        style(BOLD),
        style(RESET)
    ));
    if frame.top_sites.is_empty() {
        out.push_str(&format!("  {}no lock waits this interval{}\n", style(DIM), style(RESET)));
    }
    let site_max = frame.top_sites.first().map_or(0.0, |(_, ms)| *ms);
    for (site, ms) in &frame.top_sites {
        out.push_str(&format!("  {site:<26} {ms:>9.2}  {}\n", bar(*ms, site_max, 20)));
    }

    out.push_str(&format!(
        "{}top conflict pairs, aborter -> victim (ms lost){}\n",
        style(BOLD),
        style(RESET)
    ));
    if frame.top_pairs.is_empty() {
        out.push_str(&format!(
            "  {}no attributed losses this interval{}\n",
            style(DIM),
            style(RESET)
        ));
    }
    for (pair, ms) in &frame.top_pairs {
        out.push_str(&format!("  {pair:<40} {ms:>9.2}\n"));
    }

    out.push_str(&format!(
        "{}request waterfall, stage p99 us this interval{}  batch p99 {:.0} ops\n",
        style(BOLD),
        style(RESET),
        frame.batch_occupancy_p99,
    ));
    if frame.stages.is_empty() {
        out.push_str(&format!("  {}no requests this interval{}\n", style(DIM), style(RESET)));
    }
    let stage_max = frame.stages.first().map_or(0.0, |(_, us)| *us);
    for (stage, us) in &frame.stages {
        out.push_str(&format!("  {stage:<14} {us:>9.1}  {}\n", bar(*us, stage_max, 20)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proust_obs::parse_exposition;

    fn scrape(commits: u64, wait_site_a_ns: u64, conflicts: u64) -> Vec<PromSample> {
        let text = format!(
            "# TYPE proust_txn_commits_total counter\n\
             proust_txn_commits_total {commits}\n\
             # TYPE proust_requests_total counter\n\
             proust_requests_total {requests}\n\
             # TYPE proust_txn_in_flight gauge\n\
             proust_txn_in_flight 3\n\
             # TYPE proust_connections_open gauge\n\
             proust_connections_open 8\n\
             # TYPE proust_txn_conflicts_total counter\n\
             proust_txn_conflicts_total{{kind=\"write_locked\"}} {conflicts}\n\
             proust_txn_conflicts_total{{kind=\"read_invalid\"}} 0\n\
             # TYPE proust_request_latency_ns_bucket counter\n\
             proust_request_latency_ns_bucket{{op=\"put\",le=\"1000\"}} {b1}\n\
             proust_request_latency_ns_bucket{{op=\"put\",le=\"1000000\"}} {b2}\n\
             proust_request_latency_ns_bucket{{op=\"put\",le=\"+Inf\"}} {b2}\n\
             # TYPE proust_lock_wait_ns_sum counter\n\
             proust_lock_wait_ns_sum{{site=\"map.put\"}} {wait_site_a_ns}\n\
             proust_lock_wait_ns_sum{{site=\"queue.enq\"}} 500\n\
             # TYPE proust_lock_wait_ns_total counter\n\
             proust_lock_wait_ns_total {total_wait}\n\
             # TYPE proust_parks_total counter\n\
             proust_parks_total 0\n\
             # TYPE proust_serial_mode gauge\n\
             proust_serial_mode 0\n\
             # TYPE proust_serial_queue_depth gauge\n\
             proust_serial_queue_depth 2\n\
             # TYPE proust_serial_escalations_total counter\n\
             proust_serial_escalations_total 1\n\
             # TYPE proust_serial_held_ns_total counter\n\
             proust_serial_held_ns_total 0\n\
             # TYPE proust_contention_ns_total counter\n\
             proust_contention_ns_total{{aborter_site=\"map.put\",victim_site=\"map.get\"}} {pair_ns}\n\
             # TYPE proust_request_stage_ns_bucket counter\n\
             proust_request_stage_ns_bucket{{stage=\"sock_read\",le=\"1000\"}} {b1}\n\
             proust_request_stage_ns_bucket{{stage=\"sock_read\",le=\"+Inf\"}} {b2}\n\
             proust_request_stage_ns_bucket{{stage=\"fsync_wait\",le=\"1000\"}} 0\n\
             proust_request_stage_ns_bucket{{stage=\"fsync_wait\",le=\"1000000\"}} {b1}\n\
             proust_request_stage_ns_bucket{{stage=\"fsync_wait\",le=\"+Inf\"}} {b2}\n\
             # TYPE proust_batch_occupancy_bucket counter\n\
             proust_batch_occupancy_bucket{{le=\"4\"}} {b1}\n\
             proust_batch_occupancy_bucket{{le=\"+Inf\"}} {b2}\n",
            requests = commits + 10,
            b1 = commits / 2,
            b2 = commits,
            total_wait = wait_site_a_ns + 500,
            pair_ns = wait_site_a_ns,
        );
        parse_exposition(&text).expect("synthetic exposition must parse")
    }

    #[test]
    fn interval_rates_come_from_counter_deltas() {
        let before = scrape(1_000, 1_000_000, 10);
        let after = scrape(3_000, 9_000_000, 10);
        let frame = build_frame(&before, &after, 2.0, 5);
        assert!((frame.committed_per_s - 1_000.0).abs() < 1e-6);
        assert!((frame.requests_per_s - 1_000.0).abs() < 1e-6);
        assert_eq!(frame.in_flight, 3.0);
        // 8ms of movement over 2s -> 4 ms/s of lock wait.
        assert!((frame.lock_wait_ms_per_s - 4.0).abs() < 1e-6);
        assert_eq!(frame.serial_queue_depth, 2.0);
        assert!(!frame.serial_mode);
        // write_locked did not move, so the abort table is empty.
        assert!(frame.aborts.is_empty(), "zero-movement kinds must be dropped: {:?}", frame.aborts);
    }

    #[test]
    fn top_sites_and_pairs_rank_by_time_lost() {
        let before = scrape(1_000, 0, 0);
        let after = scrape(2_000, 4_000_000, 7);
        let frame = build_frame(&before, &after, 1.0, 5);
        // map.put lost 4ms, queue.enq lost nothing this interval.
        assert_eq!(frame.top_sites.len(), 1);
        assert_eq!(frame.top_sites[0].0, "map.put");
        assert!((frame.top_sites[0].1 - 4.0).abs() < 1e-6);
        assert_eq!(frame.top_pairs.len(), 1);
        assert_eq!(frame.top_pairs[0].0, "map.put -> map.get");
        assert!((frame.top_pairs[0].1 - 4.0).abs() < 1e-6);
        // 7 write_locked conflicts over 1s.
        assert_eq!(frame.aborts.len(), 1);
        assert_eq!(frame.aborts[0].0, "write_locked");
        assert!((frame.aborts[0].1 - 7.0).abs() < 1e-6);
    }

    #[test]
    fn quantiles_read_the_interval_histogram() {
        let before = scrape(0, 0, 0);
        let after = scrape(1_000, 0, 0);
        let frame = build_frame(&before, &after, 1.0, 5);
        // Half the interval's ops landed in le=1000 (1us), the rest in
        // le=1000000 (1ms). p50 is the first bucket, p99/p999 the second.
        assert!((frame.p50_us - 1.0).abs() < 1e-6);
        assert!((frame.p99_us - 1_000.0).abs() < 1e-6);
        assert!((frame.p999_us - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn waterfall_stages_rank_by_interval_p99_and_drop_idle_stages() {
        let before = scrape(1_000, 0, 0);
        let after = scrape(2_000, 0, 0);
        let frame = build_frame(&before, &after, 1.0, 5);
        // Only two stages moved this interval. fsync_wait's interval mass
        // tops out in le=1e6 (1000us), sock_read's in le=1e3 (1us), so the
        // panel ranks fsync_wait first and drops the six idle stages.
        let named: Vec<&str> = frame.stages.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(named, ["fsync_wait", "sock_read"], "stages: {:?}", frame.stages);
        assert!((frame.stages[0].1 - 1_000.0).abs() < 1e-6);
        assert!((frame.stages[1].1 - 1.0).abs() < 1e-6);
        // Half the flushes carried <=4 ops, the rest only hit +Inf, which
        // resolves to the largest finite bound.
        assert!((frame.batch_occupancy_p99 - 4.0).abs() < 1e-6);
        // A quiet interval drops every stage rather than rendering zeros.
        let idle = build_frame(&after, &after, 1.0, 5);
        assert!(idle.stages.is_empty(), "idle interval must drop all stages: {:?}", idle.stages);
    }

    #[test]
    fn quantile_handles_empty_and_inf_only_mass() {
        assert_eq!(quantile_ns(&[], 0.99), 0.0);
        assert_eq!(quantile_ns(&[(1000.0, 0.0), (f64::INFINITY, 0.0)], 0.99), 0.0);
        // All mass beyond the largest finite bound: report that bound.
        assert_eq!(quantile_ns(&[(1000.0, 0.0), (f64::INFINITY, 5.0)], 0.5), 1000.0);
    }

    #[test]
    fn render_is_plain_without_color_and_names_every_section() {
        let before = scrape(1_000, 0, 0);
        let after = scrape(2_000, 4_000_000, 7);
        let frame = build_frame(&before, &after, 1.0, 5);
        let text = render_frame(&frame, "127.0.0.1:9100", false);
        assert!(!text.contains('\x1b'), "plain render must carry no ANSI escapes");
        for needle in [
            "commit/s",
            "p99",
            "serial gate",
            "aborts by cause",
            "top contended sites",
            "map.put",
            "conflict pairs",
            "request waterfall",
            "fsync_wait",
        ] {
            assert!(text.contains(needle), "render is missing {needle:?}:\n{text}");
        }
        let colored = render_frame(&frame, "127.0.0.1:9100", true);
        assert!(colored.contains("\x1b[1m"), "colored render must use ANSI styling");
    }

    #[test]
    fn every_family_the_dashboard_reads_is_one_the_server_exports() {
        // The server's family headers, pinned by its golden test.
        let golden = include_str!("../../server/tests/golden/prometheus_headers.txt");
        let exported: Vec<&str> = golden
            .lines()
            .filter_map(|line| line.strip_prefix("# TYPE "))
            .filter_map(|line| line.split(' ').next())
            .collect();
        // Every `"proust_…"` literal in the non-test source is a family
        // the dashboard reads; a `_sum` series belongs to its histogram.
        let source = include_str!("lib.rs");
        let code = &source[..source.find("#[cfg(test)]").expect("test module")];
        let read: Vec<&str> = code
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|literal| literal.starts_with("proust_"))
            .map(|literal| literal.strip_suffix("_sum").unwrap_or(literal))
            .collect();
        assert!(read.len() >= 15, "found only {read:?}");
        for family in read {
            assert!(
                exported.contains(&family),
                "dashboard reads {family}, the server exports none"
            );
        }
    }
}
