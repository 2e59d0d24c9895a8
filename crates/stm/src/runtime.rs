//! The STM runtime: the `atomically` retry loop and contention management.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::backoff::{decorrelated_seed, Backoff};
use crate::clock;
use crate::cm::ContentionManager;
use crate::config::{RetryExhaustion, StmConfig};
use crate::error::{AbortError, ConflictKind, TxError, TxResult};
#[cfg(feature = "trace")]
use crate::forensics::{self, TxnForensics};
use crate::metrics::StmMetrics;
use crate::stats::{StmStats, StmStatsSnapshot};
use crate::tvar::DynTVar;
use crate::txn::Txn;
#[cfg(feature = "trace")]
use proust_obs::{EventKind, Phase, SiteId, Tracer};

/// Bound on the call-level conflict log accumulated for forensics across
/// all attempts of one `atomically` call.
#[cfg(feature = "trace")]
const FORENSIC_CONFLICT_CAP: usize = 32;

/// Block (politely) until one of the watched locations changes version or
/// becomes locked by a committing writer: a brief spin for the contended
/// fast path, then parking on the process-global commit wakeup channel —
/// a blocked `retry` can sleep arbitrarily long and must not burn a core.
fn wait_for_change(watch: &[(DynTVar, u64)]) {
    use std::sync::atomic::Ordering;
    let changed = || {
        watch.iter().any(|(tvar, version)| {
            let meta = tvar.meta();
            meta.version.load(Ordering::Acquire) != *version
                || meta.owner.load(Ordering::Acquire) != 0
        })
    };
    for _ in 0..64 {
        if changed() {
            return;
        }
        std::hint::spin_loop();
    }
    crate::wake::wait_for_commit(changed);
}

/// Minimum number of failed serial attempts tolerated before a serial
/// transaction concludes its body can never commit and gives up. Serial
/// attempts can legitimately fail a handful of times while in-flight
/// transactions drain past the gate (lingering TVar ownership, a commit
/// landing between the serial read and its validation); the floor keeps
/// that transient from being mistaken for a doomed body under a tight
/// `max_retries`, while still bounding how long a truly unsatisfiable
/// body can hold the token with everyone else parked.
const SERIAL_FAILURE_FLOOR: u32 = 256;

thread_local! {
    /// Attempt count of the calling thread's most recent `atomically`
    /// call, committed or aborted. Always-on (one thread-local store per
    /// call) — unlike forensics it does not need the `trace` feature, so
    /// the server's request waterfall can report STM retry counts on
    /// every build.
    static LAST_ATTEMPTS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Attempt count of the calling thread's most recent
/// [`Stm::atomically`] call (1 = first try committed). Zero until the
/// thread has completed one call.
pub fn last_attempts() -> u32 {
    LAST_ATTEMPTS.with(|cell| cell.get())
}

/// The serial-irrevocable gate: at most one transaction per runtime may
/// hold the token, and while it is held no *new* attempt starts.
///
/// The gate deliberately does not block commits: in-flight transactions
/// finish (commit or abort) unimpeded and so drain naturally. Blocking at
/// commit instead would deadlock the `EagerAll` backend — a visible reader
/// parked at a commit gate never deregisters, so the serial owner writing
/// its location could never proceed.
struct SerialGate {
    /// Id of the escalated transaction's `atomically` call, or 0.
    owner: AtomicU64,
    /// Number of threads currently waiting out the token past the brief
    /// spin — ordinary attempts parked at the gate plus would-be
    /// escalators contending for it. A live congestion gauge (exported as
    /// `proust_serial_queue_depth`): nonzero means serial mode is
    /// actively stalling other transactions *right now*.
    waiters: AtomicU64,
    /// Parking for threads waiting out the token: a serial episode can be
    /// long by definition (it escalated after heavy contention), so
    /// waiters sleep on this instead of spinning a core each.
    lock: Mutex<()>,
    released: Condvar,
}

impl SerialGate {
    fn new() -> SerialGate {
        SerialGate {
            owner: AtomicU64::new(0),
            waiters: AtomicU64::new(0),
            lock: Mutex::new(()),
            released: Condvar::new(),
        }
    }

    /// Whether some transaction holds the serial token right now.
    fn gated(&self) -> bool {
        self.owner.load(Ordering::Acquire) != 0
    }

    /// Park until no transaction holds the serial token. Called at attempt
    /// start by non-escalated transactions; they hold nothing while parked.
    fn wait_for_clearance(&self) {
        for _ in 0..64 {
            if self.owner.load(Ordering::Acquire) == 0 {
                return;
            }
            std::hint::spin_loop();
        }
        self.waiters.fetch_add(1, Ordering::AcqRel);
        let mut guard = self.lock.lock();
        while self.owner.load(Ordering::Acquire) != 0 {
            // The ticket drop notifies under the lock, so checking `owner`
            // while holding it closes the lost-wakeup window; the timeout
            // is a belt-and-braces re-poll.
            self.released.wait_for(&mut guard, std::time::Duration::from_millis(1));
        }
        drop(guard);
        self.waiters.fetch_sub(1, Ordering::AcqRel);
    }

    /// Take the token (contending with other escalators), returning a
    /// guard that releases it on drop — including on panic, so a dying
    /// serial transaction cannot wedge the runtime. The guard times its
    /// own tenure into `stats` so the observatory can report serial-mode
    /// occupancy (total nanoseconds the runtime spent single-filed).
    fn acquire<'a>(&'a self, stats: &'a StmStats) -> SerialTicket<'a> {
        let token = clock::next_txn_id();
        if self.owner.compare_exchange(0, token, Ordering::AcqRel, Ordering::Acquire).is_ok() {
            return SerialTicket { gate: self, stats, taken_at: std::time::Instant::now() };
        }
        self.waiters.fetch_add(1, Ordering::AcqRel);
        loop {
            if self.owner.compare_exchange(0, token, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                self.waiters.fetch_sub(1, Ordering::AcqRel);
                return SerialTicket { gate: self, stats, taken_at: std::time::Instant::now() };
            }
            let mut guard = self.lock.lock();
            if self.owner.load(Ordering::Acquire) != 0 {
                self.released.wait_for(&mut guard, std::time::Duration::from_millis(1));
            }
        }
    }
}

struct SerialTicket<'a> {
    gate: &'a SerialGate,
    stats: &'a StmStats,
    /// When the token was taken; closed into the serial-occupancy counter
    /// on release.
    taken_at: std::time::Instant,
}

impl Drop for SerialTicket<'_> {
    fn drop(&mut self) {
        self.stats.record_serial_held(self.taken_at.elapsed().as_nanos() as u64);
        self.gate.owner.store(0, Ordering::Release);
        // Take the lock before notifying: a waiter that saw the token held
        // keeps the lock until it is inside `wait_for`, so the notify
        // cannot slip between its check and its park.
        drop(self.gate.lock.lock());
        self.gate.released.notify_all();
    }
}

/// Observer of committed transactions' durable replay logs, installed via
/// [`Stm::set_commit_hook`]. The server's WAL implements this to persist
/// each commit's [`Txn::wal_log`](crate::Txn::wal_log) bytes.
///
/// The hook runs at the serialization point — TVar ownership (and, under
/// the `LazyAll` backend, the global commit lock) is still held — so for
/// any two *conflicting* transactions the calls are ordered consistently
/// with their commit order. It must not start transactions of its own.
pub trait CommitHook: Send + Sync {
    /// One committed transaction's accumulated durable bytes, stamped with
    /// its commit timestamp (the write version for writing transactions).
    fn on_commit(&self, commit_ts: u64, payload: &[u8]);
}

pub(crate) struct StmInner {
    pub(crate) config: StmConfig,
    pub(crate) stats: StmStats,
    pub(crate) metrics: StmMetrics,
    /// The contention manager resolved from `config.cm`.
    pub(crate) cm: Box<dyn ContentionManager>,
    /// Global commit lock for the `LazyAll` (NOrec-style) backend.
    pub(crate) commit_lock: Arc<Mutex<()>>,
    /// Serial-irrevocable fallback gate.
    serial: SerialGate,
    /// Number of `atomically` calls currently executing (across all their
    /// attempts). Drained by [`Stm::quiesce`] during graceful shutdown.
    in_flight: AtomicU64,
    /// Set-once durability hook ([`Stm::set_commit_hook`]). `OnceLock`
    /// rather than a `StmConfig` field so the config keeps its `Eq` /
    /// `Default` derives, and so recovery can run transactions *before*
    /// installing the hook without re-logging replayed history.
    pub(crate) commit_hook: std::sync::OnceLock<Arc<dyn CommitHook>>,
}

/// RAII registration of one `atomically` call in the in-flight count;
/// decrements on drop, including on panic, so a dying transaction cannot
/// wedge a quiescing server.
struct InFlightGuard<'a> {
    counter: &'a AtomicU64,
}

impl<'a> InFlightGuard<'a> {
    fn new(counter: &'a AtomicU64) -> InFlightGuard<'a> {
        counter.fetch_add(1, Ordering::AcqRel);
        InFlightGuard { counter }
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::AcqRel);
    }
}

/// An STM runtime instance.
///
/// The runtime owns the configuration (conflict-detection backend,
/// backoff policy) and statistics; [`TVar`](crate::TVar)s themselves are
/// free-standing. Cloning an `Stm` is cheap and shares the instance.
///
/// # Examples
///
/// ```
/// use proust_stm::{Stm, StmConfig, TVar};
///
/// let stm = Stm::new(StmConfig::default());
/// let account = TVar::new(100i64);
/// stm.atomically(|tx| {
///     let balance = account.read(tx)?;
///     account.write(tx, balance - 30)
/// })
/// .unwrap();
/// assert_eq!(account.load(), 70);
/// ```
#[derive(Clone)]
pub struct Stm {
    inner: Arc<StmInner>,
}

impl fmt::Debug for Stm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stm")
            .field("config", &self.inner.config)
            .field("stats", &self.inner.stats.snapshot())
            .finish()
    }
}

impl Default for Stm {
    fn default() -> Self {
        Stm::new(StmConfig::default())
    }
}

impl Stm {
    /// Create a runtime with the given configuration.
    pub fn new(config: StmConfig) -> Stm {
        let cm = config.cm.build();
        Stm {
            inner: Arc::new(StmInner {
                config,
                stats: StmStats::default(),
                metrics: StmMetrics::new(),
                cm,
                commit_lock: Arc::new(Mutex::new(())),
                serial: SerialGate::new(),
                in_flight: AtomicU64::new(0),
                commit_hook: std::sync::OnceLock::new(),
            }),
        }
    }

    /// Install the durability hook observing every committed transaction's
    /// [`Txn::wal_log`](crate::Txn::wal_log) bytes. Set-once: returns
    /// `false` (leaving the existing hook) if one is already installed.
    ///
    /// Install *after* crash-recovery replay, so recovered history is not
    /// logged a second time.
    pub fn set_commit_hook(&self, hook: Arc<dyn CommitHook>) -> bool {
        self.inner.commit_hook.set(hook).is_ok()
    }

    /// Current value of the process-global version clock.
    ///
    /// The clock is monotone: it only moves forward, and every committing
    /// writer advances it. The chaos harness uses this to check that fault
    /// injection never rewinds or wedges the clock.
    pub fn clock() -> u64 {
        clock::now()
    }

    /// Whether some transaction currently holds the serial-irrevocable
    /// token (diagnostic; racy by nature).
    pub fn serial_mode_active(&self) -> bool {
        self.inner.serial.owner.load(Ordering::Acquire) != 0
    }

    /// Number of threads currently parked at the serial-irrevocable gate
    /// waiting for the token to clear (diagnostic; racy by nature).
    /// Exported by the server as `proust_serial_queue_depth`: a nonzero
    /// reading means an escalated transaction is stalling others right
    /// now, not merely that escalations have happened in the past.
    pub fn serial_queue_depth(&self) -> u64 {
        self.inner.serial.waiters.load(Ordering::Acquire)
    }

    /// Number of [`atomically`](Stm::atomically) calls currently executing
    /// on this runtime (counting a call once across all its retry
    /// attempts). Racy by nature; intended for diagnostics and the
    /// [`quiesce`](Stm::quiesce) drain loop.
    pub fn in_flight(&self) -> u64 {
        self.inner.in_flight.load(Ordering::Acquire)
    }

    /// Block until no transaction is in flight on this runtime, or until
    /// `timeout` elapses. Returns whether the runtime quiesced.
    ///
    /// This is the shutdown/drain hook for servers built on the runtime:
    /// stop submitting new transactions, then `quiesce` to wait for the
    /// in-flight tail to commit or abort before tearing shared structures
    /// down. It does not *prevent* new transactions — callers own that
    /// ordering (a server stops its request loops first).
    pub fn quiesce(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        // Brief spin for the common near-empty case, then poll politely: a
        // drain is a once-per-shutdown path, not a hot loop.
        for _ in 0..128 {
            if self.in_flight() == 0 {
                return true;
            }
            std::hint::spin_loop();
        }
        while self.in_flight() != 0 {
            if std::time::Instant::now() >= deadline {
                return self.in_flight() == 0;
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        true
    }

    /// The configuration this runtime was created with.
    pub fn config(&self) -> &StmConfig {
        &self.inner.config
    }

    /// A snapshot of the runtime's commit/abort/conflict counters.
    pub fn stats(&self) -> StmStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The runtime's latency histograms and conflict-attribution matrix.
    ///
    /// Populated only when the crate is built with the `trace` feature;
    /// empty (zero counts) otherwise.
    pub fn metrics(&self) -> &StmMetrics {
        &self.inner.metrics
    }

    /// Execute `body` atomically, retrying on conflicts.
    ///
    /// The closure may run many times; it must confine its side effects to
    /// transactional operations and the [`Txn`](crate::Txn) lifecycle
    /// handlers (which is exactly what the Proust wrappers arrange for
    /// arbitrary data structures).
    ///
    /// # Errors
    ///
    /// Returns an [`AbortError`] when the body requests a permanent
    /// abort via [`TxError::Abort`], or when
    /// [`StmConfig::max_retries`](crate::StmConfig::max_retries) is set and
    /// exhausted: under
    /// [`RetryExhaustion::GiveUp`](crate::RetryExhaustion) immediately, and
    /// under the default
    /// [`RetryExhaustion::SerialFallback`](crate::RetryExhaustion) only
    /// after escalation to the global serial-irrevocable mode has *also*
    /// failed a bounded number of further times (`max_retries`, floored
    /// generously to tolerate in-flight transactions draining past the
    /// gate) — i.e. the body cannot commit even running alone, so retrying
    /// further would wedge every other transaction behind the serial
    /// gate. A body that can commit when run
    /// alone therefore always commits under the default. Conflicts and
    /// [`TxError::Retry`] are handled internally.
    pub fn atomically<A>(
        &self,
        mut body: impl FnMut(&mut Txn) -> TxResult<A>,
    ) -> Result<A, AbortError> {
        let _in_flight = InFlightGuard::new(&self.inner.in_flight);
        let birth = clock::now();
        let mut backoff = Backoff::new(self.inner.config.backoff, decorrelated_seed(birth));
        let mut attempt: u32 = 0;
        let mut carried_work: u64 = 0;
        let mut last_conflict: Option<ConflictKind> = None;
        let mut serial: Option<SerialTicket<'_>> = None;
        // Conflicts raised *while holding the serial token*, accumulated
        // across re-escalations. Bounded below (when `max_retries` is set)
        // so a never-succeeding body cannot hold the token forever with
        // every other transaction parked at the gate.
        let mut serial_failures: u32 = 0;
        #[cfg(feature = "trace")]
        let txn_start = std::time::Instant::now();
        // One end-to-end sampling decision per `atomically` call: every
        // attempt of a sampled call records its phase spans, so a trace
        // shows the whole retry history of the transactions it picks.
        #[cfg(feature = "trace")]
        let sampled = Tracer::global().sample();
        #[cfg(not(feature = "trace"))]
        let sampled = false;
        #[cfg(feature = "trace")]
        let txn_start_ns = if sampled { Tracer::global().now_ns() } else { 0 };
        // Call-level forensics, accumulated across attempts.
        #[cfg(feature = "trace")]
        let mut call_spans: Vec<crate::forensics::ForensicSpan> = Vec::new();
        #[cfg(feature = "trace")]
        let mut call_conflicts: Vec<crate::forensics::ForensicConflict> = Vec::new();
        // Closes the whole-transaction span and deposits the post-mortem
        // record for `take_forensics`.
        #[cfg(feature = "trace")]
        macro_rules! finish_forensics {
            ($tx:expr, $outcome:expr, $attempt:expr) => {{
                let tx = &$tx;
                call_spans.extend(tx.take_spans());
                call_conflicts.extend(tx.take_conflicts());
                call_conflicts.truncate(FORENSIC_CONFLICT_CAP);
                let elapsed_ns = txn_start.elapsed().as_nanos() as u64;
                if sampled {
                    Tracer::global().emit_span(
                        tx.id(),
                        Phase::Txn,
                        tx.op_site(),
                        txn_start_ns,
                        elapsed_ns,
                    );
                    call_spans.push(crate::forensics::ForensicSpan {
                        phase: Phase::Txn.name(),
                        start_ns: txn_start_ns,
                        dur_ns: elapsed_ns,
                    });
                }
                forensics::record(TxnForensics {
                    txn_id: tx.id(),
                    attempts: $attempt,
                    sampled,
                    elapsed_ns,
                    outcome: $outcome,
                    conflicts: std::mem::take(&mut call_conflicts),
                    spans: std::mem::take(&mut call_spans),
                });
            }};
        }
        loop {
            attempt += 1;
            // While another transaction runs serial-irrevocably, park before
            // starting (we hold nothing here). The serial owner itself skips
            // this: it IS the gate. A parked thread leaves the in-flight
            // count while it waits — it is not executing anything, and the
            // serial owner's drain wait below must not count it.
            if serial.is_none() && self.inner.serial.gated() {
                self.inner.in_flight.fetch_sub(1, Ordering::AcqRel);
                // The gate wait counts as a park: the thread is blocked on
                // someone else's serial episode. Timing is always-on — we
                // are about to sleep, so two clock reads are free.
                #[cfg(feature = "trace")]
                let gate_park_start_ns = Tracer::global().now_ns();
                self.inner.serial.wait_for_clearance();
                #[cfg(feature = "trace")]
                {
                    let park_ns = Tracer::global().now_ns().saturating_sub(gate_park_start_ns);
                    self.inner.stats.record_park(park_ns);
                    self.inner.metrics.park.record(park_ns);
                }
                self.inner.in_flight.fetch_add(1, Ordering::AcqRel);
            }
            self.inner.stats.record_start();
            let mut tx = Txn::new(
                Arc::clone(&self.inner),
                attempt,
                birth,
                carried_work,
                serial.is_some(),
                sampled,
            );
            #[cfg(feature = "trace")]
            let body_start_ns = if sampled { Tracer::global().now_ns() } else { 0 };
            #[cfg(feature = "trace")]
            if sampled {
                Tracer::global().emit_at(
                    body_start_ns,
                    tx.id(),
                    EventKind::TxnStart,
                    SiteId::UNKNOWN,
                    attempt as u64,
                );
            }
            let body_result = body(&mut tx);
            #[cfg(feature = "trace")]
            tx.record_span(Phase::Body, body_start_ns);
            let outcome = match body_result {
                Ok(value) => match tx.commit() {
                    Ok(()) => {
                        self.inner.stats.record_commit();
                        #[cfg(feature = "trace")]
                        {
                            self.inner
                                .metrics
                                .txn_latency
                                .record(txn_start.elapsed().as_nanos() as u64);
                            if sampled {
                                Tracer::global().emit(
                                    tx.id(),
                                    EventKind::Commit,
                                    tx.op_site(),
                                    attempt as u64,
                                );
                            }
                            finish_forensics!(tx, "committed", attempt);
                        }
                        LAST_ATTEMPTS.with(|cell| cell.set(attempt));
                        return Ok(value);
                    }
                    Err(err) => Err(err),
                },
                Err(err) => Err(err),
            };
            // Accumulate this attempt's spans and conflict log before the
            // failure handling below consumes `tx`.
            #[cfg(feature = "trace")]
            {
                call_spans.extend(tx.take_spans());
                call_conflicts.extend(tx.take_conflicts());
                call_conflicts.truncate(FORENSIC_CONFLICT_CAP);
            }
            match outcome {
                Err(TxError::Conflict(kind)) => {
                    // Conflict counters were recorded at the raise site.
                    last_conflict = Some(kind);
                    tx.rollback();
                }
                Err(TxError::Retry) => {
                    self.inner.stats.record_retry_requested();
                    let watch = tx.watch_list();
                    tx.rollback();
                    carried_work = tx.work_done();
                    // A retrying transaction is waiting for *someone else's*
                    // commit — which can never arrive while we hold the
                    // serial token, because every other transaction parks at
                    // attempt start. Release it before blocking (exhaustion
                    // re-escalates later if the re-run keeps conflicting).
                    serial = None;
                    // Harris-style blocking retry: there is no point
                    // re-running until something the transaction read has
                    // changed. With an empty read set, fall back to plain
                    // backoff.
                    if !watch.is_empty() {
                        // Chaos hook between the watch-list snapshot and the
                        // wait: the window where a lost wakeup would hide.
                        #[cfg(feature = "chaos")]
                        crate::chaos::retry_gap();
                        #[cfg(feature = "trace")]
                        let park_start_ns = Tracer::global().now_ns();
                        wait_for_change(&watch);
                        #[cfg(feature = "trace")]
                        {
                            let park_ns = Tracer::global().now_ns().saturating_sub(park_start_ns);
                            self.inner.stats.record_park(park_ns);
                            self.inner.metrics.park.record(park_ns);
                        }
                        continue;
                    }
                }
                Err(TxError::Abort(err)) => {
                    self.inner.stats.record_user_abort();
                    #[cfg(feature = "trace")]
                    {
                        if sampled {
                            Tracer::global().emit(
                                tx.id(),
                                EventKind::Abort,
                                tx.op_site(),
                                attempt as u64,
                            );
                        }
                        finish_forensics!(tx, "aborted", attempt);
                    }
                    tx.rollback();
                    LAST_ATTEMPTS.with(|cell| cell.set(attempt));
                    return Err(err);
                }
                Ok(()) => unreachable!("commit success returns directly"),
            }
            carried_work = tx.work_done();
            let exhausted = self.inner.config.max_retries.is_some_and(|max| attempt >= max);
            if serial.is_some() {
                // A serial conflict usually means the body itself cannot
                // commit (chaos injection, a body that unconditionally
                // raises, ...) — but not always: the gate only blocks *new*
                // attempts, so in-flight transactions draining past it can
                // still collide with the first few serial attempts. Bound
                // the failures with a floor wide enough to absorb that
                // drain, then give up — releasing the token — rather than
                // hold every other transaction parked at the gate forever.
                serial_failures += 1;
                let budget = self.inner.config.max_retries.map(|max| max.max(SERIAL_FAILURE_FLOOR));
                if budget.is_some_and(|budget| serial_failures >= budget) {
                    // Release the token before surfacing the abort.
                    drop(serial.take());
                    #[cfg(feature = "trace")]
                    {
                        if sampled {
                            Tracer::global().emit(
                                tx.id(),
                                EventKind::Abort,
                                tx.op_site(),
                                attempt as u64,
                            );
                        }
                        finish_forensics!(tx, "exhausted", attempt);
                    }
                    self.inner.stats.record_exhausted();
                    LAST_ATTEMPTS.with(|cell| cell.set(attempt));
                    return Err(AbortError::exhausted(
                        attempt,
                        last_conflict.unwrap_or(ConflictKind::External("exhausted")),
                    ));
                }
            } else {
                // Escalate to serial-irrevocable mode when the contention
                // manager asks for it, or as the default answer to retry
                // exhaustion. Taking the token may park behind another
                // escalator; we hold nothing while waiting.
                let escalate = self.inner.cm.serialize_after().is_some_and(|n| attempt >= n)
                    || (exhausted
                        && self.inner.config.on_exhaustion == RetryExhaustion::SerialFallback);
                if escalate {
                    drop(tx);
                    serial = Some(self.inner.serial.acquire(&self.inner.stats));
                    self.inner.stats.record_serial_escalation();
                    // Give in-flight transactions a bounded window to drain
                    // before the first serial attempt: the gate only stops
                    // *new* attempts, so transactions already executing can
                    // still collide with the owner and burn its serial
                    // failure budget. The bound matters — an in-flight
                    // transaction parked in a Harris retry is waiting for a
                    // commit only we can produce, so an unbounded wait here
                    // would deadlock.
                    let drain_deadline =
                        std::time::Instant::now() + std::time::Duration::from_millis(2);
                    while self.inner.in_flight.load(Ordering::Acquire) > 1
                        && std::time::Instant::now() < drain_deadline
                    {
                        std::thread::yield_now();
                    }
                    continue;
                }
                if exhausted && self.inner.config.on_exhaustion == RetryExhaustion::GiveUp {
                    #[cfg(feature = "trace")]
                    {
                        if sampled {
                            Tracer::global().emit(
                                tx.id(),
                                EventKind::Abort,
                                tx.op_site(),
                                attempt as u64,
                            );
                        }
                        finish_forensics!(tx, "exhausted", attempt);
                    }
                    self.inner.stats.record_exhausted();
                    LAST_ATTEMPTS.with(|cell| cell.set(attempt));
                    return Err(AbortError::exhausted(
                        attempt,
                        last_conflict.unwrap_or(ConflictKind::External("exhausted")),
                    ));
                }
            }
            self.inner.cm.backoff(&mut backoff, attempt);
        }
    }

    /// Execute a read-only snapshot of transactional state, panicking if the
    /// body tries to abort. Convenience for queries.
    ///
    /// # Panics
    ///
    /// Panics if the body returns [`TxError::Abort`].
    pub fn read_only<A>(&self, body: impl FnMut(&mut Txn) -> TxResult<A>) -> A {
        self.atomically(body).expect("read-only transaction must not abort")
    }
}

#[cfg(test)]
mod retry_tests {
    use super::*;
    use crate::TVar;

    /// `TxError::Retry` blocks until a watched location changes, giving
    /// condition-variable-like composition (Harris et al.'s `retry`).
    #[test]
    fn retry_blocks_until_write() {
        let stm = Stm::default();
        let slot: TVar<Option<u32>> = TVar::new(None);
        std::thread::scope(|scope| {
            let consumer_stm = stm.clone();
            let consumer_slot = slot.clone();
            let consumer = scope.spawn(move || {
                consumer_stm
                    .atomically(|tx| match consumer_slot.read(tx)? {
                        Some(value) => {
                            consumer_slot.write(tx, None)?;
                            Ok(value)
                        }
                        None => Err(TxError::Retry),
                    })
                    .unwrap()
            });
            // Publish only once the consumer has asked to retry, so the
            // write is what wakes it rather than what it first reads.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while stm.stats().retries_requested == 0 {
                assert!(std::time::Instant::now() < deadline, "consumer never retried");
                std::thread::yield_now();
            }
            stm.atomically(|tx| slot.write(tx, Some(42))).unwrap();
            assert_eq!(consumer.join().unwrap(), 42);
        });
        assert_eq!(slot.load(), None, "consumer must have taken the value");
        assert!(stm.stats().retries_requested >= 1);
        #[cfg(feature = "trace")]
        {
            let stats = stm.stats();
            assert!(stats.parks >= 1, "the blocked retry must be counted as a park");
            assert!(stm.metrics().park.count() >= 1, "park latency must land in the histogram");
        }
    }

    /// Retry with an empty read set degrades to plain backoff-and-rerun
    /// rather than blocking forever.
    #[test]
    fn retry_without_reads_reruns() {
        let stm = Stm::default();
        let mut attempts = 0;
        stm.atomically(|_tx| {
            attempts += 1;
            if attempts < 3 {
                return Err(TxError::Retry);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(attempts, 3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConflictDetection;
    use crate::TVar;

    fn all_runtimes() -> Vec<Stm> {
        ConflictDetection::ALL.iter().map(|&d| Stm::new(StmConfig::with_detection(d))).collect()
    }

    #[test]
    fn commit_publishes_all_backends() {
        for stm in all_runtimes() {
            let v = TVar::new(0);
            stm.atomically(|tx| v.write(tx, 7)).unwrap();
            assert_eq!(v.load(), 7, "backend {:?}", stm.config().detection);
        }
    }

    #[test]
    fn user_abort_rolls_back_all_backends() {
        for stm in all_runtimes() {
            let v = TVar::new(1);
            let result = stm.atomically(|tx| {
                v.write(tx, 99)?;
                Err::<(), _>(TxError::abort("nope"))
            });
            assert!(result.is_err());
            assert_eq!(v.load(), 1, "backend {:?}", stm.config().detection);
        }
    }

    #[test]
    fn last_attempts_tracks_commits_and_aborts() {
        let stm = Stm::new(StmConfig::default());
        let v = TVar::new(0);
        stm.atomically(|tx| v.write(tx, 1)).unwrap();
        assert_eq!(last_attempts(), 1, "uncontended commit takes one attempt");

        let stm = Stm::new(StmConfig {
            max_retries: Some(3),
            on_exhaustion: RetryExhaustion::GiveUp,
            ..StmConfig::default()
        });
        let result: Result<(), _> =
            stm.atomically(|tx| tx.conflict(crate::ConflictKind::External("always")));
        assert!(result.is_err());
        assert_eq!(last_attempts(), 3, "exhaustion reports the final attempt count");
    }

    #[test]
    fn max_retries_surfaces_as_abort() {
        let stm = Stm::new(StmConfig {
            max_retries: Some(3),
            on_exhaustion: RetryExhaustion::GiveUp,
            ..StmConfig::default()
        });
        let result: Result<(), _> =
            stm.atomically(|tx| tx.conflict(crate::ConflictKind::External("always")));
        let err = result.unwrap_err();
        assert!(err.reason().contains("3 attempts"));
        assert!(err.is_exhausted());
        assert_eq!(
            err.kind(),
            crate::AbortKind::Exhausted {
                attempts: 3,
                last_conflict: crate::ConflictKind::External("always")
            }
        );
        assert_eq!(stm.stats().starts, 3);
        assert_eq!(stm.stats().exhausted, 1);
    }

    #[test]
    fn exhaustion_escalates_to_serial_by_default() {
        // The same always-conflicting-then-succeeding shape that would have
        // given up now escalates: after max_retries the transaction takes
        // the serial token and runs to completion.
        let stm = Stm::new(StmConfig { max_retries: Some(3), ..StmConfig::default() });
        let mut attempts = 0u32;
        let v = TVar::new(0u64);
        stm.atomically(|tx| {
            attempts += 1;
            if !tx.is_serial() {
                return tx.conflict(crate::ConflictKind::External("until-serial"));
            }
            v.write(tx, attempts as u64)
        })
        .unwrap();
        assert_eq!(attempts, 4, "three optimistic attempts, then one serial");
        assert_eq!(v.load(), 4);
        assert_eq!(stm.stats().serial_escalations, 1);
        assert_eq!(stm.stats().exhausted, 0);
        assert!(!stm.serial_mode_active(), "token released after commit");
        assert!(stm.stats().serial_held_ns > 0, "the serial episode must be timed");
        assert_eq!(stm.serial_queue_depth(), 0, "no waiters once the token is released");
    }

    /// Regression: a serial-escalated transaction that raises `Retry` used
    /// to park in the watch wait *while still holding the serial token* —
    /// with every other transaction parked at the gate, the write it was
    /// waiting for could never happen and the whole runtime deadlocked.
    /// The retry path must release the token before blocking.
    #[test]
    fn serial_retry_releases_token_for_producers() {
        let stm = Stm::new(StmConfig::with_cm(crate::CmPolicy::Serial));
        let slot: TVar<Option<u32>> = TVar::new(None);
        std::thread::scope(|scope| {
            let consumer_stm = stm.clone();
            let consumer_slot = slot.clone();
            let consumer = scope.spawn(move || {
                consumer_stm
                    .atomically(|tx| {
                        if !tx.is_serial() && tx.attempt() == 1 {
                            // Force escalation so the retry below happens
                            // while the transaction holds the serial token.
                            return tx.conflict(crate::ConflictKind::External("escalate-me"));
                        }
                        match consumer_slot.read(tx)? {
                            Some(value) => Ok(value),
                            None => Err(TxError::Retry),
                        }
                    })
                    .unwrap()
            });
            // Wait until the consumer has escalated, then produce: this
            // commit can only happen if the consumer let go of the token.
            while stm.stats().serial_escalations == 0 {
                std::thread::yield_now();
            }
            stm.atomically(|tx| slot.write(tx, Some(9))).unwrap();
            assert_eq!(consumer.join().unwrap(), 9);
        });
        assert!(!stm.serial_mode_active());
    }

    /// A body that cannot commit even when running alone must not wedge
    /// the runtime: after a bounded number of additional serial failures
    /// the call gives up (releasing the token) instead of looping forever
    /// with every other transaction parked at the gate.
    #[test]
    fn serial_mode_exhaustion_is_bounded() {
        let stm = Stm::new(StmConfig { max_retries: Some(2), ..StmConfig::default() });
        let result: Result<(), _> =
            stm.atomically(|tx| tx.conflict(crate::ConflictKind::External("never")));
        let err = result.unwrap_err();
        assert!(err.is_exhausted());
        assert_eq!(stm.stats().serial_escalations, 1);
        assert_eq!(stm.stats().exhausted, 1);
        assert!(!stm.serial_mode_active(), "token must be released on give-up");
        // The runtime is still usable afterwards.
        let v = TVar::new(0);
        stm.atomically(|tx| v.write(tx, 1)).unwrap();
        assert_eq!(v.load(), 1);
    }

    #[test]
    fn serial_cm_escalates_after_first_failure() {
        let stm = Stm::new(StmConfig::with_cm(crate::CmPolicy::Serial));
        let mut failed_once = false;
        stm.atomically(|tx| {
            if !failed_once {
                failed_once = true;
                return tx.conflict(crate::ConflictKind::External("once"));
            }
            assert!(tx.is_serial(), "second attempt must hold the serial token");
            Ok(())
        })
        .unwrap();
        assert_eq!(stm.stats().serial_escalations, 1);
        assert!(!stm.serial_mode_active());
    }

    #[test]
    fn counter_increments_under_contention_all_backends() {
        for stm in all_runtimes() {
            let v = TVar::new(0u64);
            let threads = 8;
            let per_thread = 200;
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let stm = stm.clone();
                    let v = v.clone();
                    s.spawn(move || {
                        for _ in 0..per_thread {
                            stm.atomically(|tx| v.modify(tx, |x| x + 1)).unwrap();
                        }
                    });
                }
            });
            assert_eq!(
                v.load(),
                threads * per_thread,
                "lost updates under backend {:?}",
                stm.config().detection
            );
        }
    }

    #[test]
    fn transfers_conserve_total_all_backends() {
        for stm in all_runtimes() {
            let accounts: Vec<TVar<i64>> = (0..8).map(|_| TVar::new(1000)).collect();
            std::thread::scope(|s| {
                for t in 0..4usize {
                    let stm = stm.clone();
                    let accounts = accounts.clone();
                    s.spawn(move || {
                        let mut seed = (t as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15);
                        let mut rng = move || {
                            seed ^= seed << 13;
                            seed ^= seed >> 7;
                            seed ^= seed << 17;
                            seed
                        };
                        for _ in 0..300 {
                            let from = (rng() % 8) as usize;
                            let to = ((from + 1 + (rng() % 7) as usize) % 8).min(7);
                            let amount = (rng() % 10) as i64;
                            stm.atomically(|tx| {
                                let f = accounts[from].read(tx)?;
                                let g = accounts[to].read(tx)?;
                                accounts[from].write(tx, f - amount)?;
                                accounts[to].write(tx, g + amount)
                            })
                            .unwrap();
                        }
                    });
                }
            });
            let total: i64 = accounts.iter().map(|a| a.load()).sum();
            assert_eq!(total, 8000, "money not conserved under {:?}", stm.config().detection);
        }
    }

    #[test]
    fn zombie_reads_never_observe_inconsistency() {
        // Two TVars maintained equal by writers; readers assert equality
        // inside transactions. Opacity means the assertion can never fire
        // even transiently, on any backend.
        for stm in all_runtimes() {
            let a = TVar::new(0i64);
            let b = TVar::new(0i64);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let stm = stm.clone();
                    let (a, b) = (a.clone(), b.clone());
                    s.spawn(move || {
                        for i in 0..500 {
                            stm.atomically(|tx| {
                                a.write(tx, i)?;
                                b.write(tx, i)
                            })
                            .unwrap();
                        }
                    });
                }
                for _ in 0..2 {
                    let stm = stm.clone();
                    let (a, b) = (a.clone(), b.clone());
                    s.spawn(move || {
                        for _ in 0..500 {
                            let (x, y) =
                                stm.atomically(|tx| Ok((a.read(tx)?, b.read(tx)?))).unwrap();
                            assert_eq!(
                                x,
                                y,
                                "opacity violation under {:?}",
                                stm.config().detection
                            );
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn read_only_runs_queries() {
        let stm = Stm::default();
        let v = TVar::new(5);
        assert_eq!(stm.read_only(|tx| v.read(tx)), 5);
    }

    #[test]
    fn in_flight_tracks_active_transactions_and_quiesce_drains() {
        let stm = Stm::default();
        assert_eq!(stm.in_flight(), 0);
        assert!(stm.quiesce(std::time::Duration::from_millis(1)), "idle runtime is quiesced");

        // Hold a transaction open on another thread until released, and
        // check the counter observes it.
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            let worker_stm = stm.clone();
            let worker_release = Arc::clone(&release);
            scope.spawn(move || {
                worker_stm
                    .atomically(|_tx| {
                        while !worker_release.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        Ok(())
                    })
                    .unwrap();
            });
            while stm.in_flight() == 0 {
                std::thread::yield_now();
            }
            assert!(
                !stm.quiesce(std::time::Duration::from_millis(5)),
                "quiesce must time out while a transaction is in flight"
            );
            release.store(true, Ordering::Release);
            assert!(
                stm.quiesce(std::time::Duration::from_secs(5)),
                "quiesce must observe the drain"
            );
        });
        assert_eq!(stm.in_flight(), 0);
    }

    #[test]
    fn in_flight_counts_a_call_once_across_retries_and_survives_aborts() {
        let stm = Stm::new(StmConfig {
            max_retries: Some(3),
            on_exhaustion: RetryExhaustion::GiveUp,
            ..StmConfig::default()
        });
        let mut peak = 0;
        let result: Result<(), _> = stm.atomically(|tx| {
            peak = peak.max(stm.in_flight());
            tx.conflict(crate::ConflictKind::External("always"))
        });
        assert!(result.is_err());
        assert_eq!(peak, 1, "retries of one call must not inflate the in-flight count");
        assert_eq!(stm.in_flight(), 0, "an exhausted call must deregister");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), _> = stm.atomically(|_tx| panic!("boom"));
        }));
        assert!(err.is_err());
        assert_eq!(stm.in_flight(), 0, "a panicking body must deregister");
    }

    #[test]
    fn commit_hook_sees_committed_logs_only() {
        struct Capture(std::sync::Mutex<Vec<(u64, Vec<u8>)>>);
        impl CommitHook for Capture {
            fn on_commit(&self, commit_ts: u64, payload: &[u8]) {
                self.0.lock().unwrap().push((commit_ts, payload.to_vec()));
            }
        }
        let stm = Stm::new(StmConfig::default());
        let tvar = crate::TVar::new(0u64);
        // Before the hook is installed, wal_log is a cheap no-op.
        stm.atomically(|tx| {
            tx.wal_log(b"pre-hook");
            tvar.write(tx, 1)
        })
        .unwrap();
        let capture = Arc::new(Capture(std::sync::Mutex::new(Vec::new())));
        assert!(stm.set_commit_hook(capture.clone()));
        assert!(!stm.set_commit_hook(capture.clone()), "the hook is set-once");
        // A committed writing transaction ships its bytes with the write
        // version as the commit timestamp.
        stm.atomically(|tx| {
            tx.wal_log(b"committed");
            tvar.write(tx, 2)
        })
        .unwrap();
        // An aborted transaction's bytes are discarded.
        let aborted: Result<(), _> = stm.atomically(|tx| {
            tx.wal_log(b"aborted");
            tvar.write(tx, 3)?;
            Err(crate::TxError::abort("discard"))
        });
        assert!(aborted.is_err());
        // A transaction with no TVar writes still flushes its log (the
        // pure lazy-replay commit path).
        stm.atomically(|tx| {
            tx.wal_log(b"no-writes");
            Ok(())
        })
        .unwrap();
        let seen = capture.0.lock().unwrap().clone();
        assert_eq!(seen.len(), 2, "pre-hook and aborted logs must not appear: {seen:?}");
        assert_eq!(seen[0].1, b"committed");
        assert!(seen[0].0 > 0, "writing commits stamp the write version");
        assert_eq!(seen[1].1, b"no-writes");
    }
}
