//! What the benchmark asks of the machine while a serving workload runs:
//! where threads go, how precise timers are, and — under the open loop —
//! that no CPU halts.
//!
//! Left to the scheduler, a loopback ping-pong between two client threads
//! and a one-shard server settles into one of two modes — everything
//! sharing a core, or client and server a core apart — that differ by 2x
//! in throughput and flip from one run to the next (measured here: 43k
//! and 90k committed/s on the same build). The benchmark takes that choice
//! away: the server child runs on the first CPU the process may use, the
//! load-generating threads on the others, as a server and its clients are
//! deployed. The library workloads' threads take one CPU each.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// Linux's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;
const SCHED_IDLE: i32 = 5;

/// Give the calling thread, and the threads it starts, 1 ns of timer
/// slack instead of the default 50 us. The open-loop generator sleeps
/// until each arrival is due; with the default slack every request would
/// start 50 us late and "latency from the due time" would mostly report
/// that (measured: p50 114 us, 65 us without the slack). The server child
/// inherits the setting; it has no timed wait on its request path.
pub fn precise_timers() {
    // SAFETY: PR_SET_TIMERSLACK takes one `unsigned long` and touches no
    // memory. Failure leaves the default slack in place.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) };
}

/// Where the calling thread — and every thread or process it starts from
/// now on — may run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Place {
    /// The first allowed CPU.
    Server,
    /// Every allowed CPU but the first (the first, if it is the only one).
    Clients,
    /// The mask the process started with.
    Anywhere,
}

/// The CPUs the process was started on; read once, before any pinning.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed,
        // and pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
        let cpus: Vec<usize> =
            (0..1024).filter(|cpu| ok && set[cpu / 64] & (1u64 << (cpu % 64)) != 0).collect();
        // No mask to be had: claim one CPU, which disables pinning.
        if cpus.is_empty() {
            vec![0]
        } else {
            cpus
        }
    })
}

/// CPUs available to the benchmark. Unlike `available_parallelism`, this
/// does not shrink while a thread is pinned.
pub fn cpus() -> usize {
    allowed().len()
}

/// CPUs [`Place::Clients`] spreads over.
pub fn client_cpus() -> usize {
    (cpus() - 1).max(1)
}

/// Restrict the calling thread to `place`. With one CPU there is nothing
/// to choose and nothing is done.
pub fn pin(place: Place) {
    let allowed = allowed();
    if allowed.len() < 2 {
        return;
    }
    run_on(match place {
        Place::Server => &allowed[..1],
        Place::Clients => &allowed[1..],
        Place::Anywhere => allowed,
    });
}

/// Restrict the calling thread to the `index`-th allowed CPU (wrapping).
/// The library workloads' threads each take one: a freshly spawned thread
/// starts on its parent's CPU and is only migrated some milliseconds
/// later, a visible share of a 15 ms execution.
pub fn pin_nth(index: usize) {
    let allowed = allowed();
    run_on(&[allowed[index % allowed.len()]]);
}

fn run_on(cpus: &[usize]) {
    let mut set: CpuSet = [0; 16];
    for cpu in cpus {
        set[cpu / 64] |= 1u64 << (cpu % 64);
    }
    // SAFETY: `set` is a live `cpu_set_t` of the size passed, and pid 0
    // names the calling thread. Failure leaves the thread where it was,
    // which costs steadiness, not correctness.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

/// While this lives, no CPU of the machine halts: one thread per CPU
/// spins at `SCHED_IDLE`, the priority below every ordinary thread, so
/// it runs only when the CPU would otherwise sleep and yields the moment
/// anything else wakes. A halted virtual CPU takes the hypervisor up to
/// milliseconds to wake, and the open loop — which sleeps between
/// arrivals — measured mostly that: p99 of 583 and 1,155 us in two suites
/// of one build, 105-117 us with the CPUs kept awake. Only the open loop
/// uses it: `serve-closed-mem` reads the same either way, and
/// `serve-closed-wal` turned unsteady with spinners beside its fsyncs.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = allowed()
            .iter()
            .map(|&cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    run_on(&[cpu]);
                    let priority = 0i32;
                    // SAFETY: `priority` is a live `sched_param` (one
                    // int), and pid 0 names the calling thread.
                    let idle = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } == 0;
                    // Spinning at ordinary priority would compete with the
                    // server for its CPU; without SCHED_IDLE, do nothing.
                    while idle && !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        KeepAwake { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_and_restores_the_mask() {
        let before = cpus();
        assert!(before >= 1);
        pin(Place::Server);
        let pinned = std::thread::available_parallelism().map_or(1, |n| n.get());
        pin(Place::Anywhere);
        let restored = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(pinned, 1);
        assert_eq!(restored, before);
        assert_eq!(cpus(), before, "the count is taken once, before pinning");
    }

    #[test]
    fn keep_awake_starts_and_stops() {
        let awake = KeepAwake::start();
        assert_eq!(awake.spinners.len(), cpus());
        drop(awake);
    }
}
