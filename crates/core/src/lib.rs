//! # proust-core
//!
//! The Proust framework (Dickerson, Gazzillo, Herlihy & Koskinen, *Proust:
//! A Design Space for Highly-Concurrent Transactional Data Structures*,
//! PODC 2017): transactional "wrappers" that turn existing thread-safe
//! linearizable data structures into transactional objects while
//! minimizing false conflicts.
//!
//! Proust unifies **transactional boosting** (pessimistic abstract locks,
//! eager updates with inverses) and **transactional predication**
//! (optimistic STM-location synchronization) into a two-axis design space;
//! each wrapped structure picks a point in it:
//!
//! * **Concurrency control** — a [`LockAllocatorPolicy`]:
//!   [`PessimisticLap`] allocates striped re-entrant abstract locks (with
//!   pluggable [`Compat`] protocols); [`OptimisticLap`] maps lock
//!   invocations onto an [`StmRegion`] of STM locations so the underlying
//!   STM detects and manages conflicts.
//! * **Update strategy** — [`UpdateStrategy::Eager`] mutates the base
//!   structure in place and registers *inverses* as rollback handlers;
//!   [`UpdateStrategy::Lazy`] queues operations in a replay log
//!   ([`SnapshotReplay`], [`MemoReplay`]) applied at the STM's
//!   serialization point, computing return values against a *shadow copy*.
//!
//! The [`AbstractLock`] ties the two together (Listing 1 of the paper),
//! and [`structures`] provides the wrapped data structures ScalaProust
//! shipped: maps, sets, priority queues, and the §3 counter.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use proust_core::{OptimisticLap, TxMap};
//! use proust_core::structures::MemoMap;
//! use proust_stm::{Stm, StmConfig};
//!
//! let stm = Stm::new(StmConfig::default());
//! let map: MemoMap<u32, String> = MemoMap::new(Arc::new(OptimisticLap::new(128)));
//! stm.atomically(|tx| {
//!     map.put(tx, 1, "one".into())?;
//!     map.put(tx, 2, "two".into())
//! })
//! .unwrap();
//! let one = stm.atomically(|tx| map.get(tx, &1)).unwrap();
//! assert_eq!(one.as_deref(), Some("one"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod abstract_lock;
mod conflict;
mod lap;
mod map_trait;
mod mode;
mod region;
mod replay;
mod size;
pub mod structures;

pub use abstract_lock::{AbstractLock, UpdateStrategy};
pub use conflict::{
    keyed_request, ordered_point_request, ordered_scan_requests, ordered_slot,
    requests_to_access_set, AbstractionInfo, AccessSet, ConflictAbstraction, KeyedOp, KeyedOpKind,
    StripedKeyAbstraction, ORDERED_STRIPES,
};
pub use lap::{LockAllocatorPolicy, OptimisticLap, PessimisticLap};
pub use map_trait::{TxMap, TxPQueue};
pub use mode::{Compat, LockRequest, Mode};
pub use region::StmRegion;
pub use replay::{MapOp, MemoReplay, SnapshotReplay, SnapshotSource};
pub use size::CommittedSize;

// Re-exported for `op_site!` expansions in downstream crates.
pub use proust_stm::SiteId;

/// Label the current transaction with a static operation site for conflict
/// attribution, interning the label once per call site:
///
/// ```
/// use proust_core::op_site;
/// use proust_stm::{Stm, StmConfig};
///
/// let stm = Stm::new(StmConfig::default());
/// stm.atomically(|tx| {
///     op_site!(tx, "example.increment");
///     Ok(())
/// })
/// .unwrap();
/// ```
///
/// With the STM's `trace` feature disabled,
/// [`Txn::set_op_site`](proust_stm::Txn::set_op_site) is a no-op and the
/// only residual cost is one atomic load on the cached [`SiteId`].
#[macro_export]
macro_rules! op_site {
    ($tx:expr, $name:literal) => {{
        static SITE: ::std::sync::OnceLock<$crate::SiteId> = ::std::sync::OnceLock::new();
        $tx.set_op_site(*SITE.get_or_init(|| $crate::SiteId::intern($name)));
    }};
}
