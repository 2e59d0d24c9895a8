//! The reified committed-size optimization of Listing 2.
//!
//! The paper's `MapTrait` keeps `committedSize` as a separate piece of
//! state "reified out of the abstract state as an optimization": `size()`
//! reads a single counter instead of conflicting with every `put`/`remove`.
//! We realize it as an atomic counter adjusted by deltas that only land
//! when the enclosing transaction commits, so aborted operations never
//! perturb it and size updates never create STM conflicts between
//! otherwise-commuting updates.

use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use proust_stm::{Txn, TxnOutcome};

/// A size counter that applies its deltas at commit time.
///
/// Cloning shares the counter. Reads return the *committed* size: pending
/// operations of the calling transaction are not reflected (the same
/// contract as the paper's `committedSize()`).
#[derive(Clone, Default)]
pub struct CommittedSize {
    value: Arc<AtomicI64>,
}

impl fmt::Debug for CommittedSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CommittedSize").field(&self.get()).finish()
    }
}

impl CommittedSize {
    /// Create a counter starting at zero.
    pub fn new() -> Self {
        CommittedSize::default()
    }

    /// Create a counter starting at `initial`.
    pub fn starting_at(initial: i64) -> Self {
        CommittedSize { value: Arc::new(AtomicI64::new(initial)) }
    }

    /// The current committed size.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }

    /// Record a delta that will be applied if (and only if) `tx` commits.
    pub fn record(&self, tx: &mut Txn, delta: i64) {
        if delta == 0 {
            return;
        }
        let value = Arc::clone(&self.value);
        tx.on_end(move |outcome| {
            if outcome == TxnOutcome::Committed {
                value.fetch_add(delta, Ordering::AcqRel);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proust_stm::{Stm, StmConfig, TxError};

    #[test]
    fn deltas_apply_on_commit() {
        let stm = Stm::new(StmConfig::default());
        let size = CommittedSize::new();
        stm.atomically(|tx| {
            size.record(tx, 2);
            size.record(tx, 1);
            // Not yet visible: still the committed value.
            assert_eq!(size.get(), 0);
            Ok(())
        })
        .unwrap();
        assert_eq!(size.get(), 3);
    }

    #[test]
    fn deltas_discarded_on_abort() {
        let stm = Stm::new(StmConfig::default());
        let size = CommittedSize::new();
        let result: Result<(), _> = stm.atomically(|tx| {
            size.record(tx, 7);
            Err(TxError::abort("no"))
        });
        assert!(result.is_err());
        assert_eq!(size.get(), 0);
    }

    #[test]
    fn zero_delta_registers_nothing() {
        let stm = Stm::new(StmConfig::default());
        let size = CommittedSize::new();
        stm.atomically(|tx| {
            size.record(tx, 0);
            Ok(())
        })
        .unwrap();
        assert_eq!(size.get(), 0);
    }

    #[test]
    fn concurrent_increments_sum() {
        let stm = Stm::new(StmConfig::default());
        let size = CommittedSize::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let stm = stm.clone();
                let size = size.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        stm.atomically(|tx| {
                            size.record(tx, 1);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(size.get(), 800);
    }
}
