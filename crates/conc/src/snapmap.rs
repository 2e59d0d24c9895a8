//! A thread-safe map with O(1) snapshots.
//!
//! [`SnapMap`] plays the role of Scala's `concurrent.TrieMap` in the
//! paper: a linearizable concurrent map whose `snapshot` operation is
//! constant-time. Internally it keeps a persistent [`Hamt`](crate::Hamt)
//! behind a reader/writer lock. A snapshot is a clone of the current root
//! (one `Arc` bump); a write copies only the trie nodes on its path that a
//! live snapshot still shares and updates the rest in place, so with no
//! snapshot alive a write copies nothing. See
//! DESIGN.md for why this substitution preserves the behaviour the Proust
//! wrappers rely on.

use std::borrow::Borrow;
use std::fmt;
use std::hash::Hash;

use parking_lot::RwLock;

use crate::hamt::Hamt;

/// A linearizable concurrent hash map with constant-time snapshots.
///
/// # Examples
///
/// ```
/// use proust_conc::SnapMap;
///
/// let map = SnapMap::new();
/// map.insert(1, "one");
/// let snap = map.snapshot(); // O(1)
/// map.insert(2, "two");
/// assert_eq!(snap.len(), 1);
/// assert_eq!(map.len(), 2);
/// ```
pub struct SnapMap<K, V> {
    root: RwLock<Hamt<K, V>>,
}

impl<K, V> fmt::Debug for SnapMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapMap").field("len", &self.root.read().len()).finish()
    }
}

impl<K, V> Default for SnapMap<K, V> {
    fn default() -> Self {
        SnapMap::new()
    }
}

impl<K, V> SnapMap<K, V> {
    /// Create an empty map.
    pub fn new() -> Self {
        SnapMap { root: RwLock::new(Hamt::new()) }
    }
}

impl<K, V> SnapMap<K, V>
where
    K: Hash + Eq + Clone,
    V: Clone,
{
    /// Insert a key/value pair, returning the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.root.write().insert(key, value)
    }

    /// Remove a key, returning its value if present.
    pub fn remove<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.root.write().remove(key)
    }

    /// Look up a key, cloning the value out.
    pub fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.root.read().get(key).cloned()
    }

    /// Whether the map contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.root.read().contains_key(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.root.read().len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.root.read().is_empty()
    }

    /// Take a constant-time snapshot: a persistent map reflecting some
    /// linearization point between this call's invocation and response.
    pub fn snapshot(&self) -> Hamt<K, V> {
        self.root.read().clone()
    }

    /// Atomically replace the contents by applying committed operations
    /// from `apply` to the current root. Used by the snapshot replay
    /// wrapper at commit time.
    pub fn update_root(&self, apply: impl FnOnce(&mut Hamt<K, V>)) {
        let mut root = self.root.write();
        apply(&mut root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_map_operations() {
        let map = SnapMap::new();
        assert_eq!(map.insert("k", 1), None);
        assert_eq!(map.insert("k", 2), Some(1));
        assert_eq!(map.get("k"), Some(2));
        assert!(map.contains_key("k"));
        assert_eq!(map.remove("k"), Some(2));
        assert!(map.is_empty());
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let map = SnapMap::new();
        for i in 0..64 {
            map.insert(i, i);
        }
        let snap = map.snapshot();
        for i in 0..64 {
            map.remove(&i);
        }
        assert_eq!(snap.len(), 64);
        assert!(map.is_empty());
    }

    #[test]
    fn concurrent_inserts_land() {
        let map = Arc::new(SnapMap::new());
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    for i in 0..500u32 {
                        map.insert(t * 1000 + i, i);
                    }
                });
            }
        });
        assert_eq!(map.len(), 8 * 500);
    }

    #[test]
    fn snapshots_kept_and_dropped_across_threads_stay_frozen() {
        // Each update_root round gives every key the round's value, and
        // removes and re-inserts one key; a snapshot must read one round
        // throughout, however long it is kept and wherever it is dropped.
        const KEYS: u32 = 256;
        let map = Arc::new(SnapMap::new());
        map.update_root(|m| {
            for k in 0..KEYS {
                m.insert(k, 0u64);
            }
        });
        let check = |snap: Hamt<u32, u64>| {
            assert_eq!(snap.len() as u32, KEYS);
            let first = *snap.get(&0).expect("every key is present");
            assert!((0..KEYS).all(|k| snap.get(&k) == Some(&first)));
        };
        std::thread::scope(|s| {
            let writer = Arc::clone(&map);
            s.spawn(move || {
                for round in 1..=300u64 {
                    writer.update_root(|m| {
                        m.remove(&(round as u32 % KEYS));
                        for k in 0..KEYS {
                            m.insert(k, round);
                        }
                    });
                }
            });
            for kept in [1, 5] {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let mut held = std::collections::VecDeque::new();
                    for _ in 0..300 {
                        held.push_back(map.snapshot());
                        if held.len() > kept {
                            check(held.pop_front().expect("non-empty"));
                        }
                    }
                    held.into_iter().for_each(check);
                });
            }
        });
    }

    #[test]
    fn concurrent_snapshots_see_consistent_states() {
        // Writers keep k and k+1 equal; snapshots must never observe a
        // half-applied pair because update_root is atomic.
        let map = Arc::new(SnapMap::new());
        map.update_root(|m| {
            m.insert(0u32, 0u64);
            m.insert(1u32, 0u64);
        });
        std::thread::scope(|s| {
            let writer = Arc::clone(&map);
            s.spawn(move || {
                for i in 1..2000u64 {
                    writer.update_root(|m| {
                        m.insert(0, i);
                        m.insert(1, i);
                    });
                }
            });
            for _ in 0..2000 {
                let snap = map.snapshot();
                assert_eq!(snap.get(&0), snap.get(&1));
            }
        });
    }
}
