//! A thread-safe *ordered* map with O(1) snapshots and range scans.
//!
//! [`OrdMap`] is the ordered counterpart of [`SnapMap`](crate::SnapMap):
//! a linearizable concurrent map over `u64` keys whose `snapshot`
//! operation is constant-time and whose `range(lo, hi)` returns the
//! entries of the half-open interval `[lo, hi)` in key order. Internally
//! it keeps a persistent [`Treap`] behind a reader/writer lock. A snapshot
//! clones the root `Arc`; an update copies only the nodes on its path that
//! a snapshot still shares and writes the rest in place. The treap's
//! priorities are a SplitMix64 hash of the key, making the shape a
//! deterministic function of the key *set* — balanced with high
//! probability, and identical across replicas holding the same keys.

use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

/// A shared, structurally-persistent subtree.
type Link<V> = Option<Arc<Node<V>>>;

#[derive(Clone)]
struct Node<V> {
    key: u64,
    priority: u64,
    value: V,
    len: usize,
    left: Link<V>,
    right: Link<V>,
}

/// SplitMix64: the treap priority for a key. Deterministic so the tree
/// shape depends only on the key set, scrambled so sorted insertion
/// still yields a balanced tree.
fn priority(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn link_len<V>(link: &Link<V>) -> usize {
    link.as_ref().map_or(0, |n| n.len)
}

impl<V> Node<V> {
    fn fix_len(&mut self) {
        self.len = 1 + link_len(&self.left) + link_len(&self.right);
    }
}

/// Insert below `link`. Each node written is made unique with
/// `Arc::make_mut`: copied if a snapshot still shares it, written in place
/// otherwise. Priorities are distinct (SplitMix64 is a bijection), so the
/// key's node, if present, lies on the path of nodes with higher priority.
fn insert_at<V: Clone>(link: &mut Link<V>, key: u64, prio: u64, value: V) -> Option<V> {
    match link {
        Some(n) if n.priority >= prio => {
            let n = Arc::make_mut(n);
            let old = if key < n.key {
                insert_at(&mut n.left, key, prio, value)
            } else if key > n.key {
                insert_at(&mut n.right, key, prio, value)
            } else {
                return Some(std::mem::replace(&mut n.value, value));
            };
            if old.is_none() {
                n.len += 1;
            }
            old
        }
        _ => {
            // The new node outranks this whole subtree, so the key is
            // absent from it: split the subtree around the key below it.
            let (left, right) = split(link.take(), key);
            let mut node = Node { key, priority: prio, value, len: 0, left, right };
            node.fix_len();
            *link = Some(Arc::new(node));
            None
        }
    }
}

/// Split a subtree that does not hold `key` into the keys below and the
/// keys above it.
fn split<V: Clone>(link: Link<V>, key: u64) -> (Link<V>, Link<V>) {
    let Some(mut arc) = link else { return (None, None) };
    let n = Arc::make_mut(&mut arc);
    if key < n.key {
        let (lt, gt) = split(n.left.take(), key);
        n.left = gt;
        n.fix_len();
        (lt, Some(arc))
    } else {
        let (lt, gt) = split(n.right.take(), key);
        n.right = lt;
        n.fix_len();
        (Some(arc), gt)
    }
}

/// Remove `key`, which the caller has checked is present below `link`.
fn remove_at<V: Clone>(link: &mut Link<V>, key: u64) -> V {
    let n = link.as_mut().expect("key is present");
    if n.key == key {
        let node = link.take().expect("key is present");
        let (value, left, right) = match Arc::try_unwrap(node) {
            Ok(n) => (n.value, n.left, n.right),
            Err(shared) => (shared.value.clone(), shared.left.clone(), shared.right.clone()),
        };
        *link = merge(left, right);
        return value;
    }
    let n = Arc::make_mut(n);
    let old = if key < n.key { remove_at(&mut n.left, key) } else { remove_at(&mut n.right, key) };
    n.len -= 1;
    old
}

/// Merge two treaps where every key of `a` is below every key of `b`.
fn merge<V: Clone>(a: Link<V>, b: Link<V>) -> Link<V> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some(mut x), Some(mut y)) => {
            if x.priority >= y.priority {
                let n = Arc::make_mut(&mut x);
                n.right = merge(n.right.take(), Some(y));
                n.fix_len();
                Some(x)
            } else {
                let n = Arc::make_mut(&mut y);
                n.left = merge(Some(x), n.left.take());
                n.fix_len();
                Some(y)
            }
        }
    }
}

/// A persistent (structurally-shared) ordered map over `u64` keys: the
/// snapshot type of [`OrdMap`], playing the role [`Hamt`] plays for
/// [`SnapMap`] — but with in-order range traversal. A clone is O(1) and is
/// unaffected by later updates, which copy only the nodes it shares.
///
/// [`Hamt`]: crate::Hamt
/// [`SnapMap`]: crate::SnapMap
pub struct Treap<V> {
    root: Link<V>,
}

impl<V> fmt::Debug for Treap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Treap").field("len", &self.len()).finish()
    }
}

impl<V> Clone for Treap<V> {
    fn clone(&self) -> Self {
        Treap { root: self.root.clone() }
    }
}

impl<V> Default for Treap<V> {
    fn default() -> Self {
        Treap::new()
    }
}

impl<V> Treap<V> {
    /// Create an empty map.
    pub fn new() -> Self {
        Treap { root: None }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        link_len(&self.root)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Look up a key.
    pub fn get(&self, key: u64) -> Option<&V> {
        let mut cursor = &self.root;
        while let Some(n) = cursor {
            cursor = if key < n.key {
                &n.left
            } else if key > n.key {
                &n.right
            } else {
                return Some(&n.value);
            };
        }
        None
    }

    /// Whether the map contains `key`.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }
}

impl<V: Clone> Treap<V> {
    /// Insert a key/value pair, returning the previous value.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        insert_at(&mut self.root, key, priority(key), value)
    }

    /// Remove a key, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        // Look before writing: a miss copies nothing, even when shared.
        self.get(key)?;
        Some(remove_at(&mut self.root, key))
    }

    /// Visit every entry of the half-open range `[lo, hi)` in ascending
    /// key order. Empty and reversed ranges visit nothing.
    pub fn for_range(&self, lo: u64, hi: u64, f: &mut impl FnMut(u64, &V)) {
        fn walk<V>(link: &Link<V>, lo: u64, hi: u64, f: &mut impl FnMut(u64, &V)) {
            if let Some(n) = link {
                if lo < n.key {
                    walk(&n.left, lo, hi, f);
                }
                if lo <= n.key && n.key < hi {
                    f(n.key, &n.value);
                }
                // Descend right only if some key > n.key can be < hi.
                if n.key < hi.saturating_sub(1) {
                    walk(&n.right, lo, hi, f);
                }
            }
        }
        if lo < hi {
            walk(&self.root, lo, hi, f);
        }
    }

    /// The entries of `[lo, hi)` in ascending key order, values cloned out.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        self.for_range(lo, hi, &mut |k, v| out.push((k, v.clone())));
        out
    }
}

/// A linearizable concurrent ordered map with constant-time snapshots
/// and in-order range scans.
///
/// # Examples
///
/// ```
/// use proust_conc::OrdMap;
///
/// let map = OrdMap::new();
/// map.insert(3, "three");
/// map.insert(1, "one");
/// let snap = map.snapshot(); // O(1)
/// map.insert(2, "two");
/// assert_eq!(snap.range(0, 10).len(), 2);
/// assert_eq!(map.range(0, 10), vec![(1, "one"), (2, "two"), (3, "three")]);
/// ```
pub struct OrdMap<V> {
    root: RwLock<Treap<V>>,
}

impl<V> fmt::Debug for OrdMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrdMap").field("len", &self.root.read().len()).finish()
    }
}

impl<V> Default for OrdMap<V> {
    fn default() -> Self {
        OrdMap::new()
    }
}

impl<V> OrdMap<V> {
    /// Create an empty map.
    pub fn new() -> Self {
        OrdMap { root: RwLock::new(Treap::new()) }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.root.read().len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.root.read().is_empty()
    }

    /// Whether the map contains `key`.
    pub fn contains_key(&self, key: u64) -> bool {
        self.root.read().contains_key(key)
    }
}

impl<V: Clone> OrdMap<V> {
    /// Insert a key/value pair, returning the previous value.
    pub fn insert(&self, key: u64, value: V) -> Option<V> {
        self.root.write().insert(key, value)
    }

    /// Remove a key, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.root.write().remove(key)
    }

    /// Look up a key, cloning the value out.
    pub fn get(&self, key: u64) -> Option<V> {
        self.root.read().get(key).cloned()
    }

    /// The entries of `[lo, hi)` in ascending key order.
    pub fn range(&self, lo: u64, hi: u64) -> Vec<(u64, V)> {
        self.root.read().range(lo, hi)
    }

    /// Take a constant-time snapshot: a persistent map reflecting some
    /// linearization point between this call's invocation and response.
    pub fn snapshot(&self) -> Treap<V> {
        self.root.read().clone()
    }

    /// Atomically replace the contents by applying committed operations
    /// from `apply` to the current root. Used by the snapshot replay
    /// wrapper at commit time.
    pub fn update_root(&self, apply: impl FnOnce(&mut Treap<V>)) {
        let mut root = self.root.write();
        apply(&mut root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn basic_map_operations() {
        let map = OrdMap::new();
        assert_eq!(map.insert(7, 1), None);
        assert_eq!(map.insert(7, 2), Some(1));
        assert_eq!(map.get(7), Some(2));
        assert!(map.contains_key(7));
        assert_eq!(map.remove(7), Some(2));
        assert_eq!(map.remove(7), None);
        assert!(map.is_empty());
    }

    #[test]
    fn range_is_sorted_and_half_open() {
        let map = OrdMap::new();
        for k in [9u64, 3, 1, 7, 5] {
            map.insert(k, k * 10);
        }
        assert_eq!(map.range(3, 8), vec![(3, 30), (5, 50), (7, 70)]);
        assert_eq!(map.range(0, u64::MAX).len(), 5);
        assert!(map.range(4, 4).is_empty(), "empty range");
        assert!(map.range(8, 2).is_empty(), "reversed range");
        assert_eq!(map.range(9, 10), vec![(9, 90)], "lower bound inclusive");
        assert!(map.range(10, 20).is_empty(), "upper bound exclusive");
    }

    #[test]
    fn treap_matches_a_btreemap_reference() {
        // Deterministic mixed workload cross-checked against the stdlib.
        let mut treap = Treap::new();
        let mut reference = std::collections::BTreeMap::new();
        let mut state = 0x1234_5678_u64;
        for _ in 0..600 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (state >> 33) % 64;
            match state % 3 {
                0 | 1 => {
                    assert_eq!(treap.insert(key, state), reference.insert(key, state));
                }
                _ => {
                    assert_eq!(treap.remove(key), reference.remove(&key));
                }
            }
            assert_eq!(treap.len(), reference.len());
        }
        let all: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(treap.range(0, u64::MAX), all);
        for lo in (0..64).step_by(7) {
            for hi in (lo..=64).step_by(5) {
                let want: Vec<(u64, u64)> =
                    reference.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(treap.range(lo, hi), want, "range [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let map = OrdMap::new();
        for i in 0..64u64 {
            map.insert(i, i);
        }
        let snap = map.snapshot();
        for i in 0..64u64 {
            map.remove(i);
        }
        assert_eq!(snap.len(), 64);
        assert_eq!(snap.range(10, 13), vec![(10, 10), (11, 11), (12, 12)]);
        assert!(map.is_empty());
    }

    #[test]
    fn shape_is_independent_of_insertion_order() {
        // SplitMix64 priorities make the tree shape a function of the key
        // set alone; ranges must agree no matter the insertion order.
        let forward = OrdMap::new();
        let backward = OrdMap::new();
        for i in 0..128u64 {
            forward.insert(i, i);
            backward.insert(127 - i, 127 - i);
        }
        assert_eq!(forward.range(0, 200), backward.range(0, 200));
    }

    /// The address of every node of `treap`, in key order.
    fn nodes<V>(treap: &Treap<V>) -> Vec<*const Node<V>> {
        fn walk<V>(link: &Link<V>, out: &mut Vec<*const Node<V>>) {
            if let Some(n) = link {
                walk(&n.left, out);
                out.push(Arc::as_ptr(n));
                walk(&n.right, out);
            }
        }
        let mut out = Vec::new();
        walk(&treap.root, &mut out);
        out
    }

    /// How many nodes lie on the path from the root to `key`'s node.
    fn path_len<V>(treap: &Treap<V>, key: u64) -> usize {
        let (mut cursor, mut len) = (&treap.root, 0);
        while let Some(n) = cursor {
            len += 1;
            cursor = match key.cmp(&n.key) {
                std::cmp::Ordering::Less => &n.left,
                std::cmp::Ordering::Greater => &n.right,
                std::cmp::Ordering::Equal => return len,
            };
        }
        panic!("key {key} is absent")
    }

    fn filled(n: u64) -> Treap<u64> {
        let mut treap = Treap::new();
        (0..n).for_each(|k| {
            treap.insert(k, k);
        });
        treap
    }

    #[test]
    fn miss_on_a_shared_treap_copies_nothing() {
        let mut treap = filled(1_000);
        let snapshot = treap.clone();
        let before = nodes(&treap);
        assert_eq!(treap.remove(5_000), None);
        assert_eq!(nodes(&treap), before);
        assert_eq!(nodes(&snapshot), before);
    }

    #[test]
    fn updates_on_an_unshared_treap_keep_every_node() {
        let mut treap = filled(1_000);
        let before = nodes(&treap);
        for k in 0..1_000 {
            assert_eq!(treap.insert(k, k + 1), Some(k));
        }
        assert_eq!(nodes(&treap), before, "overwrites write in place");
        treap.insert(5_000, 0);
        treap.insert(500, 0);
        let grown: std::collections::HashSet<_> = nodes(&treap).into_iter().collect();
        assert!(before.iter().all(|n| grown.contains(n)), "an insert keeps every old node");
        assert_eq!(grown.len(), 1_001);
        for k in (0..1_000).step_by(3) {
            treap.remove(k);
        }
        assert!(nodes(&treap).iter().all(|n| grown.contains(n)), "removes allocate nothing");
    }

    #[test]
    fn overwrite_under_a_snapshot_copies_exactly_the_shared_path() {
        let mut treap = filled(1_000);
        let snapshot = treap.clone();
        let shared: std::collections::HashSet<_> = nodes(&snapshot).into_iter().collect();
        assert_eq!(treap.insert(700, 0), Some(700));
        let copied = nodes(&treap).into_iter().filter(|n| !shared.contains(n)).count();
        assert_eq!(copied, path_len(&treap, 700));
        let after = nodes(&treap);
        assert_eq!(treap.insert(700, 1), Some(0));
        assert_eq!(nodes(&treap), after, "the copied path is unshared now");
        assert_eq!(snapshot.get(700), Some(&700));
    }

    #[test]
    fn held_snapshots_stay_frozen() {
        // Random inserts and removes while snapshots taken along the way
        // are kept and dropped: each must read exactly as when taken.
        let check = |snap: &Treap<u64>, model: &std::collections::BTreeMap<u64, u64>| {
            let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            assert_eq!(snap.range(0, u64::MAX), want);
            assert_eq!(snap.len(), model.len());
        };
        let mut treap = Treap::new();
        let mut model = std::collections::BTreeMap::new();
        let mut held = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for step in 0..3_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = (state >> 33) % 96;
            if state % 3 == 1 {
                assert_eq!(treap.remove(key), model.remove(&key));
            } else {
                assert_eq!(treap.insert(key, state), model.insert(key, state));
            }
            if step % 37 == 0 {
                held.push((treap.clone(), model.clone()));
            }
            if held.len() > 6 {
                let (snap, model) = held.swap_remove((state >> 40) as usize % held.len());
                check(&snap, &model);
            }
        }
        check(&treap, &model);
        held.iter().for_each(|(snap, model)| check(snap, model));
    }

    #[test]
    fn snapshots_kept_and_dropped_across_threads_stay_frozen() {
        // Each update_root round gives every key the round's value, and
        // removes and re-inserts one key; a snapshot must read one round
        // throughout, however long it is kept and wherever it is dropped.
        const KEYS: u64 = 128;
        let map = StdArc::new(OrdMap::new());
        map.update_root(|m| {
            for k in 0..KEYS {
                m.insert(k, 0u64);
            }
        });
        let check = |snap: Treap<u64>| {
            let entries = snap.range(0, KEYS);
            assert_eq!(entries.len() as u64, KEYS);
            assert!(entries.iter().all(|&(_, v)| v == entries[0].1));
        };
        std::thread::scope(|s| {
            let writer = StdArc::clone(&map);
            s.spawn(move || {
                for round in 1..=200u64 {
                    writer.update_root(|m| {
                        m.remove(round % KEYS);
                        for k in 0..KEYS {
                            m.insert(k, round);
                        }
                    });
                }
            });
            for kept in [1, 5] {
                let map = StdArc::clone(&map);
                s.spawn(move || {
                    let mut held = std::collections::VecDeque::new();
                    for _ in 0..200 {
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
    fn concurrent_inserts_land() {
        let map = StdArc::new(OrdMap::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let map = StdArc::clone(&map);
                s.spawn(move || {
                    for i in 0..200u64 {
                        map.insert(t * 1000 + i, i);
                    }
                });
            }
        });
        assert_eq!(map.len(), 4 * 200);
    }

    #[test]
    fn concurrent_scans_see_consistent_states() {
        // Writers keep keys 0 and 1 equal; a range scan must never observe
        // a half-applied pair because update_root is atomic.
        let map = StdArc::new(OrdMap::new());
        map.update_root(|m| {
            m.insert(0, 0u64);
            m.insert(1, 0u64);
        });
        std::thread::scope(|s| {
            let writer = StdArc::clone(&map);
            s.spawn(move || {
                for i in 1..500u64 {
                    writer.update_root(|m| {
                        m.insert(0, i);
                        m.insert(1, i);
                    });
                }
            });
            for _ in 0..500 {
                let pair = map.range(0, 2);
                assert_eq!(pair.len(), 2);
                assert_eq!(pair[0].1, pair[1].1);
            }
        });
    }
}
