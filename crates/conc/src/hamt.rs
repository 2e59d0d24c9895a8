//! A persistent (structurally-shared) hash array mapped trie.
//!
//! This is the functional core under [`SnapMap`](crate::SnapMap): a clone
//! shares every node with the original, so taking a snapshot of the
//! concurrent map is O(1) — exactly the property the paper's
//! `LazyTrieMap` needs from Scala's `TrieMap`.
//!
//! Updates descend through `&mut Arc<Node>` and `Arc::make_mut` each node
//! they write. A node no clone shares is written in place; a shared one is
//! copied once, after which the copy is unique and later writes to it are
//! in place again. This is the Ctrie's generation check (a node stamped
//! with an older generation than the root is copied before it is written)
//! with the reference count standing in for the generation stamp.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

const BITS: u32 = 5;
const FANOUT: u32 = 1 << BITS; // 32
const MASK: u64 = (FANOUT - 1) as u64;
const MAX_SHIFT: u32 = 60; // 64 bits of hash / 5 bits per level, floored to a multiple of 5

#[derive(Clone)]
enum Node<K, V> {
    Leaf {
        hash: u64,
        key: K,
        value: V,
    },
    /// All entries share the same full 64-bit hash.
    Collision {
        hash: u64,
        entries: Vec<(K, V)>,
    },
    Branch {
        bitmap: u32,
        children: Vec<Arc<Node<K, V>>>,
    },
}

impl<K, V> Node<K, V> {
    fn is_branch(&self) -> bool {
        matches!(self, Node::Branch { .. })
    }
}

#[inline]
fn index_bit(hash: u64, shift: u32) -> (usize, u32) {
    let idx = ((hash >> shift) & MASK) as u32;
    (idx as usize, 1u32 << idx)
}

#[inline]
fn next_shift(shift: u32) -> u32 {
    (shift + BITS).min(MAX_SHIFT)
}

#[inline]
fn child_slot(bitmap: u32, bit: u32) -> usize {
    (bitmap & (bit - 1)).count_ones() as usize
}

/// A persistent hash map with O(1) clone.
///
/// Existing clones are unaffected by later updates. An update copies only
/// the nodes on its path that a clone still shares, so on an unshared map
/// `insert` and `remove` allocate at most the nodes they add.
///
/// # Examples
///
/// ```
/// use proust_conc::Hamt;
///
/// let mut map = Hamt::new();
/// map.insert(1, "one");
/// let snapshot = map.clone(); // O(1)
/// map.insert(2, "two");
/// assert_eq!(snapshot.len(), 1);
/// assert_eq!(map.len(), 2);
/// ```
pub struct Hamt<K, V, S = RandomState> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
    hasher: S,
}

impl<K, V, S: Clone> Clone for Hamt<K, V, S> {
    fn clone(&self) -> Self {
        Hamt { root: self.root.clone(), len: self.len, hasher: self.hasher.clone() }
    }
}

impl<K: fmt::Debug, V: fmt::Debug, S> fmt::Debug for Hamt<K, V, S>
where
    K: Hash + Eq + Clone,
    V: Clone,
    S: BuildHasher,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K, V> Hamt<K, V, RandomState> {
    /// Create an empty map with a random hasher.
    pub fn new() -> Self {
        Hamt { root: None, len: 0, hasher: RandomState::new() }
    }
}

impl<K, V> Default for Hamt<K, V, RandomState> {
    fn default() -> Self {
        Hamt::new()
    }
}

impl<K, V, S> Hamt<K, V, S> {
    /// Create an empty map using `hasher`.
    pub fn with_hasher(hasher: S) -> Self {
        Hamt { root: None, len: 0, hasher }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<K, V, S> Hamt<K, V, S>
where
    K: Hash + Eq + Clone,
    V: Clone,
    S: BuildHasher,
{
    fn hash_of<Q: Hash + ?Sized>(&self, key: &Q) -> u64 {
        self.hasher.hash_one(key)
    }

    /// Look up a key.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.find(self.hash_of(key), key)
    }

    fn find<Q>(&self, hash: u64, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Eq + ?Sized,
    {
        let mut node = self.root.as_deref()?;
        let mut shift = 0;
        loop {
            match node {
                Node::Leaf { hash: h, key: k, value } => {
                    return (*h == hash && k.borrow() == key).then_some(value);
                }
                Node::Collision { hash: h, entries } => {
                    if *h != hash {
                        return None;
                    }
                    return entries.iter().find(|(k, _)| k.borrow() == key).map(|(_, v)| v);
                }
                Node::Branch { bitmap, children } => {
                    let (_, bit) = index_bit(hash, shift);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    node = &children[child_slot(*bitmap, bit)];
                    shift = next_shift(shift);
                }
            }
        }
    }

    /// Whether the map contains `key`.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }

    /// Insert a key/value pair, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = self.hash_of(&key);
        let old = match &mut self.root {
            None => {
                self.root = Some(Arc::new(Node::Leaf { hash, key, value }));
                None
            }
            Some(root) => insert_at(root, hash, key, value, 0),
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove a key, returning its value if present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        // Look before writing: a miss copies nothing, even when shared.
        let hash = self.hash_of(key);
        self.find(hash, key)?;
        let root = self.root.as_mut()?;
        let old = if matches!(**root, Node::Leaf { .. }) {
            leaf_value(self.root.take().expect("root is present"))
        } else {
            remove_at(root, hash, key, 0)
        };
        self.len -= 1;
        Some(old)
    }

    /// Iterate over entries in unspecified order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            stack: self
                .root
                .as_deref()
                .map(|n| vec![Cursor { node: n, pos: 0 }])
                .unwrap_or_default(),
        }
    }

    /// Iterate over keys in unspecified order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterate over values in unspecified order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

/// Build the branch structure distinguishing two nodes whose hashes differ
/// somewhere at or below `shift`.
fn merge_leaves<K, V>(
    a: Arc<Node<K, V>>,
    a_hash: u64,
    b: Arc<Node<K, V>>,
    b_hash: u64,
    shift: u32,
) -> Arc<Node<K, V>> {
    debug_assert_ne!(a_hash, b_hash);
    let (a_idx, a_bit) = index_bit(a_hash, shift);
    let (b_idx, b_bit) = index_bit(b_hash, shift);
    if a_idx == b_idx {
        let inner = merge_leaves(a, a_hash, b, b_hash, next_shift(shift));
        Arc::new(Node::Branch { bitmap: a_bit, children: vec![inner] })
    } else {
        let children = if a_idx < b_idx { vec![a, b] } else { vec![b, a] };
        Arc::new(Node::Branch { bitmap: a_bit | b_bit, children })
    }
}

/// Insert below `node`, which already exists. Each node on the path is
/// made unique with `Arc::make_mut`: copied if a clone of the map still
/// shares it, written in place otherwise.
fn insert_at<K, V>(node: &mut Arc<Node<K, V>>, hash: u64, key: K, value: V, shift: u32) -> Option<V>
where
    K: Eq + Clone,
    V: Clone,
{
    // A new key beside a leaf or collision node replaces that slot
    // without writing the node itself, so it need not be copied.
    match node.as_ref() {
        Node::Leaf { hash: h, key: k, value: v } if *h == hash && *k != key => {
            let entries = vec![(k.clone(), v.clone()), (key, value)];
            *node = Arc::new(Node::Collision { hash, entries });
            return None;
        }
        Node::Leaf { hash: h, .. } | Node::Collision { hash: h, .. } if *h != hash => {
            let fresh = Arc::new(Node::Leaf { hash, key, value });
            *node = merge_leaves(Arc::clone(node), *h, fresh, hash, shift);
            return None;
        }
        _ => {}
    }
    match Arc::make_mut(node) {
        Node::Leaf { value: v, .. } => Some(std::mem::replace(v, value)),
        Node::Collision { entries, .. } => {
            if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
                return Some(std::mem::replace(&mut slot.1, value));
            }
            entries.push((key, value));
            None
        }
        Node::Branch { bitmap, children } => {
            let (_, bit) = index_bit(hash, shift);
            let slot = child_slot(*bitmap, bit);
            if *bitmap & bit != 0 {
                return insert_at(&mut children[slot], hash, key, value, next_shift(shift));
            }
            children.insert(slot, Arc::new(Node::Leaf { hash, key, value }));
            *bitmap |= bit;
            None
        }
    }
}

/// Remove `key`, which the caller has checked is present below `node`,
/// a collision or branch node. Copies exactly the nodes it writes that a
/// clone still shares.
fn remove_at<K, V, Q>(node: &mut Arc<Node<K, V>>, hash: u64, key: &Q, shift: u32) -> V
where
    K: Clone + Borrow<Q>,
    V: Clone,
    Q: Eq + ?Sized,
{
    match Arc::make_mut(node) {
        Node::Leaf { .. } => unreachable!("leaves are removed by their parent"),
        Node::Collision { entries, .. } => {
            let pos = entries.iter().position(|(k, _)| k.borrow() == key).expect("key is present");
            let (_, old) = entries.swap_remove(pos);
            if entries.len() == 1 {
                let (key, value) = entries.pop().expect("one entry left");
                *node = Arc::new(Node::Leaf { hash, key, value });
            }
            old
        }
        Node::Branch { bitmap, children } => {
            let (_, bit) = index_bit(hash, shift);
            let slot = child_slot(*bitmap, bit);
            let old = if matches!(*children[slot], Node::Leaf { .. }) {
                *bitmap &= !bit;
                leaf_value(children.remove(slot))
            } else {
                remove_at(&mut children[slot], hash, key, next_shift(shift))
            };
            // Collapse a branch left holding a single non-branch child.
            if children.len() == 1 && !children[0].is_branch() {
                *node = children.pop().expect("one child left");
            }
            old
        }
    }
}

/// The value of a detached leaf: moved out if this was the last handle,
/// cloned if a snapshot still holds it.
fn leaf_value<K, V: Clone>(leaf: Arc<Node<K, V>>) -> V {
    match Arc::try_unwrap(leaf) {
        Ok(Node::Leaf { value, .. }) => value,
        Err(shared) => match &*shared {
            Node::Leaf { value, .. } => value.clone(),
            _ => unreachable!("not a leaf"),
        },
        Ok(_) => unreachable!("not a leaf"),
    }
}

struct Cursor<'a, K, V> {
    node: &'a Node<K, V>,
    pos: usize,
}

/// Iterator over the entries of a [`Hamt`].
pub struct Iter<'a, K, V> {
    stack: Vec<Cursor<'a, K, V>>,
}

impl<K, V> fmt::Debug for Iter<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("hamt::Iter").field("depth", &self.stack.len()).finish()
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let top = self.stack.last_mut()?;
            match top.node {
                Node::Leaf { key, value, .. } => {
                    self.stack.pop();
                    return Some((key, value));
                }
                Node::Collision { entries, .. } => {
                    if top.pos < entries.len() {
                        let (k, v) = &entries[top.pos];
                        top.pos += 1;
                        return Some((k, v));
                    }
                    self.stack.pop();
                }
                Node::Branch { children, .. } => {
                    if top.pos < children.len() {
                        let child = &children[top.pos];
                        top.pos += 1;
                        self.stack.push(Cursor { node: child, pos: 0 });
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

impl<K, V, S> FromIterator<(K, V)> for Hamt<K, V, S>
where
    K: Hash + Eq + Clone,
    V: Clone,
    S: BuildHasher + Default,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut map = Hamt::with_hasher(S::default());
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K, V, S> Extend<(K, V)> for Hamt<K, V, S>
where
    K: Hash + Eq + Clone,
    V: Clone,
    S: BuildHasher,
{
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut map = Hamt::new();
        assert_eq!(map.insert(1, "a"), None);
        assert_eq!(map.insert(2, "b"), None);
        assert_eq!(map.insert(1, "c"), Some("a"));
        assert_eq!(map.get(&1), Some(&"c"));
        assert_eq!(map.get(&3), None);
        assert_eq!(map.remove(&1), Some("c"));
        assert_eq!(map.remove(&1), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn snapshot_isolation_via_clone() {
        let mut map = Hamt::new();
        for i in 0..100 {
            map.insert(i, i * 10);
        }
        let snap = map.clone();
        for i in 0..100 {
            map.remove(&i);
        }
        assert!(map.is_empty());
        assert_eq!(snap.len(), 100);
        for i in 0..100 {
            assert_eq!(snap.get(&i), Some(&(i * 10)));
        }
    }

    #[test]
    fn iterates_all_entries() {
        let mut map = Hamt::new();
        for i in 0..500 {
            map.insert(i, ());
        }
        let mut keys: Vec<_> = map.keys().copied().collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..500).collect::<Vec<_>>());
    }

    /// A hasher that forces every key into the same bucket, exercising the
    /// collision paths.
    #[derive(Clone, Default)]
    struct Colliding;
    struct CollidingHasher;
    impl std::hash::Hasher for CollidingHasher {
        fn finish(&self) -> u64 {
            42
        }
        fn write(&mut self, _bytes: &[u8]) {}
    }
    impl BuildHasher for Colliding {
        type Hasher = CollidingHasher;
        fn build_hasher(&self) -> CollidingHasher {
            CollidingHasher
        }
    }

    #[test]
    fn full_hash_collisions_are_handled() {
        let mut map: Hamt<u32, u32, Colliding> = Hamt::with_hasher(Colliding);
        for i in 0..20 {
            assert_eq!(map.insert(i, i), None);
        }
        assert_eq!(map.len(), 20);
        for i in 0..20 {
            assert_eq!(map.get(&i), Some(&i));
        }
        assert_eq!(map.insert(5, 50), Some(5));
        for i in 0..20 {
            let expect = if i == 5 { 50 } else { i };
            assert_eq!(map.remove(&i), Some(expect));
        }
        assert!(map.is_empty());
    }

    #[test]
    fn matches_std_hashmap_on_random_ops() {
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut model: HashMap<u16, u64> = HashMap::new();
        let mut map: Hamt<u16, u64> = Hamt::new();
        for _ in 0..20_000 {
            let key = (rng() % 256) as u16;
            match rng() % 3 {
                0 => {
                    let value = rng();
                    assert_eq!(map.insert(key, value), model.insert(key, value));
                }
                1 => assert_eq!(map.remove(&key), model.remove(&key)),
                _ => assert_eq!(map.get(&key), model.get(&key)),
            }
            assert_eq!(map.len(), model.len());
        }
    }

    #[test]
    fn borrowed_key_lookup() {
        let mut map: Hamt<String, u32> = Hamt::new();
        map.insert("alpha".to_string(), 1);
        assert_eq!(map.get("alpha"), Some(&1));
        assert!(map.contains_key("alpha"));
        assert_eq!(map.remove("alpha"), Some(1));
    }

    #[test]
    fn from_iterator_collects() {
        let map: Hamt<u32, u32> = (0..10).map(|i| (i, i)).collect();
        assert_eq!(map.len(), 10);
    }

    /// The address of every node of `map`.
    fn nodes<K, V, S>(map: &Hamt<K, V, S>) -> Vec<*const Node<K, V>> {
        fn walk<K, V>(node: &Arc<Node<K, V>>, out: &mut Vec<*const Node<K, V>>) {
            out.push(Arc::as_ptr(node));
            if let Node::Branch { children, .. } = node.as_ref() {
                children.iter().for_each(|child| walk(child, out));
            }
        }
        let mut out = Vec::new();
        if let Some(root) = &map.root {
            walk(root, &mut out);
        }
        out
    }

    /// How many nodes lie on the path from the root to `key`'s node.
    fn path_len(map: &Hamt<u32, u32>, key: u32) -> usize {
        let hash = map.hash_of(&key);
        let (mut node, mut shift, mut len) = (map.root.as_deref().expect("non-empty"), 0, 1);
        while let Node::Branch { bitmap, children } = node {
            node = &children[child_slot(*bitmap, index_bit(hash, shift).1)];
            shift = next_shift(shift);
            len += 1;
        }
        len
    }

    fn filled(n: u32) -> Hamt<u32, u32> {
        (0..n).map(|i| (i, i)).collect()
    }

    #[test]
    fn miss_on_a_shared_trie_copies_nothing() {
        let mut map = filled(1_000);
        let snapshot = map.clone();
        let before = nodes(&map);
        assert_eq!(map.remove(&5_000), None);
        assert_eq!(nodes(&map), before);
        assert_eq!(nodes(&snapshot), before);
    }

    #[test]
    fn updates_on_an_unshared_trie_keep_every_node() {
        let mut map = filled(1_000);
        let before = nodes(&map);
        for i in 0..1_000 {
            assert_eq!(map.insert(i, i + 1), Some(i));
        }
        assert_eq!(nodes(&map), before, "overwrites write in place");
        map.insert(1_000, 0);
        let grown: HashSet<_> = nodes(&map).into_iter().collect();
        assert!(before.iter().all(|n| grown.contains(n)), "an insert keeps every old node");
        for i in 0..500 {
            map.remove(&i);
        }
        assert!(nodes(&map).iter().all(|n| grown.contains(n)), "removes allocate nothing");
    }

    #[test]
    fn overwrite_under_a_snapshot_copies_exactly_the_shared_path() {
        let mut map = filled(1_000);
        let snapshot = map.clone();
        let shared: HashSet<_> = nodes(&snapshot).into_iter().collect();
        assert_eq!(map.insert(7, 70), Some(7));
        let copied = nodes(&map).into_iter().filter(|n| !shared.contains(n)).count();
        assert_eq!(copied, path_len(&map, 7));
        // The copied path is no longer shared, so writing it again is in place.
        let after = nodes(&map);
        assert_eq!(map.insert(7, 71), Some(70));
        assert_eq!(nodes(&map), after);
        assert_eq!(snapshot.get(&7), Some(&7));
        assert_eq!(nodes(&snapshot).into_iter().collect::<HashSet<_>>(), shared);
    }

    /// A hasher that puts keys in groups of four sharing one full hash, so
    /// a trie holds branches and collision nodes side by side.
    #[derive(Clone, Default)]
    struct Quartets;
    #[derive(Default)]
    struct QuartetsHasher(u64);
    impl std::hash::Hasher for QuartetsHasher {
        fn finish(&self) -> u64 {
            (self.0 / 4).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        }
        fn write(&mut self, bytes: &[u8]) {
            bytes.iter().for_each(|&b| self.0 = self.0 << 8 | u64::from(b));
        }
        fn write_u16(&mut self, n: u16) {
            self.0 = u64::from(n);
        }
    }
    impl BuildHasher for Quartets {
        type Hasher = QuartetsHasher;
        fn build_hasher(&self) -> QuartetsHasher {
            QuartetsHasher::default()
        }
    }

    /// Random inserts and removes while snapshots taken along the way are
    /// kept and dropped: each must read exactly as the map did when taken.
    fn held_snapshots_stay_frozen<S: BuildHasher + Clone>(hasher: S) {
        fn check<S: BuildHasher>(snap: &Hamt<u16, u64, S>, model: &HashMap<u16, u64>) {
            assert_eq!(snap.len(), model.len());
            assert_eq!(snap.iter().count(), model.len());
            for (k, v) in model {
                assert_eq!(snap.get(k), Some(v));
            }
        }
        let mut seed = 0x9e37_79b9u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut map: Hamt<u16, u64, S> = Hamt::with_hasher(hasher);
        let mut model = HashMap::new();
        let mut held = Vec::new();
        for step in 0..3_000 {
            let key = (rng() % 96) as u16;
            if rng() % 3 == 0 {
                assert_eq!(map.remove(&key), model.remove(&key));
            } else {
                let value = rng();
                assert_eq!(map.insert(key, value), model.insert(key, value));
            }
            if step % 37 == 0 {
                held.push((map.clone(), model.clone()));
            }
            if held.len() > 6 {
                let (snap, model) = held.swap_remove(rng() as usize % held.len());
                check(&snap, &model);
            }
        }
        check(&map, &model);
        held.iter().for_each(|(snap, model)| check(snap, model));
    }

    #[test]
    fn held_snapshots_stay_frozen_under_default_hashing() {
        held_snapshots_stay_frozen(RandomState::new());
    }

    #[test]
    fn held_snapshots_stay_frozen_under_colliding_hashes() {
        held_snapshots_stay_frozen(Colliding);
        held_snapshots_stay_frozen(Quartets);
    }
}
