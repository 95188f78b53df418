//! The master's prefetch buffer (§V): a fixed-capacity LRU cache over a
//! dense key space.
//!
//! The keys are node ids, so the cache is sized up front for the whole id
//! range and indexes it with a plain array: a lookup is one read of
//! `index[key]`, never a hash. Slots live in three parallel arrays:
//!
//! - `links`: the `[prev, next]` recency links, 8 bytes per slot. A hit
//!   relinks through this array only.
//! - `keys`: the key each slot holds, read only to clear the index on
//!   eviction.
//! - `values`: the cached values, read on a hit.
//!
//! Slots are allocated on first use up to the capacity and recycled from
//! the least-recently-used end after that, so eviction order is exact LRU.

/// Marks an empty index entry and the ends of the recency list.
const NIL: u32 = u32::MAX;
const PREV: usize = 0;
const NEXT: usize = 1;

/// A fixed-capacity LRU cache from `u32` keys in `0..num_keys` (node ids)
/// to values.
///
/// `get`, `insert`, and eviction are all `O(1)`. This is the buffer the
/// master dedicates to prefetched node neighborhoods, "using an LRU
/// replacement strategy to evict nodes".
///
/// ```
/// use dataflow::LruCache;
/// let mut c = LruCache::new(4, 2);
/// c.insert(1, "a");
/// c.insert(2, "b");
/// c.get(1);           // 1 is now most recently used
/// c.insert(3, "c");   // evicts 2
/// assert!(c.get(2).is_none());
/// assert_eq!(c.get(1), Some(&"a"));
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<V> {
    /// Slot holding each key, or `NIL`; one entry per key.
    index: Vec<u32>,
    /// `[prev, next]` recency links per slot.
    links: Vec<[u32; 2]>,
    keys: Vec<u32>,
    values: Vec<V>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: usize,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries with keys in
    /// `0..num_keys`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `num_keys >= u32::MAX` (the index
    /// reserves `u32::MAX` as its empty marker).
    pub fn new(num_keys: usize, capacity: usize) -> Self {
        // Constructor contract, unreachable from cluster paths: ClusterConfig
        // validation rejects zero buffer capacities before a cache is built,
        // and node ids are u32.
        assert!(capacity > 0, "capacity must be positive"); // xtask-allow: no-panic
        assert!(num_keys < NIL as usize, "num_keys must be below u32::MAX"); // xtask-allow: no-panic
        let slots = capacity.min(num_keys);
        LruCache {
            index: vec![NIL; num_keys],
            links: Vec::with_capacity(slots),
            keys: Vec::with_capacity(slots),
            values: Vec::with_capacity(slots),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `key` is cached (does not touch recency).
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the key space.
    pub fn contains(&self, key: u32) -> bool {
        self.index[key as usize] != NIL
    }

    fn detach(&mut self, slot: u32) {
        let [p, n] = self.links[slot as usize];
        if p != NIL {
            self.links[p as usize][NEXT] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.links[n as usize][PREV] = p;
        } else {
            self.tail = p;
        }
    }

    fn push_front(&mut self, slot: u32) {
        self.links[slot as usize] = [NIL, self.head];
        if self.head != NIL {
            self.links[self.head as usize][PREV] = slot;
        } else {
            self.tail = slot;
        }
        self.head = slot;
    }

    /// Marks `slot` most recently used.
    fn touch(&mut self, slot: u32) {
        if slot != self.head {
            self.detach(slot);
            self.push_front(slot);
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the key space.
    pub fn get(&mut self, key: u32) -> Option<&V> {
        let slot = self.index[key as usize];
        if slot == NIL {
            return None;
        }
        self.touch(slot);
        Some(&self.values[slot as usize])
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used entry
    /// when full. Returns the evicted `(key, value)` pair, if any.
    ///
    /// # Panics
    ///
    /// Panics if `key` is outside the key space.
    pub fn insert(&mut self, key: u32, value: V) -> Option<(u32, V)> {
        let slot = self.index[key as usize];
        if slot != NIL {
            self.values[slot as usize] = value;
            self.touch(slot);
            return None;
        }
        if self.keys.len() < self.capacity {
            // Fewer than `num_keys < u32::MAX` slots are ever allocated.
            let slot = self.keys.len() as u32;
            self.links.push([NIL, NIL]);
            self.keys.push(key);
            self.values.push(value);
            self.index[key as usize] = slot;
            self.push_front(slot);
            return None;
        }
        // Recycle the LRU slot.
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "full cache must have a tail");
        self.detach(victim);
        let old_key = std::mem::replace(&mut self.keys[victim as usize], key);
        self.index[old_key as usize] = NIL;
        self.index[key as usize] = victim;
        let old_value = std::mem::replace(&mut self.values[victim as usize], value);
        self.push_front(victim);
        Some((old_key, old_value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(4, 2);
        assert!(c.insert(1, 'a').is_none());
        assert!(c.insert(2, 'b').is_none());
        let evicted = c.insert(3, 'c').expect("full cache evicts");
        assert_eq!(evicted, (1, 'a'));
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3));
    }

    #[test]
    fn get_refreshes_recency() {
        let mut c = LruCache::new(4, 2);
        c.insert(1, 'a');
        c.insert(2, 'b');
        assert_eq!(c.get(1), Some(&'a'));
        let evicted = c.insert(3, 'c').expect("full cache evicts");
        assert_eq!(evicted.0, 2, "2 was least recently used");
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut c = LruCache::new(4, 2);
        c.insert(1, 'a');
        c.insert(2, 'b');
        assert!(c.insert(1, 'z').is_none());
        assert_eq!(c.get(1), Some(&'z'));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_one_thrashes_correctly() {
        let mut c = LruCache::new(4, 1);
        c.insert(1, 1);
        assert_eq!(c.insert(2, 2), Some((1, 1)));
        assert_eq!(c.insert(3, 3), Some((2, 2)));
        assert_eq!(c.get(3), Some(&3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn long_mixed_workload_matches_reference_model() {
        // Compare against a naive Vec-based LRU model.
        let mut c = LruCache::new(10, 4);
        let mut model: Vec<(u32, u64)> = Vec::new(); // front = MRU
        let mut x: u64 = 12345;
        for step in 0..2000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = ((x >> 33) % 10) as u32;
            if step % 3 == 0 {
                // get
                let hit = c.get(key).copied();
                let model_hit = model.iter().position(|&(k, _)| k == key).map(|i| {
                    let e = model.remove(i);
                    model.insert(0, e);
                    e.1
                });
                assert_eq!(hit, model_hit, "step {step} key {key}");
            } else {
                c.insert(key, step);
                if let Some(i) = model.iter().position(|&(k, _)| k == key) {
                    model.remove(i);
                } else if model.len() == 4 {
                    model.pop();
                }
                model.insert(0, (key, step));
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = LruCache::<u8>::new(4, 0);
    }
}
