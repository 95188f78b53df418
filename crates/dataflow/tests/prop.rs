//! Property-based tests for the master's LRU prefetch buffer.
//!
//! The reference model is a naive `Vec` ordered most-recently-used first;
//! the cache must agree with it on hits, evictions, and recency under
//! arbitrary operation sequences over its whole declared key space.

use dataflow::LruCache;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u64),
    Get(u32),
}

fn op_strategy(keys: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..keys, 0u64..1000).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..keys).prop_map(Op::Get),
    ]
}

/// A key space, a capacity anywhere from 1 to twice the key space (so
/// both a buffer that must evict and one that never fills), and an
/// operation sequence drawing keys from the whole space.
fn workload() -> impl Strategy<Value = (u32, usize, Vec<Op>)> {
    (1u32..24).prop_flat_map(|num_keys| {
        (
            Just(num_keys),
            1usize..2 * num_keys as usize + 1,
            proptest::collection::vec(op_strategy(num_keys), 1..300),
        )
    })
}

/// Front = most recently used, like the cache's internal recency list.
struct Model {
    entries: Vec<(u32, u64)>,
    capacity: usize,
}

impl Model {
    fn get(&mut self, key: u32) -> Option<u64> {
        let i = self.entries.iter().position(|&(k, _)| k == key)?;
        let e = self.entries.remove(i);
        self.entries.insert(0, e);
        Some(e.1)
    }

    fn insert(&mut self, key: u32, value: u64) -> Option<(u32, u64)> {
        if let Some(i) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(i);
            self.entries.insert(0, (key, value));
            return None;
        }
        let evicted = if self.entries.len() == self.capacity {
            self.entries.pop()
        } else {
            None
        };
        self.entries.insert(0, (key, value));
        evicted
    }
}

proptest! {
    /// Capacity is never exceeded, `get` promotes recency, eviction order
    /// is exactly LRU, and `insert` returns the evicted pair exactly when
    /// the cache is full and the key is new.
    #[test]
    fn lru_cache_matches_reference_model((num_keys, capacity, ops) in workload()) {
        let mut cache = LruCache::new(num_keys as usize, capacity);
        let mut model = Model { entries: Vec::new(), capacity };

        for op in ops {
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(cache.get(k).copied(), model.get(k));
                }
                Op::Insert(k, v) => {
                    let was_full = cache.len() == capacity;
                    let was_present = cache.contains(k);
                    let evicted = cache.insert(k, v);
                    prop_assert_eq!(evicted, model.insert(k, v));
                    // An eviction happens exactly when a new key lands in
                    // a full cache.
                    prop_assert_eq!(evicted.is_some(), was_full && !was_present);
                }
            }
            prop_assert!(cache.len() <= capacity, "capacity exceeded");
            prop_assert_eq!(cache.len(), model.entries.len());
            // contains() must not disturb recency: checked across the
            // whole key space, without get(), which would promote.
            for k in 0..num_keys {
                let cached = model.entries.iter().any(|&(m, _)| m == k);
                prop_assert_eq!(cache.contains(k), cached, "key {}", k);
            }
        }
    }

    /// In a full cache, touching a key with `get` protects it from the
    /// next eviction.
    #[test]
    fn get_protects_against_the_next_eviction(
        capacity in 2usize..6,
        touch_raw in 0u32..16,
        fresh_raw in 0u32..10,
    ) {
        let num_keys = capacity as u32 + 10;
        let mut cache = LruCache::new(num_keys as usize, capacity);
        for k in 0..capacity as u32 {
            cache.insert(k, u64::from(k));
        }
        // Promote a resident key, then insert a brand-new one: the
        // promoted key must survive the eviction.
        let resident = touch_raw % capacity as u32;
        let fresh = capacity as u32 + fresh_raw;
        cache.get(resident);
        let evicted = cache.insert(fresh, 7).expect("full cache evicts");
        prop_assert_ne!(evicted.0, resident, "most recently used key was evicted");
        prop_assert!(cache.contains(resident));
        prop_assert!(cache.contains(fresh));
    }
}

/// The key space is fixed at construction: a key past it is a caller
/// bug, not a key to grow the index for.
#[test]
#[should_panic(expected = "index out of bounds")]
fn key_outside_the_key_space_is_rejected() {
    let mut cache = LruCache::new(8, 4);
    cache.insert(8, 0u64);
}
