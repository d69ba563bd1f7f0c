//! A read-through LRU buffer pool.
//!
//! The pool holds *clean* copies only: every mutation is logged to the
//! write-ahead log before the image is cached, so an evicted page is
//! always recoverable from the log (or from the store once a checkpoint
//! has copied it there). Eviction therefore never writes anything back —
//! it just drops the copy and gets counted.
//!
//! Exact LRU at O(1) per operation. Resident pages live in a slab of
//! frames threaded by an intrusive doubly-linked list, most recently used
//! first, and one hash table maps a [`PageId`] to its frame, hashed by
//! [`PageIdHasher`]. A hit is one table probe, a relink (skipped when the
//! page is already the most recent) and an `Arc` clone. An eviction
//! unlinks the tail. Slots a `remove` or a shrink frees go on a free list,
//! so the slab never grows past the capacity.
//!
//! The pool sits on the query path: with `expand()` zero-copy, a warm
//! k-NN query spends no page (de)serialization work to hide pool
//! bookkeeping behind, and every node and leaf it expands is one hit.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::page::PageId;

/// Hasher for [`PageId`] keys: one multiply by an odd 64-bit constant,
/// folded so the low bits (the table's bucket index) depend on every
/// bit of the id. Page ids are dense integers the page file allocates;
/// a file crafted to make its ids collide slows only its own reads, so
/// SipHash's flooding resistance buys nothing here.
#[derive(Clone, Copy, Default)]
pub(crate) struct PageIdHasher(u64);

/// 2^64 / φ, the Fibonacci-hashing multiplier.
const PAGE_ID_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for PageIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        let h = (self.0 ^ id).wrapping_mul(PAGE_ID_MUL);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
}

/// A hash map keyed by [`PageId`], hashed by [`PageIdHasher`].
pub(crate) type PageIdMap<V> = HashMap<PageId, V, BuildHasherDefault<PageIdHasher>>;

/// "No frame": the end of the LRU list.
const NIL: usize = usize::MAX;

struct Frame {
    id: PageId,
    /// Shared, immutable page image: a hit hands the caller a cheap
    /// `Arc` clone instead of copying the page, and eviction is safe
    /// while readers still hold the image. `None` in a free slot.
    data: Option<Arc<[u8]>>,
    /// Next more recently used frame, or [`NIL`] at the head.
    prev: usize,
    /// Next less recently used frame, or [`NIL`] at the tail.
    next: usize,
}

/// LRU cache of page images. `capacity == 0` disables caching entirely —
/// the mode query experiments run in so logical reads equal physical reads.
pub struct LruCache {
    capacity: usize,
    /// Resident page → its slot in `frames`.
    map: PageIdMap<usize>,
    frames: Vec<Frame>,
    /// Slots of `frames` that hold no page.
    free: Vec<usize>,
    /// Most recently used frame.
    head: usize,
    /// Least recently used frame: the next victim.
    tail: usize,
}

impl LruCache {
    /// Create a cache holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: PageIdMap::default(),
            frames: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of resident pages.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Detach `slot` from the LRU list.
    fn unlink(&mut self, slot: usize) {
        let Some(f) = self.frames.get(slot) else {
            return;
        };
        let (prev, next) = (f.prev, f.next);
        match self.frames.get_mut(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.frames.get_mut(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    /// Link a detached `slot` in as the most recently used frame.
    fn push_front(&mut self, slot: usize) {
        let head = self.head;
        let Some(f) = self.frames.get_mut(slot) else {
            return;
        };
        f.prev = NIL;
        f.next = head;
        match self.frames.get_mut(head) {
            Some(h) => h.prev = slot,
            None => self.tail = slot,
        }
        self.head = slot;
    }

    /// Make a resident `slot` the most recently used frame.
    #[inline]
    fn touch(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    /// Drop the page in a resident `slot` and free the slot.
    fn release(&mut self, slot: usize) {
        self.unlink(slot);
        if let Some(f) = self.frames.get_mut(slot) {
            f.data = None;
            self.map.remove(&f.id);
        }
        self.free.push(slot);
    }

    /// Evict the least recently used page; `false` if none is resident.
    fn evict_lru(&mut self) -> bool {
        let victim = self.tail;
        if victim == NIL {
            return false;
        }
        self.release(victim);
        true
    }

    /// Look up a page, refreshing its recency. The returned image is a
    /// shared handle — no page bytes are copied on a hit.
    pub fn get(&mut self, id: PageId) -> Option<Arc<[u8]>> {
        let slot = *self.map.get(&id)?;
        self.touch(slot);
        self.frames.get(slot)?.data.clone()
    }

    /// Insert (or overwrite) a page image. Returns whether a resident
    /// page was evicted to make room.
    pub fn insert(&mut self, id: PageId, data: Arc<[u8]>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&slot) = self.map.get(&id) {
            if let Some(f) = self.frames.get_mut(slot) {
                f.data = Some(data);
            }
            self.touch(slot);
            return false;
        }
        let evicted = self.map.len() >= self.capacity && self.evict_lru();
        let frame = Frame {
            id,
            data: Some(data),
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                if let Some(f) = self.frames.get_mut(slot) {
                    *f = frame;
                }
                slot
            }
            None => {
                self.frames.push(frame);
                self.frames.len() - 1
            }
        };
        self.push_front(slot);
        self.map.insert(id, slot);
        evicted
    }

    /// Drop a page (used by `free`).
    pub fn remove(&mut self, id: PageId) {
        if let Some(&slot) = self.map.get(&id) {
            self.release(slot);
        }
    }

    /// Change capacity; returns how many pages a shrink evicted.
    pub fn set_capacity(&mut self, capacity: usize) -> usize {
        self.capacity = capacity;
        let mut spilled = 0;
        while self.map.len() > self.capacity && self.evict_lru() {
            spilled += 1;
        }
        spilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, VecDeque};

    fn page(b: u8) -> Arc<[u8]> {
        Arc::from(vec![b; 8])
    }

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(2);
        assert!(c.get(1).is_none());
        assert!(!c.insert(1, page(1)));
        assert_eq!(c.get(1).unwrap()[0], 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert!(!c.insert(1, page(1)));
        assert!(!c.insert(2, page(2)));
        let _ = c.get(1); // 2 is now LRU
        assert!(c.insert(3, page(3)), "full pool must evict");
        assert!(c.get(2).is_none(), "page 2 was LRU and should be gone");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn overwrite_refreshes_data_without_evicting() {
        let mut c = LruCache::new(1);
        assert!(!c.insert(1, page(1)));
        assert!(!c.insert(1, page(9)), "overwrite is not an eviction");
        assert_eq!(c.get(1).unwrap()[0], 9, "newest image wins");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = LruCache::new(0);
        assert!(c.is_empty());
        assert!(!c.insert(1, page(1)));
        assert!(c.get(1).is_none());
        assert_eq!(c.len(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn shrink_counts_spills() {
        let mut c = LruCache::new(3);
        assert!(!c.insert(1, page(1)));
        assert!(!c.insert(2, page(2)));
        assert!(!c.insert(3, page(3)));
        assert_eq!(c.set_capacity(1), 2, "two pages must leave the pool");
        assert_eq!(c.len(), 1);
        assert_eq!(c.set_capacity(1), 0, "already at capacity");
    }

    #[test]
    fn remove_discards_silently() {
        let mut c = LruCache::new(2);
        assert!(!c.insert(1, page(1)));
        c.remove(1);
        assert!(c.get(1).is_none());
    }

    /// The obvious LRU: a deque of `(id, image byte)`, most recent first.
    struct Reference {
        capacity: usize,
        pages: VecDeque<(PageId, u8)>,
    }

    impl Reference {
        fn take(&mut self, id: PageId) -> Option<u8> {
            let pos = self.pages.iter().position(|&(p, _)| p == id)?;
            self.pages.remove(pos).map(|(_, b)| b)
        }

        fn get(&mut self, id: PageId) -> Option<u8> {
            let b = self.take(id)?;
            self.pages.push_front((id, b));
            Some(b)
        }

        fn insert(&mut self, id: PageId, b: u8) -> bool {
            if self.capacity == 0 {
                return false;
            }
            let evicted = self.take(id).is_none()
                && self.pages.len() >= self.capacity
                && self.pages.pop_back().is_some();
            self.pages.push_front((id, b));
            evicted
        }

        fn set_capacity(&mut self, capacity: usize) -> usize {
            self.capacity = capacity;
            let mut spilled = 0;
            while self.pages.len() > capacity && self.pages.pop_back().is_some() {
                spilled += 1;
            }
            spilled
        }
    }

    /// The pool's resident ids, most recently used first, walked along
    /// the intrusive list (and checked against the map on the way).
    fn lru_order(c: &LruCache) -> Vec<PageId> {
        let mut order = Vec::new();
        let mut prev = NIL;
        let mut slot = c.head;
        while let Some(f) = c.frames.get(slot) {
            assert_eq!(f.prev, prev, "back link of slot {slot}");
            assert_eq!(c.map.get(&f.id), Some(&slot), "map entry of page {}", f.id);
            assert!(f.data.is_some(), "resident slot {slot} holds no image");
            order.push(f.id);
            prev = slot;
            slot = f.next;
            assert!(order.len() <= c.frames.len(), "the LRU list has a cycle");
        }
        assert_eq!(c.tail, prev, "tail is the last frame of the list");
        order
    }

    /// Drive the pool and the reference through the same seeded random
    /// operations, capacity 0 and shrinks included, and require the same
    /// answer from both at every step.
    #[test]
    fn matches_a_reference_lru_on_random_operations() {
        let mut state = 0x5EED_u64;
        let mut next = move |n: u64| {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        for run in 0..40 {
            let capacity = usize::try_from(next(6)).unwrap();
            let mut pool = LruCache::new(capacity);
            let mut model = Reference {
                capacity,
                pages: VecDeque::new(),
            };
            let ids = 1 + next(16);
            for step in 0..400 {
                let ctx = format!("run {run} step {step}");
                let id = next(ids);
                let slab_before = pool.frames.len();
                match next(20) {
                    0..=8 => {
                        let got = pool.get(id).map(|d| d[0]);
                        assert_eq!(got, model.get(id), "{ctx}: get({id})");
                    }
                    9..=15 => {
                        let b = u8::try_from(next(256)).unwrap();
                        let got = pool.insert(id, page(b));
                        assert_eq!(got, model.insert(id, b), "{ctx}: insert({id}) evicted");
                    }
                    16..=17 => {
                        pool.remove(id);
                        model.take(id);
                    }
                    _ => {
                        let cap = usize::try_from(next(7)).unwrap();
                        let spilled = pool.set_capacity(cap);
                        assert_eq!(spilled, model.set_capacity(cap), "{ctx}: spills to {cap}");
                    }
                }
                let want: Vec<PageId> = model.pages.iter().map(|&(p, _)| p).collect();
                assert_eq!(lru_order(&pool), want, "{ctx}: LRU order");
                assert_eq!(
                    pool.map.keys().copied().collect::<BTreeSet<_>>(),
                    want.iter().copied().collect::<BTreeSet<_>>(),
                    "{ctx}: resident set"
                );
                assert_eq!(pool.len(), want.len(), "{ctx}: resident count");
                assert!(
                    pool.frames.len() <= slab_before.max(pool.capacity),
                    "{ctx}: the slab grew to {} past capacity {} instead of reusing a free slot",
                    pool.frames.len(),
                    pool.capacity
                );
                assert_eq!(
                    pool.free.len() + pool.len(),
                    pool.frames.len(),
                    "{ctx}: every slot is resident or free"
                );
            }
        }
    }
}
