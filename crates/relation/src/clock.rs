//! The workspace's one bounded map: a second-chance (CLOCK) ring.
//!
//! Every size-bounded cache in `fgcite` — citation tokens and
//! compiled plans — is a [`Clock`],
//! so the eviction policy is decided here and nowhere else:
//!
//! * a hit ([`Clock::get`]) sets the slot's referenced bit; the bit is
//!   atomic, so hits need only `&self` and callers mark recency under
//!   a *read* lock;
//! * a newcomer enters **unreferenced**: an entry nobody asks for
//!   again is the next sweep's first victim, so one-off scans cannot
//!   flush entries that are re-touched between two hand visits;
//! * when the ring is full the hand sweeps, sparing (and clearing)
//!   referenced slots, and the newcomer **replaces the first
//!   unreferenced slot in place**; the hand moves past it. The first
//!   lap clears every bit, so a sweep ends within two laps;
//! * **capacity 0 stores nothing** — every insert is a no-op. An
//!   owner that wants "unbounded" passes `usize::MAX`.
//!
//! Eviction only ever loses residency: everything cached here is a
//! deterministic function of the data it was computed from.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, Ordering};

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Second-chance bit. Relaxed: it publishes no other data.
    referenced: AtomicBool,
}

/// A map holding at most `capacity` entries, evicting second-chance
/// (see the module docs for the policy). Not synchronised: wrap it in
/// the lock the owner needs.
#[derive(Debug)]
pub struct Clock<K, V> {
    capacity: usize,
    index: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    hand: usize,
}

impl<K: Hash + Eq + Clone, V> Clock<K, V> {
    /// An empty ring of at most `capacity` entries. Nothing is
    /// allocated up front, so `usize::MAX` is a valid "unbounded".
    pub fn new(capacity: usize) -> Self {
        Clock {
            capacity,
            index: HashMap::new(),
            slots: Vec::new(),
            hand: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Look `key` up, granting its slot a second chance.
    pub fn get(&self, key: &K) -> Option<&V> {
        let slot = &self.slots[*self.index.get(key)?];
        slot.referenced.store(true, Ordering::Relaxed);
        Some(&slot.value)
    }

    /// Store `key → value` and return the entry evicted to make room,
    /// if any. A key already present keeps its value (racing fillers
    /// computed the same thing) and nothing is evicted.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 || self.index.contains_key(&key) {
            return None;
        }
        let newcomer = Slot {
            key: key.clone(),
            value,
            referenced: AtomicBool::new(false),
        };
        if self.slots.len() < self.capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(newcomer);
            return None;
        }
        loop {
            let at = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            if self.slots[at].referenced.swap(false, Ordering::Relaxed) {
                continue; // spared: second chance
            }
            let victim = std::mem::replace(&mut self.slots[at], newcomer);
            self.index.remove(&victim.key);
            self.index.insert(key, at);
            return Some((victim.key, victim.value));
        }
    }

    /// Resident entries in slot order (no recency is granted): the
    /// model test's way to see what is resident without marking it.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slots.iter().map(|s| (&s.key, &s.value))
    }

    /// Drop every entry and rewind the hand.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.hand = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// The textbook formulation CLOCK is an in-place encoding of: a
    /// FIFO queue whose head is the hand. A referenced head is cleared
    /// and re-queued, an unreferenced head is the victim, a newcomer
    /// joins the tail unreferenced.
    struct SecondChanceFifo {
        capacity: usize,
        queue: VecDeque<(u64, bool)>,
    }

    impl SecondChanceFifo {
        fn touch(&mut self, key: u64) -> bool {
            match self.queue.iter_mut().find(|(k, _)| *k == key) {
                Some(entry) => {
                    entry.1 = true;
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, key: u64) -> Option<u64> {
            if self.capacity == 0 || self.queue.iter().any(|(k, _)| *k == key) {
                return None;
            }
            let mut victim = None;
            if self.queue.len() == self.capacity {
                let laps = 2 * self.queue.len();
                for step in 0.. {
                    assert!(step < laps, "sweep ran past two laps");
                    let (head, referenced) = self.queue.pop_front().unwrap();
                    if referenced {
                        // touched since the hand last passed: spared
                        self.queue.push_back((head, false));
                    } else {
                        victim = Some(head);
                        break;
                    }
                }
            }
            self.queue.push_back((key, false));
            victim
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn clock_agrees_with_the_second_chance_fifo_model() {
        for seed in 1..=40u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let capacity = (seed % 6) as usize; // 0..=5, includes disabled
            let keys = 2 * capacity as u64 + 3;
            let mut ring: Clock<u64, u64> = Clock::new(capacity);
            let mut model = SecondChanceFifo {
                capacity,
                queue: VecDeque::new(),
            };
            // per key: accepted inserts minus reported evictions/clears
            let mut resident = vec![0i64; keys as usize];
            for _ in 0..2_000 {
                let key = xorshift(&mut rng) % keys;
                match xorshift(&mut rng) % 100 {
                    0 => {
                        ring.clear();
                        model.queue.clear();
                        resident.fill(0);
                    }
                    1..=45 => {
                        let hit = ring.get(&key).copied();
                        assert_eq!(hit.is_some(), model.touch(key), "seed {seed}");
                        assert!(hit.is_none_or(|v| v == key * 10));
                    }
                    _ => {
                        let was_present = ring.iter().any(|(k, _)| *k == key);
                        let len_before = ring.len();
                        let evicted = ring.insert(key, key * 10);
                        assert_eq!(evicted.map(|(k, _)| k), model.insert(key), "seed {seed}");
                        if was_present {
                            // re-inserting a present key is a no-op
                            assert_eq!((evicted, ring.len()), (None, len_before));
                        } else if capacity > 0 {
                            resident[key as usize] += 1;
                        }
                        if let Some((victim, value)) = evicted {
                            assert_eq!(value, victim * 10);
                            resident[victim as usize] -= 1;
                        }
                    }
                }
                assert!(ring.len() <= capacity, "seed {seed}");
                assert_eq!(ring.len(), model.queue.len());
                assert_eq!(ring.is_empty(), model.queue.is_empty());
                // reported evicted exactly once ⇔ the books balance
                for (key, &count) in resident.iter().enumerate() {
                    let present = ring.iter().any(|(k, _)| *k == key as u64);
                    assert_eq!(count, i64::from(present), "seed {seed} key {key}");
                }
            }
        }
    }
}
