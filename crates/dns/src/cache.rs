//! The one bounded TTL cache of the client stack.
//!
//! The resolver caches answers under `(name, type)`; a client session
//! caches what each endpoint advertised and what each cell discovered.
//! All three are the same store: entries live until their TTL on the
//! caller's clock, and an insert past the capacity bound first purges
//! every expired entry, then evicts the least recently used live one.
//!
//! Recency, not nearness to expiry, picks the victim. A fresh entry
//! with a short TTL — a negative answer (60 s) among 300 s answers, a
//! dead mark (30 s) among advertisements — is the newest knowledge the
//! cache holds; evicting it first would re-walk a nonexistent name on
//! every lookup, or hand a replica that just failed back to replica
//! selection. Recency is a use counter, not a clock reading, so seeded
//! runs replay identically.

use std::collections::HashMap;
use std::hash::Hash;

/// A TTL- and capacity-bounded map (module docs). Values are handed out
/// by reference; callers that share them keep `Arc`s in it.
#[derive(Debug)]
pub struct TtlCache<K, V> {
    entries: HashMap<K, Entry<V>>,
    cap: usize,
    /// Bumped by every insert and hit; an entry's `last_used` is the
    /// value it last saw, so the smallest is the least recently used.
    uses: u64,
    /// Expired entries dropped to make room for an insert.
    pub purged: u64,
    /// Live entries evicted to hold the capacity bound.
    pub evicted: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    expires_us: u64,
    last_used: u64,
}

impl<K: Eq + Hash + Clone, V> TtlCache<K, V> {
    /// An empty cache holding at most `cap` entries (and always the one
    /// just inserted).
    pub fn new(cap: usize) -> Self {
        Self {
            entries: HashMap::new(),
            cap,
            uses: 0,
            purged: 0,
            evicted: 0,
        }
    }

    /// The fresh value under `key`, which becomes the most recently
    /// used. An expired entry is removed, not returned: staleness and
    /// absence look identical to callers.
    pub fn get(&mut self, key: &K, now_us: u64) -> Option<&V> {
        if self.entries.get(key)?.expires_us <= now_us {
            self.entries.remove(key);
            return None;
        }
        self.uses += 1;
        let entry = self.entries.get_mut(key)?;
        entry.last_used = self.uses;
        Some(&entry.value)
    }

    /// Inserts (or replaces) `key`, expiring `ttl_us` from `now_us`.
    /// Past the capacity bound, every expired entry is purged, then the
    /// least recently used live entries are evicted — never the one just
    /// inserted.
    pub fn insert(&mut self, key: K, value: V, now_us: u64, ttl_us: u64) {
        self.uses += 1;
        let entry = Entry {
            value,
            expires_us: now_us.saturating_add(ttl_us),
            last_used: self.uses,
        };
        self.entries.insert(key, entry);
        if self.entries.len() <= self.cap {
            return;
        }
        let before = self.entries.len();
        self.entries.retain(|_, entry| entry.expires_us > now_us);
        self.purged += (before - self.entries.len()) as u64;
        // The entry just inserted holds the highest use count, so it is
        // the last candidate; `max(1)` keeps it even at capacity 0.
        while self.entries.len() > self.cap.max(1) {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
                .expect("a cache over its capacity is not empty");
            self.entries.remove(&victim);
            self.evicted += 1;
        }
    }

    /// Drops `key`, if cached.
    pub fn remove(&mut self, key: &K) {
        self.entries.remove(key);
    }

    /// Drops every entry; the counters keep their totals.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Live (unexpired) values. Expired entries awaiting lazy removal
    /// are dead weight, not cached knowledge, and are not yielded.
    pub fn live(&self, now_us: u64) -> impl Iterator<Item = &V> {
        self.entries
            .values()
            .filter(move |entry| entry.expires_us > now_us)
            .map(|entry| &entry.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL_US: u64 = 300 * 1_000_000;

    #[test]
    fn expired_entries_are_evicted_before_live_ones() {
        let mut cache: TtlCache<u64, ()> = TtlCache::new(4);
        // Two entries that will be long dead...
        cache.insert(1, (), 0, 1_000);
        cache.insert(2, (), 0, 1_000);
        // ...then four live ones, overflowing the cap of 4.
        for cell in 10..14u64 {
            cache.insert(cell, (), 10_000, TTL_US);
        }
        // The expired pair was purged; every live entry kept its slot.
        assert_eq!(cache.live(10_000).count(), 4);
        assert_eq!((cache.purged, cache.evicted), (2, 0));
        for cell in 10..14u64 {
            assert!(
                cache.get(&cell, 10_000).is_some(),
                "live cell {cell} must not be displaced by expired entries"
            );
        }
    }

    #[test]
    fn a_hit_protects_an_entry_and_a_short_ttl_does_not_doom_it() {
        let mut cache: TtlCache<u64, ()> = TtlCache::new(3);
        for key in 0..3u64 {
            cache.insert(key, (), 0, TTL_US);
        }
        // Touching 0 makes 1 the least recently used.
        assert!(cache.get(&0, 1).is_some());
        // A short-lived insert evicts by recency, not by its own expiry.
        cache.insert(9, (), 2, 1_000);
        assert_eq!((cache.purged, cache.evicted), (0, 1));
        assert!(cache.get(&1, 3).is_none());
        for key in [0, 2, 9] {
            assert!(cache.get(&key, 3).is_some(), "{key} evicted");
        }
    }
}
