//! Load/store-queue slices: occupancy, memory disambiguation, and
//! store-to-load forwarding bookkeeping.
//!
//! The centralized model has one slice (co-located with cluster 0,
//! `15 × N` entries); the decentralized model has one 15-entry slice
//! per cluster, where a store additionally occupies a *dummy* slot in
//! every other active slice until its address broadcast arrives
//! (paper §5, after Zyuban & Kogge).

use clustered_emu::FastMap;

/// One load/store queue slice.
///
/// The disambiguation sets are sorted vectors, not `BTreeSet`s: a
/// slice holds at most its capacity (15 by default) entries, stores
/// arrive in program order (append), and the hot queries — "any
/// unresolved store older than this load?" — read only the front.
#[derive(Debug, Clone, Default)]
pub struct LsqSlice {
    capacity: usize,
    used: usize,
    /// Stores whose address is not yet known *at this slice*,
    /// ascending by seq.
    unresolved_stores: Vec<u64>,
    /// Loads that arrived but found an earlier unresolved store,
    /// ascending by seq.
    parked_loads: Vec<u64>,
    /// Resolved stores by 8-byte word: word → (store seq, time the
    /// data is available here), for forwarding.
    store_words: FastMap<u64, Vec<(u64, u64)>>,
}

impl LsqSlice {
    /// An empty slice holding up to `capacity` entries.
    pub fn new(capacity: usize) -> LsqSlice {
        LsqSlice { capacity, ..LsqSlice::default() }
    }

    /// Whether a new entry can be allocated.
    #[inline]
    pub fn has_space(&self) -> bool {
        self.used < self.capacity
    }

    /// Current occupancy.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.used
    }

    /// Configured capacity (the auditor checks `occupancy ≤ capacity`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Allocates one slot (real entry or dummy).
    ///
    /// # Panics
    ///
    /// Panics if the slice is full; callers must check
    /// [`LsqSlice::has_space`] first.
    #[inline]
    pub fn allocate(&mut self) {
        assert!(self.used < self.capacity, "LSQ overflow");
        self.used += 1;
    }

    /// Releases one slot.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    #[inline]
    pub fn release(&mut self) {
        assert!(self.used > 0, "LSQ underflow");
        self.used -= 1;
    }

    /// Records that store `seq`'s address is not yet known here.
    /// Dispatch calls this in program order, so the common case is a
    /// plain append; the sorted insert is kept for arbitrary callers.
    pub fn add_unresolved_store(&mut self, seq: u64) {
        match self.unresolved_stores.last() {
            Some(&last) if last > seq => {
                let pos = self.unresolved_stores.partition_point(|&s| s < seq);
                self.unresolved_stores.insert(pos, seq);
            }
            _ => self.unresolved_stores.push(seq),
        }
    }

    /// Whether a load at `seq` must wait for an earlier store's
    /// address.
    #[inline]
    pub fn blocked(&self, seq: u64) -> bool {
        self.unresolved_stores.first().is_some_and(|&s| s < seq)
    }

    /// Parks a blocked load.
    pub fn park(&mut self, seq: u64) {
        let pos = self.parked_loads.partition_point(|&s| s < seq);
        self.parked_loads.insert(pos, seq);
    }

    /// Marks store `seq` resolved here; returns the parked loads that
    /// may now proceed, oldest first.
    pub fn resolve_store(&mut self, seq: u64) -> Vec<u64> {
        if let Ok(i) = self.unresolved_stores.binary_search(&seq) {
            self.unresolved_stores.remove(i);
        }
        let horizon = self.unresolved_stores.first().copied().unwrap_or(u64::MAX);
        let n = self.parked_loads.partition_point(|&s| s < horizon);
        self.parked_loads.drain(..n).collect()
    }

    /// Records a resolved store's word for forwarding, with the time
    /// its data is available at this slice.
    pub fn record_store_data(&mut self, word: u64, seq: u64, avail: u64) {
        self.store_words.entry(word).or_default().push((seq, avail));
    }

    /// The latest store older than `load_seq` to the same word, if
    /// any: `(store_seq, data_available_at)`.
    #[inline]
    pub fn forward_source(&self, word: u64, load_seq: u64) -> Option<(u64, u64)> {
        self.store_words
            .get(&word)?
            .iter()
            .filter(|&&(s, _)| s < load_seq)
            .max_by_key(|&&(s, _)| s)
            .copied()
    }

    /// Updates a store's forwarding record once its data is known
    /// (records are created with `u64::MAX` when the address resolves
    /// before the value is computed). A missing record is fine — the
    /// broadcast may still be in flight and will record the final time.
    pub fn update_store_data(&mut self, word: u64, seq: u64, avail: u64) {
        if let Some(v) = self.store_words.get_mut(&word) {
            for entry in v.iter_mut() {
                if entry.0 == seq {
                    entry.1 = avail;
                }
            }
        }
    }

    /// Removes a committed store's forwarding record.
    pub fn remove_store_data(&mut self, word: u64, seq: u64) {
        if let Some(v) = self.store_words.get_mut(&word) {
            v.retain(|&(s, _)| s != seq);
            if v.is_empty() {
                self.store_words.remove(&word);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_accounting() {
        let mut s = LsqSlice::new(2);
        assert!(s.has_space());
        s.allocate();
        s.allocate();
        assert!(!s.has_space());
        s.release();
        assert!(s.has_space());
        assert_eq!(s.occupancy(), 1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut s = LsqSlice::new(1);
        s.allocate();
        s.allocate();
    }

    #[test]
    fn blocking_respects_program_order() {
        let mut s = LsqSlice::new(8);
        s.add_unresolved_store(10);
        assert!(!s.blocked(5), "load older than the store is not blocked");
        assert!(s.blocked(11), "load younger than an unresolved store is blocked");
        s.resolve_store(10);
        assert!(!s.blocked(11));
    }

    #[test]
    fn resolve_frees_parked_loads_up_to_next_unresolved() {
        let mut s = LsqSlice::new(8);
        s.add_unresolved_store(10);
        s.add_unresolved_store(20);
        s.park(12);
        s.park(25);
        let freed = s.resolve_store(10);
        assert_eq!(freed, vec![12], "25 still blocked by store 20");
        let freed = s.resolve_store(20);
        assert_eq!(freed, vec![25]);
    }

    #[test]
    fn forwarding_picks_latest_older_store() {
        let mut s = LsqSlice::new(8);
        s.record_store_data(100, 5, 50);
        s.record_store_data(100, 8, 80);
        s.record_store_data(100, 12, 120);
        assert_eq!(s.forward_source(100, 10), Some((8, 80)));
        assert_eq!(s.forward_source(100, 6), Some((5, 50)));
        assert_eq!(s.forward_source(100, 5), None, "same-age store is not older");
        assert_eq!(s.forward_source(101, 10), None, "different word");
        s.remove_store_data(100, 8);
        assert_eq!(s.forward_source(100, 10), Some((5, 50)));
    }
}
