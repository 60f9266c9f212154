//! Data-cache hierarchy timing: banked L1 (centralized or per-cluster),
//! shared L2, and main memory, with real tag arrays, bank-port
//! contention, miss-status merging, and writeback accounting.

use crate::config::{CacheModel, CacheParams};
use crate::interconnect::Interconnect;
use crate::slots::SlotReservations;
use crate::stats::SimStats;

/// A set-associative tag array with true LRU.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// `sets - 1`; the constructor asserts `sets` is a power of two,
    /// so set selection is a mask instead of a modulo.
    set_mask: usize,
    ways: usize,
    line_shift: u32,
    /// (tag, valid, dirty, lru-stamp) per way.
    entries: Vec<(u64, bool, bool, u64)>,
    stamp: u64,
}

/// Result of a tag-array access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty line evicted by the fill, if any.
    pub writeback: Option<u64>,
}

impl CacheArray {
    /// Builds an array of `size` bytes, `ways`-associative, with
    /// `line`-byte lines.
    ///
    /// # Panics
    ///
    /// Panics unless `size / (ways * line)` is a non-zero power of two
    /// and `line` is a power of two.
    pub fn new(size: usize, ways: usize, line: usize) -> CacheArray {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        let sets = size / (ways * line);
        assert!(sets > 0 && sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            set_mask: sets - 1,
            ways,
            line_shift: line.trailing_zeros(),
            entries: vec![(0, false, false, 0); sets * ways],
            stamp: 0,
        }
    }

    /// Accesses `addr`, allocating on miss; marks the line dirty on
    /// writes.
    #[inline]
    pub fn access(&mut self, addr: u64, is_write: bool) -> ArrayAccess {
        let line = addr >> self.line_shift;
        let set = (line as usize & self.set_mask) * self.ways;
        self.stamp += 1;
        for i in set..set + self.ways {
            let e = &mut self.entries[i];
            if e.1 && e.0 == line {
                e.3 = self.stamp;
                e.2 |= is_write;
                return ArrayAccess { hit: true, writeback: None };
            }
        }
        // Miss: fill, evicting LRU (prefer invalid ways).
        let victim = (set..set + self.ways)
            .min_by_key(|&i| if self.entries[i].1 { self.entries[i].3 } else { 0 })
            .expect("ways >= 1");
        let evicted = self.entries[victim];
        let writeback = (evicted.1 && evicted.2).then(|| evicted.0 << self.line_shift);
        self.entries[victim] = (line, true, is_write, self.stamp);
        ArrayAccess { hit: false, writeback }
    }

    /// Whether `addr`'s line is present (no LRU update, no allocation).
    pub fn probe(&self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set = (line as usize & self.set_mask) * self.ways;
        self.entries[set..set + self.ways].iter().any(|e| e.1 && e.0 == line)
    }

    /// Invalidates everything, returning the number of dirty lines.
    pub fn flush(&mut self) -> u64 {
        let mut dirty = 0;
        for e in &mut self.entries {
            if e.1 && e.2 {
                dirty += 1;
            }
            e.1 = false;
            e.2 = false;
        }
        dirty
    }

    /// Number of lines currently valid.
    pub fn valid_lines(&self) -> usize {
        self.entries.iter().filter(|e| e.1).count()
    }
}

/// In-flight line fills, for merging repeated misses: line → ready.
///
/// A flat vector instead of a hash map, because the map sat on the
/// hottest path in the simulator — it was probed on *every* L1 hit
/// (hit-under-fill check) and, growing monotonically between prunes,
/// every probe was a cold hash-table walk. The vector exploits what a
/// general map cannot: a record whose fill completed before the
/// current access began is semantically identical to an absent one
/// (every reader compares `ready` against a time no earlier than the
/// access start, and access starts are non-decreasing), so completed
/// slots are reused in place. The table therefore stays at roughly the
/// peak number of *simultaneously* outstanding fills — a handful of
/// hot cache lines that a linear scan beats a hash probe on.
#[derive(Debug, Clone, Default)]
struct MissTable {
    /// `(line, ready)` records, at most one per line.
    entries: Vec<(u64, u64)>,
}

impl MissTable {
    /// The recorded fill-ready time for `line`, if any (possibly in
    /// the past — callers compare against their own clock, exactly as
    /// with the map this replaces).
    #[inline]
    fn get(&self, line: u64) -> Option<u64> {
        self.entries.iter().find(|e| e.0 == line).map(|e| e.1)
    }

    /// Records `line`'s fill completing at `ready`. `now` is the start
    /// time of the access recording the fill: any slot whose fill
    /// completed before it can never influence a later query (query
    /// clocks are `>= now` because access starts are non-decreasing),
    /// so the first such slot is recycled instead of growing the table.
    fn insert(&mut self, line: u64, ready: u64, now: u64) {
        let mut stale = None;
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.0 == line {
                e.1 = ready;
                return;
            }
            if stale.is_none() && e.1 < now {
                stale = Some(i);
            }
        }
        match stale {
            Some(i) => self.entries[i] = (line, ready),
            None => self.entries.push((line, ready)),
        }
    }

    /// Forgets every in-flight fill.
    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The L1/L2/memory hierarchy with per-bank ports.
#[derive(Debug, Clone)]
pub struct MemHierarchy {
    params: CacheParams,
    banks: Vec<CacheArray>,
    bank_ports: SlotReservations,
    l2: CacheArray,
    l2_port: SlotReservations,
    /// In-flight line fills, for merging repeated misses.
    l1_mshr: MissTable,
    l2_mshr: MissTable,
}

impl MemHierarchy {
    /// Builds the hierarchy for `total_clusters` (the decentralized
    /// model gets one bank per cluster; the centralized model gets
    /// `l1_banks` banks co-located with cluster 0).
    pub fn new(params: &CacheParams, total_clusters: usize) -> MemHierarchy {
        // Word interleaving splits the *data* array for bandwidth; the
        // centralized cache still has one logical tag store (a 32-byte
        // line spans all four banks). The decentralized banks use
        // 8-byte lines, so each per-cluster array is self-contained.
        let (nbanks, banks) = match params.model {
            CacheModel::Centralized => (
                params.l1_banks,
                vec![CacheArray::new(params.l1_size, params.l1_assoc, params.l1_line)],
            ),
            CacheModel::Decentralized => (
                total_clusters,
                (0..total_clusters)
                    .map(|_| {
                        CacheArray::new(params.l1_bank_size, params.l1_assoc, params.l1_bank_line)
                    })
                    .collect(),
            ),
        };
        MemHierarchy {
            params: *params,
            banks,
            bank_ports: SlotReservations::new(nbanks),
            l2: CacheArray::new(params.l2_size, params.l2_assoc, params.l2_line),
            l2_port: SlotReservations::new(1),
            l1_mshr: MissTable::default(),
            l2_mshr: MissTable::default(),
        }
    }

    /// Which organisation this hierarchy implements.
    pub fn model(&self) -> CacheModel {
        self.params.model
    }

    /// The L1 bank servicing `addr` when `active_banks` are in use
    /// (word-interleaved on 8-byte words).
    #[inline]
    pub fn bank_of(&self, addr: u64, active_banks: usize) -> usize {
        (addr >> 3) as usize & (active_banks - 1)
    }

    fn l1_latency(&self) -> u64 {
        match self.params.model {
            CacheModel::Centralized => self.params.l1_latency,
            CacheModel::Decentralized => self.params.l1_bank_latency,
        }
    }

    fn l1_line_shift(&self) -> u32 {
        match self.params.model {
            CacheModel::Centralized => self.params.l1_line.trailing_zeros(),
            CacheModel::Decentralized => self.params.l1_bank_line.trailing_zeros(),
        }
    }

    /// Performs a data access at `bank` starting no earlier than
    /// `start`, returning when the data is available *at the bank*.
    ///
    /// `bank_cluster` is the cluster the bank lives in: for the
    /// decentralized model an L1 miss pays interconnect hops to and
    /// from the L2 home (cluster 0); the centralized L1 is co-located
    /// with the L2 so misses pay none.
    #[allow(clippy::too_many_arguments)] // one call site per access kind; a params struct would obscure it
    pub fn access(
        &mut self,
        net: &mut Interconnect,
        bank: usize,
        bank_cluster: usize,
        addr: u64,
        is_store: bool,
        start: u64,
        stats: &mut SimStats,
    ) -> u64 {
        // Bank port: one access per cycle.
        let t0 = self.bank_ports.reserve(bank, start);
        let array = match self.params.model {
            CacheModel::Centralized => 0,
            CacheModel::Decentralized => bank,
        };
        let line = addr >> self.l1_line_shift();
        let result = self.banks[array].access(addr, is_store);
        if result.hit {
            stats.l1_hits += 1;
            let t = t0 + self.l1_latency();
            // Hit under fill: the tags were allocated at miss time, but
            // the data arrives only when the fill completes.
            if let Some(ready) = self.l1_mshr.get(line) {
                if ready > t {
                    return ready;
                }
            }
            return t;
        }
        stats.l1_misses += 1;
        let miss_seen = t0 + self.l1_latency();
        // Merge with an in-flight fill of the same line.
        if let Some(ready) = self.l1_mshr.get(line) {
            if ready >= miss_seen {
                return ready;
            }
        }
        // The fill evicted a dirty line: one writeback toward L2.
        if result.writeback.is_some() {
            self.l2_port.reserve(0, miss_seen);
        }
        // Request travels to the L2 home if the bank is remote.
        let at_l2 = if self.params.model == CacheModel::Decentralized && bank_cluster != 0 {
            stats.cache_transfers += 1;
            net.transfer(bank_cluster, 0, miss_seen)
        } else {
            miss_seen
        };
        let t1 = self.l2_port.reserve(0, at_l2);
        let l2_line_probe = addr >> self.params.l2_line.trailing_zeros();
        let l2_result = self.l2.access(addr, is_store);
        let data_at_l2 = if l2_result.hit {
            let t = t1 + self.params.l2_latency;
            // Hit under fill at the L2, same as at the L1.
            match self.l2_mshr.get(l2_line_probe) {
                Some(ready) if ready > t => ready,
                _ => t,
            }
        } else {
            stats.l2_misses += 1;
            let l2_line = addr >> self.params.l2_line.trailing_zeros();
            let l2_seen = t1 + self.params.l2_latency;
            match self.l2_mshr.get(l2_line) {
                Some(ready) if ready >= l2_seen => ready,
                _ => {
                    let ready = l2_seen + self.params.mem_latency;
                    self.l2_mshr.insert(l2_line, ready, start);
                    ready
                }
            }
        };
        // Fill returns to the bank.
        let done = if self.params.model == CacheModel::Decentralized && bank_cluster != 0 {
            stats.cache_transfers += 1;
            net.transfer(0, bank_cluster, data_at_l2)
        } else {
            data_at_l2
        };
        self.l1_mshr.insert(line, done, start);
        done
    }

    /// Flushes all L1 banks (decentralized reconfiguration): returns
    /// `(dirty_writebacks, stall_cycles)`. Dirty lines drain through
    /// the banks in parallel, one line per bank per cycle, plus one L2
    /// latency to complete the last write.
    pub fn flush_l1(&mut self) -> (u64, u64) {
        let mut total = 0;
        let mut worst_bank = 0;
        for bank in &mut self.banks {
            let d = bank.flush();
            total += d;
            worst_bank = worst_bank.max(d);
        }
        self.l1_mshr.clear();
        let stall = if total == 0 { 0 } else { worst_bank + self.params.l2_latency };
        (total, stall)
    }

    /// Total valid lines across L1 banks (for tests).
    pub fn l1_valid_lines(&self) -> usize {
        self.banks.iter().map(CacheArray::valid_lines).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{InterconnectParams, Topology};

    #[test]
    fn array_hits_after_fill() {
        let mut c = CacheArray::new(1024, 2, 32);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x11f, false).hit, "same line");
        assert!(!c.access(0x120, false).hit, "next line");
    }

    #[test]
    fn array_lru_eviction_and_writeback() {
        // 2 ways, 1 set: 64-byte cache with 32-byte lines.
        let mut c = CacheArray::new(64, 2, 32);
        c.access(0x000, true); // dirty
        c.access(0x100, false);
        c.access(0x000, false); // touch: 0x100 is now LRU
        let r = c.access(0x200, false); // evicts 0x100 (clean)
        assert_eq!(r.writeback, None);
        let r = c.access(0x300, false); // evicts 0x000 (dirty)
        assert_eq!(r.writeback, Some(0x000));
    }

    #[test]
    fn array_flush_counts_dirty() {
        let mut c = CacheArray::new(1024, 2, 32);
        c.access(0x000, true);
        c.access(0x100, false);
        c.access(0x200, true);
        assert_eq!(c.flush(), 2);
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.access(0x000, false).hit, "flush invalidates");
    }

    fn hierarchy(model: CacheModel) -> (MemHierarchy, Interconnect, SimStats) {
        let params = CacheParams { model, ..CacheParams::default() };
        (
            MemHierarchy::new(&params, 16),
            Interconnect::new(&InterconnectParams { topology: Topology::Ring, hop_latency: 1 }, 16),
            SimStats::default(),
        )
    }

    #[test]
    fn centralized_hit_takes_ram_latency() {
        let (mut m, mut net, mut s) = hierarchy(CacheModel::Centralized);
        let miss = m.access(&mut net, 0, 0, 0x40, false, 100, &mut s);
        assert!(miss > 100 + 6, "cold access must miss");
        let hit = m.access(&mut net, 0, 0, 0x40, false, miss, &mut s);
        assert_eq!(hit, miss + 6);
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.l1_misses, 1);
    }

    #[test]
    fn centralized_miss_pays_l2() {
        let (mut m, mut net, mut s) = hierarchy(CacheModel::Centralized);
        let done = m.access(&mut net, 0, 0, 0x40, false, 0, &mut s);
        // L1 latency + L2 latency + memory (cold L2).
        assert_eq!(done, 6 + 25 + 160);
        assert_eq!(s.l2_misses, 1);
        // Second line in the same L2 line: L2 hit after fill.
        let done2 = m.access(&mut net, 0, 0, 0x60, false, 300, &mut s);
        assert_eq!(done2, 300 + 6 + 25);
    }

    #[test]
    fn mshr_merges_same_line_misses() {
        let (mut m, mut net, mut s) = hierarchy(CacheModel::Centralized);
        let a = m.access(&mut net, 0, 0, 0x40, false, 0, &mut s);
        let b = m.access(&mut net, 0, 0, 0x48, false, 1, &mut s);
        assert_eq!(b, a, "second miss to the line merges with the fill");
    }

    #[test]
    fn bank_port_contention() {
        let (mut m, mut net, mut s) = hierarchy(CacheModel::Centralized);
        m.access(&mut net, 2, 0, 0x50, false, 10, &mut s);
        let warm1 = m.access(&mut net, 2, 0, 0x50, false, 400, &mut s);
        let warm2 = m.access(&mut net, 2, 0, 0x50, false, 400, &mut s);
        assert_eq!(warm2, warm1 + 1, "one access per bank per cycle");
    }

    #[test]
    fn decentralized_remote_miss_pays_hops() {
        let (mut m, mut net, mut s) = hierarchy(CacheModel::Decentralized);
        // Bank at cluster 4; L2 home is cluster 0 → 4 hops each way.
        let done = m.access(&mut net, 4, 4, 0x40, false, 0, &mut s);
        assert_eq!(done, 4 + 4 + (25 + 160) + 4);
        assert_eq!(s.cache_transfers, 2);
        // Local bank at cluster 0 pays no hops.
        let done0 = m.access(&mut net, 0, 0, 0x40, false, 1000, &mut s);
        assert_eq!(done0, 1000 + 4 + 25); // L2 now holds the line
    }

    #[test]
    fn flush_counts_and_stalls() {
        let (mut m, mut net, mut s) = hierarchy(CacheModel::Decentralized);
        m.access(&mut net, 0, 0, 0x00, true, 0, &mut s);
        m.access(&mut net, 0, 0, 0x100, true, 500, &mut s);
        m.access(&mut net, 1, 1, 0x08, true, 500, &mut s);
        let (wb, stall) = m.flush_l1();
        assert_eq!(wb, 3);
        assert_eq!(stall, 2 + 25); // worst bank has 2 dirty lines
        assert_eq!(m.l1_valid_lines(), 0);
        let (wb2, stall2) = m.flush_l1();
        assert_eq!((wb2, stall2), (0, 0));
    }

    #[test]
    fn bank_interleaving_masks_to_active() {
        let (m, _, _) = hierarchy(CacheModel::Decentralized);
        assert_eq!(m.bank_of(0x00, 16), 0);
        assert_eq!(m.bank_of(0x08, 16), 1);
        assert_eq!(m.bank_of(0x78, 16), 15);
        assert_eq!(m.bank_of(0x78, 4), 3);
        assert_eq!(m.bank_of(0x78, 1), 0);
    }
}
