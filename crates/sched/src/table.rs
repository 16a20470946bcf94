//! Per-directed-link slot occupancy.

use nptsn_topo::{ConnectionGraph, LinkId, NodeId};

use crate::tas::TasConfig;

/// Slot occupancy of every directed link in the network.
///
/// TAS reserves time slots per egress port, i.e. per *directed* link; the
/// two directions of an undirected link are independent resources
/// (Section II-A). Every (stateless) recovery run starts from an empty
/// table: a new one, or the one of its session, cleared.
///
/// It records which slots are taken, not by whom: one bit per slot in a
/// single `Vec<u64>`, each directed link's slots rounded up to whole
/// 64-bit words. All slots of a table are one allocation, and the
/// earliest free slot of a window is found a word at a time.
///
/// # Examples
///
/// ```
/// use nptsn_sched::{ScheduleTable, TasConfig};
/// use nptsn_topo::ConnectionGraph;
///
/// let mut gc = ConnectionGraph::new();
/// let a = gc.add_end_station("a");
/// let s = gc.add_switch("s");
/// let link = gc.add_candidate_link(a, s, 1.0).unwrap();
///
/// let tas = TasConfig::default();
/// let mut table = ScheduleTable::new(&gc, &tas);
/// assert!(table.is_free(a, link, 0));
/// // Occupying a -> s leaves s -> a free.
/// table.occupy(a, link, 0);
/// assert!(!table.is_free(a, link, 0));
/// assert!(table.is_free(s, link, 0));
/// ```
#[derive(Debug, Clone)]
pub struct ScheduleTable {
    /// Bit `slot % 64` of word `(2 * link + dir) * words + slot / 64` is
    /// set when `slot` is taken on that directed link; `dir` is 0 when
    /// transmitting from the link's canonical (lower-indexed) endpoint.
    /// Bits past `slots` in a row's last word stay clear.
    bits: Vec<u64>,
    /// The canonical (lower-indexed) endpoint of each link.
    canonical: Vec<NodeId>,
    slots: usize,
    /// Words per directed link: `slots.div_ceil(64)`.
    words: usize,
}

impl ScheduleTable {
    /// Creates an empty table covering every candidate link of `gc` with
    /// the slot count of `tas`.
    pub fn new(gc: &ConnectionGraph, tas: &TasConfig) -> ScheduleTable {
        let canonical = gc
            .links()
            .map(|l| {
                let (a, b) = gc.link_endpoints(l);
                if a.index() < b.index() {
                    a
                } else {
                    b
                }
            })
            .collect();
        let words = tas.slots().div_ceil(64);
        ScheduleTable {
            bits: vec![0; gc.candidate_link_count() * 2 * words],
            canonical,
            slots: tas.slots(),
            words,
        }
    }

    /// The index in `bits` of the first word of the directed link
    /// `from -> other end` of `link`.
    fn row_start(&self, from: NodeId, link: LinkId) -> usize {
        let dir = usize::from(from != self.canonical[link.index()]);
        (link.index() * 2 + dir) * self.words
    }

    /// The words of the directed link.
    fn row(&self, from: NodeId, link: LinkId) -> &[u64] {
        let start = self.row_start(from, link);
        &self.bits[start..start + self.words]
    }

    /// The index in `bits` and the mask of `slot` on the directed link.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `link` is unknown.
    fn bit(&self, from: NodeId, link: LinkId, slot: usize) -> (usize, u64) {
        assert!(slot < self.slots, "slot {slot} out of range 0..{}", self.slots);
        (self.row_start(from, link) + slot / 64, 1 << (slot % 64))
    }

    /// Whether `slot` is free on the directed link `from -> other end` of
    /// `link`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `link` is unknown.
    pub fn is_free(&self, from: NodeId, link: LinkId, slot: usize) -> bool {
        let (word, mask) = self.bit(from, link, slot);
        self.bits[word] & mask == 0
    }

    /// The earliest free slot in `lo..hi` on the directed link, if any.
    ///
    /// # Panics
    ///
    /// Panics if `hi` is past the last slot or `link` is unknown.
    pub(crate) fn first_free(
        &self,
        from: NodeId,
        link: LinkId,
        lo: usize,
        hi: usize,
    ) -> Option<usize> {
        assert!(hi <= self.slots, "window end {hi} past {} slots", self.slots);
        let row = self.row(from, link);
        let mut t = lo;
        while t < hi {
            // Free slots from `t` to the end of its word, as bits from 0.
            let free = !row[t / 64] >> (t % 64);
            if free != 0 {
                let slot = t + free.trailing_zeros() as usize;
                return (slot < hi).then_some(slot);
            }
            t = (t / 64 + 1) * 64;
        }
        None
    }

    /// Marks `slot` on the directed link as taken.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied (schedulers must check with
    /// [`is_free`](ScheduleTable::is_free) first) or out of range.
    pub fn occupy(&mut self, from: NodeId, link: LinkId, slot: usize) {
        let (word, mask) = self.bit(from, link, slot);
        assert!(self.bits[word] & mask == 0, "slot {slot} on {link} already occupied");
        self.bits[word] |= mask;
    }

    /// Frees every slot of every directed link.
    pub(crate) fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Number of occupied slots on the directed link starting at `from`.
    pub fn used_slots(&self, from: NodeId, link: LinkId) -> usize {
        self.row(from, link).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total occupied slots across both directions of `link`.
    pub fn used_slots_bidirectional(&self, link: LinkId) -> usize {
        let start = link.index() * 2 * self.words;
        self.bits[start..start + 2 * self.words].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Slots per base period.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::{Rng, SeedableRng};

    fn setup() -> (ConnectionGraph, NodeId, NodeId, LinkId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let s = gc.add_switch("s");
        let link = gc.add_candidate_link(a, s, 1.0).unwrap();
        (gc, a, s, link)
    }

    #[test]
    fn directions_are_independent() {
        let (gc, a, s, link) = setup();
        let tas = TasConfig::default();
        let mut table = ScheduleTable::new(&gc, &tas);
        table.occupy(a, link, 3);
        assert!(!table.is_free(a, link, 3));
        assert!(table.is_free(s, link, 3));
        assert!(table.is_free(a, link, 4));
    }

    #[test]
    fn used_slot_counters() {
        let (gc, a, s, link) = setup();
        let tas = TasConfig::default();
        let mut table = ScheduleTable::new(&gc, &tas);
        table.occupy(a, link, 0);
        table.occupy(a, link, 1);
        table.occupy(s, link, 0);
        assert_eq!(table.used_slots(a, link), 2);
        assert_eq!(table.used_slots(s, link), 1);
        assert_eq!(table.used_slots_bidirectional(link), 3);
        assert_eq!(table.slots(), tas.slots());
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_occupy_panics() {
        let (gc, a, _, link) = setup();
        let mut table = ScheduleTable::new(&gc, &TasConfig::default());
        table.occupy(a, link, 0);
        table.occupy(a, link, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_past_the_cycle_panics() {
        let (gc, a, _, link) = setup();
        // 20 slots share one word with 44 spare bits.
        let table = ScheduleTable::new(&gc, &TasConfig::default());
        table.is_free(a, link, 20);
    }

    /// Seeded random `occupy` sequences on three links, checked after
    /// every step against one `Vec<bool>` per directed link, at slot
    /// counts below, at and across 64-bit word boundaries.
    #[test]
    fn bitset_matches_a_bool_model() {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        let links = [(a, s0), (s0, s1), (s1, a)]
            .map(|(u, v)| (u, v, gc.add_candidate_link(u, v, 1.0).unwrap()));
        let directed: Vec<(NodeId, LinkId)> =
            links.iter().flat_map(|&(u, v, l)| [(u, l), (v, l)]).collect();
        for slots in [1, 20, 63, 64, 65, 128, 130] {
            let tas = TasConfig::new(slots as u64 * 10, slots, 1000);
            let mut rng = StdRng::seed_from_u64(0x7AB1E + slots as u64);
            let mut table = ScheduleTable::new(&gc, &tas);
            let mut model = vec![vec![false; slots]; directed.len()];
            // Draw twice as many slots as there are: rows end ~86% full.
            for _ in 0..directed.len() * slots * 2 {
                let row = rng.gen_range(0..directed.len());
                let slot = rng.gen_range(0..slots);
                let (from, link) = directed[row];
                assert_eq!(table.is_free(from, link, slot), !model[row][slot], "{slots} slots");
                if !model[row][slot] {
                    table.occupy(from, link, slot);
                    model[row][slot] = true;
                }
                for (row, &(from, link)) in directed.iter().enumerate() {
                    let used = model[row].iter().filter(|&&b| b).count();
                    assert_eq!(table.used_slots(from, link), used, "{slots} slots");
                }
                for &(_, _, link) in &links {
                    let both = directed
                        .iter()
                        .zip(&model)
                        .filter(|((_, l), _)| *l == link)
                        .map(|(_, row)| row.iter().filter(|&&b| b).count())
                        .sum::<usize>();
                    assert_eq!(table.used_slots_bidirectional(link), both, "{slots} slots");
                }
            }
            // One row full, so no window of it has a free slot.
            let (from, link) = directed[0];
            for (slot, taken) in model[0].iter_mut().enumerate() {
                if !*taken {
                    table.occupy(from, link, slot);
                    *taken = true;
                }
            }
            // Every window of every directed link, and every slot.
            for (row, &(from, link)) in directed.iter().enumerate() {
                for lo in 0..=slots {
                    for hi in lo..=slots {
                        let expected = (lo..hi).find(|&t| !model[row][t]);
                        assert_eq!(
                            table.first_free(from, link, lo, hi),
                            expected,
                            "{slots} slots, window {lo}..{hi}"
                        );
                    }
                }
                for (slot, &taken) in model[row].iter().enumerate() {
                    assert_eq!(table.is_free(from, link, slot), !taken);
                }
            }
            table.clear();
            for &(from, link) in &directed {
                assert_eq!(table.first_free(from, link, 0, slots), Some(0), "{slots} slots");
                assert_eq!(table.used_slots(from, link), 0, "{slots} slots");
            }
        }
    }
}
