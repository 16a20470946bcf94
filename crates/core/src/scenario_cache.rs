//! Scenario bitsets, the order-bucketed superset memo and the bounded
//! NBF-outcome cache behind the failure analyzer's hot path.
//!
//! Algorithm 3 spends almost all of its time on two operations: deciding
//! whether a candidate failure scenario is a subset of one that already
//! survived (the memoization of Section V), and invoking the NBF when it
//! is not. This module makes both cheap:
//!
//! * [`ScenarioBits`] represents a scenario as a fixed-width bitset over
//!   the analyzer's candidate-node indices, so the subset test collapses
//!   to a handful of word operations (`sub & !sup == 0`).
//! * [`SupersetMemo`] buckets survivors by failure order. A scenario of
//!   order `k` can only be a strict subset of a survivor of order `> k`,
//!   so lookups touch exactly the buckets that can matter instead of
//!   scanning every survivor ever recorded.
//! * [`ScenarioCache`] memoizes NBF outcomes across analyzer runs, keyed
//!   by `(topology fingerprint, scenario bitset)`. Keys embed
//!   [`Topology::fingerprint`], so a topology mutation implicitly
//!   invalidates every stale entry — it can simply never be looked up
//!   again. Only `nptsn verify` and the serve verify job attach one, fresh
//!   per call, for the hit/miss counts of their reports. Planning uses the
//!   episode's [`RecoveryMemo`](crate::RecoveryMemo) instead: every step
//!   changes the fingerprint, so across the analyses of a training epoch
//!   0.7% of fingerprint lookups hit.
//!
//! [`Topology::fingerprint`]: nptsn_topo::Topology::fingerprint

use std::collections::HashMap;
use std::sync::Mutex;

use nptsn_sched::ErrorReport;

/// Bits stored inline for scenarios over up to 128 candidate nodes — every
/// realistic in-vehicle network — with a heap spill for larger problems.
const INLINE_WORDS: usize = 2;

/// A failure scenario as a bitset over the analyzer's candidate-node
/// indices (`0..n` for `n` fault candidates, most-probable-first).
///
/// The representation is fixed-width per analyzer run: all scenarios of a
/// run share the same capacity, so subset tests and equality are pure word
/// operations with no length bookkeeping.
///
/// # Examples
///
/// ```
/// use nptsn::ScenarioBits;
///
/// let mut small = ScenarioBits::with_capacity(70);
/// let mut big = ScenarioBits::with_capacity(70);
/// small.insert(3);
/// big.insert(3);
/// big.insert(69);
/// assert!(small.is_subset_of(&big));
/// assert!(!big.is_subset_of(&small));
/// assert_eq!(big.count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScenarioBits {
    words: Words,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

impl ScenarioBits {
    /// The empty scenario over `capacity` candidate indices.
    pub fn with_capacity(capacity: usize) -> ScenarioBits {
        let words = capacity.div_ceil(64);
        ScenarioBits {
            words: if words <= INLINE_WORDS {
                Words::Inline([0; INLINE_WORDS])
            } else {
                Words::Heap(vec![0; words].into_boxed_slice())
            },
        }
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(w) => w,
        }
    }

    /// Marks candidate `index` as failed.
    ///
    /// # Panics
    ///
    /// Panics when `index` is beyond the capacity given at construction.
    pub fn insert(&mut self, index: usize) {
        self.words_mut()[index / 64] |= 1 << (index % 64);
    }

    /// Clears every bit, keeping the capacity.
    pub fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Number of failed candidates (the scenario order).
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether every candidate failed here also fails in `other`.
    ///
    /// Both bitsets must come from the same analyzer run (same capacity);
    /// for inline scenarios this is two AND-NOT word ops.
    pub fn is_subset_of(&self, other: &ScenarioBits) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .all(|(&sub, &sup)| sub & !sup == 0)
    }

    /// The failed candidate indices, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

/// Survived scenarios bucketed by failure order, replacing the seed's
/// linear scan over a `Vec<FailureScenario>`.
///
/// Algorithm 3 walks orders from `maxord` down to 0 and skips any scenario
/// that is a subset of an already-survived one. Two distinct scenarios of
/// equal order can never be subsets of each other, so a lookup for an
/// order-`k` scenario only needs the buckets of order `> k` — the memo
/// check costs `O(survivors of higher order)` word-ops instead of
/// `O(all survivors · order)` element-wise scans.
#[derive(Debug, Default)]
pub struct SupersetMemo {
    /// `buckets[k]` holds the survivors of order `k`.
    buckets: Vec<Vec<ScenarioBits>>,
}

impl SupersetMemo {
    /// An empty memo.
    pub fn new() -> SupersetMemo {
        SupersetMemo::default()
    }

    /// Records a survivor of the given order.
    pub fn insert(&mut self, bits: ScenarioBits, order: usize) {
        if self.buckets.len() <= order {
            self.buckets.resize_with(order + 1, Vec::new);
        }
        self.buckets[order].push(bits);
    }

    /// Whether an order-`order` scenario is a subset of any recorded
    /// survivor of strictly higher order (and therefore already known to
    /// be survivable).
    pub fn covers(&self, bits: &ScenarioBits, order: usize) -> bool {
        self.buckets
            .iter()
            .skip(order + 1)
            .any(|bucket| bucket.iter().any(|sup| bits.is_subset_of(sup)))
    }
}

/// Key of one memoized NBF outcome: the topology's selection-state
/// fingerprint plus the scenario bitset.
type CacheKey = (u128, ScenarioBits);

/// A bounded memo of NBF outcomes shared across analyzer runs.
///
/// The NBF `Φ` is stateless (Section II-B): its outcome depends only on
/// `(Gt, Gf)` for a fixed problem, so one cached [`ErrorReport`] per
/// `(topology fingerprint, scenario)` pair reproduces the exact verdict
/// the NBF would produce. Entries are never explicitly invalidated;
/// mutating a topology changes its fingerprint, so outdated entries are
/// unreachable and age out when the capacity bound triggers a reset.
///
/// One cache must only ever see one planning problem and one analyzer
/// configuration (node scope), since those determine the candidate-index
/// space the scenario bitsets live in.
///
/// Interior mutability goes through a [`Mutex`], not a `RefCell`, so the
/// cache is `Sync` and an analyzer holding it behind an `Arc` can move into
/// a serve worker thread; the critical sections are single lookups and
/// inserts.
#[derive(Debug)]
pub struct ScenarioCache {
    map: Mutex<HashMap<CacheKey, ErrorReport>>,
    capacity: usize,
}

impl ScenarioCache {
    /// The default entry bound, keeping worst-case memory in the tens of
    /// megabytes.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// A cache bounded to [`DEFAULT_CAPACITY`](Self::DEFAULT_CAPACITY)
    /// entries.
    pub fn new() -> ScenarioCache {
        ScenarioCache::with_capacity(ScenarioCache::DEFAULT_CAPACITY)
    }

    /// A cache bounded to `capacity` entries. When an insert would exceed
    /// the bound, the cache resets wholesale — a deterministic, O(1)
    /// amortized eviction.
    fn with_capacity(capacity: usize) -> ScenarioCache {
        ScenarioCache { map: Mutex::new(HashMap::new()), capacity: capacity.max(1) }
    }

    /// Looks up the memoized NBF outcome for `(fingerprint, bits)`.
    pub fn lookup(&self, fingerprint: u128, bits: &ScenarioBits) -> Option<ErrorReport> {
        let map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        // The probe key clones the bitset: for inline scenarios (networks
        // up to 128 fault candidates) that is a stack copy, no allocation.
        map.get(&(fingerprint, bits.clone())).cloned()
    }

    /// Records an NBF outcome. Resets the cache first when full.
    pub fn insert(&self, fingerprint: u128, bits: ScenarioBits, errors: ErrorReport) {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if map.len() >= self.capacity {
            map.clear();
        }
        map.insert((fingerprint, bits), errors);
    }
}

impl Default for ScenarioCache {
    fn default() -> ScenarioCache {
        ScenarioCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_topo::NodeId;

    fn bits(capacity: usize, indices: &[usize]) -> ScenarioBits {
        let mut b = ScenarioBits::with_capacity(capacity);
        for &i in indices {
            b.insert(i);
        }
        b
    }

    #[test]
    fn inline_and_heap_agree() {
        for capacity in [5, 64, 128, 129, 700] {
            let small = bits(capacity, &[0, 3]);
            let big = bits(capacity, &[0, 3, 4]);
            assert!(small.is_subset_of(&big), "capacity {capacity}");
            assert!(!big.is_subset_of(&small), "capacity {capacity}");
            assert!(small.is_subset_of(&small));
            assert_eq!(big.count(), 3);
            assert_eq!(big.iter().collect::<Vec<_>>(), vec![0, 3, 4]);
            let mut cleared = big.clone();
            cleared.clear();
            assert_eq!(cleared.count(), 0);
            assert!(cleared.is_subset_of(&small), "empty is a subset of all");
        }
    }

    #[test]
    fn boundary_bits_work() {
        let b = bits(129, &[63, 64, 127, 128]);
        assert_eq!(b.count(), 4);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![63, 64, 127, 128]);
        assert!(bits(129, &[64]).is_subset_of(&b));
        assert!(!bits(129, &[65]).is_subset_of(&b));
    }

    #[test]
    fn memo_buckets_by_order() {
        let mut memo = SupersetMemo::new();
        memo.insert(bits(10, &[1, 2, 3]), 3);
        // A strict subset of a higher-order survivor is covered.
        assert!(memo.covers(&bits(10, &[1, 3]), 2));
        assert!(memo.covers(&bits(10, &[]), 0));
        // A non-subset of the same order is not.
        assert!(!memo.covers(&bits(10, &[1, 4]), 2));
        // Equal order never covers (distinct equal-order sets are never
        // subsets; the scenario itself is not re-checked).
        assert!(!memo.covers(&bits(10, &[1, 2, 3]), 3));
        // Lower-order survivors are ignored for higher-order queries.
        memo.insert(bits(10, &[5]), 1);
        assert!(!memo.covers(&bits(10, &[5, 6]), 2));
        assert!(memo.covers(&bits(10, &[5]), 0) || !memo.covers(&bits(10, &[6]), 0));
    }

    #[test]
    fn cache_hits_after_insert_and_respects_fingerprint() {
        let cache = ScenarioCache::with_capacity(8);
        let key = bits(4, &[1]);
        assert!(cache.lookup(7, &key).is_none());
        let mut errors = ErrorReport::empty();
        errors.record(NodeId::from_dense_index(0), NodeId::from_dense_index(1));
        cache.insert(7, key.clone(), errors.clone());
        assert_eq!(cache.lookup(7, &key), Some(errors));
        // A different topology fingerprint misses: implicit invalidation.
        assert!(cache.lookup(8, &key).is_none());
    }

    #[test]
    fn cache_bound_triggers_reset() {
        let cache = ScenarioCache::with_capacity(2);
        for i in 0..3 {
            cache.insert(i as u128, bits(4, &[i]), ErrorReport::empty());
        }
        // The third insert reset the map first: only it remains.
        assert!(cache.lookup(2, &bits(4, &[2])).is_some());
        assert!(cache.lookup(0, &bits(4, &[0])).is_none());
        assert!(cache.lookup(1, &bits(4, &[1])).is_none());
    }
}
