//! The SOAG's memo of candidate-path lists, one per planning problem.
//!
//! Algorithm 1 line 5 runs Yen's K shortest paths between the drawn
//! endpoint pair on `Gc` minus the failed nodes, the failed links and
//! the unselected switches. [`PathKey`] is that search graph, named by
//! what `Gc` loses: the switches it keeps (selected and not failed), the
//! failed nodes that are not switches, and the failed links; with the
//! pair and `K` it fixes the path list. The topology's links and ASILs,
//! the flows and the NBF do not enter it, and neither does how a switch
//! came to be left out: a failed switch and an unselected one block the
//! same paths. Training and re-planning keep meeting the same keys: the
//! same failure stays the first unrecoverable one while an episode adds
//! links, a problem's episodes revisit the same switch sets, and a
//! selected set under a switch failure searches the graph of the set
//! without that switch. So each list is computed once and shared by
//! every clone of the problem: every environment, rollout worker and
//! re-plan thread a planner starts. The mask, which does depend on the
//! topology, the SOAG recomputes at every call.
//!
//! Hit/miss counters are registered on the process-wide telemetry
//! registry as `nptsn_soag_path_memo_{hits,misses}_total`, so `/metrics`
//! shows the memo's hit rate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use nptsn_obs::metrics::Counter;
use nptsn_topo::{ConnectionGraph, FailureScenario, LinkId, NodeId, Path};

/// The path lists one problem's memo holds before it resets wholesale,
/// like [`ScenarioCache`](crate::ScenarioCache). A list of 16 ORION paths
/// with its key takes about 2 KB, so a full memo holds about 8 MB. An
/// ORION-40 problem holds 320–430 lists after six re-plans, and about
/// 2 000 after ten training epochs.
pub const PATH_MEMO_CAPACITY: usize = 4096;

/// Everything a SOAG path list depends on besides the problem's `Gc`:
/// the graph Yen searches, K and the pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PathKey {
    /// The number of paths K.
    pub(crate) k: usize,
    /// The switches a path may cross: selected and not failed, ascending.
    pub(crate) switches: Vec<NodeId>,
    /// The failed nodes that are not switches, ascending.
    pub(crate) stations: Vec<NodeId>,
    /// The failed links, ascending.
    pub(crate) links: Vec<LinkId>,
    /// The endpoint pair drawn from the error report, in order.
    pub(crate) source: NodeId,
    pub(crate) target: NodeId,
}

impl PathKey {
    /// The key of K paths from `source` to `target` that survive `failure`
    /// and cross only `selected` switches, on `gc`.
    pub(crate) fn new(
        k: usize,
        gc: &ConnectionGraph,
        selected: &[NodeId],
        failure: &FailureScenario,
        (source, target): (NodeId, NodeId),
    ) -> PathKey {
        let failed = failure.failed_switches();
        PathKey {
            k,
            switches: selected.iter().copied().filter(|&s| !failure.contains_switch(s)).collect(),
            stations: failed.iter().copied().filter(|&x| !gc.is_switch(x)).collect(),
            links: failure.failed_links().to_vec(),
            source,
            target,
        }
    }
}

/// Cumulative counters of one problem's SOAG path memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathMemoStats {
    /// SOAG calls answered from the memo.
    pub hits: u64,
    /// SOAG calls that ran Yen and then recorded the list.
    pub misses: u64,
    /// Times the memo was full and cleared before an insert.
    pub resets: u64,
}

/// A bounded, thread-safe map from [`PathKey`] to the K shortest paths.
#[derive(Debug, Default)]
pub(crate) struct PathMemo {
    map: Mutex<HashMap<PathKey, Arc<[Path]>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    resets: AtomicU64,
}

impl PathMemo {
    /// The list memoized for `key`, or `compute(&key)`'s, which is
    /// recorded. `compute` must be a function of the key (and the
    /// problem) alone.
    ///
    /// It runs outside the lock: misses are the expensive path, and
    /// threads that miss on the same key at once compute equal lists, so
    /// whichever records first serves both.
    pub(crate) fn paths(
        &self,
        key: PathKey,
        compute: impl FnOnce(&PathKey) -> Vec<Path>,
    ) -> Arc<[Path]> {
        let counters = telemetry_counters();
        if let Some(hit) = self.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            counters.hits.inc();
            return Arc::clone(hit);
        }
        let value: Arc<[Path]> = compute(&key).into();
        self.misses.fetch_add(1, Ordering::Relaxed);
        counters.misses.inc();
        let mut map = self.lock();
        if map.len() >= PATH_MEMO_CAPACITY {
            map.clear();
            self.resets.fetch_add(1, Ordering::Relaxed);
        }
        Arc::clone(map.entry(key).or_insert(value))
    }

    /// Cumulative counters since construction.
    pub(crate) fn stats(&self) -> PathMemoStats {
        PathMemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
        }
    }

    // Every critical section is one lookup, insert or clear of a map of
    // owned values, so a panic elsewhere leaves the map valid.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<PathKey, Arc<[Path]>>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

struct MemoCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

fn telemetry_counters() -> &'static MemoCounters {
    static COUNTERS: OnceLock<MemoCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = &nptsn_obs::telemetry().registry;
        MemoCounters {
            hits: registry.counter(
                "nptsn_soag_path_memo_hits_total",
                "SOAG path lists served from a problem's path memo",
            ),
            misses: registry.counter(
                "nptsn_soag_path_memo_misses_total",
                "SOAG path lists computed by Yen and recorded in the path memo",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(k: usize, source: usize) -> PathKey {
        PathKey {
            k,
            switches: Vec::new(),
            stations: Vec::new(),
            links: Vec::new(),
            source: NodeId::from_dense_index(source),
            target: NodeId::from_dense_index(0),
        }
    }

    fn one_path() -> Vec<Path> {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        gc.add_candidate_link(a, b, 1.0).unwrap();
        vec![Path::new(&gc, vec![a, b])]
    }

    #[test]
    fn single_threaded_counts_are_exact() {
        let memo = PathMemo::default();
        telemetry_counters();
        let registry = &nptsn_obs::telemetry().registry;
        let global = |name: &str| registry.counter(name, "").get();
        let (hits_before, misses_before) = (
            global("nptsn_soag_path_memo_hits_total"),
            global("nptsn_soag_path_memo_misses_total"),
        );
        let mut computed = 0;
        let lists: Vec<Arc<[Path]>> = [1, 4, 1, 1, 4, 16]
            .into_iter()
            .map(|k| {
                memo.paths(key(k, 1), |_| {
                    computed += 1;
                    one_path()
                })
            })
            .collect();
        assert_eq!(computed, 3, "one computation per distinct key");
        assert!(Arc::ptr_eq(&lists[0], &lists[3]), "a hit serves the recorded list");
        assert_eq!(memo.stats(), PathMemoStats { hits: 3, misses: 3, resets: 0 });
        // Other tests in this process may add to the process-wide counters
        // at the same time, never take from them.
        assert!(global("nptsn_soag_path_memo_hits_total") >= hits_before + 3);
        assert!(global("nptsn_soag_path_memo_misses_total") >= misses_before + 3);
    }

    #[test]
    fn a_full_memo_resets_wholesale() {
        let memo = PathMemo::default();
        for source in 0..=PATH_MEMO_CAPACITY {
            memo.paths(key(1, source), |_| Vec::new());
        }
        assert_eq!(memo.stats().resets, 1);
        assert_eq!(memo.lock().len(), 1, "only the insert after the reset remains");
        memo.paths(key(1, PATH_MEMO_CAPACITY), |_| panic!("recorded after the reset"));
        memo.paths(key(1, 0), |_| Vec::new());
        assert_eq!(memo.stats().misses, PATH_MEMO_CAPACITY as u64 + 2);
    }
}
