//! An episode's memo of NBF outcomes, keyed by the topology's links and
//! which of them are alive under each checked scenario.
//!
//! Every step of Algorithm 2 re-runs Algorithm 3 on a topology one action
//! larger, and most of its scenario checks recover a network an earlier
//! step of the episode already recovered. A [`NetworkBehavior`] reads the
//! topology only through its links: the links present and those alive
//! under the failure ([`Topology::live_links`]). So its outcome is a
//! function of those two link sets. An ASIL upgrade changes no link; a
//! switch added without links, or a failed node with no live link,
//! leaves both sets as they were. Keyed by the sets, such a check is
//! answered from the memo; keyed by the whole selection state, as the
//! verify path's `ScenarioCache` is, it never meets the same key twice.
//!
//! The present links are in the key because the stateless adapter
//! ([`Stateless`]) recovers relative to the nominal flow state, which it
//! computes on every present link. The NBFs that read only the residual
//! network would do with the live links alone, but hit barely more
//! often so: in `orion-replan` a live-only key makes 79.28 NBF calls per
//! re-plan of ~252 checks, this one 79.31.
//!
//! [`NetworkBehavior`]: nptsn_sched::NetworkBehavior
//! [`Stateless`]: nptsn_sched::Stateless

use std::collections::HashMap;

use nptsn_sched::ErrorReport;
use nptsn_topo::{ConnectionGraph, LinkId, NodeId, Topology};

/// The error reports of the scenario checks one planning problem's NBF
/// answered, keyed by two bitsets over the candidate links: the links
/// present, and the links alive under the scenario.
///
/// One memo serves one problem: its keys name candidate links of the
/// problem's connection graph, and its values are the problem's NBF
/// applied to its flows and TAS. [`PlanningEnv`](crate::PlanningEnv)
/// keeps one per episode and clears it at every reset, so it holds at
/// most one episode's checks.
#[derive(Debug, Clone, Default)]
pub struct RecoveryMemo {
    outcomes: HashMap<Box<[u64]>, ErrorReport>,
    hits: u64,
    misses: u64,
}

impl RecoveryMemo {
    /// An empty memo.
    pub fn new() -> RecoveryMemo {
        RecoveryMemo::default()
    }

    /// Forgets every outcome; the hit and miss counts stay.
    pub fn clear(&mut self) {
        self.outcomes.clear();
    }

    /// Checks answered from the memo since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Checks that called the NBF and recorded its outcome since
    /// construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The errors recorded for `key`, or `recover()`'s, which are
    /// recorded. `recover` must run the memo's problem's NBF on the
    /// topology and the failure `key` was built from.
    pub(crate) fn errors(
        &mut self,
        key: &LinkKey,
        recover: impl FnOnce() -> ErrorReport,
    ) -> ErrorReport {
        if let Some(errors) = self.outcomes.get(key.words.as_slice()) {
            self.hits += 1;
            return errors.clone();
        }
        self.misses += 1;
        let errors = recover();
        self.outcomes.insert(key.words.as_slice().into(), errors.clone());
        errors
    }
}

/// A [`RecoveryMemo`] key for the scenarios of one topology: its present
/// links, then the links alive under the scenario, as bits over the
/// candidate links. The present half is built once; each scenario
/// rebuilds the live half from it.
#[derive(Debug, Clone)]
pub(crate) struct LinkKey {
    words: Vec<u64>,
}

impl LinkKey {
    /// The key of `topology` under no failure: every present link alive.
    pub(crate) fn new(topology: &Topology) -> LinkKey {
        let half = topology.connection_graph().candidate_link_count().div_ceil(64);
        let mut words = vec![0; 2 * half];
        for link in topology.links() {
            words[link.index() / 64] |= 1 << (link.index() % 64);
        }
        words.copy_within(..half, half);
        LinkKey { words }
    }

    /// Re-keys to the failure of `nodes` and `links`: alive are the
    /// present links that failed neither themselves nor at an endpoint
    /// ([`Topology::live_links`]).
    pub(crate) fn fail(
        &mut self,
        gc: &ConnectionGraph,
        nodes: impl IntoIterator<Item = NodeId>,
        links: &[LinkId],
    ) {
        let half = self.words.len() / 2;
        let (present, live) = self.words.split_at_mut(half);
        live.copy_from_slice(present);
        let incident = nodes.into_iter().flat_map(|node| gc.neighbors(node).iter().map(|&(_, l)| l));
        for link in incident.chain(links.iter().copied()) {
            live[link.index() / 64] &= !(1 << (link.index() % 64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_topo::{Asil, FailureScenario};

    /// The present links of `topology`, then those alive under `failure`,
    /// as bits over the candidate links.
    fn words(topology: &Topology, failure: &FailureScenario) -> Vec<u64> {
        let half = topology.connection_graph().candidate_link_count().div_ceil(64);
        let mut words = vec![0u64; 2 * half];
        for link in topology.links() {
            words[link.index() / 64] |= 1 << (link.index() % 64);
        }
        for link in topology.live_links(failure) {
            words[half + link.index() / 64] |= 1 << (link.index() % 64);
        }
        words
    }

    #[test]
    fn keys_are_the_present_and_live_links() {
        // a - s0 - b and a - s1, with s2 a switch that gets no link.
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        let s2 = gc.add_switch("s2");
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s2, b)] {
            gc.add_candidate_link(u, v, 1.0).unwrap();
        }
        let mut topo = gc.empty_topology();
        for s in [s0, s1] {
            topo.add_switch(s, Asil::A).unwrap();
        }
        for (u, v) in [(a, s0), (s0, b), (a, s1)] {
            topo.add_link(u, v).unwrap();
        }
        let mut memo = RecoveryMemo::new();
        let mut calls = 0;
        let mut check = |memo: &mut RecoveryMemo, topo: &Topology, failure: FailureScenario| {
            let mut key = LinkKey::new(topo);
            let nodes = failure.failed_switches().iter().copied();
            key.fail(topo.connection_graph(), nodes, failure.failed_links());
            assert_eq!(key.words, words(topo, &failure), "{failure}");
            memo.errors(&key, || {
                calls += 1;
                ErrorReport::empty()
            });
        };
        check(&mut memo, &topo, FailureScenario::switches(vec![s1]));
        // The same live links: s1's only link is gone either way.
        let a_s1 = gc.link_between(a, s1).unwrap();
        check(&mut memo, &topo, FailureScenario::links(vec![a_s1]));
        topo.upgrade_switch(s0).unwrap();
        topo.add_switch(s2, Asil::B).unwrap();
        check(&mut memo, &topo, FailureScenario::switches(vec![s1, s2]));
        assert_eq!((memo.hits(), memo.misses()), (2, 1));
        // Another live set: s0's links go.
        check(&mut memo, &topo, FailureScenario::switches(vec![s0]));
        // Nothing failed: every present link is alive.
        check(&mut memo, &topo, FailureScenario::none());
        assert_eq!((memo.hits(), memo.misses()), (2, 3));
        // A link that the failure kills leaves the live links as they were,
        // but not the present ones.
        topo.add_link(s2, b).unwrap();
        check(&mut memo, &topo, FailureScenario::switches(vec![s1, s2]));
        assert_eq!((memo.hits(), memo.misses()), (2, 4));
        memo.clear();
        check(&mut memo, &topo, FailureScenario::none());
        assert_eq!((memo.hits(), memo.misses()), (2, 5), "a cleared memo misses");
        assert_eq!(calls, 5);
    }
}
