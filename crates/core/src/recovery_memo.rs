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
use nptsn_topo::{FailureScenario, Topology};

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
    /// The key of the scenario being checked, built in place.
    key: Vec<u64>,
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

    /// The errors recorded for the links of `topology` and those alive
    /// under `failure`, or `recover()`'s, which are recorded. `recover`
    /// must run the memo's problem's NBF on `topology` and `failure`.
    pub(crate) fn errors(
        &mut self,
        topology: &Topology,
        failure: &FailureScenario,
        recover: impl FnOnce() -> ErrorReport,
    ) -> ErrorReport {
        let words = topology.connection_graph().candidate_link_count().div_ceil(64);
        self.key.clear();
        self.key.resize(2 * words, 0);
        let (present, live) = self.key.split_at_mut(words);
        for link in topology.links() {
            present[link.index() / 64] |= 1 << (link.index() % 64);
        }
        for link in topology.live_links(failure) {
            live[link.index() / 64] |= 1 << (link.index() % 64);
        }
        if let Some(errors) = self.outcomes.get(self.key.as_slice()) {
            self.hits += 1;
            return errors.clone();
        }
        self.misses += 1;
        let errors = recover();
        self.outcomes.insert(self.key.as_slice().into(), errors.clone());
        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nptsn_topo::{Asil, ConnectionGraph};

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
            memo.errors(topo, &failure, || {
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
