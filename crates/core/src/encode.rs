//! Observation encoding (Section IV-C): network status *and* the dynamic
//! actions are folded into the GCN input so training stays stable on the
//! dynamic action space.

use nptsn_topo::{NodeId, Topology};

use crate::problem::PlanningProblem;
use crate::soag::{Action, ActionSet};

/// Length of the auxiliary (non-graph) parameter vector appended to the
/// graph embedding: flow count, mean period ratio, mean frame/slot ratio
/// and the slot count.
pub const AUX_LEN: usize = 4;

/// A fully encoded RL observation: the data behind Algorithm 2's `Obs`.
///
/// Stored as plain `f32` buffers (not tensors) so rollout workers can ship
/// observations across threads and the PPO update can rebuild the graph on
/// its own thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Number of graph nodes `|V^c|`.
    pub node_count: usize,
    /// Node feature width: `1 + |V^c| + |V_es| + K`.
    pub feature_count: usize,
    /// Row-major `n x n` *normalized* adjacency `D^-1/2 (A+I) D^-1/2`
    /// (Eq. 4's constant), as [`normalized_adjacency`] returns it.
    ///
    /// [`normalized_adjacency`]: nptsn_nn::normalized_adjacency
    pub ahat: Vec<f32>,
    /// Row-major `n x feature_count` node features: switch-cost column,
    /// link-cost block, flow-count block, dynamic-action block.
    pub features: Vec<f32>,
    /// Auxiliary parameters (flow statistics, base period) concatenated
    /// with the graph embedding before the actor/critic MLPs.
    pub aux: Vec<f32>,
}

/// Encodes the current TSSDN and dynamic action set into an observation.
///
/// The four feature categories of Section IV-C:
///
/// 1. **Switch features** (1 column): the cost `csw(deg(v), ASIL_v)` of
///    each selected switch, zero for end stations and unselected switches.
/// 2. **Link features** (`|V^c|` columns): entry `(u, v)` is the cost of
///    topology link `(u, v)`, zero when absent.
/// 3. **Flow features** (`|V_es|` columns): entry `(u, e)` is the number
///    of flows between `u` and the `e`-th end station (zero for switches).
/// 4. **Dynamic actions** (`K` columns): entry `(u, k)` is one when path
///    slot `k` holds a path traversing `u`.
///
/// Costs are divided by the library's largest switch cost so every feature
/// is O(1) for the network.
pub fn encode_observation(
    problem: &PlanningProblem,
    topology: &Topology,
    actions: &ActionSet,
) -> Observation {
    let _span = nptsn_obs::span("encode.observation");
    let gc = problem.connection_graph();
    let n = gc.node_count();
    let es = gc.end_stations();
    let k = actions.len() - gc.switches().len();
    let f = 1 + n + es.len() + k;

    // Â and feature categories 1–3.
    let (ahat, mut features) = encode_graph(problem, topology, f);
    // 4. Dynamic action block.
    let switch_slots = gc.switches().len();
    for (slot, action) in actions.actions().iter().enumerate().skip(switch_slots) {
        let kcol = slot - switch_slots;
        if let Action::AddPath(path) = action {
            for &node in path.nodes() {
                features[node.index() * f + 1 + n + es.len() + kcol] = 1.0;
            }
        }
    }

    // Auxiliary parameters.
    let flows = problem.flows();
    let tas = problem.tas();
    let mean_period: f32 = flows
        .specs()
        .iter()
        .map(|s| s.period_us() as f32 / tas.base_period_us() as f32)
        .sum::<f32>()
        / flows.len() as f32;
    let mean_frame: f32 = flows
        .specs()
        .iter()
        .map(|s| s.frame_bytes() as f32 / tas.slot_capacity_bytes() as f32)
        .sum::<f32>()
        / flows.len() as f32;
    let aux = vec![
        flows.len() as f32 / es.len().max(1) as f32,
        mean_period,
        mean_frame,
        tas.slots() as f32 / 32.0,
    ];
    debug_assert_eq!(aux.len(), AUX_LEN);

    Observation { node_count: n, feature_count: f, ahat, features, aux }
}

/// Â and feature categories 1–3 of [`encode_observation`], which depend
/// on the topology and the flows but not on the actions: returns the
/// row-major `n x n` normalized adjacency and a row-major buffer of
/// `feature_count` columns per node holding the switch-cost column, the
/// link-cost block and the flow-count block (feature category 3), with
/// every column after them zero. `feature_count` must be at least
/// `1 + |V^c| + |V_es|`. [`encode_observation`] adds the dynamic-action
/// block after it; the NeuroPlan baseline, which has no dynamic actions,
/// takes its graph input from it unchanged.
pub fn encode_graph(
    problem: &PlanningProblem,
    topology: &Topology,
    feature_count: usize,
) -> (Vec<f32>, Vec<f32>) {
    let gc = problem.connection_graph();
    let n = gc.node_count();
    let f = feature_count;
    let lib = problem.library();
    let cost_norm = lib
        .switch_cost(lib.max_switch_degree(), nptsn_topo::Asil::D)
        .unwrap_or(1.0)
        .max(1.0) as f32;

    // Â from the symmetric 0/1 adjacency of the topology's links.
    let mut adjacency = vec![0.0f32; n * n];
    for link in topology.links() {
        let (u, v) = gc.link_endpoints(link);
        adjacency[u.index() * n + v.index()] = 1.0;
        adjacency[v.index() * n + u.index()] = 1.0;
    }
    let ahat = nptsn_nn::normalized_adjacency(&adjacency, n);

    let mut features = vec![0.0f32; n * f];
    // 1. Switch cost column.
    for &sw in topology.selected_switches() {
        let asil = topology.switch_asil(sw).expect("selected");
        let cost = lib
            .switch_cost(topology.degree(sw), asil)
            .expect("degree constraint holds") as f32;
        features[sw.index() * f] = cost / cost_norm;
    }
    // 2. Link cost block.
    for link in topology.links() {
        let (u, v) = gc.link_endpoints(link);
        let cost =
            lib.link_cost(topology.link_asil(link), gc.link_length(link)) as f32 / cost_norm;
        features[u.index() * f + 1 + v.index()] = cost;
        features[v.index() * f + 1 + u.index()] = cost;
    }
    // 3. Flow count block.
    add_flow_counts(problem, &mut features, f);
    (ahat, features)
}

/// Adds the flow-count block, feature category 3 of
/// [`encode_observation`], to `features`: a row-major buffer of
/// `feature_count` columns per node of the problem's connection graph,
/// whose block of `|V_es|` columns starts at column `1 + |V^c|` and is
/// zero on entry.
///
/// Entry `(u, e)` ends as the number of flows between `u` and the `e`-th
/// end station, in either direction. One pass over the flows builds it:
/// each flow adds 1 at (source, column of its destination) and at
/// (destination, column of its source). Every endpoint is an end station
/// ([`PlanningProblem::new`] checks) and no flow loops
/// ([`FlowSet::new`](nptsn_sched::FlowSet::new) checks), so rows of
/// switches and each station's own column stay zero. The counts are small
/// integers, which `f32` adds exactly.
fn add_flow_counts(problem: &PlanningProblem, features: &mut [f32], feature_count: usize) {
    let gc = problem.connection_graph();
    let n = gc.node_count();
    let mut columns = vec![None; n];
    for (e, station) in gc.end_stations().iter().enumerate() {
        columns[station.index()] = Some(1 + n + e);
    }
    let column = |node: NodeId| columns[node.index()].expect("an end station");
    for spec in problem.flows().specs() {
        let (source, destination) = spec.endpoints();
        features[source.index() * feature_count + column(destination)] += 1.0;
        features[destination.index() * feature_count + column(source)] += 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soag::Soag;
    use nptsn_sched::{ErrorReport, FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
    use nptsn_topo::{Asil, ComponentLibrary, ConnectionGraph, FailureScenario, NodeId};
    use nptsn_rand::rngs::StdRng;
    use nptsn_rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (PlanningProblem, NodeId, NodeId, NodeId) {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s = gc.add_switch("s");
        gc.add_candidate_link(a, s, 1.0).unwrap();
        gc.add_candidate_link(b, s, 1.0).unwrap();
        let flows = FlowSet::new(vec![
            FlowSpec::new(a, b, 500, 128),
            FlowSpec::new(b, a, 500, 128),
        ])
        .unwrap();
        let problem = PlanningProblem::new(
            Arc::new(gc),
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .unwrap();
        (problem, a, b, s)
    }

    fn obs_for(problem: &PlanningProblem, topo: &Topology, k: usize) -> Observation {
        let mut er = ErrorReport::empty();
        let es = problem.connection_graph().end_stations();
        er.record(es[0], es[1]);
        let set = Soag::new(k).generate(
            problem,
            topo,
            &FailureScenario::none(),
            &er,
            &mut StdRng::seed_from_u64(0),
        );
        encode_observation(problem, topo, &set)
    }

    #[test]
    fn shapes_match_the_paper_layout() {
        let (problem, ..) = setup();
        let topo = problem.connection_graph().empty_topology();
        let obs = obs_for(&problem, &topo, 4);
        let n = 3;
        assert_eq!(obs.node_count, n);
        assert_eq!(obs.feature_count, 1 + n + 2 + 4);
        assert_eq!(obs.ahat.len(), n * n);
        assert_eq!(obs.features.len(), n * obs.feature_count);
        assert_eq!(obs.aux.len(), AUX_LEN);
    }

    #[test]
    fn empty_topology_has_identity_ahat_and_zero_costs() {
        let (problem, ..) = setup();
        let topo = problem.connection_graph().empty_topology();
        let obs = obs_for(&problem, &topo, 2);
        // No links: Â = I.
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert_eq!(obs.ahat[i * 3 + j], expect);
            }
        }
        // Switch cost column all zero.
        for i in 0..3 {
            assert_eq!(obs.features[i * obs.feature_count], 0.0);
        }
    }

    #[test]
    fn switch_and_link_costs_appear_after_construction() {
        let (problem, a, b, s) = setup();
        let mut topo = problem.connection_graph().empty_topology();
        topo.add_switch(s, Asil::B).unwrap();
        topo.add_link(a, s).unwrap();
        let obs = obs_for(&problem, &topo, 2);
        let f = obs.feature_count;
        // Switch cost: degree 1, ASIL B = 12; normalized by 54.
        assert!((obs.features[s.index() * f] - 12.0 / 54.0).abs() < 1e-6);
        // Link (a, s): ASIL B link cost 2 / 54, symmetric.
        let expected = 2.0 / 54.0;
        assert!((obs.features[a.index() * f + 1 + s.index()] - expected).abs() < 1e-6);
        assert!((obs.features[s.index() * f + 1 + a.index()] - expected).abs() < 1e-6);
        // Absent link (b, s) stays zero.
        assert_eq!(obs.features[b.index() * f + 1 + s.index()], 0.0);
    }

    #[test]
    fn flow_features_count_pairs_symmetrically() {
        let (problem, a, b, s) = setup();
        let topo = problem.connection_graph().empty_topology();
        let obs = obs_for(&problem, &topo, 2);
        let f = obs.feature_count;
        let n = obs.node_count;
        // Two flows between a and b (one per direction): feature 2 both ways.
        // End stations are inserted first, so column index of a is 0, b is 1.
        assert_eq!(obs.features[a.index() * f + 1 + n + 1], 2.0);
        assert_eq!(obs.features[b.index() * f + 1 + n], 2.0);
        // Switch rows carry no flow features.
        assert_eq!(obs.features[s.index() * f + 1 + n], 0.0);
        assert_eq!(obs.features[s.index() * f + 1 + n + 1], 0.0);
    }

    #[test]
    fn action_paths_mark_traversed_nodes() {
        let (problem, a, b, s) = setup();
        let mut topo = problem.connection_graph().empty_topology();
        topo.add_switch(s, Asil::A).unwrap();
        let obs = obs_for(&problem, &topo, 2);
        let f = obs.feature_count;
        let n = obs.node_count;
        let es = 2;
        // Path slot 0 holds a-s-b (the only path): all three nodes marked.
        let col = 1 + n + es;
        let marked: Vec<bool> =
            (0..3).map(|i| obs.features[i * f + col] == 1.0).collect();
        assert_eq!(marked, vec![true, true, true]);
        let _ = (a, b);
    }

    #[test]
    fn aux_captures_flow_statistics() {
        let (problem, ..) = setup();
        let topo = problem.connection_graph().empty_topology();
        let obs = obs_for(&problem, &topo, 2);
        assert_eq!(obs.aux[0], 1.0); // 2 flows / 2 stations
        assert_eq!(obs.aux[1], 1.0); // period == base period
        assert!(obs.aux[2] > 0.0 && obs.aux[2] < 1.0);
        assert_eq!(obs.aux[3], 20.0 / 32.0);
    }
}
