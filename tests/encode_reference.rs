//! Pins the flow-count block of `encode_observation` to the per-pair loop
//! it replaced.
//!
//! The encoder builds feature category 3 (Section IV-C) in one pass over
//! the flows (`add_flow_counts`). `reference_block` below is the former
//! loop: for every end station `e` and every other end station `u`, the
//! number of flows between `u` and `e` in either direction, counted by a
//! scan of the whole flow set. On seeded ORION and ADS states, reached by
//! random valid actions, the encoded `features` must equal the encoder's
//! own output with that block cleared and refilled by the loop, bit for
//! bit. The flow sets must hold repeated pairs, pairs in both directions
//! and end stations without flows.

use std::sync::Arc;

use nptsn::{PlanningEnv, PlanningProblem};
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, SeedableRng};
use nptsn_scenarios::{ads, orion, Scenario};
use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery};
use nptsn_topo::{ComponentLibrary, NodeId};

const SEED: u64 = 0xf10b_0000;
const CASES: u64 = 6;
const STEPS: usize = 8;

/// Random flows among all but a few of `scenario`'s end stations, with
/// some pairs drawn again and some reversed.
fn random_flow_set(scenario: &Scenario, rng: &mut StdRng) -> FlowSet {
    let mut stations = scenario.graph.end_stations().to_vec();
    // Leave at least one station without flows.
    for _ in 0..rng.gen_range(1..4usize) {
        stations.swap_remove(rng.gen_range(0..stations.len()));
    }
    let mut flows = Vec::new();
    for _ in 0..rng.gen_range(5..40usize) {
        let source = stations[rng.gen_range(0..stations.len())];
        let destination = loop {
            let d = stations[rng.gen_range(0..stations.len())];
            if d != source {
                break d;
            }
        };
        flows.push(FlowSpec::new(source, destination, 500, 256));
    }
    for _ in 0..rng.gen_range(1..8usize) {
        let (source, destination) = flows[rng.gen_range(0..flows.len())].endpoints();
        let (source, destination) =
            if rng.gen_bool(0.5) { (source, destination) } else { (destination, source) };
        flows.push(FlowSpec::new(source, destination, 500, 256));
    }
    FlowSet::new(flows).expect("distinct endpoints")
}

/// The former flow-count loop: entry `(u, e)` is the number of flows
/// between `u` and the `e`-th end station, for end stations `u` other
/// than it, written as `count as f32`.
fn reference_block(problem: &PlanningProblem, features: &mut [f32], feature_count: usize) {
    let gc = problem.connection_graph();
    let n = gc.node_count();
    let count_between = |u: NodeId, v: NodeId| {
        let flows = problem.flows().specs().iter();
        flows.filter(|f| f.endpoints() == (u, v) || f.endpoints() == (v, u)).count()
    };
    for (e, &station) in gc.end_stations().iter().enumerate() {
        for u in gc.nodes() {
            if u == station || gc.is_switch(u) {
                continue;
            }
            let count = count_between(u, station) as f32;
            if count > 0.0 {
                features[u.index() * feature_count + 1 + n + e] = count;
            }
        }
    }
}

/// What the flow sets of a sweep held.
#[derive(Default)]
struct Coverage {
    repeated_pairs: usize,
    reversed_pairs: usize,
    stations_without_flows: usize,
}

impl Coverage {
    fn add(&mut self, problem: &PlanningProblem) {
        let specs = problem.flows().specs();
        for (i, f) in specs.iter().enumerate() {
            let (s, d) = f.endpoints();
            let earlier = &specs[..i];
            self.repeated_pairs += usize::from(earlier.iter().any(|g| g.endpoints() == (s, d)));
            self.reversed_pairs += usize::from(earlier.iter().any(|g| g.endpoints() == (d, s)));
        }
        let gc = problem.connection_graph();
        self.stations_without_flows += gc
            .end_stations()
            .iter()
            .filter(|&&e| specs.iter().all(|f| f.source() != e && f.destination() != e))
            .count();
    }
}

#[test]
fn flow_block_matches_the_per_pair_loop() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut coverage = Coverage::default();
    let mut states = 0;
    for scenario in [orion(), ads()] {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(SEED + case);
            let flows = random_flow_set(&scenario, &mut rng);
            let problem = PlanningProblem::new(
                Arc::clone(&scenario.graph),
                ComponentLibrary::automotive(),
                scenario.tas,
                flows,
                1e-6,
                Arc::new(ShortestPathRecovery::new()),
            )
            .expect("flows among end stations");
            coverage.add(&problem);
            let gc = problem.connection_graph();
            let (n, stations) = (gc.node_count(), gc.end_stations().len());
            let mut env = PlanningEnv::new(problem.clone(), 8, 1e3, 64, &mut rng);
            for step in 0..STEPS {
                let obs = env.observation();
                let f = obs.feature_count;
                let mut expected = obs.features.clone();
                for row in expected.chunks_exact_mut(f) {
                    row[1 + n..1 + n + stations].fill(0.0);
                }
                reference_block(&problem, &mut expected, f);
                assert_eq!(
                    bits(&obs.features),
                    bits(&expected),
                    "{} case {case} step {step}",
                    scenario.name
                );
                states += 1;
                let valid: Vec<usize> =
                    (0..env.action_count()).filter(|&i| env.mask()[i]).collect();
                let over = valid.is_empty()
                    || env.step(valid[rng.gen_range(0..valid.len())], &mut rng).done;
                if over {
                    env.reset(&mut rng);
                }
            }
        }
    }
    let Coverage { repeated_pairs, reversed_pairs, stations_without_flows } = coverage;
    let stats = format!(
        "{states} states: {repeated_pairs} repeated pairs, {reversed_pairs} reversed pairs, \
         {stations_without_flows} stations without flows"
    );
    assert!(repeated_pairs > 0 && reversed_pairs > 0 && stations_without_flows > 0, "{stats}");
    eprintln!("{stats}");
}
