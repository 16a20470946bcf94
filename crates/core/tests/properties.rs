//! Randomized tests of the planner's invariants: SOAG masks, the
//! environment's reward accounting, encoding shapes and analyzer
//! monotonicity.
//!
//! Formerly proptest-based; now seeded deterministic sweeps driven by
//! `nptsn-rand` so the workspace needs no external dev-dependencies.

use std::sync::Arc;

use nptsn::{
    encode_observation, verify_topology, PlanningEnv, PlanningProblem, Soag, Verdict,
};
use nptsn_nn::normalized_adjacency;
use nptsn_rand::rngs::StdRng;
use nptsn_rand::{Rng, RngCore, SeedableRng};
use nptsn_sched::{ErrorReport, FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
use nptsn_topo::{Asil, ComponentLibrary, ConnectionGraph, FailureScenario, NodeId};

const CASES: u64 = 32;

/// A random planning problem over a dual-homed candidate mesh.
fn random_problem(rng: &mut StdRng) -> PlanningProblem {
    let es = rng.gen_range(3usize..6);
    let sw = rng.gen_range(2usize..5);
    let nflows = rng.gen_range(1usize..6);
    let mut gc = ConnectionGraph::new();
    let stations: Vec<NodeId> = (0..es).map(|i| gc.add_end_station(format!("es{i}"))).collect();
    let switches: Vec<NodeId> = (0..sw).map(|i| gc.add_switch(format!("sw{i}"))).collect();
    for &e in &stations {
        for &s in &switches {
            gc.add_candidate_link(e, s, 1.0).unwrap();
        }
    }
    for i in 0..switches.len() {
        for j in i + 1..switches.len() {
            gc.add_candidate_link(switches[i], switches[j], 1.0).unwrap();
        }
    }
    let mut flows = Vec::new();
    for _ in 0..nflows {
        let s = stations[rng.gen_range(0..stations.len())];
        let mut d = stations[rng.gen_range(0..stations.len())];
        if d == s {
            d = stations[(s.index() + 1) % stations.len()];
        }
        flows.push(FlowSpec::new(s, d, 500, 256));
    }
    PlanningProblem::new(
        Arc::new(gc),
        ComponentLibrary::automotive(),
        TasConfig::default(),
        FlowSet::new(flows).unwrap(),
        1e-6,
        Arc::new(ShortestPathRecovery::new()),
    )
    .unwrap()
}

/// Every masked-in SOAG action applies successfully and preserves the
/// degree constraints; the action space layout is stable.
#[test]
fn valid_soag_actions_always_apply() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xc04e_0000 + case);
        let problem = random_problem(&mut rng);
        let seed = rng.next_u64();
        let k = rng.gen_range(2usize..12);
        let gc = problem.connection_graph();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = PlanningEnv::new(problem.clone(), k, 1e3, 64, &mut rng);
        assert_eq!(env.action_count(), gc.switches().len() + k);
        for _ in 0..12 {
            let valid: Vec<usize> = (0..env.action_count()).filter(|&i| env.mask()[i]).collect();
            if valid.is_empty() {
                break;
            }
            let idx = valid[rng.gen_range(0..valid.len())];
            let out = env.step(idx, &mut rng);
            // Degree constraints hold after every step.
            for node in gc.nodes() {
                assert!(env.topology().degree(node) <= gc.max_degree(node));
            }
            if out.done {
                if let Some(sol) = out.solution {
                    assert!(verify_topology(&problem, &sol.topology).is_reliable());
                }
                break;
            }
        }
    }
}

/// Rewards track the cost delta exactly (dead-end penalty aside), so an
/// episode's return telescopes to -final_cost / scale.
#[test]
fn episode_return_telescopes_to_cost() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xc04e_1000 + case);
        let problem = random_problem(&mut rng);
        let seed = rng.next_u64();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = PlanningEnv::new(problem.clone(), 6, 1e3, 64, &mut rng);
        let lib = problem.library();
        let mut ret = 0.0f32;
        for _ in 0..40 {
            let Some(idx) = (0..env.action_count()).find(|&i| env.mask()[i]) else { break };
            let out = env.step(idx, &mut rng);
            ret += out.reward;
            if out.done {
                let cost = env.topology().network_cost(lib) as f32;
                if out.solution.is_some() {
                    assert!(
                        (ret + cost / 1e3).abs() < 1e-4,
                        "case {case}: return {ret} vs -cost/1e3 {}",
                        -cost / 1e3
                    );
                } else if !out.truncated {
                    // Dead end: return = -cost/1e3 - 1.
                    assert!((ret + cost / 1e3 + 1.0).abs() < 1e-4, "case {case}");
                }
                break;
            }
        }
    }
}

/// Observation shapes always match the declared layout, the features
/// are finite, and Â is, bit for bit, the normalization of the symmetric
/// 0/1 adjacency of the topology's links.
#[test]
fn encoding_shapes_are_consistent() {
    let mut linked_cases = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xc04e_2000 + case);
        let problem = random_problem(&mut rng);
        let seed = rng.next_u64();
        let k = rng.gen_range(1usize..10);
        let gc = problem.connection_graph();
        let soag = Soag::new(k);
        let mut er = ErrorReport::empty();
        er.record(gc.end_stations()[0], gc.end_stations()[1]);
        let mut topo = problem.connection_graph().empty_topology();
        // Random partial construction: every other switch, then random
        // candidate links (`add_link` refuses those with an unselected
        // endpoint or over a degree bound).
        for (i, &sw) in gc.switches().iter().enumerate() {
            if i % 2 == 0 {
                topo.add_switch(sw, Asil::A).unwrap();
            }
        }
        for link in gc.links() {
            let (u, v) = gc.link_endpoints(link);
            if rng.gen_bool(0.5) {
                let _ = topo.add_link(u, v);
            }
        }
        if topo.link_count() > 0 {
            linked_cases += 1;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let set = soag.generate(&problem, &topo, &FailureScenario::none(), &er, &mut rng);
        let obs = encode_observation(&problem, &topo, &set);
        let n = gc.node_count();
        assert_eq!(obs.node_count, n);
        assert_eq!(obs.feature_count, 1 + n + gc.end_stations().len() + k);
        assert_eq!(obs.ahat.len(), n * n);
        assert_eq!(obs.features.len(), n * obs.feature_count);
        assert!(obs.ahat.iter().chain(obs.features.iter()).all(|v| v.is_finite()));
        // Â is symmetric.
        for i in 0..n {
            for j in 0..i {
                assert!((obs.ahat[i * n + j] - obs.ahat[j * n + i]).abs() < 1e-6);
            }
        }
        // Â is the normalization of the links' adjacency, bit for bit.
        let mut adjacency = vec![0.0f32; n * n];
        for link in topo.links() {
            let (u, v) = gc.link_endpoints(link);
            adjacency[u.index() * n + v.index()] = 1.0;
            adjacency[v.index() * n + u.index()] = 1.0;
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&obs.ahat),
            bits(&normalized_adjacency(&adjacency, n)),
            "case {case}: {} links",
            topo.link_count()
        );
    }
    assert!(linked_cases > CASES / 2, "only {linked_cases} of {CASES} topologies have links");
}

/// Upgrading any switch of a reliable topology keeps it reliable:
/// upgrades only shrink the set of non-safe faults and never change
/// recovery behavior.
#[test]
fn upgrades_preserve_reliability() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xc04e_3000 + case);
        let problem = random_problem(&mut rng);
        let seed = rng.next_u64();
        // Build some reliable topology via the environment with a scripted
        // policy; skip the case if none is found quickly.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut env = PlanningEnv::new(problem.clone(), 8, 1e3, 64, &mut rng);
        let mut reliable = None;
        for _ in 0..40 {
            let Some(idx) = (0..env.action_count()).find(|&i| env.mask()[i]) else { break };
            let out = env.step(idx, &mut rng);
            if let Some(sol) = out.solution {
                reliable = Some(sol.topology);
                break;
            }
            if out.done {
                break;
            }
        }
        if let Some(mut topo) = reliable {
            assert!(verify_topology(&problem, &topo).is_reliable());
            for &sw in topo.selected_switches().to_vec().iter() {
                let _ = topo.upgrade_switch(sw);
            }
            assert!(
                verify_topology(&problem, &topo).is_reliable(),
                "case {case}: upgrades must never break reliability"
            );
        }
    }
}

/// The analyzer's verdict agrees with a brute-force check over all
/// switch subsets (tiny instances).
#[test]
fn analyzer_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xc04e_4000 + case);
        let problem = random_problem(&mut rng);
        let seed = rng.next_u64();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        // A random mid-construction topology.
        let mut env = PlanningEnv::new(problem.clone(), 6, 1e3, 64, &mut rng);
        for _ in 0..6 {
            let Some(idx) = (0..env.action_count()).find(|&i| env.mask()[i]) else { break };
            if env.step(idx, &mut rng).done {
                break;
            }
        }
        let topo = env.topology().clone();
        let verdict = verify_topology(&problem, &topo);
        // Brute force: every subset of selected switches (incl. empty).
        let switches = topo.selected_switches().to_vec();
        let r = problem.reliability_goal();
        let mut all_pass = true;
        for bits in 0..(1u32 << switches.len()) {
            let subset: Vec<NodeId> = switches
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, &s)| s)
                .collect();
            let fault = FailureScenario::switches(subset);
            if topo.failure_probability(&fault) < r {
                continue;
            }
            let out = problem.nbf().recover(&topo, &fault, problem.tas(), problem.flows());
            if !out.errors.is_empty() {
                all_pass = false;
                break;
            }
        }
        assert_eq!(matches!(verdict, Verdict::Reliable), all_pass, "case {case}");
    }
}
