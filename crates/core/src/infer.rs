//! Batched policy deployment: K infer requests against one checkpoint run
//! their episodes in lockstep so every step's K forwards fuse into a
//! single [`PolicyNetwork::try_evaluate_many`] call.
//!
//! Each lane replays the exact semantics of
//! [`Planner::plan_with_policy`] — it starts every attempt's RNG stream
//! and environment through the same function as the solo path, and picks
//! actions the same greedy way — so a lane's result is bitwise
//! independent of who else shares its batch (pinned by this module's
//! tests). The lanes run in lockstep on the calling thread. Lanes are
//! isolated: a panic or injected fault (chaos site `infer.batch`) fails
//! one lane while its batch-mates run to completion.

use nptsn_rand::rngs::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::encode::Observation;
use crate::env::PlanningEnv;
use crate::model::PolicyNetwork;
use crate::planner::Planner;
use crate::solution::{keep_best, Solution};

/// One request of a batched deployment run: which planner (problem +
/// config) to plan, how many greedy attempts, and the attempt seed —
/// the exact argument set of [`Planner::plan_with_policy`].
pub struct InferLane<'a> {
    /// The problem and configuration this lane plans.
    pub planner: &'a Planner,
    /// Number of greedy episodes to run.
    pub attempts: usize,
    /// Base seed; attempt `i` uses `seed.wrapping_add(i)`.
    pub seed: u64,
}

/// Internal per-lane episode state.
struct LaneState<'a> {
    lane: &'a InferLane<'a>,
    attempt: usize,
    /// The live attempt's RNG stream and environment, as
    /// [`Planner::start_attempt`] starts them; `None` between attempts.
    episode: Option<(StdRng, PlanningEnv)>,
    best: Option<Solution>,
    outcome: Option<Result<Option<Solution>, String>>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string());
    format!("infer episode panicked: {detail}")
}

/// Plans all `lanes` with one shared `policy`, coalescing each lockstep
/// round's policy forwards into a single batched evaluation.
///
/// Per lane this is exactly [`Planner::plan_with_policy`] — same RNG
/// streams, same environments, same greedy action choice, and (because
/// [`PolicyNetwork::try_evaluate_many`] is bitwise identical to solo
/// evaluation) the same `Solution` — so coalescing never changes a
/// request's answer. Error isolation per lane:
///
/// - chaos site `infer.batch` fires once per lane before its first
///   episode; an injected fault fails that lane alone,
/// - a panic inside a lane's environment (construction or stepping)
///   fails that lane alone,
/// - a lane whose problem dimensions disagree with lane 0 (the batch
///   leader the caller validated against `policy`) fails up front with a
///   shape message.
///
/// Returns one `Result` per lane, in order: `Ok(Some)` with the cheapest
/// verified solution, `Ok(None)` when no attempt found a plan, `Err` with
/// a description when the lane failed.
pub fn plan_with_policy_batch(
    policy: &PolicyNetwork,
    lanes: &[InferLane<'_>],
) -> Vec<Result<Option<Solution>, String>> {
    let _span = nptsn_obs::span("infer.batch");
    let mut states: Vec<LaneState<'_>> = lanes
        .iter()
        .map(|lane| LaneState {
            lane,
            attempt: 0,
            episode: None,
            best: None,
            outcome: None,
        })
        .collect();

    // Up-front per-lane gates: the chaos site, then dimensional agreement
    // with the batch leader (whose dims the caller validated against the
    // checkpoint). Both fail one lane without touching its batch-mates.
    let leader_dims = lanes.first().map(|l| l.planner.network_dims());
    for state in &mut states {
        match catch_unwind(|| nptsn_chaos::point("infer.batch")) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                state.outcome = Some(Err(e.to_string()));
                continue;
            }
            Err(payload) => {
                state.outcome = Some(Err(panic_message(payload)));
                continue;
            }
        }
        let dims = state.lane.planner.network_dims();
        if Some(dims) != leader_dims {
            state.outcome = Some(Err(format!(
                "infer batch shape mismatch: lane dims {dims:?} differ from leader {:?}",
                leader_dims.expect("non-empty batch")
            )));
        }
    }

    while states.iter().any(|s| s.outcome.is_none()) {
        // Ensure every unfinished lane has a live episode, retiring lanes
        // whose attempts are exhausted. A fresh environment whose mask is
        // already all-false ends that attempt immediately, exactly like
        // the solo loop's leading mask check.
        for state in &mut states {
            if state.outcome.is_some() || state.episode.is_some() {
                continue;
            }
            loop {
                if state.attempt >= state.lane.attempts {
                    state.outcome = Some(Ok(state.best.take()));
                    break;
                }
                let lane = state.lane;
                let started = catch_unwind(AssertUnwindSafe(|| {
                    lane.planner.start_attempt(lane.seed, state.attempt)
                }));
                let (rng, env) = match started {
                    Ok(started) => started,
                    Err(payload) => {
                        state.outcome = Some(Err(panic_message(payload)));
                        break;
                    }
                };
                if env.mask().iter().all(|&m| !m) {
                    state.attempt += 1;
                    continue;
                }
                state.episode = Some((rng, env));
                break;
            }
        }

        // One batched forward for every live lane.
        let active: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.outcome.is_none() && s.episode.is_some())
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            continue;
        }
        let evaluated = {
            let batch: Vec<(&Observation, &[bool])> = active
                .iter()
                .map(|&i| {
                    let (_, env) = states[i]
                        .episode
                        .as_ref()
                        .expect("active lane has an episode");
                    (env.observation(), env.mask())
                })
                .collect();
            policy.try_evaluate_many(&batch)
        };
        let actions: Vec<usize> = match evaluated {
            Ok(rows) => rows.iter().map(|log_probs| nptsn_rl::best_action(log_probs).0).collect(),
            Err(e) => {
                // Pre-validation makes this unreachable for well-formed
                // lanes; if it fires anyway, no lane can be stepped.
                for &i in &active {
                    states[i].outcome = Some(Err(e.to_string()));
                }
                continue;
            }
        };

        // Step each lane with its own RNG stream, isolating panics.
        for (&i, &action) in active.iter().zip(&actions) {
            let state = &mut states[i];
            let (rng, env) = state.episode.as_mut().expect("active lane has an episode");
            let stepped = catch_unwind(AssertUnwindSafe(|| env.step(action, rng)));
            match stepped {
                Ok(outcome) => {
                    if let Some(sol) = outcome.solution {
                        keep_best(&mut state.best, sol);
                    }
                    if outcome.done || env.mask().iter().all(|&m| !m) {
                        state.episode = None;
                        state.attempt += 1;
                    }
                }
                Err(payload) => {
                    state.episode = None;
                    state.outcome = Some(Err(panic_message(payload)));
                }
            }
        }
    }

    states
        .into_iter()
        .map(|s| s.outcome.expect("loop exits only when every lane finished"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlannerConfig;
    use crate::problem::PlanningProblem;
    use nptsn_sched::{FlowSet, FlowSpec, ShortestPathRecovery, TasConfig};
    use nptsn_topo::{ComponentLibrary, ConnectionGraph};
    use std::sync::Arc;

    fn theta_problem(extra_switch: bool) -> PlanningProblem {
        let mut gc = ConnectionGraph::new();
        let a = gc.add_end_station("a");
        let b = gc.add_end_station("b");
        let s0 = gc.add_switch("s0");
        let s1 = gc.add_switch("s1");
        for (u, v) in [(a, s0), (s0, b), (a, s1), (s1, b), (s0, s1)] {
            gc.add_candidate_link(u, v, 1.0).unwrap();
        }
        if extra_switch {
            let s2 = gc.add_switch("s2");
            gc.add_candidate_link(a, s2, 1.0).unwrap();
            gc.add_candidate_link(s2, b, 1.0).unwrap();
        }
        let flows = FlowSet::new(vec![FlowSpec::new(a, b, 500, 128)]).unwrap();
        PlanningProblem::new(
            Arc::new(gc),
            ComponentLibrary::automotive(),
            TasConfig::default(),
            flows,
            1e-6,
            Arc::new(ShortestPathRecovery::new()),
        )
        .unwrap()
    }

    #[test]
    fn batched_plans_identical_to_solo_plans() {
        let planner = Planner::new(theta_problem(false), PlannerConfig::smoke_test());
        let policy = planner.build_policy();
        // Mixed attempts and seeds: lanes at different episode lengths
        // keep entering/leaving the batch mid-run.
        let specs = [(3usize, 11u64), (1, 99), (2, 7), (4, 11)];
        let lanes: Vec<InferLane<'_>> = specs
            .iter()
            .map(|&(attempts, seed)| InferLane { planner: &planner, attempts, seed })
            .collect();
        let batched = plan_with_policy_batch(&policy, &lanes);
        for (i, &(attempts, seed)) in specs.iter().enumerate() {
            let solo = planner.plan_with_policy(&policy, attempts, seed);
            let got = batched[i].as_ref().expect("lane should not fail");
            assert_eq!(
                got.as_ref().map(|s| (s.cost, s.topology.clone())),
                solo.as_ref().map(|s| (s.cost, s.topology.clone())),
                "lane {i} diverged from its solo twin"
            );
        }
    }

    #[test]
    fn mismatched_lane_fails_alone() {
        let small = Planner::new(theta_problem(false), PlannerConfig::smoke_test());
        let big = Planner::new(theta_problem(true), PlannerConfig::smoke_test());
        let policy = small.build_policy();
        let lanes = [
            InferLane { planner: &small, attempts: 1, seed: 5 },
            InferLane { planner: &big, attempts: 1, seed: 5 },
        ];
        let results = plan_with_policy_batch(&policy, &lanes);
        let solo = small.plan_with_policy(&policy, 1, 5);
        assert_eq!(
            results[0].as_ref().unwrap().as_ref().map(|s| s.cost),
            solo.as_ref().map(|s| s.cost),
            "good lane must still match its solo result"
        );
        let err = results[1].as_ref().unwrap_err();
        assert!(err.contains("shape mismatch"), "got: {err}");
    }

    #[test]
    fn empty_batch_returns_nothing() {
        let planner = Planner::new(theta_problem(false), PlannerConfig::smoke_test());
        let policy = planner.build_policy();
        assert!(plan_with_policy_batch(&policy, &[]).is_empty());
    }
}
