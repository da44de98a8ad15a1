//! Generic explicit-state bounded exploration.
//!
//! The explorer is independent of TFMCC: anything implementing [`Model`]
//! (an initial state, enabled actions, a transition function, a state
//! fingerprint and an invariant check) can be explored exhaustively up to
//! the configured limits.  States are deduplicated by fingerprint, so the
//! search visits each distinct state once no matter how many interleavings
//! reach it; on an invariant violation the exact action schedule that
//! reached the bad state is reconstructed for replay.

#[allow(
    clippy::disallowed_types,
    reason = "fingerprint dedup set: membership-only, iteration order never escapes, and hashing u64 fingerprints is the hot loop of the explorer"
)]
use std::collections::{HashSet, VecDeque};
use std::rc::Rc;

/// A transition system the explorer can walk.
pub trait Model {
    /// Full system state; cloned once per explored transition.
    type State: Clone;
    /// One schedulable step (deliver a message, advance time, ...).
    type Action: Clone + std::fmt::Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;
    /// All actions schedulable from `state`, in a deterministic order.
    fn enabled(&self, state: &Self::State) -> Vec<Self::Action>;
    /// The successor state reached by taking `action` from `state`.
    fn apply(&self, state: &Self::State, action: &Self::Action) -> Self::State;
    /// Deterministic fingerprint used for state deduplication.
    fn fingerprint(&self, state: &Self::State) -> u64;
    /// Checks every invariant; `Err((invariant, message))` on violation.
    fn check(&self, state: &Self::State) -> Result<(), (String, String)>;
}

/// Exploration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Depth-first: low memory, finds deep violations fast.
    Dfs,
    /// Breadth-first: finds a *shortest* schedule to any violation.
    Bfs,
}

/// Exploration bounds.  Exceeding either marks the outcome truncated rather
/// than failing.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum number of distinct states to expand.
    pub max_states: usize,
    /// Maximum schedule depth to descend to.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_states: 1_000_000,
            max_depth: usize::MAX,
        }
    }
}

/// An invariant violation, with the schedule that reproduces it from the
/// initial state.
#[derive(Debug, Clone)]
pub struct Violation<A> {
    /// Name of the violated invariant.
    pub invariant: String,
    /// Human-readable description of what went wrong.
    pub message: String,
    /// The action sequence from the initial state to the violating state.
    pub schedule: Vec<A>,
}

/// Result of an exploration run.
#[derive(Debug, Clone)]
pub struct CheckOutcome<A> {
    /// Distinct states visited (after fingerprint deduplication).
    pub states_explored: usize,
    /// Successor states skipped because their fingerprint was already seen.
    pub dedup_hits: usize,
    /// Deepest schedule reached.
    pub max_depth_seen: usize,
    /// True when a limit cut the exploration short (the state space was NOT
    /// exhausted).
    pub truncated: bool,
    /// The first violation found, if any.
    pub violation: Option<Violation<A>>,
}

/// Reverse-linked schedule node, shared between sibling branches so the
/// frontier costs O(1) memory per entry instead of O(depth).
struct PathNode<A> {
    action: A,
    parent: Option<Rc<PathNode<A>>>,
}

fn unwind<A: Clone>(mut node: Option<&Rc<PathNode<A>>>) -> Vec<A> {
    let mut actions = Vec::new();
    while let Some(n) = node {
        actions.push(n.action.clone());
        node = n.parent.as_ref();
    }
    actions.reverse();
    actions
}

/// Explores `model` from its initial state until the state space is
/// exhausted, a limit is hit, or an invariant is violated.
pub fn explore<M: Model>(model: &M, strategy: Strategy, limits: Limits) -> CheckOutcome<M::Action> {
    let mut outcome = CheckOutcome {
        states_explored: 0,
        dedup_hits: 0,
        max_depth_seen: 0,
        truncated: false,
        violation: None,
    };

    let initial = model.initial();
    if let Err((invariant, message)) = model.check(&initial) {
        outcome.violation = Some(Violation {
            invariant,
            message,
            schedule: Vec::new(),
        });
        return outcome;
    }

    #[allow(
        clippy::disallowed_types,
        reason = "membership-only probe set of u64 fingerprints; never iterated, so ordering cannot leak into exploration results"
    )]
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(model.fingerprint(&initial));
    outcome.states_explored = 1;

    type Entry<M> = (
        <M as Model>::State,
        usize,
        Option<Rc<PathNode<<M as Model>::Action>>>,
    );
    let mut frontier: VecDeque<Entry<M>> = VecDeque::new();
    frontier.push_back((initial, 0, None));

    while let Some((state, depth, path)) = match strategy {
        Strategy::Dfs => frontier.pop_back(),
        Strategy::Bfs => frontier.pop_front(),
    } {
        if depth >= limits.max_depth {
            outcome.truncated = true;
            continue;
        }
        for action in model.enabled(&state) {
            let next = model.apply(&state, &action);
            if !visited.insert(model.fingerprint(&next)) {
                outcome.dedup_hits += 1;
                continue;
            }
            let node = Rc::new(PathNode {
                action,
                parent: path.clone(),
            });
            if let Err((invariant, message)) = model.check(&next) {
                outcome.violation = Some(Violation {
                    invariant,
                    message,
                    schedule: unwind(Some(&node)),
                });
                return outcome;
            }
            outcome.states_explored += 1;
            outcome.max_depth_seen = outcome.max_depth_seen.max(depth + 1);
            if outcome.states_explored >= limits.max_states {
                outcome.truncated = true;
                return outcome;
            }
            frontier.push_back((next, depth + 1, Some(node)));
        }
    }
    outcome
}

/// Replays a recorded schedule from the initial state, checking invariants
/// after every step.
///
/// Errors when a step is not enabled (the model drifted from the recording)
/// or when an invariant is violated; the error message names the invariant,
/// so regression tests can assert a quarantined counterexample still fails
/// the same way.
pub fn run_schedule<M: Model>(model: &M, schedule: &[M::Action]) -> Result<M::State, String>
where
    M::Action: PartialEq,
{
    let mut state = model.initial();
    if let Err((invariant, message)) = model.check(&state) {
        return Err(format!(
            "invariant {invariant} violated in the initial state: {message}"
        ));
    }
    for (step, action) in schedule.iter().enumerate() {
        if !model.enabled(&state).contains(action) {
            return Err(format!("schedule step {step} ({action:?}) is not enabled"));
        }
        state = model.apply(&state, action);
        if let Err((invariant, message)) = model.check(&state) {
            return Err(format!(
                "invariant {invariant} violated after step {step} ({action:?}): {message}"
            ));
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy model: a pair of counters, each incrementable up to `limit`.
    /// The state space is the (limit+1)² grid — every cell reachable by many
    /// interleavings, so dedup is essential and the counts are predictable.
    struct Grid {
        limit: u32,
        forbidden: Option<(u32, u32)>,
    }

    impl Model for Grid {
        type State = (u32, u32);
        type Action = u8; // 0 = increment x, 1 = increment y

        fn initial(&self) -> (u32, u32) {
            (0, 0)
        }
        fn enabled(&self, &(x, y): &(u32, u32)) -> Vec<u8> {
            let mut acts = Vec::new();
            if x < self.limit {
                acts.push(0);
            }
            if y < self.limit {
                acts.push(1);
            }
            acts
        }
        fn apply(&self, &(x, y): &(u32, u32), action: &u8) -> (u32, u32) {
            match action {
                0 => (x + 1, y),
                _ => (x, y + 1),
            }
        }
        fn fingerprint(&self, &(x, y): &(u32, u32)) -> u64 {
            (u64::from(x) << 32) | u64::from(y)
        }
        fn check(&self, state: &(u32, u32)) -> Result<(), (String, String)> {
            if Some(*state) == self.forbidden {
                Err(("forbidden".into(), format!("reached {state:?}")))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn exhausts_the_grid_exactly_once_per_state() {
        let model = Grid {
            limit: 9,
            forbidden: None,
        };
        for strategy in [Strategy::Dfs, Strategy::Bfs] {
            let out = explore(&model, strategy, Limits::default());
            assert!(out.violation.is_none());
            assert!(!out.truncated);
            assert_eq!(out.states_explored, 100, "10x10 grid");
            assert_eq!(out.max_depth_seen, 18, "corner is 9+9 steps away");
            assert!(out.dedup_hits > 0, "many interleavings merge");
        }
    }

    #[test]
    fn bfs_finds_a_shortest_schedule() {
        let model = Grid {
            limit: 9,
            forbidden: Some((2, 1)),
        };
        let out = explore(&model, Strategy::Bfs, Limits::default());
        let violation = out.violation.expect("must reach (2,1)");
        assert_eq!(violation.invariant, "forbidden");
        assert_eq!(violation.schedule.len(), 3);
        // The schedule must actually reproduce the violation.
        let err = run_schedule(&model, &violation.schedule).unwrap_err();
        assert!(err.contains("forbidden"), "{err}");
    }

    #[test]
    fn dfs_violation_schedules_replay_too() {
        let model = Grid {
            limit: 9,
            forbidden: Some((5, 5)),
        };
        let out = explore(&model, Strategy::Dfs, Limits::default());
        let violation = out.violation.expect("must reach (5,5)");
        let err = run_schedule(&model, &violation.schedule).unwrap_err();
        assert!(err.contains("forbidden"), "{err}");
    }

    #[test]
    fn limits_truncate_instead_of_failing() {
        let model = Grid {
            limit: 1000,
            forbidden: None,
        };
        let out = explore(
            &model,
            Strategy::Bfs,
            Limits {
                max_states: 50,
                max_depth: usize::MAX,
            },
        );
        assert!(out.truncated);
        assert_eq!(out.states_explored, 50);
        let out = explore(
            &model,
            Strategy::Bfs,
            Limits {
                max_states: usize::MAX,
                max_depth: 3,
            },
        );
        assert!(out.truncated);
        assert_eq!(out.max_depth_seen, 3);
    }

    #[test]
    fn run_schedule_rejects_disabled_actions() {
        let model = Grid {
            limit: 1,
            forbidden: None,
        };
        // Three increments of x exceed the limit: the third is not enabled.
        let err = run_schedule(&model, &[0, 0, 0]).unwrap_err();
        assert!(err.contains("not enabled"), "{err}");
        assert!(run_schedule(&model, &[0, 1]).is_ok());
    }
}
