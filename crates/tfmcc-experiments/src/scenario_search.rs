//! Worst-case scenario search: simulated annealing over the churn / loss /
//! RTT / session-count / queue-discipline grids, looking for the
//! configurations with the *worst* inter-session fairness (lowest Jain
//! index) and the *slowest* CLR recovery after a departure.
//!
//! The bounded model checker (`tfmcc-mc`) proves small configurations
//! exhaustively; this driver covers the complementary regime — full
//! simulations, too large to enumerate — by searching the parameter space
//! instead of sweeping it uniformly.  Each annealing iteration proposes
//! [`CANDIDATES`] random neighbours of the current point (one grid dimension
//! mutated each), evaluates them in parallel on the [`SweepRunner`], greedily
//! picks the worst, and accepts or rejects it with the Metropolis rule under
//! a geometrically cooling temperature.  All randomness derives from the
//! base seed, and candidates are evaluated through the sweep runner in point
//! order, so the search is byte-identical for any thread count.
//!
//! Every simulation carries its own seed inside the [`Scenario`], so any
//! point the search visits can be written out as a `tfmcc-replay-v1` file
//! ([`to_replay`]) and re-executed bit-exactly later ([`replay_scenario`]) —
//! that is how worst cases found here become regression tests.  Set
//! `TFMCC_REPLAY_DIR` to make `figs scenario_search` write the two
//! worst-case replays there.

use netsim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tfmcc_agents::manager::{SessionManager, SessionSpec};
use tfmcc_agents::population::PopulationSpec;
use tfmcc_agents::session::ReceiverSpec;
use tfmcc_mc::replay::Replay;
use tfmcc_runner::{Sweep, SweepRunner};

use crate::output::{Figure, Series};
use crate::scale::Scale;

/// Neighbour candidates proposed (and evaluated in parallel) per annealing
/// iteration.  A constant — not the thread count — so results do not depend
/// on the executor.
pub const CANDIDATES: usize = 4;

/// Geometric cooling factor per iteration.
const COOLING: f64 = 0.85;

/// Session-count grid.
const SESSIONS: &[usize] = &[1, 2, 3];
/// Receivers-per-session grid.
const RECEIVERS: &[usize] = &[2, 4, 6];
/// Bottleneck Bernoulli loss grid (both directions, so receiver reports and
/// leave announcements are droppable too).
const LOSS: &[f64] = &[0.0, 0.005, 0.01, 0.02, 0.05];
/// Bottleneck one-way propagation delay grid (seconds).
const DELAY: &[f64] = &[0.01, 0.02, 0.05, 0.1];
/// Churn grid: `(on_secs, off_secs)` duty cycles for the churning half of
/// each receiver population; `None` = static membership.
const CHURN: &[Option<(f64, f64)>] = &[None, Some((8.0, 4.0)), Some((4.0, 4.0)), Some((2.0, 2.0))];
/// Bottleneck queue-discipline grid: classic drop-tail plus the two AQM
/// variants from `netsim::queue`, so the search can probe whether
/// probabilistic early drops (gentle RED) or sojourn-based drops (CoDel)
/// open new worst cases.  Names match fig24's `gentle-red` label.
const QUEUES: &[&str] = &["drop-tail", "gentle-red", "codel"];

/// Materialises a grid queue name as a bottleneck discipline (all at the
/// same 100-packet limit the search always used for drop-tail).
fn queue_discipline(name: &str) -> QueueDiscipline {
    match name {
        "gentle-red" => QueueDiscipline::red_gentle(100),
        "codel" => QueueDiscipline::codel(100),
        _ => QueueDiscipline::drop_tail(100),
    }
}

/// One point of the search space: grid indices plus the simulation seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Index into the session-count grid.
    pub sessions_idx: usize,
    /// Index into the receivers-per-session grid.
    pub receivers_idx: usize,
    /// Index into the loss grid.
    pub loss_idx: usize,
    /// Index into the delay grid.
    pub delay_idx: usize,
    /// Index into the churn grid.
    pub churn_idx: usize,
    /// Index into the queue-discipline grid.
    pub queue_idx: usize,
    /// The simulation seed (recorded in replays).
    pub seed: u64,
}

impl Scenario {
    /// Number of competing sessions.
    pub fn sessions(&self) -> usize {
        SESSIONS[self.sessions_idx]
    }
    /// Receivers per session.
    pub fn receivers(&self) -> usize {
        RECEIVERS[self.receivers_idx]
    }
    /// Bottleneck loss probability.
    pub fn loss(&self) -> f64 {
        LOSS[self.loss_idx]
    }
    /// Bottleneck one-way delay (seconds).
    pub fn delay(&self) -> f64 {
        DELAY[self.delay_idx]
    }
    /// Churn duty cycle, if any.
    pub fn churn(&self) -> Option<(f64, f64)> {
        CHURN[self.churn_idx]
    }
    /// Bottleneck queue-discipline name (`drop-tail`, `gentle-red` or
    /// `codel`).
    pub fn queue_name(&self) -> &'static str {
        QUEUES[self.queue_idx]
    }

    /// One-line human-readable description.
    pub fn describe(&self) -> String {
        format!(
            "K={} R={} loss={} delay={}s churn={:?} queue={} seed={}",
            self.sessions(),
            self.receivers(),
            self.loss(),
            self.delay(),
            self.churn(),
            self.queue_name(),
            self.seed
        )
    }
}

/// Deterministic metrics of one evaluated scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioOutcome {
    /// Jain fairness index over the sessions' mean throughputs.
    pub jain: f64,
    /// Slowest observed CLR recovery (seconds a sender sat CLR-less after a
    /// departure before re-electing), worst over the sessions.
    pub clr_recovery: f64,
    /// Lowest per-session mean throughput (bytes/second).
    pub min_throughput: f64,
    /// Total CLR changes across the sessions.
    pub clr_changes: u64,
}

/// Runs one full simulation of `scenario` for `duration` seconds and
/// returns its metrics.  Pure: same scenario + duration → bit-identical
/// outcome.
pub fn evaluate_scenario(scenario: &Scenario, duration: f64) -> ScenarioOutcome {
    let k = scenario.sessions();
    let receivers = scenario.receivers();
    let mut sim = Simulator::new(scenario.seed);
    let left = sim.add_node("left");
    let right = sim.add_node("right");
    let (lr, rl) = sim.add_duplex_link(
        left,
        right,
        1_000_000.0, // 8 Mbit/s shared bottleneck
        scenario.delay(),
        queue_discipline(scenario.queue_name()),
    );
    if scenario.loss() > 0.0 {
        // Lossy in both directions: data packets on the way out, receiver
        // reports and leave announcements on the way back.
        sim.set_link_loss(lr, LossModel::Bernoulli { p: scenario.loss() });
        sim.set_link_loss(rl, LossModel::Bernoulli { p: scenario.loss() });
    }
    let mut manager = SessionManager::new();
    for session in 0..k {
        let sender = sim.add_node(&format!("s{session}"));
        sim.add_duplex_link(
            sender,
            left,
            1_250_000.0,
            0.005,
            QueueDiscipline::drop_tail(60),
        );
        let specs: Vec<ReceiverSpec> = (0..receivers)
            .map(|i| {
                let node = sim.add_node(&format!("r{session}_{i}"));
                sim.add_duplex_link(
                    right,
                    node,
                    1_250_000.0,
                    0.005 + 0.002 * (i % 5) as f64,
                    QueueDiscipline::drop_tail(60),
                );
                // Odd receivers churn (when the scenario churns at all);
                // receiver 0 always stays so every session keeps a member.
                match scenario.churn() {
                    Some((on, off)) if i % 2 == 1 => ReceiverSpec::always(node).churning(on, off),
                    _ => ReceiverSpec::always(node),
                }
            })
            .collect();
        manager.add_population_session(
            &mut sim,
            &SessionSpec::default().starting_at(session as f64 * 2.0),
            sender,
            &PopulationSpec::packets(&specs),
        );
    }
    sim.run_until(SimTime::from_secs(duration));

    let from = (duration * 0.3).max(k as f64 * 2.0 + 2.0);
    let to = duration - 1.0;
    let report = manager.report(&sim, from, to.max(from + 1.0));
    ScenarioOutcome {
        jain: report.jain_index(),
        clr_recovery: report
            .sessions
            .iter()
            .map(|s| s.sender_stats.max_clr_recovery_secs)
            .fold(0.0, f64::max),
        min_throughput: report.min_throughput(),
        clr_changes: report
            .sessions
            .iter()
            .map(|s| s.sender_stats.clr_changes)
            .sum(),
    }
}

/// What the search minimises.  Lower = "worse" for the protocol = better
/// for the adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimise the Jain fairness index.
    WorstJain,
    /// Maximise the CLR recovery time (minimises its negation).
    SlowestClrRecovery,
}

impl Objective {
    /// Stable identifier for logs and replay files.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::WorstJain => "worst-jain",
            Objective::SlowestClrRecovery => "slowest-clr-recovery",
        }
    }

    fn score(&self, outcome: &ScenarioOutcome) -> f64 {
        match self {
            Objective::WorstJain => outcome.jain,
            Objective::SlowestClrRecovery => -outcome.clr_recovery,
        }
    }
}

/// One accepted-or-rejected annealing step, for the sweep log.
#[derive(Debug, Clone)]
pub struct SearchStep {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// The best candidate proposed this iteration.
    pub candidate: Scenario,
    /// Its metrics.
    pub outcome: ScenarioOutcome,
    /// Whether the Metropolis rule accepted it as the new current point.
    pub accepted: bool,
    /// Temperature at this step.
    pub temperature: f64,
}

/// Result of one annealing run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The objective searched.
    pub objective: Objective,
    /// The worst scenario found (by the objective).
    pub worst: Scenario,
    /// Its metrics.
    pub worst_outcome: ScenarioOutcome,
    /// The per-iteration log.
    pub log: Vec<SearchStep>,
}

/// Runs the simulated-annealing search for `objective`.
///
/// Deterministic in `(base_seed, duration, iterations)`; the thread count of
/// `runner` only affects wall time.
pub fn anneal(
    runner: &SweepRunner,
    objective: Objective,
    base_seed: u64,
    duration: f64,
    iterations: usize,
) -> SearchResult {
    let mut rng = SmallRng::seed_from_u64(base_seed);
    let mut current = Scenario {
        sessions_idx: SESSIONS.len() / 2,
        receivers_idx: RECEIVERS.len() / 2,
        loss_idx: LOSS.len() / 2,
        delay_idx: DELAY.len() / 2,
        churn_idx: CHURN.len() / 2,
        queue_idx: 0, // start from the classic drop-tail bottleneck
        seed: rng.gen::<u64>(),
    };
    let initial_outcome = evaluate_scenario(&current, duration);
    let mut current_score = objective.score(&initial_outcome);
    let mut worst = current;
    let mut worst_outcome = initial_outcome;
    let mut worst_score = current_score;
    let mut temperature = 1.0;
    let mut log = Vec::with_capacity(iterations);

    for iteration in 1..=iterations {
        // Propose CANDIDATES neighbours: mutate one grid dimension each and
        // re-seed the simulation, all from the search RNG.
        let candidates: Vec<Scenario> = (0..CANDIDATES)
            .map(|_| {
                let mut next = current;
                match rng.gen_range(0..6u32) {
                    0 => next.sessions_idx = rng.gen_range(0..SESSIONS.len()),
                    1 => next.receivers_idx = rng.gen_range(0..RECEIVERS.len()),
                    2 => next.loss_idx = rng.gen_range(0..LOSS.len()),
                    3 => next.delay_idx = rng.gen_range(0..DELAY.len()),
                    4 => next.churn_idx = rng.gen_range(0..CHURN.len()),
                    _ => next.queue_idx = rng.gen_range(0..QUEUES.len()),
                }
                next.seed = rng.gen::<u64>();
                next
            })
            .collect();
        let sweep = Sweep::new(
            format!("{}-{iteration}", objective.name()),
            base_seed ^ iteration as u64,
            candidates,
        );
        let outcomes = runner.run(&sweep, |pt| evaluate_scenario(pt.value, duration));

        // Greedily take the worst candidate of the batch...
        let (best_idx, best_outcome) = outcomes
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                objective
                    .score(a)
                    .partial_cmp(&objective.score(b))
                    .expect("scores are never NaN")
            })
            .expect("CANDIDATES > 0");
        let candidate = sweep.points()[best_idx];
        let candidate_score = objective.score(best_outcome);

        // ...then Metropolis-accept it against the current point.
        let accepted = candidate_score < current_score
            || rng.gen::<f64>() < ((current_score - candidate_score) / temperature).exp();
        if accepted {
            current = candidate;
            current_score = candidate_score;
        }
        if candidate_score < worst_score {
            worst = candidate;
            worst_outcome = *best_outcome;
            worst_score = candidate_score;
        }
        log.push(SearchStep {
            iteration,
            candidate,
            outcome: *best_outcome,
            accepted,
            temperature,
        });
        temperature *= COOLING;
    }

    SearchResult {
        objective,
        worst,
        worst_outcome,
        log,
    }
}

/// Serialises a searched scenario (plus its expected metrics) as a
/// `tfmcc-replay-v1` file of kind `scenario`.
pub fn to_replay(
    objective: Objective,
    scenario: &Scenario,
    duration: f64,
    outcome: &ScenarioOutcome,
) -> Replay {
    let mut r = Replay::new("scenario");
    r.set("objective", objective.name());
    r.set("seed", &scenario.seed.to_string());
    r.set("sessions", &scenario.sessions().to_string());
    r.set("receivers", &scenario.receivers().to_string());
    r.set_f64_bits("loss", scenario.loss());
    r.set_f64_bits("delay", scenario.delay());
    match scenario.churn() {
        Some((on, off)) => {
            r.set_f64_bits("churn_on", on);
            r.set_f64_bits("churn_off", off);
        }
        None => r.set("churn", "none"),
    }
    r.set("queue", scenario.queue_name());
    r.set_f64_bits("duration", duration);
    r.set_f64_bits("expected_jain", outcome.jain);
    r.set_f64_bits("expected_recovery", outcome.clr_recovery);
    r
}

/// Re-executes a `scenario` replay and checks the recorded metrics
/// bit-exactly.  Returns the re-measured outcome, or a message naming the
/// first divergence.
pub fn replay_scenario(replay: &Replay) -> Result<ScenarioOutcome, String> {
    if replay.get("kind") != Some("scenario") {
        return Err("not a scenario replay".into());
    }
    let grid_index = |grid: &[f64], value: f64, what: &str| -> Result<usize, String> {
        grid.iter()
            .position(|g| g.to_bits() == value.to_bits())
            .ok_or_else(|| format!("{what} {value} is not on the search grid"))
    };
    let sessions: usize = replay
        .require("sessions")?
        .parse()
        .map_err(|e| format!("sessions: {e}"))?;
    let receivers: usize = replay
        .require("receivers")?
        .parse()
        .map_err(|e| format!("receivers: {e}"))?;
    let churn = match replay.get("churn") {
        Some("none") => None,
        _ => Some((
            replay.require_f64_bits("churn_on")?,
            replay.require_f64_bits("churn_off")?,
        )),
    };
    let scenario = Scenario {
        sessions_idx: SESSIONS
            .iter()
            .position(|&s| s == sessions)
            .ok_or_else(|| format!("session count {sessions} is not on the search grid"))?,
        receivers_idx: RECEIVERS
            .iter()
            .position(|&r| r == receivers)
            .ok_or_else(|| format!("receiver count {receivers} is not on the search grid"))?,
        loss_idx: grid_index(LOSS, replay.require_f64_bits("loss")?, "loss")?,
        delay_idx: grid_index(DELAY, replay.require_f64_bits("delay")?, "delay")?,
        churn_idx: CHURN
            .iter()
            .position(|&c| c == churn)
            .ok_or_else(|| format!("churn {churn:?} is not on the search grid"))?,
        // Replays recorded before the queue-discipline grid existed carry no
        // `queue` key; they were all drop-tail.
        queue_idx: {
            let queue = replay.get("queue").unwrap_or("drop-tail");
            QUEUES
                .iter()
                .position(|&q| q == queue)
                .ok_or_else(|| format!("queue '{queue}' is not on the search grid"))?
        },
        seed: replay
            .require("seed")?
            .parse()
            .map_err(|e| format!("seed: {e}"))?,
    };
    let duration = replay.require_f64_bits("duration")?;
    let outcome = evaluate_scenario(&scenario, duration);
    let expected_jain = replay.require_f64_bits("expected_jain")?;
    if outcome.jain.to_bits() != expected_jain.to_bits() {
        return Err(format!(
            "Jain index diverged from the recording: expected {expected_jain}, got {}",
            outcome.jain
        ));
    }
    let expected_recovery = replay.require_f64_bits("expected_recovery")?;
    if outcome.clr_recovery.to_bits() != expected_recovery.to_bits() {
        return Err(format!(
            "CLR recovery diverged from the recording: expected {expected_recovery}, got {}",
            outcome.clr_recovery
        ));
    }
    Ok(outcome)
}

/// The scenario-search "figure": runs both annealing objectives, reports
/// their trajectories and worst cases, and — when `TFMCC_REPLAY_DIR` is set
/// — writes the two worst-case replay files there.
pub fn scenario_search(runner: &SweepRunner, scale: Scale) -> Figure {
    let duration = scale.pick(20.0, 120.0);
    let iterations = scale.pick(4, 24);
    let base_seed = 0x5ca1ab1e;

    let mut fig = Figure::new(
        "scenario_search",
        "Worst-case scenario search: annealing over churn/loss/RTT/session/queue grids",
        "iteration",
        "objective value",
    );
    let mut notes = Vec::new();
    for objective in [Objective::WorstJain, Objective::SlowestClrRecovery] {
        let result = anneal(runner, objective, base_seed, duration, iterations);
        let series_points = result
            .log
            .iter()
            .map(|s| {
                let y = match objective {
                    Objective::WorstJain => s.outcome.jain,
                    Objective::SlowestClrRecovery => s.outcome.clr_recovery,
                };
                (s.iteration as f64, y)
            })
            .collect();
        fig.push_series(Series::new(objective.name(), series_points));
        notes.push(format!(
            "{}: {} -> jain={:.4} recovery={:.3}s ({} CLR changes)",
            objective.name(),
            result.worst.describe(),
            result.worst_outcome.jain,
            result.worst_outcome.clr_recovery,
            result.worst_outcome.clr_changes,
        ));
        #[allow(
            clippy::disallowed_methods,
            reason = "names an output directory only; the figure is the same with or without it"
        )]
        let replay_dir = std::env::var("TFMCC_REPLAY_DIR");
        if let Ok(dir) = replay_dir {
            let replay = to_replay(objective, &result.worst, duration, &result.worst_outcome);
            let path = std::path::Path::new(&dir).join(format!("{}.replay", objective.name()));
            if let Err(err) = std::fs::write(&path, replay.render()) {
                eprintln!("warning: cannot write {}: {err}", path.display());
            }
        }
    }
    fig.note(notes.join("; "));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfmcc_runner::SweepRunner;

    fn tiny() -> Scenario {
        Scenario {
            sessions_idx: 1, // 2 sessions
            receivers_idx: 0,
            loss_idx: 2, // 1% loss
            delay_idx: 1,
            churn_idx: 2, // 4s on / 4s off
            queue_idx: 0, // drop-tail
            seed: 7,
        }
    }

    #[test]
    fn evaluation_is_bit_reproducible() {
        let a = evaluate_scenario(&tiny(), 15.0);
        let b = evaluate_scenario(&tiny(), 15.0);
        assert_eq!(a.jain.to_bits(), b.jain.to_bits());
        assert_eq!(a.clr_recovery.to_bits(), b.clr_recovery.to_bits());
        assert_eq!(a.clr_changes, b.clr_changes);
        assert!(a.jain > 0.0 && a.jain <= 1.0 + 1e-12);
        assert!(a.clr_recovery >= 0.0);
    }

    #[test]
    fn churn_produces_clr_vacancies_to_recover_from() {
        let out = evaluate_scenario(&tiny(), 15.0);
        // With churning receivers some departures must hit the CLR, so the
        // recovery metric is actually exercised.
        assert!(
            out.clr_changes > 0,
            "churn at 1% loss should force CLR changes"
        );
    }

    #[test]
    fn replay_round_trips_bit_exactly() {
        let scenario = tiny();
        let outcome = evaluate_scenario(&scenario, 15.0);
        let replay = to_replay(Objective::WorstJain, &scenario, 15.0, &outcome);
        let parsed = Replay::parse(&replay.render()).unwrap();
        let replayed = replay_scenario(&parsed).expect("replay must match bit-exactly");
        assert_eq!(replayed.jain.to_bits(), outcome.jain.to_bits());

        // A forged expectation must be caught.
        let mut forged = to_replay(Objective::WorstJain, &scenario, 15.0, &outcome);
        forged.set_f64_bits("expected_jain", outcome.jain + 0.25);
        let err = replay_scenario(&forged).unwrap_err();
        assert!(err.contains("Jain index diverged"), "{err}");
    }

    #[test]
    fn aqm_points_evaluate_and_replay_round_trip() {
        // A gentle-RED bottleneck point: still bit-reproducible, and the
        // replay carries the queue name so it re-executes on the same
        // discipline.  No random loss and no churn, so congestion alone
        // fills the queue deep enough for RED's early drops to matter.
        let scenario = Scenario {
            loss_idx: 0,
            churn_idx: 0,
            queue_idx: 1, // gentle-red
            ..tiny()
        };
        let a = evaluate_scenario(&scenario, 15.0);
        let b = evaluate_scenario(&scenario, 15.0);
        assert_eq!(a.jain.to_bits(), b.jain.to_bits());
        let drop_tail = evaluate_scenario(
            &Scenario {
                queue_idx: 0,
                ..scenario
            },
            15.0,
        );
        assert_ne!(
            (a.jain.to_bits(), a.min_throughput.to_bits()),
            (drop_tail.jain.to_bits(), drop_tail.min_throughput.to_bits()),
            "the queue dimension must actually reach the bottleneck"
        );
        let replay = to_replay(Objective::WorstJain, &scenario, 15.0, &a);
        assert_eq!(replay.get("queue"), Some("gentle-red"));
        let parsed = Replay::parse(&replay.render()).unwrap();
        let replayed = replay_scenario(&parsed).expect("AQM replay must match bit-exactly");
        assert_eq!(replayed.jain.to_bits(), a.jain.to_bits());
    }

    #[test]
    fn replays_without_a_queue_key_default_to_drop_tail() {
        // Replays recorded before the queue grid existed must keep
        // re-executing unchanged.
        let outcome = evaluate_scenario(&tiny(), 15.0);
        let replay = to_replay(Objective::WorstJain, &tiny(), 15.0, &outcome);
        let legacy: String = replay
            .render()
            .lines()
            .filter(|line| !line.starts_with("queue="))
            .map(|line| format!("{line}\n"))
            .collect();
        let parsed = Replay::parse(&legacy).unwrap();
        assert_eq!(parsed.get("queue"), None);
        let replayed = replay_scenario(&parsed).expect("legacy replay must still match");
        assert_eq!(replayed.jain.to_bits(), outcome.jain.to_bits());
    }

    #[test]
    fn anneal_is_thread_count_invariant() {
        let serial = anneal(&SweepRunner::new(1), Objective::WorstJain, 99, 10.0, 2);
        let parallel = anneal(&SweepRunner::new(4), Objective::WorstJain, 99, 10.0, 2);
        assert_eq!(serial.worst, parallel.worst);
        assert_eq!(
            serial.worst_outcome.jain.to_bits(),
            parallel.worst_outcome.jain.to_bits()
        );
        assert_eq!(serial.log.len(), 2);
        for (a, b) in serial.log.iter().zip(&parallel.log) {
            assert_eq!(a.candidate, b.candidate);
            assert_eq!(a.accepted, b.accepted);
        }
    }
}
