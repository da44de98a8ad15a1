//! Exercises every documented validation panic of the Population API — the
//! messages asserted here are part of the public surface of
//! [`SessionManager::add_population_session`] and
//! [`TfmccSessionBuilder::build_population`].

use netsim::prelude::*;
use tfmcc_agents::manager::{SessionManager, SessionSpec};
use tfmcc_agents::population::{FluidSpec, PopulationSpec};
use tfmcc_agents::session::TfmccSessionBuilder;
use tfmcc_model::population::Dist;

fn one_leg_star(sim: &mut Simulator) -> Star {
    star(
        sim,
        &StarConfig::default(),
        &[StarLeg::clean(1_250_000.0, 0.02)],
    )
}

fn fluid(node: NodeId, count: u64) -> FluidSpec {
    FluidSpec::new(
        node,
        count,
        Dist::Uniform {
            lo: 0.001,
            hi: 0.01,
        },
        Dist::Uniform { lo: 0.04, hi: 0.1 },
    )
}

#[test]
#[should_panic(expected = "a TFMCC session needs at least one receiver")]
fn empty_population_is_rejected() {
    let mut sim = Simulator::new(7);
    let st = one_leg_star(&mut sim);
    SessionManager::new().add_population_session(&mut sim, &SessionSpec::default(), st.sender, &[]);
}

#[test]
#[should_panic(expected = "at least one packet-level receiver")]
fn all_fluid_sessions_are_rejected() {
    let mut sim = Simulator::new(7);
    let st = one_leg_star(&mut sim);
    SessionManager::new().add_population_session(
        &mut sim,
        &SessionSpec::default(),
        st.sender,
        &[PopulationSpec::Fluid(fluid(st.receivers[0], 1000))],
    );
}

#[test]
#[should_panic(expected = "a fluid population must have count > 0")]
fn zero_count_fluid_is_rejected() {
    let mut sim = Simulator::new(7);
    let st = one_leg_star(&mut sim);
    SessionManager::new().add_population_session(
        &mut sim,
        &SessionSpec::default(),
        st.sender,
        &[
            PopulationSpec::packet(st.receivers[0]),
            PopulationSpec::Fluid(fluid(st.receivers[0], 0)),
        ],
    );
}

#[test]
#[should_panic(expected = "fluid population bins must be in 1..=64")]
fn out_of_range_bins_are_rejected() {
    let mut sim = Simulator::new(7);
    let st = one_leg_star(&mut sim);
    SessionManager::new().add_population_session(
        &mut sim,
        &SessionSpec::default(),
        st.sender,
        &[
            PopulationSpec::packet(st.receivers[0]),
            PopulationSpec::Fluid(fluid(st.receivers[0], 100).with_bins(65)),
        ],
    );
}

#[test]
#[should_panic(expected = "fluid loss distribution must stay within [0, 1)")]
fn out_of_range_loss_is_rejected() {
    let mut sim = Simulator::new(7);
    let st = one_leg_star(&mut sim);
    let mut f = fluid(st.receivers[0], 100);
    f.loss = Dist::Uniform { lo: 0.5, hi: 1.5 };
    SessionManager::new().add_population_session(
        &mut sim,
        &SessionSpec::default(),
        st.sender,
        &[
            PopulationSpec::packet(st.receivers[0]),
            PopulationSpec::Fluid(f),
        ],
    );
}

#[test]
#[should_panic(expected = "fluid rtt distribution must stay positive and finite")]
fn non_positive_rtt_is_rejected() {
    let mut sim = Simulator::new(7);
    let st = one_leg_star(&mut sim);
    let mut f = fluid(st.receivers[0], 100);
    f.rtt = Dist::Point(0.0);
    SessionManager::new().add_population_session(
        &mut sim,
        &SessionSpec::default(),
        st.sender,
        &[
            PopulationSpec::packet(st.receivers[0]),
            PopulationSpec::Fluid(f),
        ],
    );
}

#[test]
#[should_panic(expected = "at least one packet-level receiver")]
fn builder_applies_the_same_validation() {
    let mut sim = Simulator::new(7);
    let st = one_leg_star(&mut sim);
    TfmccSessionBuilder::default().build_population(
        &mut sim,
        st.sender,
        &[PopulationSpec::Fluid(fluid(st.receivers[0], 1000))],
    );
}
