//! Runner determinism, end to end: the same sweep must produce byte-identical
//! JSON results no matter how many worker threads execute it, per-point
//! seeds must be distinct and stable, and every point is timed.

use netsim::rng::stream_seed;
use tfmcc_experiments::fairness_figs::fig19_lossy_return_paths;
use tfmcc_experiments::scaling_figs::fig07_scaling;
use tfmcc_experiments::{Scale, SweepRunner};

#[test]
fn fig07_json_is_byte_identical_for_1_and_8_threads() {
    let serial = fig07_scaling(&SweepRunner::new(1), Scale::Quick)
        .to_json()
        .render();
    let parallel = fig07_scaling(&SweepRunner::new(8), Scale::Quick)
        .to_json()
        .render();
    assert_eq!(serial, parallel);
    // And the CSV rendering (what the binaries print) matches too.
    let serial_csv = fig07_scaling(&SweepRunner::new(1), Scale::Quick).to_csv();
    let parallel_csv = fig07_scaling(&SweepRunner::new(8), Scale::Quick).to_csv();
    assert_eq!(serial_csv, parallel_csv);
}

#[test]
fn per_point_seeds_are_distinct_and_stable() {
    let points = vec![(); 256];
    for threads in [1, 4] {
        let seeds = SweepRunner::new(threads).run(7, &points, |_, seed| seed);
        // Point `i` gets stream `i` of the base seed.
        for (i, &seed) in seeds.iter().enumerate() {
            assert_eq!(
                seed,
                stream_seed(7, i as u64),
                "point {i} at {threads} threads"
            );
        }
        // Distinct.
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seeds.len(), "seed collision in sweep");
        // Stable: pinned snapshot of the first seeds (splitmix64 over base 7).
        assert_eq!(seeds[0], 0x63CB_E1E4_5932_0DD7);
        assert_eq!(seeds[1], 0x044C_3CD7_F43C_661C);
    }
}

#[test]
fn single_simulation_figures_are_timed_as_one_point() {
    // `figs` and the benchmark read a figure's busy time from the report.
    let runner = SweepRunner::new(4);
    fig19_lossy_return_paths(&runner, Scale::Quick);
    assert_eq!(runner.report().records.len(), 1);
}
