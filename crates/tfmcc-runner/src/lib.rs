//! Parallel sweep runner for the experiment harness.
//!
//! The paper's headline results are sweeps over receiver-set sizes up to
//! 10⁴ — many *independent* seeded simulation runs whose only shared state is
//! the parameter grid they cover.  This crate turns that independence into
//! wall-clock speed without giving up reproducibility:
//!
//! * [`Sweep`] describes a named set of points (use [`ParamGrid`] for the
//!   common receiver-count × seed-replica grid);
//! * [`seed::derive_seed`] gives every point a deterministic seed derived
//!   from the sweep's base seed and the point index — the same point always
//!   gets the same seed, no matter how many worker threads run the sweep;
//! * [`SweepRunner`] executes the points on a self-scheduling (work-stealing
//!   from a shared queue) pool of `std::thread` workers and returns results
//!   in point order, so output is byte-identical for any `--threads N`;
//! * [`RunReport`] records per-point timing for the run summary and the
//!   benchmark's busy-time share;
//! * [`cli::RunnerArgs`] parses the shared experiment CLI
//!   (`--quick`/`--paper`/`--threads N`/`--out FILE`);
//! * [`json::Json`] renders deterministic JSON for result files.
//!
//! The crate is deliberately simulator-agnostic: a point is whatever the
//! caller's closure computes.  A `netsim::Simulator` is simulation-local
//! (its packets are `Rc`-shared, so it is not `Send`): a closure builds and
//! runs its simulation on the worker that calls it and returns the results,
//! never the simulation itself.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod exec;
pub mod json;
pub mod progress;
pub mod seed;
pub mod sweep;

pub use cli::RunnerArgs;
pub use exec::{Point, SweepRunner};
pub use json::Json;
pub use progress::{PointRecord, RunReport};
pub use sweep::{GridPoint, ParamGrid, Sweep};
