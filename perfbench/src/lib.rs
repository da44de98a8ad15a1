//! The repo benchmark: four workloads, three end-to-end metrics and a
//! per-layer ledger measured from outside the program.  See `README.md` in
//! this directory for the command lines and what each number means.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod compare;
pub mod figs;
pub mod json;
pub mod replay;
pub mod run;
pub mod sims;
pub mod stats;
pub mod trace;
mod traced;

/// Runs `f`, turning a panic into its message: a panicking repetition or
/// figure is a failed operation, not the end of the benchmark.
pub(crate) fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| match panic.downcast_ref::<String>() {
        Some(s) => s.clone(),
        None => panic.downcast_ref::<&str>().unwrap_or(&"?").to_string(),
    })
}
