//! Re-export shim: the sweep runner now lives in `tfmcc-experiments`.  Only
//! the benchmark package still names this crate, for its JSON type.

pub use tfmcc_experiments::Json;
