//! Deterministic seed-stream derivation.
//!
//! Every link owns its own RNG stream derived from the simulation seed and
//! the link's id, so the loss/RED draws of one link never depend on how many
//! other links or agents exist or in which order they act.  Adding an
//! unrelated link or agent to a scenario therefore leaves every existing
//! link's loss pattern untouched — the property the golden-output regression
//! tests pin down.
//!
//! A generator can only be built from such a seed.  The vendored `rand` has
//! no entropy source, so neither a thread-local generator nor an
//! entropy-seeded one compiles:
//!
//! ```compile_fail,E0425
//! let mut rng = rand::thread_rng();
//! ```
//!
//! ```compile_fail,E0599
//! use rand::{rngs::SmallRng, SeedableRng};
//! let mut rng = SmallRng::from_entropy();
//! ```

/// Derives the seed of `stream` from a root seed.
///
/// Uses the splitmix64 finalizer over `root + (stream + 1) · φ64` (the
/// 64-bit golden-ratio constant); splitmix64 is a bijection of the mixed
/// input, so distinct streams of the same root never collide.  The same
/// derivation (with the sweep-point index as the stream) is used by
/// `tfmcc-runner` for per-point seeds.
pub fn stream_seed(root: u64, stream: u64) -> u64 {
    let mut z = root.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn streams_are_distinct() {
        let mut seen = BTreeSet::new();
        for stream in 0..10_000u64 {
            assert!(
                seen.insert(stream_seed(42, stream)),
                "stream collision at {stream}"
            );
        }
    }

    #[test]
    fn derivation_is_stable() {
        // Pinned snapshot: changing these values silently changes every
        // link's loss pattern and breaks published results.
        assert_eq!(stream_seed(0, 0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(stream_seed(7, 0), 0x63CB_E1E4_5932_0DD7);
        assert_eq!(stream_seed(7, 1), 0x044C_3CD7_F43C_661C);
    }

    #[test]
    fn different_roots_give_different_streams() {
        for stream in 0..100u64 {
            assert_ne!(stream_seed(1, stream), stream_seed(2, stream));
        }
    }
}
