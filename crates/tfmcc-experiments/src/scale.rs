//! Experiment scale selection.

/// How large to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Reduced receiver counts and durations, for tests and benches
    /// (seconds of wall clock).
    Quick,
    /// The paper's parameters (receiver sets up to 10⁴, simulations of
    /// several hundred simulated seconds) — minutes of wall clock.
    #[default]
    Paper,
}

impl Scale {
    /// Picks between the quick and paper value of a parameter.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Quick.pick(1, 10), 1);
        assert_eq!(Scale::Paper.pick(1, 10), 10);
        assert_eq!(Scale::default(), Scale::Paper);
    }
}
