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
    /// Reads the `TFMCC_SCALE` environment override (`quick` or `paper`,
    /// case-insensitive).  Returns `None` when unset; unknown values warn on
    /// stderr and are ignored so a typo cannot silently change an
    /// experiment's scale to the default.
    pub fn from_env() -> Option<Self> {
        let value = std::env::var("TFMCC_SCALE").ok()?;
        match value.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            other => {
                eprintln!("warning: ignoring unknown TFMCC_SCALE value '{other}' (use 'quick' or 'paper')");
                None
            }
        }
    }

    /// Resolves the scale from explicit CLI flags, with the `TFMCC_SCALE`
    /// environment variable taking precedence so tests and CI can pin the
    /// scale without controlling argv.  Defaults to [`Scale::Paper`].
    pub fn resolve(quick_flag: bool) -> Self {
        Self::from_env().unwrap_or(if quick_flag {
            Scale::Quick
        } else {
            Scale::Paper
        })
    }

    /// Picks between the quick and paper value of a parameter.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// Serializes tests that touch the process-global `TFMCC_SCALE` variable
/// (cargo's default harness runs tests on parallel threads, and env reads
/// in one test would otherwise race mutations in another).
#[cfg(test)]
pub(crate) fn env_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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

    #[test]
    fn env_overrides_flags() {
        let _guard = env_lock();
        std::env::set_var("TFMCC_SCALE", "quick");
        assert_eq!(Scale::from_env(), Some(Scale::Quick));
        assert_eq!(Scale::resolve(false), Scale::Quick);
        std::env::set_var("TFMCC_SCALE", "PAPER");
        assert_eq!(Scale::from_env(), Some(Scale::Paper));
        assert_eq!(Scale::resolve(true), Scale::Paper);
        std::env::set_var("TFMCC_SCALE", "bogus");
        assert_eq!(Scale::from_env(), None);
        assert_eq!(Scale::resolve(true), Scale::Quick);
        std::env::remove_var("TFMCC_SCALE");
        assert_eq!(Scale::from_env(), None);
        assert_eq!(Scale::resolve(false), Scale::Paper);
    }
}
