//! Sweep descriptions: a named list of points plus the common grid over
//! receiver count and seed replicas.

use crate::seed::derive_seed;

/// A named sweep: an ordered list of points and a base seed from which every
/// point's RNG seed is derived.
///
/// The point type is caller-defined — use [`ParamGrid`] to build the common
/// receiver-count × replica grid, or pass any `Vec` of scenario
/// descriptions.
#[derive(Debug, Clone)]
pub struct Sweep<P> {
    name: String,
    base_seed: u64,
    points: Vec<P>,
}

impl<P> Sweep<P> {
    /// Creates a sweep from explicit points.
    pub fn new(name: impl Into<String>, base_seed: u64, points: Vec<P>) -> Self {
        Sweep {
            name: name.into(),
            base_seed,
            points,
        }
    }

    /// The sweep's name (used for progress records).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base seed all point seeds are derived from.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The points, in sweep order.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The deterministic seed of point `index`.
    pub fn seed_for(&self, index: usize) -> u64 {
        derive_seed(self.base_seed, index as u64)
    }
}

/// One point of a [`ParamGrid`]: a receiver count plus the replica number
/// for seed-replicated runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Number of receivers in this run.
    pub receivers: usize,
    /// Replica index in `0..replicas`; each replica gets its own seed, so
    /// replicas of the same receiver count are independent trials.
    pub replica: usize,
}

/// Builder for the common experiment grid: receiver counts × seed replicas.
///
/// Axes left unset collapse to a single default value (1 receiver, one
/// replica), so a sweep over just receiver counts is
/// `ParamGrid::new().receivers(ns).build(..)`.  The product is enumerated
/// receivers-major, then replica — the ordering is part of the
/// reproducibility contract because point seeds are derived from point
/// indices.
#[derive(Debug, Clone)]
pub struct ParamGrid {
    receivers: Vec<usize>,
    replicas: usize,
}

impl Default for ParamGrid {
    fn default() -> Self {
        ParamGrid {
            receivers: vec![1],
            replicas: 1,
        }
    }
}

impl ParamGrid {
    /// Creates a grid with both axes at their defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the receiver-count axis.
    pub fn receivers(mut self, counts: Vec<usize>) -> Self {
        assert!(!counts.is_empty(), "receivers axis must be non-empty");
        self.receivers = counts;
        self
    }

    /// Sets the number of seed replicas per receiver count.
    pub fn replicas(mut self, replicas: usize) -> Self {
        assert!(replicas > 0, "need at least one replica");
        self.replicas = replicas;
        self
    }

    /// Number of points the grid will enumerate.
    pub fn len(&self) -> usize {
        self.receivers.len() * self.replicas
    }

    /// Whether the grid is empty (never true: axes are non-empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates the product into a [`Sweep`].
    pub fn build(self, name: impl Into<String>, base_seed: u64) -> Sweep<GridPoint> {
        let mut points = Vec::with_capacity(self.len());
        for &receivers in &self.receivers {
            for replica in 0..self.replicas {
                points.push(GridPoint { receivers, replica });
            }
        }
        Sweep::new(name, base_seed, points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_cartesian_product_in_order() {
        let sweep = ParamGrid::new()
            .receivers(vec![1, 10, 100])
            .replicas(2)
            .build("g", 3);
        assert_eq!(sweep.len(), 6);
        let p = sweep.points();
        // receivers-major, then replica.
        assert_eq!((p[0].receivers, p[0].replica), (1, 0));
        assert_eq!((p[1].receivers, p[1].replica), (1, 1));
        assert_eq!((p[2].receivers, p[2].replica), (10, 0));
        assert_eq!((p[5].receivers, p[5].replica), (100, 1));
    }

    #[test]
    fn point_seeds_are_stable_and_distinct() {
        let sweep = Sweep::new("s", 11, vec![(); 64]);
        let seeds: Vec<u64> = (0..sweep.len()).map(|i| sweep.seed_for(i)).collect();
        let again: Vec<u64> = (0..sweep.len()).map(|i| sweep.seed_for(i)).collect();
        assert_eq!(seeds, again, "seeds must be stable");
        for i in 0..seeds.len() {
            for j in (i + 1)..seeds.len() {
                assert_ne!(seeds[i], seeds[j], "points {i} and {j} share a seed");
            }
        }
    }

    #[test]
    fn default_axes_collapse_to_one_point() {
        let sweep = ParamGrid::new().build("one", 0);
        assert_eq!(sweep.len(), 1);
        assert!(!sweep.is_empty());
    }
}
