//! Experiment scales: how large the simulated workloads are.

/// Size parameters for an experiment run.
///
/// The paper's experiments use 1,000 users, 12,749 / 17,598 base objects and
/// 1M-object streams on a server-class machine; [`Scale::paper`] reproduces
/// those sizes, while [`Scale::quick`] (the default) keeps the same *shape*
/// (relative algorithm ordering, growth trends) at a size that completes in
/// minutes on a single core. README §"Reproducing the paper's experiments"
/// describes the three scales.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Number of users `|C|`.
    pub users: usize,
    /// Number of base objects `|O|` per dataset.
    pub objects: usize,
    /// Interactions (ratings / citations) per user used to derive
    /// preferences.
    pub interactions: usize,
    /// Total stream length for the sliding-window experiments.
    pub stream_len: usize,
    /// Window sizes `W` for the sliding-window experiments.
    pub window_sizes: Vec<usize>,
    /// Checkpoints (fractions of `|O|`) at which cumulative measurements are
    /// reported for the arrival experiments (Figs. 4–5).
    pub checkpoints: Vec<f64>,
    /// RNG seed for dataset generation.
    pub seed: u64,
}

impl Scale {
    /// A scale that finishes in minutes on one core while preserving the
    /// relative behaviour of the algorithms.
    pub fn quick() -> Self {
        Self {
            users: 80,
            objects: 1_200,
            interactions: 60,
            stream_len: 6_000,
            window_sizes: vec![200, 400, 800, 1_600],
            checkpoints: vec![0.25, 0.5, 0.75, 1.0],
            seed: 42,
        }
    }

    /// An even smaller scale for Criterion micro-runs and CI smoke tests.
    pub fn smoke() -> Self {
        Self {
            users: 24,
            objects: 300,
            interactions: 40,
            stream_len: 900,
            window_sizes: vec![100, 200, 400],
            checkpoints: vec![0.5, 1.0],
            seed: 42,
        }
    }

    /// The paper's full scale (1,000 users, full datasets, 1M-object
    /// streams, W ∈ {400, …, 3200}). Expect multi-hour runtimes.
    pub fn paper() -> Self {
        Self {
            users: 1_000,
            objects: usize::MAX, // use the profile's own object count
            interactions: 120,
            stream_len: 1_000_000,
            window_sizes: vec![400, 800, 1_600, 3_200],
            checkpoints: vec![0.25, 0.5, 0.75, 1.0],
            seed: 42,
        }
    }

    /// Looks a scale up by name (`quick`, `smoke`, `paper`).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "smoke" => Some(Self::smoke()),
            "paper" => Some(Self::paper()),
            _ => None,
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_lookup_finds_all_scales() {
        assert_eq!(Scale::by_name("quick"), Some(Scale::quick()));
        assert_eq!(Scale::by_name("smoke"), Some(Scale::smoke()));
        assert_eq!(Scale::by_name("paper"), Some(Scale::paper()));
        assert_eq!(Scale::by_name("nope"), None);
    }

    #[test]
    fn default_is_quick() {
        assert_eq!(Scale::default(), Scale::quick());
    }

    #[test]
    fn smoke_is_smaller_than_quick() {
        let (s, q) = (Scale::smoke(), Scale::quick());
        assert!(s.users < q.users);
        assert!(s.objects < q.objects);
        assert!(s.stream_len < q.stream_len);
    }

    #[test]
    fn paper_scale_matches_paper_windows() {
        assert_eq!(Scale::paper().window_sizes, vec![400, 800, 1_600, 3_200]);
        assert_eq!(Scale::paper().stream_len, 1_000_000);
        assert_eq!(Scale::paper().users, 1_000);
    }
}
