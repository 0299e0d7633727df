//! Shared fixtures for the cross-crate integration tests.

use pm_datagen::{Dataset, DatasetProfile};
use pm_model::UserId;
use pm_porder::Preference;

/// One backend string per monitor configuration the golden transcript
/// pins: both lifetimes, every filter, every history discipline.
pub const TRANSCRIPT_BACKENDS: [&str; 9] = [
    "baseline",
    "baseline:compact",
    "baseline:compact:16",
    "ftv:0.4",
    "ftv:0.4:compact",
    "ftv-approx:0.4:64:0.5",
    "baseline-sw:24",
    "ftv-sw:0.4:24",
    "ftv-approx-sw:0.4:64:0.5:24",
];

/// A small but non-trivial movie-like dataset used by several tests.
pub fn small_movie_dataset(seed: u64) -> Dataset {
    let profile = DatasetProfile::movie()
        .with_users(20)
        .with_objects(200)
        .with_interactions(50);
    Dataset::generate(&profile, seed)
}

/// A small publication-like dataset.
pub fn small_publication_dataset(seed: u64) -> Dataset {
    let profile = DatasetProfile::publication()
        .with_users(16)
        .with_objects(180)
        .with_interactions(40);
    Dataset::generate(&profile, seed)
}

/// Wraps every user into its own singleton cluster (virtual preference =
/// the user's own preference).
pub fn singleton_clusters(preferences: &[Preference]) -> Vec<(Vec<UserId>, Preference)> {
    preferences
        .iter()
        .enumerate()
        .map(|(i, p)| (vec![UserId::from(i)], p.clone()))
        .collect()
}

/// Puts all users into one cluster whose virtual preference is their exact
/// common preference relation.
pub fn one_cluster(preferences: &[Preference]) -> Vec<(Vec<UserId>, Preference)> {
    vec![(
        (0..preferences.len()).map(UserId::from).collect(),
        Preference::common_of(preferences.iter()),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_produce_expected_sizes() {
        let movie = small_movie_dataset(1);
        assert_eq!(movie.num_users(), 20);
        assert_eq!(movie.num_objects(), 200);
        let publication = small_publication_dataset(1);
        assert_eq!(publication.num_users(), 16);
        let singles = singleton_clusters(&movie.preferences);
        assert_eq!(singles.len(), 20);
        let one = one_cluster(&movie.preferences);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].0.len(), 20);
    }
}
