//! Dataset generation: objects plus per-user preference relations derived
//! from simulated interaction histories, following the derivation rule of
//! Sec. 8.1 of the paper.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pm_model::{AttrId, Attribute, Domain, Object, ObjectId, ObjectStream, Schema, ValueId};
use pm_porder::{Preference, Relation};

use crate::profile::{DatasetProfile, ProfileError};
use crate::zipf::ZipfSampler;

/// A fully materialised simulated dataset: schema, objects and one
/// preference (a strict partial order per attribute) per user.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Name of the profile that produced this dataset.
    pub profile_name: String,
    /// The attribute schema.
    pub schema: Schema,
    /// The base objects, ids `0..num_objects`.
    pub objects: Vec<Object>,
    /// Per-user preferences, indexed by user id.
    pub preferences: Vec<Preference>,
}

impl Dataset {
    /// Generates a dataset from `profile` with a deterministic `seed`.
    ///
    /// # Panics
    /// Panics on an invalid profile; use [`Dataset::try_generate`] to get
    /// the [`ProfileError`] instead.
    pub fn generate(profile: &DatasetProfile, seed: u64) -> Self {
        DatasetBuilder::new(profile.clone()).seed(seed).build()
    }

    /// Generates a dataset, rejecting invalid profiles (zero users, empty
    /// archetype sets, zero-arity schemas, empty domains) with a clean
    /// error instead of panicking deep inside the samplers.
    pub fn try_generate(profile: &DatasetProfile, seed: u64) -> Result<Self, ProfileError> {
        DatasetBuilder::new(profile.clone()).seed(seed).try_build()
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.preferences.len()
    }

    /// Number of base objects.
    pub fn num_objects(&self) -> usize {
        self.objects.len()
    }

    /// Dimensionality (number of attributes).
    pub fn dimensions(&self) -> usize {
        self.schema.arity()
    }

    /// A stream that repeats the base objects until `target_len` arrivals,
    /// as the paper does to build its 1M-object streams.
    pub fn stream(&self, target_len: usize) -> ObjectStream {
        ObjectStream::with_target_len(self.objects.clone(), target_len)
    }

    /// A copy of the dataset restricted to its first `d` attributes
    /// (used by the dimensionality sweeps of Figs. 6/7/10/11).
    pub fn project(&self, d: usize) -> Dataset {
        let d = d.clamp(1, self.schema.arity());
        Dataset {
            profile_name: self.profile_name.clone(),
            schema: self.schema.project(d),
            objects: self.objects.iter().map(|o| o.project(d)).collect(),
            preferences: self.preferences.iter().map(|p| p.project(d)).collect(),
        }
    }

    /// Average number of preference tuples per user (over all attributes);
    /// a quick sanity metric for generated preferences.
    pub fn mean_preference_size(&self) -> f64 {
        if self.preferences.is_empty() {
            return 0.0;
        }
        let total: usize = self.preferences.iter().map(Preference::total_pairs).sum();
        total as f64 / self.preferences.len() as f64
    }
}

/// Configurable generator for [`Dataset`]s.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    profile: DatasetProfile,
    seed: u64,
}

impl DatasetBuilder {
    /// Creates a builder for `profile` with the default seed.
    pub fn new(profile: DatasetProfile) -> Self {
        Self { profile, seed: 42 }
    }

    /// Sets the RNG seed (generation is fully deterministic given the seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset.
    ///
    /// # Panics
    /// Panics on an invalid profile; see [`DatasetBuilder::try_build`].
    pub fn build(&self) -> Dataset {
        self.try_build().expect("invalid dataset profile")
    }

    /// Generates the dataset, validating the profile first
    /// ([`DatasetProfile::validate`]).
    pub fn try_build(&self) -> Result<Dataset, ProfileError> {
        let profile = &self.profile;
        profile.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Schema with anonymous interned domains.
        let schema = Schema::from_attributes(profile.attributes.iter().map(|spec| {
            Attribute::with_domain(spec.name.clone(), Domain::anonymous(spec.domain_size))
        }));

        // Objects: one Zipf-popular value per attribute.
        let value_samplers: Vec<ZipfSampler> = profile
            .attributes
            .iter()
            .map(|spec| ZipfSampler::new(spec.domain_size, spec.popularity_skew))
            .collect();
        let objects: Vec<Object> = (0..profile.num_objects)
            .map(|i| {
                let values = value_samplers
                    .iter()
                    .map(|s| ValueId::from(s.sample(&mut rng)))
                    .collect();
                Object::new(ObjectId::from(i), values)
            })
            .collect();

        // Archetype affinities: archetype × attribute × value → score in [1, 5].
        // Each score blends a global popularity component (popular values —
        // the low value ids under the Zipf samplers — are liked by everyone)
        // with an archetype-specific taste component, governed by
        // `popularity_bias`. The shared component is what gives different
        // users common preference tuples.
        let bias = profile.popularity_bias.clamp(0.0, 1.0);
        let affinities: Vec<Vec<Vec<f64>>> = (0..profile.num_archetypes.max(1))
            .map(|_| {
                profile
                    .attributes
                    .iter()
                    .map(|spec| {
                        (0..spec.domain_size)
                            .map(|value| {
                                let rank = value as f64 / spec.domain_size.max(1) as f64;
                                let popularity = 5.0 - 4.0 * rank;
                                let taste = rng.gen_range(1.0..=5.0);
                                bias * popularity + (1.0 - bias) * taste
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();

        // Object popularity for interaction sampling.
        let object_sampler = ZipfSampler::new(profile.num_objects, 1.0);

        let derive = |user: usize, rng: &mut StdRng| {
            let archetype = &affinities[user % affinities.len()];
            let interactions =
                Self::sample_interactions(profile, &objects, archetype, &object_sampler, rng);
            Self::derive_preference(profile, &objects, archetype, &interactions, rng)
        };
        let preferences: Vec<Preference> = match profile.distinct_preferences {
            // Shared-preference pool: derive at most `k` prototypes through
            // the normal pipeline, then Zipf-assign one to each user — the
            // distinct-preference count stays bounded by `k` however large
            // the population grows.
            Some(k) => {
                let pool: Vec<Preference> = (0..k).map(|i| derive(i, &mut rng)).collect();
                let pool_sampler = ZipfSampler::new(k, profile.preference_skew);
                (0..profile.num_users)
                    .map(|_| pool[pool_sampler.sample(&mut rng)].clone())
                    .collect()
            }
            None => (0..profile.num_users)
                .map(|user| derive(user, &mut rng))
                .collect(),
        };

        Ok(Dataset {
            profile_name: profile.name.clone(),
            schema,
            objects,
            preferences,
        })
    }

    /// Samples the set of objects a user has interacted with.
    ///
    /// Selection is biased both by global object popularity (Zipf) and by
    /// the user's own taste (people mostly watch / cite what they expect to
    /// like), which makes a value's interaction count correlate with its
    /// rating — the same correlation present in real rating data and the
    /// reason the derived 2-D-dominance orders are reasonably dense.
    fn sample_interactions(
        profile: &DatasetProfile,
        objects: &[Object],
        archetype: &[Vec<f64>],
        sampler: &ZipfSampler,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        let want = profile.interactions_per_user.min(profile.num_objects);
        let arity = profile.attributes.len();
        let mut chosen: HashSet<usize> = HashSet::with_capacity(want);
        // Popular objects first; cap the number of attempts so degenerate
        // profiles (tiny object counts) still terminate.
        let max_attempts = want * 40 + 16;
        let mut attempts = 0;
        while chosen.len() < want && attempts < max_attempts {
            attempts += 1;
            let candidate = sampler.sample(rng);
            let object = &objects[candidate];
            let mut affinity = 0.0;
            for attr in 0..arity {
                affinity += archetype[attr][object.value(AttrId::from(attr)).index()];
            }
            let appeal = (affinity / (5.0 * arity as f64)).clamp(0.05, 1.0);
            if rng.gen_bool(appeal) {
                chosen.insert(candidate);
            }
        }
        let mut fallback = 0;
        while chosen.len() < want {
            chosen.insert(fallback);
            fallback += 1;
        }
        // Deterministic order: the later noise draws are consumed per
        // interaction, so the iteration order must not depend on the hash
        // seed of the set.
        let mut ordered: Vec<usize> = chosen.into_iter().collect();
        ordered.sort_unstable();
        ordered
    }

    /// Derives one user's preference from their interaction history using
    /// the paper's rule: per attribute, per value, compute the average
    /// rating and interaction count, then keep the 2-D dominance pairs.
    fn derive_preference(
        profile: &DatasetProfile,
        objects: &[Object],
        archetype: &[Vec<f64>],
        interactions: &[usize],
        rng: &mut StdRng,
    ) -> Preference {
        let arity = profile.attributes.len();
        let mut stats: Vec<HashMap<ValueId, (f64, f64)>> = vec![HashMap::new(); arity];
        for &obj_idx in interactions {
            let object = &objects[obj_idx];
            // The user's rating of this object: mean archetype affinity of
            // its attribute values, plus occasional per-user noise.
            let mut affinity = 0.0;
            for attr in 0..arity {
                affinity += archetype[attr][object.value(AttrId::from(attr)).index()];
            }
            let mut rating = affinity / arity as f64;
            if rng.gen_bool(profile.rating_noise) {
                rating += if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            }
            let rating = rating.clamp(0.0, 5.0);
            for (attr, per_value) in stats.iter_mut().enumerate() {
                let value = object.value(AttrId::from(attr));
                let entry = per_value.entry(value).or_insert((0.0, 0.0));
                entry.0 += rating;
                entry.1 += 1.0;
            }
        }
        let relations: Vec<Relation> = stats
            .into_iter()
            .map(|per_value| {
                let averaged: HashMap<ValueId, (f64, f64)> = per_value
                    .into_iter()
                    .map(|(v, (sum, count))| (v, (sum / count, count)))
                    .collect();
                Relation::from_dominance_stats(&averaged)
            })
            .collect();
        Preference::from_relations(relations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> DatasetProfile {
        DatasetProfile::movie()
            .scaled(0.1)
            .with_users(12)
            .with_objects(150)
            .with_interactions(40)
    }

    #[test]
    fn generation_is_deterministic() {
        let profile = tiny_profile();
        let a = Dataset::generate(&profile, 7);
        let b = Dataset::generate(&profile, 7);
        assert_eq!(a.objects, b.objects);
        assert_eq!(a.preferences.len(), b.preferences.len());
        for (pa, pb) in a.preferences.iter().zip(&b.preferences) {
            assert_eq!(pa.total_pairs(), pb.total_pairs());
        }
    }

    #[test]
    fn different_seeds_give_different_data() {
        let profile = tiny_profile();
        let a = Dataset::generate(&profile, 1);
        let b = Dataset::generate(&profile, 2);
        assert_ne!(a.objects, b.objects);
    }

    #[test]
    fn sizes_match_profile() {
        let profile = tiny_profile();
        let d = Dataset::generate(&profile, 3);
        assert_eq!(d.num_objects(), profile.num_objects);
        assert_eq!(d.num_users(), profile.num_users);
        assert_eq!(d.dimensions(), profile.dimensions());
        assert_eq!(d.profile_name, "movie");
    }

    #[test]
    fn preferences_are_valid_strict_partial_orders() {
        let d = Dataset::generate(&tiny_profile(), 11);
        for pref in &d.preferences {
            for (_, rel) in pref.relations() {
                rel.validate()
                    .expect("generated relation must be a strict partial order");
            }
        }
        assert!(d.mean_preference_size() > 0.0);
    }

    #[test]
    fn users_in_same_archetype_share_preferences() {
        // With one archetype and no noise, all users rate objects they have
        // in common identically, so their relations must overlap heavily.
        let mut profile = tiny_profile();
        profile.num_archetypes = 1;
        profile.rating_noise = 0.0;
        let d = Dataset::generate(&profile, 5);
        let a = &d.preferences[0];
        let b = &d.preferences[1];
        let mut shared = 0usize;
        for (attr, rel) in a.relations() {
            shared += rel.intersection(b.relation(attr)).len();
        }
        assert!(shared > 0, "archetype-mates must share preference tuples");
    }

    #[test]
    fn object_values_lie_in_domains() {
        let d = Dataset::generate(&tiny_profile(), 13);
        for o in &d.objects {
            for (attr, spec) in d.schema.attributes() {
                assert!(o.value(attr).index() < spec.domain.len());
            }
        }
    }

    #[test]
    fn projection_reduces_dimensions_everywhere() {
        let d = Dataset::generate(&tiny_profile(), 17);
        let p = d.project(2);
        assert_eq!(p.dimensions(), 2);
        assert!(p.objects.iter().all(|o| o.arity() == 2));
        assert!(p.preferences.iter().all(|pref| pref.arity() == 2));
    }

    #[test]
    fn stream_reaches_target_length() {
        let d = Dataset::generate(&tiny_profile(), 19);
        let s = d.stream(500);
        assert!(s.len() >= 500);
        assert_eq!(s.base_len(), d.num_objects());
    }

    #[test]
    fn invalid_profiles_fail_cleanly_not_by_panic() {
        use crate::profile::ProfileError;
        let mut p = tiny_profile();
        p.num_users = 0;
        assert_eq!(
            Dataset::try_generate(&p, 1).err(),
            Some(ProfileError::NoUsers)
        );
        let mut p = tiny_profile();
        p.num_archetypes = 0;
        assert_eq!(
            Dataset::try_generate(&p, 1).err(),
            Some(ProfileError::NoArchetypes)
        );
        let mut p = tiny_profile();
        p.attributes.clear();
        assert_eq!(
            Dataset::try_generate(&p, 1).err(),
            Some(ProfileError::NoAttributes)
        );
        let mut p = tiny_profile();
        p.attributes[0].domain_size = 0;
        assert!(matches!(
            Dataset::try_generate(&p, 1),
            Err(ProfileError::EmptyDomain(_))
        ));
    }

    #[test]
    fn preference_pool_bounds_distinct_preferences() {
        use std::collections::HashSet;
        let profile = tiny_profile()
            .with_users(400)
            .with_distinct_preferences(6, 1.2);
        let d = Dataset::try_generate(&profile, 29).unwrap();
        assert_eq!(d.num_users(), 400);
        let distinct: HashSet<_> = d.preferences.iter().map(|p| p.fingerprint()).collect();
        assert!(
            distinct.len() <= 6,
            "pool of 6 prototypes, saw {} distinct",
            distinct.len()
        );
        assert!(distinct.len() > 1, "a skewed pool still uses several slots");
        // Zipf assignment: the most popular prototype covers a large share
        // of the population.
        let mut counts: HashMap<pm_porder::Fingerprint, usize> = HashMap::new();
        for p in &d.preferences {
            *counts.entry(p.fingerprint()).or_default() += 1;
        }
        let top = counts.values().copied().max().unwrap();
        assert!(top * 4 > d.num_users(), "head prototype too rare: {top}");
    }

    #[test]
    fn preference_pool_is_deterministic() {
        let profile = tiny_profile()
            .with_users(50)
            .with_distinct_preferences(4, 1.0);
        let a = Dataset::try_generate(&profile, 31).unwrap();
        let b = Dataset::try_generate(&profile, 31).unwrap();
        for (pa, pb) in a.preferences.iter().zip(&b.preferences) {
            assert_eq!(pa.fingerprint(), pb.fingerprint());
        }
    }

    #[test]
    fn publication_profile_generates_too() {
        let profile = DatasetProfile::publication()
            .scaled(0.1)
            .with_users(8)
            .with_objects(100)
            .with_interactions(30);
        let d = Dataset::generate(&profile, 23);
        assert_eq!(d.profile_name, "publication");
        assert_eq!(d.num_users(), 8);
        assert!(d.mean_preference_size() > 0.0);
    }
}
