//! The sharded engine must be semantically invisible: for any stream, any
//! backend and any shard count, its per-object target-user sets and final
//! frontiers are identical to the single-threaded monitor's.
//!
//! The large-scale tests replay a 10,000-object stream against a
//! 1,000-user population — the user-population scale of the paper's
//! evaluation (Sec. 8.1) — for both append-only and sliding-window
//! backends. Those streams use a quality-correlated workload with
//! near-total-order preferences so that frontiers stay small and a full
//! oracle pass costs seconds, not minutes (the movie-profile simulator
//! yields ~40% frontier density, which makes a 10k × 1k baseline pass take
//! minutes — realistic for the paper's figures, hopeless for CI).
//! Realistic movie-profile data is covered at a medium scale where every
//! shard count 1–8 is checked, and the property tests drive arbitrary
//! preferences, streams, windows and shard counts.

use proptest::prelude::*;

use pm_core::{Arrival, Lifetime, Monitor};
use pm_datagen::{Dataset, DatasetProfile};
use pm_engine::{BackendSpec, EngineConfig, ShardedEngine};
use pm_model::{AttrId, Object, ObjectId, UserId, ValueId};
use pm_porder::{Preference, Relation};

/// Batch size used when feeding the engine; exercises the batched path.
const BATCH: usize = 512;

const CHAIN_DOM: u32 = 10;
const CHAIN_ATTRS: usize = 4;

/// A population whose preferences are near-total orders. On attribute 0 the
/// value chain is broken at a user-specific rank (two incomparable
/// segments, so low-segment champions stay Pareto-optimal); on the other
/// attributes the chain carries one user-specific adjacent transposition,
/// so users disagree about neighbouring values and target sets differ
/// across users.
fn chain_population(users: usize) -> Vec<Preference> {
    (0..users)
        .map(|u| {
            let mut pref = Preference::new(CHAIN_ATTRS);
            let break_at = (u % (CHAIN_DOM as usize - 1)) as u32;
            for v in 0..CHAIN_DOM - 1 {
                if v == break_at {
                    continue;
                }
                pref.prefer(AttrId::new(0), ValueId::new(v + 1), ValueId::new(v));
            }
            for attr in 1..CHAIN_ATTRS {
                let swap = ((u / 7 + attr) % (CHAIN_DOM as usize - 1)) as u32;
                let place = |rank: u32| {
                    if rank == swap {
                        swap + 1
                    } else if rank == swap + 1 {
                        swap
                    } else {
                        rank
                    }
                };
                for rank in 0..CHAIN_DOM - 1 {
                    pref.prefer(
                        AttrId::from(attr),
                        ValueId::new(place(rank + 1)),
                        ValueId::new(place(rank)),
                    );
                }
            }
            pref
        })
        .collect()
}

/// A deterministic stream of `n` objects whose attribute values cluster
/// around a per-object quality level (correlated attributes keep Pareto
/// frontiers small while ties and jitter keep the target sets non-trivial).
fn chain_stream(n: usize) -> Vec<Object> {
    (0..n)
        .map(|i| {
            let mut h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = move || {
                h ^= h >> 27;
                h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
                h ^= h >> 31;
                h
            };
            let quality = (next() % u64::from(CHAIN_DOM)) as i64;
            let values = (0..CHAIN_ATTRS)
                .map(|_| {
                    let jitter = (next() % 3) as i64 - 1;
                    ValueId::new((quality + jitter).clamp(0, i64::from(CHAIN_DOM) - 1) as u32)
                })
                .collect();
            Object::new(ObjectId::from(i), values)
        })
        .collect()
}

fn run_engine(engine: &ShardedEngine, stream: &[Object]) -> Vec<Arrival> {
    let mut arrivals = Vec::with_capacity(stream.len());
    for chunk in stream.chunks(BATCH) {
        arrivals.extend(engine.process_batch(chunk.to_vec()));
    }
    arrivals
}

fn assert_engine_matches(
    engine: &ShardedEngine,
    stream: &[Object],
    expected: &[Arrival],
    oracle: &Monitor,
    label: &str,
) {
    let got = run_engine(engine, stream);
    assert_eq!(got.len(), expected.len(), "{label}: arrival count");
    for (g, e) in got.iter().zip(expected) {
        assert_eq!(g, e, "{label}: object {}", e.object);
    }
    for user in 0..oracle.num_users() {
        assert_eq!(
            engine.frontier(UserId::from(user)),
            oracle.frontier(UserId::from(user)),
            "{label}: frontier of user {user}"
        );
    }
}

#[test]
fn sharded_engine_matches_baseline_oracle_on_10k_by_1k_stream() {
    let prefs = chain_population(1_000);
    let stream = chain_stream(10_000);
    let mut oracle = Monitor::new(&prefs, Lifetime::UNLIMITED, None);
    let expected: Vec<Arrival> = stream.iter().cloned().map(|o| oracle.process(o)).collect();
    // Some objects must target some users, or the test proves nothing.
    assert!(expected.iter().filter(|a| a.has_targets()).count() > 100);
    for shards in [3usize, 8] {
        let engine = ShardedEngine::new(
            prefs.clone(),
            &EngineConfig::new(shards),
            &BackendSpec::baseline(),
        );
        assert_engine_matches(
            &engine,
            &stream,
            &expected,
            &oracle,
            &format!("append-only/{shards}"),
        );
        let stats = engine.stats();
        assert_eq!(stats.arrivals, 10_000, "shards={shards}");
        assert_eq!(
            stats.notifications,
            oracle.stats().notifications,
            "shards={shards}"
        );
    }
}

#[test]
fn sharded_engine_matches_sliding_window_oracle_on_10k_by_1k_stream() {
    let prefs = chain_population(1_000);
    let stream = chain_stream(10_000);
    let window = 1_000;
    let mut oracle = Monitor::new(&prefs, Lifetime::Window(window), None);
    let expected: Vec<Arrival> = stream.iter().cloned().map(|o| oracle.process(o)).collect();
    assert!(expected.iter().filter(|a| a.has_targets()).count() > 100);
    let engine = ShardedEngine::new(
        prefs.clone(),
        &EngineConfig::new(8),
        &BackendSpec::BaselineSw { window },
    );
    assert_engine_matches(&engine, &stream, &expected, &oracle, "sliding/8");
    let stats = engine.stats();
    assert_eq!(stats.expirations, (10_000 - window) as u64);
    assert_eq!(stats.expirations, oracle.stats().expirations);
}

#[test]
fn every_shard_count_matches_on_movie_profile_data() {
    let profile = DatasetProfile::movie()
        .with_users(60)
        .with_objects(400)
        .with_interactions(50);
    let dataset = Dataset::generate(&profile, 41);
    let stream: Vec<Object> = dataset.stream(800).iter().collect();
    for (spec, label) in [
        (BackendSpec::baseline(), "append-only"),
        (BackendSpec::BaselineSw { window: 200 }, "sliding"),
    ] {
        let expected: Vec<Arrival> = match spec {
            BackendSpec::Baseline { .. } => {
                let mut oracle = Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None);
                stream.iter().cloned().map(|o| oracle.process(o)).collect()
            }
            BackendSpec::BaselineSw { window } => {
                let mut oracle = Monitor::new(&dataset.preferences, Lifetime::Window(window), None);
                stream.iter().cloned().map(|o| oracle.process(o)).collect()
            }
            _ => unreachable!(),
        };
        for shards in 1usize..=8 {
            let engine = ShardedEngine::new(
                dataset.preferences.clone(),
                &EngineConfig::new(shards),
                &spec,
            );
            let got = run_engine(&engine, &stream);
            assert_eq!(got, expected, "{label}: shards={shards}");
        }
    }
}

#[test]
fn filter_then_verify_backend_matches_baseline_oracle_under_sharding() {
    // FilterThenVerify clusters each shard's users independently; the
    // reported target sets must still be exactly the baseline's (Lemma 4.6
    // holds per cluster, sharding adds nothing).
    let profile = DatasetProfile::movie()
        .with_users(100)
        .with_objects(400)
        .with_interactions(50);
    let dataset = Dataset::generate(&profile, 73);
    let mut oracle = Monitor::new(&dataset.preferences, Lifetime::UNLIMITED, None);
    let expected: Vec<Arrival> = dataset
        .objects
        .iter()
        .cloned()
        .map(|o| oracle.process(o))
        .collect();
    for shards in [1usize, 4, 7] {
        let engine = ShardedEngine::new(
            dataset.preferences.clone(),
            &EngineConfig::new(shards),
            &BackendSpec::ftv(0.55),
        );
        let got = run_engine(&engine, &dataset.objects);
        assert_eq!(got, expected, "ftv shards={shards}");
    }
}

// ---------------------------------------------------------------------------
// Property: the shard count never changes any result.
// ---------------------------------------------------------------------------

const DOMAIN: u32 = 5;
const ATTRS: usize = 3;

fn preference_strategy() -> impl Strategy<Value = Preference> {
    proptest::collection::vec(
        proptest::collection::vec((0..DOMAIN, 0..DOMAIN), 0..12),
        ATTRS,
    )
    .prop_map(|attrs| {
        let relations: Vec<Relation> = attrs
            .into_iter()
            .map(|edges| {
                let mut rel = Relation::new();
                for (x, y) in edges {
                    // Edges that would break the strict-partial-order laws
                    // are skipped, mirroring construction from real data.
                    let _ = rel.insert(ValueId::new(x), ValueId::new(y));
                }
                rel
            })
            .collect();
        Preference::from_relations(relations)
    })
}

fn objects_strategy() -> impl Strategy<Value = Vec<Object>> {
    proptest::collection::vec(proptest::collection::vec(0..DOMAIN, ATTRS), 1..40).prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, vals)| {
                Object::new(
                    ObjectId::from(i),
                    vals.into_iter().map(ValueId::new).collect(),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Append-only: an engine with any shard count reproduces the
    /// single-threaded baseline exactly.
    #[test]
    fn shard_count_never_changes_append_only_results(
        prefs in proptest::collection::vec(preference_strategy(), 1..14),
        objects in objects_strategy(),
        shards in 1usize..=8,
    ) {
        let mut oracle = Monitor::new(&prefs, Lifetime::UNLIMITED, None);
        let expected: Vec<Arrival> = objects.iter().cloned().map(|o| oracle.process(o)).collect();
        let engine = ShardedEngine::new(prefs.clone(), &EngineConfig::new(shards), &BackendSpec::baseline());
        let got = run_engine(&engine, &objects);
        prop_assert_eq!(got, expected);
        for user in 0..prefs.len() {
            prop_assert_eq!(
                engine.frontier(UserId::from(user)),
                oracle.frontier(UserId::from(user))
            );
        }
    }

    /// Sliding window: same, including expiry-driven frontier mending.
    #[test]
    fn shard_count_never_changes_sliding_window_results(
        prefs in proptest::collection::vec(preference_strategy(), 1..10),
        objects in objects_strategy(),
        shards in 1usize..=8,
        window in 1usize..12,
    ) {
        let mut oracle = Monitor::new(&prefs, Lifetime::Window(window), None);
        let expected: Vec<Arrival> = objects.iter().cloned().map(|o| oracle.process(o)).collect();
        let engine = ShardedEngine::new(
            prefs.clone(),
            &EngineConfig::new(shards),
            &BackendSpec::BaselineSw { window },
        );
        let got = run_engine(&engine, &objects);
        prop_assert_eq!(got, expected);
        for user in 0..prefs.len() {
            prop_assert_eq!(
                engine.frontier(UserId::from(user)),
                oracle.frontier(UserId::from(user))
            );
        }
    }
}
