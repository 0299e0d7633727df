//! Fingerprint-interning battery: the engine-level preference interner
//! must track the *distinct*-preference population exactly through every
//! membership verb — convergence (an UPDATE makes one user's preference
//! identical to another's, so their fingerprints coalesce into one
//! bucket), divergence (a later UPDATE splits the bucket again),
//! retirement (unregistering the last holder of a fingerprint drops it),
//! and re-registration of a recycled id into an existing bucket — while
//! every frontier stays exact against a per-user oracle, across all four
//! backends and 1/2/4/8 shards. Registering thousands of twins of the same
//! distinct preferences must leave the interned footprint byte-identical.
//!
//! A kill-and-recover cycle then proves the interned representation is a
//! pure optimisation of the durable state: a service recovered from a
//! copied WAL directory (snapshot + log tail) reports the identical
//! `(distinct, bytes)` footprint and identical frontiers.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

use pm_core::{Lifetime, Monitor};
use pm_datagen::{Dataset, DatasetProfile};
use pm_engine::durability::{recover_or_create, DurabilityConfig};
use pm_engine::{BackendSpec, EngineConfig, EngineService, ShardedEngine};
use pm_model::{Object, ObjectId, UserId};
use pm_porder::Preference;
use pm_wal::SyncPolicy;

const WINDOW: usize = 90;
const BATCH: usize = 24;
const INITIAL_USERS: usize = 12;
const POOL: usize = 4;

/// The distinct-fingerprint count of a reference population — what
/// `ShardedEngine::preference_footprint` must report at every step.
fn expected_distinct(population: &BTreeMap<u32, Preference>) -> u64 {
    population
        .values()
        .map(Preference::fingerprint)
        .collect::<HashSet<_>>()
        .len() as u64
}

/// Asserts the engine's interner agrees with the reference population on
/// the distinct count (bytes are representation-dependent, but must be
/// nonzero whenever anyone is registered).
fn assert_footprint(engine: &ShardedEngine, population: &BTreeMap<u32, Preference>, tag: &str) {
    let (distinct, bytes) = engine.preference_footprint();
    assert_eq!(
        distinct,
        expected_distinct(population),
        "{tag}: interner distinct count drifted from the population"
    );
    assert_eq!(bytes > 0, !population.is_empty(), "{tag}: footprint bytes");
    assert_eq!(engine.num_users(), population.len(), "{tag}: num_users");
}

/// Ground truth: one single-user exact monitor per registered user,
/// backfilled from the alive objects at registration time.
struct Oracle {
    window: Option<usize>,
    history: Vec<Object>,
    users: BTreeMap<u32, Monitor>,
}

impl Oracle {
    fn new(window: Option<usize>) -> Self {
        Self {
            window,
            history: Vec::new(),
            users: BTreeMap::new(),
        }
    }

    fn register(&mut self, user: UserId, pref: Preference) {
        let lifetime = self.window.map_or(Lifetime::UNLIMITED, Lifetime::Window);
        let mut monitor = Monitor::new(&[pref], lifetime, None);
        let start = match self.window {
            Some(w) => self.history.len().saturating_sub(w),
            None => 0,
        };
        for object in &self.history[start..] {
            monitor.process(object.clone());
        }
        assert!(self.users.insert(user.raw(), monitor).is_none());
    }

    fn unregister(&mut self, user: UserId) {
        assert!(self.users.remove(&user.raw()).is_some());
    }

    fn update(&mut self, user: UserId, pref: Preference) {
        self.unregister(user);
        self.register(user, pref);
    }

    fn ingest(&mut self, object: Object) -> Vec<UserId> {
        self.history.push(object.clone());
        let mut targets = Vec::new();
        for (&raw, monitor) in self.users.iter_mut() {
            if monitor.process(object.clone()).has_targets() {
                targets.push(UserId::new(raw));
            }
        }
        targets
    }

    fn frontier(&self, user: UserId) -> Vec<ObjectId> {
        self.users[&user.raw()].frontier(UserId::new(0))
    }
}

/// Drives one backend through the convergence/divergence script on every
/// shard count. The preference pool has [`POOL`] distinct members shared
/// by [`INITIAL_USERS`] users, so the script can move the distinct count
/// in both directions and watch the interner follow.
fn run_backend(spec: BackendSpec, window: Option<usize>, label: &str) {
    let profile = DatasetProfile::movie()
        .with_users(INITIAL_USERS)
        .with_objects(200)
        .with_interactions(40);
    let dataset = Dataset::generate(&profile, 71);
    let stream: Vec<Object> = dataset.stream(7 * BATCH).iter().collect();
    let pool: Vec<Preference> = dataset.preferences[..POOL].to_vec();
    // Two preferences outside the pool, for unique-bucket churn.
    let solo_a = dataset.preferences[POOL].clone();
    let solo_b = dataset.preferences[POOL + 1].clone();
    assert_eq!(
        {
            let all: HashSet<_> = dataset
                .preferences
                .iter()
                .map(|p| p.fingerprint())
                .collect();
            all.len()
        },
        INITIAL_USERS,
        "the generated preferences must be pairwise distinct"
    );

    for shards in [1usize, 2, 4, 8] {
        let tag = format!("{label}/{shards}");
        let initial: Vec<Preference> = (0..INITIAL_USERS).map(|u| pool[u % POOL].clone()).collect();
        let engine = ShardedEngine::new(initial.clone(), &EngineConfig::new(shards), &spec);
        let mut oracle = Oracle::new(window);
        let mut population: BTreeMap<u32, Preference> = BTreeMap::new();
        for (u, pref) in initial.iter().enumerate() {
            oracle.register(UserId::from(u), pref.clone());
            population.insert(u as u32, pref.clone());
        }
        assert_eq!(expected_distinct(&population), POOL as u64);
        assert_footprint(&engine, &population, &tag);

        let mut chunks = stream.chunks(BATCH);
        let mut ingest = |engine: &ShardedEngine, oracle: &mut Oracle| {
            let chunk = chunks.next().expect("script exhausted the stream").to_vec();
            let arrivals = engine.process_batch(chunk.clone());
            for (object, arrival) in chunk.iter().zip(&arrivals) {
                assert_eq!(
                    arrival.target_users,
                    oracle.ingest(object.clone()),
                    "{tag}: arrival {} disagrees with oracle",
                    object.id()
                );
            }
        };

        // A new user with a unique preference opens a fifth bucket.
        ingest(&engine, &mut oracle);
        engine.register(UserId::new(200), solo_a.clone()).unwrap();
        oracle.register(UserId::new(200), solo_a.clone());
        population.insert(200, solo_a.clone());
        assert_eq!(expected_distinct(&population), POOL as u64 + 1);
        assert_footprint(&engine, &population, &tag);
        let (_, bytes_before_converge) = engine.preference_footprint();

        // Convergence: the unique user adopts a pooled preference — its
        // old bucket dies, the interner shrinks, frontiers must follow
        // the per-user semantics exactly.
        ingest(&engine, &mut oracle);
        engine.update(UserId::new(200), pool[2].clone()).unwrap();
        oracle.update(UserId::new(200), pool[2].clone());
        population.insert(200, pool[2].clone());
        assert_eq!(expected_distinct(&population), POOL as u64);
        assert_footprint(&engine, &population, &tag);
        let (_, bytes_after_converge) = engine.preference_footprint();
        assert!(
            bytes_after_converge < bytes_before_converge,
            "{tag}: convergence must shrink the interned footprint \
             ({bytes_after_converge} vs {bytes_before_converge})"
        );

        // Divergence: the same user splits off into a fresh bucket again.
        ingest(&engine, &mut oracle);
        engine.update(UserId::new(200), solo_b.clone()).unwrap();
        oracle.update(UserId::new(200), solo_b.clone());
        population.insert(200, solo_b.clone());
        assert_eq!(expected_distinct(&population), POOL as u64 + 1);
        assert_footprint(&engine, &population, &tag);

        // Retirement: unregistering every holder of pool[3] (users 3, 7,
        // 11) drops that fingerprint; the first two removals must not.
        ingest(&engine, &mut oracle);
        for raw in [3u32, 7, 11] {
            engine.unregister(UserId::new(raw)).unwrap();
            oracle.unregister(UserId::new(raw));
            population.remove(&raw);
            assert_footprint(&engine, &population, &tag);
        }
        assert_eq!(expected_distinct(&population), POOL as u64);

        // Recycled id into an existing bucket: distinct count unchanged.
        ingest(&engine, &mut oracle);
        engine.register(UserId::new(3), pool[0].clone()).unwrap();
        oracle.register(UserId::new(3), pool[0].clone());
        population.insert(3, pool[0].clone());
        assert_eq!(expected_distinct(&population), POOL as u64);
        assert_footprint(&engine, &population, &tag);

        ingest(&engine, &mut oracle);
        for &raw in population.keys() {
            let user = UserId::new(raw);
            assert_eq!(
                engine.frontier(user),
                oracle.frontier(user),
                "{tag}: final frontier of user {raw}"
            );
        }
    }
}

#[test]
fn interner_tracks_churn_baseline() {
    run_backend(BackendSpec::baseline(), None, "baseline");
}

#[test]
fn interner_tracks_churn_filter_then_verify() {
    run_backend(BackendSpec::ftv(0.45), None, "ftv");
}

#[test]
fn interner_tracks_churn_baseline_sw() {
    run_backend(
        BackendSpec::BaselineSw { window: WINDOW },
        Some(WINDOW),
        "baseline-sw",
    );
}

#[test]
fn interner_tracks_churn_filter_then_verify_sw() {
    // Singleton clusters (unreachable branch cut) keep the sliding
    // filter-then-verify backend exact, so the oracle is well-defined.
    run_backend(
        BackendSpec::FilterThenVerifySw {
            branch_cut: 100.0,
            window: WINDOW,
        },
        Some(WINDOW),
        "ftv-sw",
    );
}

/// Population independence without a big population: once 64 distinct
/// preferences are registered, 2,000 more users holding twins of them add
/// no preference bytes at all — a twin costs an id and a refcount, never a
/// copy of its preference — so bytes per user fall without bound as the
/// population grows.
#[test]
fn twins_add_no_preference_bytes() {
    const DISTINCT: usize = 64;
    const TWINS: usize = 2_000;
    let profile = DatasetProfile::movie()
        .with_users(DISTINCT)
        .with_objects(1_200)
        .with_interactions(60);
    let dataset = Dataset::generate(&profile, 42);
    let engine = ShardedEngine::empty(&EngineConfig::new(1), &BackendSpec::baseline());
    for (u, pref) in dataset.preferences.iter().enumerate() {
        engine.register(UserId::from(u), pref.clone()).unwrap();
    }
    let footprint = engine.preference_footprint();
    assert_eq!(
        footprint.0, DISTINCT as u64,
        "the generated preferences must be pairwise distinct"
    );
    for i in 0..TWINS {
        let pref = dataset.preferences[i % DISTINCT].clone();
        engine.register(UserId::from(DISTINCT + i), pref).unwrap();
    }
    assert_eq!(engine.num_users(), DISTINCT + TWINS);
    assert_eq!(
        engine.preference_footprint(),
        footprint,
        "twins must not add preference bytes"
    );
}

static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pm-fingerprint-test-{}-{}-{tag}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Flat copy of a WAL directory, standing in for the on-disk state a
/// crash would leave behind.
fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Kill-and-recover: after shared-preference churn, a snapshot (the
/// deduplicated v2 format) and a log tail, the recovered service must
/// report the identical interner footprint and identical frontiers.
#[test]
fn interner_footprint_survives_kill_and_recover() {
    let profile = DatasetProfile::movie()
        .with_users(INITIAL_USERS)
        .with_objects(200)
        .with_interactions(40);
    let dataset = Dataset::generate(&profile, 71);
    let stream: Vec<Object> = dataset.stream(5 * BATCH).iter().collect();
    let pool: Vec<Preference> = dataset.preferences[..POOL].to_vec();
    let genesis: Vec<Preference> = (0..INITIAL_USERS).map(|u| pool[u % POOL].clone()).collect();

    for (backend, shards) in [("baseline", 2usize), ("ftv:0.4:compact", 4)] {
        let dir = test_dir(&format!("recover-{shards}"));
        let spec = BackendSpec::parse(backend).unwrap();
        let durability = DurabilityConfig {
            dir: dir.clone(),
            sync: SyncPolicy::Always,
            snapshot_every: 0,
        };
        let open = |d: &Path| -> EngineService {
            let config = DurabilityConfig {
                dir: d.to_path_buf(),
                sync: SyncPolicy::Always,
                snapshot_every: 0,
            };
            let (service, _) = recover_or_create(
                genesis.clone(),
                &EngineConfig::new(shards),
                &spec,
                dataset.dimensions(),
                256,
                &config,
            )
            .unwrap();
            service
        };
        let (live, report) = recover_or_create(
            genesis.clone(),
            &EngineConfig::new(shards),
            &spec,
            dataset.dimensions(),
            256,
            &durability,
        )
        .unwrap();
        assert!(report.is_none(), "fresh dir must not recover");

        let mut chunks = stream.chunks(BATCH);
        live.engine().process_batch(chunks.next().unwrap().to_vec());
        // Shared-preference churn: a unique bucket opens, converges onto
        // the pool, and a pooled registration lands in an existing bucket.
        let engine = live.engine();
        engine
            .register(UserId::new(300), dataset.preferences[POOL].clone())
            .unwrap();
        engine.process_batch(chunks.next().unwrap().to_vec());
        engine.update(UserId::new(300), pool[1].clone()).unwrap();
        engine.register(UserId::new(301), pool[0].clone()).unwrap();
        engine.unregister(UserId::new(2)).unwrap();
        // The snapshot writes the deduplicated preference-table format;
        // the mutations after it land in the recovered log tail.
        let r = live.respond_line("SNAPSHOT");
        assert!(r.starts_with("OK SNAPSHOT lsn="), "{r}");
        engine.process_batch(chunks.next().unwrap().to_vec());
        engine.register(UserId::new(302), pool[3].clone()).unwrap();
        engine.process_batch(chunks.next().unwrap().to_vec());

        // User 300 converged back onto the pool, so only the pool's
        // fingerprints survive.
        let footprint = engine.preference_footprint();
        assert_eq!(footprint.0, POOL as u64, "live distinct count");
        let users: Vec<u32> = (0..INITIAL_USERS as u32)
            .filter(|&u| u != 2)
            .chain([300, 301, 302])
            .collect();

        let copy = test_dir(&format!("recover-copy-{shards}"));
        copy_dir(&dir, &copy);
        let recovered = open(&copy);
        assert_eq!(
            recovered.engine().preference_footprint(),
            footprint,
            "{backend}/{shards}: interner footprint diverged across recovery"
        );
        for &raw in &users {
            let user = UserId::new(raw);
            assert_eq!(
                recovered.engine().frontier(user),
                live.engine().frontier(user),
                "{backend}/{shards}: frontier of user {raw} diverged across recovery"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&copy).unwrap();
    }
}
