//! Dynamic-membership oracle equivalence: an interleaved stream of
//! INGEST / REGISTER / UPDATE / UNREGISTER events must leave every
//! surviving user with a frontier identical to (a) a per-user oracle whose
//! monitors are rebuilt with the final preferences from the alive objects,
//! (b) a *fresh* engine built with the final population and fed the alive
//! objects, and (c) a reference engine that serves every UPDATE as
//! UNREGISTER + REGISTER — across all four backends and 1/2/4/8 shards.
//!
//! The per-object arrival comparison additionally proves that a REGISTER
//! or UPDATE during an active stream never drops or duplicates a
//! notification: every batch enqueued after the command observes it, every
//! batch before it does not. Along the way the script asserts that an
//! in-place UPDATE never renumbers any user (per-shard membership lists are
//! byte-identical around it) and that the per-shard live user counts of
//! `EngineSnapshot` stay exact after every event.
//!
//! Backend notes: `Baseline`, `BaselineSw` and append-only
//! `FilterThenVerify` are exact under any clustering (Lemma 4.6), so the
//! FTV run uses a real branch cut and genuinely exercises incremental
//! cluster joins/repairs. `FilterThenVerifySw` is only exact when every
//! cluster is a singleton, so its oracle run pins an unreachable branch cut
//! (the paper's approximation error is otherwise clustering-dependent);
//! cluster-structure invariants under churn are covered by the property
//! tests instead.

use std::collections::BTreeMap;
use std::sync::Arc;

use pm_cluster::{Clustering, ExactMeasure};
use pm_core::{Filter, Lifetime, Monitor};
use pm_datagen::{Dataset, DatasetProfile};
use pm_engine::{BackendSpec, EngineConfig, ShardedEngine};
use pm_model::{Object, ObjectId, UserId};
use pm_porder::Preference;

const WINDOW: usize = 120;
const BATCH: usize = 24;

/// One step of the interleaved script.
enum Event {
    Ingest(Vec<Object>),
    Register(UserId, Preference),
    Update(UserId, Preference),
    Unregister(UserId),
}

/// Builds the deterministic event script: 24 initial users, a pool of late
/// registrations under sparse ids (200+), periodic unregistrations,
/// periodic in-place preference updates of live users, and one id that is
/// unregistered and later *re-registered with a different preference*.
fn build_script() -> (Vec<(UserId, Preference)>, Vec<Event>) {
    let profile = DatasetProfile::movie()
        .with_users(36)
        .with_objects(240)
        .with_interactions(45);
    let dataset = Dataset::generate(&profile, 97);
    let stream: Vec<Object> = dataset.stream(360).iter().collect();
    let initial: Vec<(UserId, Preference)> = (0..24)
        .map(|u| (UserId::from(u), dataset.preferences[u].clone()))
        .collect();

    let mut live: Vec<UserId> = initial.iter().map(|(u, _)| *u).collect();
    let mut events = Vec::new();
    let mut next_pool = 24usize;
    let mut next_id = 200u32;
    let mut recycled: Option<(UserId, Preference)> = None;
    for (i, chunk) in stream.chunks(BATCH).enumerate() {
        events.push(Event::Ingest(chunk.to_vec()));
        if i % 3 != 1 {
            // Register: prefer the recycled id (re-registration with a
            // different preference), else draw from the pool.
            if let Some((user, pref)) = recycled.take() {
                events.push(Event::Register(user, pref));
                live.push(user);
            } else if next_pool < dataset.preferences.len() {
                let user = UserId::new(next_id);
                next_id += 1;
                let pref = dataset.preferences[next_pool].clone();
                next_pool += 1;
                events.push(Event::Register(user, pref));
                live.push(user);
            }
        }
        if i % 2 == 0 && !live.is_empty() {
            // In-place update: a live user adopts a different preference
            // drawn from the dataset pool. Some picks repeat a user updated
            // earlier, covering repeated updates of the same id.
            let user = live[(i * 5) % live.len()];
            let pref = dataset.preferences[(i * 11) % dataset.preferences.len()].clone();
            events.push(Event::Update(user, pref));
        }
        if i % 3 != 0 && live.len() > 4 {
            let idx = (i * 7) % live.len();
            let user = live.swap_remove(idx);
            events.push(Event::Unregister(user));
            if i == 7 {
                // Later, give this id a brand-new preference.
                let pref = dataset.preferences[(i * 5) % dataset.preferences.len()].clone();
                recycled = Some((user, pref));
            }
        }
    }
    assert!(events.iter().any(|e| matches!(e, Event::Register(..))));
    assert!(events.iter().any(|e| matches!(e, Event::Update(..))));
    assert!(events.iter().any(|e| matches!(e, Event::Unregister(..))));
    (initial, events)
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

    /// In-place update ground truth: the user's monitor is rebuilt with the
    /// new preference and replays the alive objects — exactly "a per-user
    /// monitor rebuilt with the final preference".
    fn update(&mut self, user: UserId, pref: Preference) {
        self.unregister(user);
        self.register(user, pref);
    }

    /// Processes one arrival and returns its target users, ascending.
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

    /// The currently alive objects, oldest first.
    fn alive(&self) -> Vec<Object> {
        let start = match self.window {
            Some(w) => self.history.len().saturating_sub(w),
            None => 0,
        };
        self.history[start..].to_vec()
    }
}

/// Asserts the engine's per-shard live user counts are exactly the counts
/// derived from the reference population via `shard_of` — the regression
/// check that `shard_users=` in `EngineSnapshot`/STATS never drifts under
/// interleaved INGEST/REGISTER/UPDATE/UNREGISTER.
fn assert_shard_counts_exact(
    engine: &ShardedEngine,
    population: &BTreeMap<u32, Preference>,
    label: &str,
) {
    let shards = engine.num_shards();
    let mut expected = vec![0usize; shards];
    for &raw in population.keys() {
        expected[pm_engine::shard_of(UserId::new(raw), shards)] += 1;
    }
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.users, population.len(), "{label}: total drifted");
    assert_eq!(
        snapshot.users_per_shard(),
        expected,
        "{label}: per-shard counts drifted"
    );
    assert_eq!(engine.num_users(), population.len(), "{label}: num_users");
}

fn run_backend(spec: BackendSpec, window: Option<usize>, label: &str) {
    let (initial, events) = build_script();
    for shards in [1usize, 2, 4, 8] {
        let engine = ShardedEngine::new(
            initial.iter().map(|(_, p)| p.clone()).collect(),
            &EngineConfig::new(shards),
            &spec,
        );
        // Reference run: identical script, but every UPDATE is served as
        // UNREGISTER + REGISTER. In-place updates must not be observably
        // different (beyond paying one repair instead of two).
        let reference = ShardedEngine::new(
            initial.iter().map(|(_, p)| p.clone()).collect(),
            &EngineConfig::new(shards),
            &spec,
        );
        let mut oracle = Oracle::new(window);
        let mut population: BTreeMap<u32, Preference> = BTreeMap::new();
        for (user, pref) in &initial {
            oracle.register(*user, pref.clone());
            population.insert(user.raw(), pref.clone());
        }

        for event in &events {
            match event {
                Event::Ingest(chunk) => {
                    let arrivals = engine.process_batch(chunk.clone());
                    let ref_arrivals = reference.process_batch(chunk.clone());
                    assert_eq!(arrivals.len(), chunk.len());
                    for (object, arrival) in chunk.iter().zip(&arrivals) {
                        let expected = oracle.ingest(object.clone());
                        assert_eq!(
                            arrival.target_users,
                            expected,
                            "{label}/{shards}: arrival {} disagrees with oracle",
                            object.id()
                        );
                    }
                    assert_eq!(
                        arrivals, ref_arrivals,
                        "{label}/{shards}: in-place UPDATE and unregister+register disagree"
                    );
                }
                Event::Register(user, pref) => {
                    engine.register(*user, pref.clone()).unwrap();
                    reference.register(*user, pref.clone()).unwrap();
                    oracle.register(*user, pref.clone());
                    population.insert(user.raw(), pref.clone());
                }
                Event::Update(user, pref) => {
                    // An in-place UPDATE never renumbers any user: every
                    // shard's membership list is byte-identical around it.
                    let before: Vec<Vec<UserId>> =
                        (0..shards).map(|s| engine.shard_users(s)).collect();
                    engine.update(*user, pref.clone()).unwrap();
                    let after: Vec<Vec<UserId>> =
                        (0..shards).map(|s| engine.shard_users(s)).collect();
                    assert_eq!(before, after, "{label}/{shards}: UPDATE renumbered a user");
                    reference.unregister(*user).unwrap();
                    reference.register(*user, pref.clone()).unwrap();
                    oracle.update(*user, pref.clone());
                    population.insert(user.raw(), pref.clone());
                }
                Event::Unregister(user) => {
                    engine.unregister(*user).unwrap();
                    reference.unregister(*user).unwrap();
                    oracle.unregister(*user);
                    population.remove(&user.raw());
                }
            }
            assert_shard_counts_exact(&engine, &population, label);
        }

        // A fresh engine built with the final population, fed the alive
        // objects, must agree with the churned engine on every frontier.
        let fresh = ShardedEngine::empty(&EngineConfig::new(shards), &spec);
        for (&raw, pref) in &population {
            fresh.register(UserId::new(raw), pref.clone()).unwrap();
        }
        for chunk in oracle.alive().chunks(BATCH) {
            fresh.process_batch(chunk.to_vec());
        }
        for &raw in population.keys() {
            let user = UserId::new(raw);
            let dynamic = engine.frontier(user);
            assert_eq!(
                dynamic,
                oracle.frontier(user),
                "{label}/{shards}: user {raw} vs oracle"
            );
            assert_eq!(
                dynamic,
                fresh.frontier(user),
                "{label}/{shards}: user {raw} vs fresh engine"
            );
            assert_eq!(
                dynamic,
                reference.frontier(user),
                "{label}/{shards}: user {raw} vs unregister+register reference"
            );
        }
        assert_eq!(engine.num_users(), population.len());
    }
}

#[test]
fn dynamic_membership_matches_oracle_baseline() {
    run_backend(BackendSpec::baseline(), None, "baseline");
}

#[test]
fn dynamic_membership_matches_oracle_filter_then_verify() {
    // A real branch cut: registrations join existing clusters and removals
    // repair them; Lemma 4.6 keeps the results exact regardless.
    run_backend(BackendSpec::ftv(0.45), None, "ftv");
}

#[test]
fn dynamic_membership_matches_oracle_baseline_sw() {
    run_backend(
        BackendSpec::BaselineSw { window: WINDOW },
        Some(WINDOW),
        "baseline-sw",
    );
}

#[test]
fn dynamic_membership_matches_oracle_filter_then_verify_sw() {
    // Singleton clusters (unreachable branch cut) make FilterThenVerifySW
    // exact, so the oracle equivalence is well-defined; see module docs.
    run_backend(
        BackendSpec::FilterThenVerifySw {
            branch_cut: 100.0,
            window: WINDOW,
        },
        Some(WINDOW),
        "ftv-sw",
    );
}

/// Builds the compacting-history event script: the full 36-preference pool
/// is registered up front (seeding every shard's compaction universe —
/// exactness of compacted backfill is relative to the observed universe),
/// then churn draws every REGISTER/UPDATE preference from that same pool:
/// re-registrations and in-place updates with previously seen preferences,
/// the common churn shape of a population whose tastes cluster.
fn build_compact_script() -> (Vec<(UserId, Preference)>, Vec<Event>) {
    let profile = DatasetProfile::movie()
        .with_users(36)
        .with_objects(240)
        .with_interactions(45);
    let dataset = Dataset::generate(&profile, 97);
    let stream: Vec<Object> = dataset.stream(360).iter().collect();
    let pool = &dataset.preferences;
    let initial: Vec<(UserId, Preference)> = (0..36)
        .map(|u| (UserId::from(u), pool[u].clone()))
        .collect();

    let mut live: Vec<UserId> = initial.iter().map(|(u, _)| *u).collect();
    let mut events = Vec::new();
    let mut next_id = 200u32;
    for (i, chunk) in stream.chunks(BATCH).enumerate() {
        events.push(Event::Ingest(chunk.to_vec()));
        if i % 3 != 1 {
            let user = UserId::new(next_id);
            next_id += 1;
            events.push(Event::Register(user, pool[(i * 7) % pool.len()].clone()));
            live.push(user);
        }
        if i % 2 == 0 && !live.is_empty() {
            let user = live[(i * 5) % live.len()];
            events.push(Event::Update(user, pool[(i * 11) % pool.len()].clone()));
        }
        if i % 3 != 0 && live.len() > 6 {
            let idx = (i * 7) % live.len();
            let user = live.swap_remove(idx);
            events.push(Event::Unregister(user));
        }
    }
    assert!(events.iter().any(|e| matches!(e, Event::Register(..))));
    assert!(events.iter().any(|e| matches!(e, Event::Update(..))));
    assert!(events.iter().any(|e| matches!(e, Event::Unregister(..))));
    (initial, events)
}

/// The compacting-history battery: with `compact` retention and churn whose
/// preferences stay inside the observed universe, every backfilled frontier
/// must equal (a) the per-user full-history oracle and (b) a full-history
/// reference engine of the same backend fed the identical event script —
/// the retained skyline union loses nothing any observed preference needs.
fn run_backend_compact(spec: BackendSpec, reference_spec: BackendSpec, label: &str) {
    let (initial, events) = build_compact_script();
    for shards in [1usize, 2, 4, 8] {
        let engine = ShardedEngine::new(
            initial.iter().map(|(_, p)| p.clone()).collect(),
            &EngineConfig::new(shards),
            &spec,
        );
        // Full-history reference: the same backend with unlimited history.
        let reference = ShardedEngine::new(
            initial.iter().map(|(_, p)| p.clone()).collect(),
            &EngineConfig::new(shards),
            &reference_spec,
        );
        let mut oracle = Oracle::new(None);
        let mut population: BTreeMap<u32, Preference> = BTreeMap::new();
        for (user, pref) in &initial {
            oracle.register(*user, pref.clone());
            population.insert(user.raw(), pref.clone());
        }
        for event in &events {
            match event {
                Event::Ingest(chunk) => {
                    let arrivals = engine.process_batch(chunk.clone());
                    let ref_arrivals = reference.process_batch(chunk.clone());
                    for (object, arrival) in chunk.iter().zip(&arrivals) {
                        let expected = oracle.ingest(object.clone());
                        assert_eq!(
                            arrival.target_users,
                            expected,
                            "{label}/{shards}: arrival {} disagrees with oracle",
                            object.id()
                        );
                    }
                    assert_eq!(
                        arrivals, ref_arrivals,
                        "{label}/{shards}: compacted and full-history arrivals disagree"
                    );
                }
                Event::Register(user, pref) => {
                    engine.register(*user, pref.clone()).unwrap();
                    reference.register(*user, pref.clone()).unwrap();
                    oracle.register(*user, pref.clone());
                    population.insert(user.raw(), pref.clone());
                    // The backfilled frontier is checked right away: this
                    // is the replay the compaction must keep exact.
                    assert_eq!(
                        engine.frontier(*user),
                        oracle.frontier(*user),
                        "{label}/{shards}: backfill of {user} diverged from full history"
                    );
                }
                Event::Update(user, pref) => {
                    engine.update(*user, pref.clone()).unwrap();
                    reference.update(*user, pref.clone()).unwrap();
                    oracle.update(*user, pref.clone());
                    population.insert(user.raw(), pref.clone());
                    assert_eq!(
                        engine.frontier(*user),
                        oracle.frontier(*user),
                        "{label}/{shards}: update backfill of {user} diverged"
                    );
                }
                Event::Unregister(user) => {
                    engine.unregister(*user).unwrap();
                    reference.unregister(*user).unwrap();
                    oracle.unregister(*user);
                    population.remove(&user.raw());
                }
            }
        }
        for &raw in population.keys() {
            let user = UserId::new(raw);
            let frontier = engine.frontier(user);
            assert_eq!(
                frontier,
                oracle.frontier(user),
                "{label}/{shards}: user {raw} vs oracle"
            );
            assert_eq!(
                frontier,
                reference.frontier(user),
                "{label}/{shards}: user {raw} vs full-history reference engine"
            );
        }
        // Compaction actually reduced the retained history (the stream
        // repeats dominated value vectors), and STATS sees it per shard.
        let stats = engine.stats();
        let full = reference.stats();
        assert!(
            stats.history_objects < full.history_objects,
            "{label}/{shards}: compaction retained {} of {} objects",
            stats.history_objects,
            full.history_objects
        );
        assert!(
            stats.history_evicted > 0,
            "{label}/{shards}: nothing evicted"
        );
        assert_eq!(
            stats.history_objects + stats.history_evicted,
            full.history_objects,
            "{label}/{shards}: retained + evicted must cover the stream"
        );
    }
}

#[test]
fn compacted_backfill_is_exact_baseline() {
    run_backend_compact(
        BackendSpec::parse("baseline:compact").unwrap(),
        BackendSpec::baseline(),
        "baseline:compact",
    );
}

#[test]
fn compacted_backfill_is_exact_filter_then_verify() {
    run_backend_compact(
        BackendSpec::parse("ftv:0.45:compact").unwrap(),
        BackendSpec::ftv(0.45),
        "ftv:compact",
    );
}

#[test]
fn compacted_backfill_is_exact_baseline_with_slack_cap() {
    // A hard cap far above the retained set never bites: semantics are
    // identical to plain compaction.
    run_backend_compact(
        BackendSpec::parse("baseline:compact:100000").unwrap(),
        BackendSpec::baseline(),
        "baseline:compact:slack",
    );
}

#[test]
fn compacted_backfill_is_exact_filter_then_verify_with_slack_cap() {
    run_backend_compact(
        BackendSpec::parse("ftv:0.45:compact:100000").unwrap(),
        BackendSpec::ftv(0.45),
        "ftv:compact:slack",
    );
}

/// Compaction's memory win on a fixed-seed workload: over the identical
/// stream (80 users, 1,200 base objects cycled to 6,000 arrivals), the
/// retained history of `baseline:compact` holds at most half the bytes of
/// the full history `baseline` keeps (131,544 of 336,000 = 0.392). The
/// stream length is load-bearing: compaction pays once value vectors
/// repeat, and at 1,500 arrivals the same ratio is still 0.769. Filtering
/// does not change what is retained (`ftv:0.4` vs `ftv:0.4:compact` give
/// identical bytes), so the unfiltered pair stands for both.
#[test]
fn compaction_retains_at_most_half_the_history_bytes() {
    let profile = DatasetProfile::movie()
        .with_users(80)
        .with_objects(1_200)
        .with_interactions(60);
    let dataset = Dataset::generate(&profile, 42);
    let stream: Vec<Object> = dataset.stream(6_000).iter().collect();
    let history_bytes = |backend: &str| {
        let spec = BackendSpec::parse(backend).unwrap();
        let engine = ShardedEngine::new(dataset.preferences.clone(), &EngineConfig::new(1), &spec);
        for chunk in stream.chunks(256) {
            engine.process_batch(chunk.to_vec());
        }
        engine.stats().history_bytes
    };
    let full = history_bytes("baseline");
    let compact = history_bytes("baseline:compact");
    assert!(
        2 * compact <= full,
        "compaction retained {compact} of {full} history bytes"
    );
}

/// Def. 7.4 boundary audit: an in-place UPDATE rebuilds the sliding
/// monitors' frontier *and* Pareto-frontier buffer by replaying the window.
/// An off-by-one between that replay and incremental maintenance would
/// surface exactly when the update lands at an expiry boundary (window just
/// filled, oldest object about to expire) — the rebuilt buffer drives the
/// next expiry's mending. Sweep every update position across several window
/// sizes, continue the stream past further expiries, and require frontier
/// and buffer to match a from-start monitor at every step.
#[test]
fn sliding_update_at_every_expiry_boundary_matches_from_start() {
    let profile = DatasetProfile::movie()
        .with_users(6)
        .with_objects(60)
        .with_interactions(40);
    let dataset = Dataset::generate(&profile, 41);
    let stream: Vec<Object> = dataset.stream(30).iter().collect();
    let users: Vec<Preference> = dataset.preferences[..4].to_vec();
    let new_pref = dataset.preferences[5].clone();
    for window in [1usize, 2, 3, 5, 8] {
        for pos in 0..stream.len() {
            // The churned monitor: update user 1 after `pos` arrivals.
            let mut churned = Monitor::new(&users, Lifetime::Window(window), None);
            let mut ftv = Monitor::new(
                &users,
                Lifetime::Window(window),
                Some(Filter::maintained(Clustering::new(
                    &users,
                    ExactMeasure::Jaccard,
                    100.0,
                ))),
            );
            for o in &stream[..pos] {
                churned.process(o.clone());
                ftv.process(o.clone());
            }
            churned.update_user(UserId::new(1), new_pref.clone());
            ftv.update_user(UserId::new(1), new_pref.clone());
            // The from-start monitor holds the final preference throughout.
            let mut final_prefs = users.clone();
            final_prefs[1] = new_pref.clone();
            let mut from_start = Monitor::new(&final_prefs, Lifetime::Window(window), None);
            for o in &stream[..pos] {
                from_start.process(o.clone());
            }
            // Immediately after the rebuild the buffer must already agree —
            // this is the Def. 7.4 off-by-one the audit targets.
            assert_eq!(
                churned.buffer(UserId::new(1)),
                from_start.buffer(UserId::new(1)),
                "window={window} pos={pos}: rebuilt buffer diverged"
            );
            // Continue across at least two further expiries: mending after
            // expiry consumes the rebuilt buffer.
            for o in &stream[pos..] {
                let a = churned.process(o.clone());
                let b = from_start.process(o.clone());
                let c = ftv.process(o.clone());
                assert_eq!(
                    a.target_users,
                    b.target_users,
                    "window={window} pos={pos}: arrivals diverged at {}",
                    o.id()
                );
                assert_eq!(
                    a.target_users,
                    c.target_users,
                    "window={window} pos={pos}: ftv-sw arrivals diverged at {}",
                    o.id()
                );
                for u in 0..4usize {
                    assert_eq!(
                        churned.frontier(UserId::from(u)),
                        from_start.frontier(UserId::from(u)),
                        "window={window} pos={pos}: frontier of user {u} diverged"
                    );
                }
                assert_eq!(
                    churned.buffer(UserId::new(1)),
                    from_start.buffer(UserId::new(1)),
                    "window={window} pos={pos}: buffer diverged after {}",
                    o.id()
                );
            }
        }
    }
}

/// The universe-extension slow path: a REGISTER or UPDATE naming attribute
/// values (on several attributes) that no clustering state has ever seen
/// forces the shared per-attribute universes to grow and every compiled
/// state to be rebuilt — results must stay exact on all four backends.
#[test]
fn universe_extension_slow_path_stays_exact_for_all_backends() {
    use pm_model::{AttrId, ValueId};
    let profile = DatasetProfile::movie()
        .with_users(12)
        .with_objects(120)
        .with_interactions(40);
    let dataset = Dataset::generate(&profile, 23);
    let arity = dataset.dimensions();
    let stream: Vec<Object> = dataset.stream(160).iter().collect();
    // Values 9000+ never occur in the generated dataset: both preferences
    // trigger the recompile-everything slow path, on different attributes.
    let mut alien_register = Preference::new(arity);
    alien_register.prefer(AttrId::new(0), ValueId::new(9000), ValueId::new(9001));
    alien_register.prefer(
        AttrId::new(arity as u32 - 1),
        ValueId::new(9001),
        ValueId::new(9002),
    );
    let mut alien_update = Preference::new(arity);
    alien_update.prefer(AttrId::new(1), ValueId::new(9100), ValueId::new(9101));
    alien_update.prefer(AttrId::new(1), ValueId::new(9101), ValueId::new(9102));
    let specs: Vec<(BackendSpec, &str)> = vec![
        (BackendSpec::baseline(), "baseline"),
        (BackendSpec::ftv(0.45), "ftv"),
        (BackendSpec::BaselineSw { window: 60 }, "baseline-sw"),
        (
            BackendSpec::FilterThenVerifySw {
                branch_cut: 100.0,
                window: 60,
            },
            "ftv-sw",
        ),
    ];
    for (spec, label) in specs {
        let engine = ShardedEngine::new(dataset.preferences.clone(), &EngineConfig::new(2), &spec);
        engine.process_batch(stream[..80].to_vec());
        engine
            .register(UserId::new(500), alien_register.clone())
            .unwrap();
        engine.update(UserId::new(3), alien_update.clone()).unwrap();
        engine.process_batch(stream[80..].to_vec());
        // A fresh engine with the final population (alien values present
        // from the very first compile) must agree on every frontier.
        let fresh = ShardedEngine::empty(&EngineConfig::new(2), &spec);
        let mut final_pop: Vec<(UserId, Preference)> = dataset
            .preferences
            .iter()
            .enumerate()
            .map(|(i, p)| (UserId::from(i), p.clone()))
            .collect();
        final_pop[3].1 = alien_update.clone();
        final_pop.push((UserId::new(500), alien_register.clone()));
        for (user, pref) in &final_pop {
            fresh.register(*user, pref.clone()).unwrap();
        }
        for chunk in stream.chunks(BATCH) {
            fresh.process_batch(chunk.to_vec());
        }
        for (user, _) in &final_pop {
            assert_eq!(
                engine.frontier(*user),
                fresh.frontier(*user),
                "{label}: user {user} after universe extension"
            );
        }
    }
}

/// Registration and ingestion from different threads must interleave safely
/// (batch-granular ordering, no deadlock, no lost arrival).
#[test]
fn concurrent_registration_during_ingest_is_safe() {
    let profile = DatasetProfile::movie()
        .with_users(24)
        .with_objects(120)
        .with_interactions(40);
    let dataset = Dataset::generate(&profile, 11);
    let engine = Arc::new(ShardedEngine::new(
        dataset.preferences.clone(),
        &EngineConfig::new(4),
        &BackendSpec::ftv(0.45),
    ));
    let stream: Vec<Object> = dataset.stream(480).iter().collect();

    let ingester = {
        let engine = Arc::clone(&engine);
        let stream = stream.clone();
        std::thread::spawn(move || {
            let mut processed = 0usize;
            for chunk in stream.chunks(32) {
                processed += engine.process_batch(chunk.to_vec()).len();
            }
            processed
        })
    };
    // Churn 40 register/update/unregister rounds while the stream is in
    // flight.
    for i in 0..40u32 {
        let user = UserId::new(1_000 + i);
        let pref = dataset.preferences[(i as usize) % dataset.num_users()].clone();
        engine.register(user, pref).unwrap();
        if i >= 4 {
            let updated = UserId::new(1_000 + i - 4);
            let new_pref = dataset.preferences[((i + 7) as usize) % dataset.num_users()].clone();
            engine.update(updated, new_pref).unwrap();
        }
        if i >= 8 {
            engine.unregister(UserId::new(1_000 + i - 8)).unwrap();
        }
    }
    let processed = ingester.join().expect("ingester panicked");
    assert_eq!(processed, stream.len());
    assert_eq!(engine.stats().arrivals, stream.len() as u64);
    assert_eq!(engine.num_users(), dataset.num_users() + 8);
    // Every surviving registered user answers frontier queries.
    for i in 32..40u32 {
        let _ = engine.frontier(UserId::new(1_000 + i));
    }
    let snapshot = engine.snapshot();
    assert_eq!(snapshot.users, dataset.num_users() + 8);
}
