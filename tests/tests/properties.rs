//! Property-based tests (proptest) of the core invariants:
//! strict-partial-order laws, the paper's theorems relating cluster and user
//! frontiers, and agreement between the incremental monitors and a naive
//! recompute-from-scratch oracle.

use proptest::prelude::*;

use pm_cluster::{
    cluster_users, ApproxMeasure, Clustering, ClusteringConfig, ExactMeasure, FrequencyVectors,
};
use pm_core::{Filter, HistoryMode, Lifetime, Monitor, MonitorStats};
use pm_datagen::{Dataset, DatasetProfile};
use pm_engine::BackendSpec;
use pm_integration_tests::{one_cluster, TRANSCRIPT_BACKENDS};
use pm_model::{AttrId, Object, ObjectId, UserId, ValueId};
use pm_obs::LogHistogram;
use pm_porder::{
    naive_pareto_frontier, CompiledPreference, CompiledRelation, Dominance, HasseDiagram,
    Preference, Relation,
};

/// Asserts the two ISSUE invariants on a preference pair set: used by the
/// churn properties below to check that a cluster's common relation equals
/// the intersection of its members' relations on every attribute.
fn assert_common_is_intersection(
    label: &str,
    common: &Preference,
    members: &[UserId],
    preference_of: impl Fn(UserId) -> Preference,
) {
    let expected = Preference::common_of(
        members
            .iter()
            .map(|&m| preference_of(m))
            .collect::<Vec<_>>()
            .iter(),
    );
    let arity = expected.arity().max(common.arity());
    for attr in 0..arity {
        let attr = AttrId::from(attr);
        let pairs = |p: &Preference| -> std::collections::HashSet<(ValueId, ValueId)> {
            if attr.index() < p.arity() {
                p.relation(attr).pairs().collect()
            } else {
                Default::default()
            }
        };
        assert_eq!(
            pairs(common),
            pairs(&expected),
            "{label}: common relation of {members:?} on {attr} is not the intersection"
        );
    }
}

const DOMAIN: u32 = 6;
const ATTRS: usize = 3;

/// The verdict of Def. 3.2 read off the closure rows and their transpose,
/// as the frontier index reads them: per attribute, `b`'s value among the
/// values `a`'s beats (a closure row) or among those beating it (a row of
/// the transpose), or equal, or neither.
fn verdict_from_rows(compiled: &CompiledPreference, a: &Object, b: &Object) -> Dominance {
    let (mut beats, mut beaten) = (false, false);
    for (attr, relation) in compiled.relations().iter().enumerate() {
        let (x, y) = (a.values()[attr], b.values()[attr]);
        if x == y {
            continue;
        }
        let (Some(ix), Some(iy)) = (relation.dense_index(x), relation.dense_index(y)) else {
            return Dominance::Incomparable;
        };
        let holds = |row: &[u64]| (row[iy / 64] >> (iy % 64)) & 1 == 1;
        match (holds(relation.row(ix)), holds(relation.predecessors(ix))) {
            (true, false) => beats = true,
            (false, true) => beaten = true,
            (false, false) => return Dominance::Incomparable,
            (true, true) => unreachable!("a strict order is asymmetric"),
        }
    }
    match (beats, beaten) {
        (false, false) => Dominance::Identical,
        (true, false) => Dominance::Dominates,
        (false, true) => Dominance::DominatedBy,
        (true, true) => Dominance::Incomparable,
    }
}

/// Strategy: an arbitrary edge list over a small domain. Edges that would
/// break the strict-partial-order laws are skipped at construction time,
/// which mirrors how relations are built from real data.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0..DOMAIN, 0..DOMAIN), 0..20).prop_map(|edges| {
        let mut rel = Relation::new();
        for (x, y) in edges {
            let _ = rel.insert(ValueId::new(x), ValueId::new(y));
        }
        rel
    })
}

/// Values no relation of [`layout_relation_strategy`] mentions.
const UNMENTIONED: [u32; 2] = [250, 251];

/// Strategy: a relation in one of the three bit-row layouts the compiled
/// form has — one-word dense rows, two-word dense rows (a universe wider
/// than 64 values) and sparse rows (a universe of at least 128 values with
/// few non-empty rows) — the latter two a fixed spine plus random edges.
fn layout_relation_strategy() -> impl Strategy<Value = Relation> {
    let edges = proptest::collection::vec((0..70u32, 0..70u32), 0..30);
    (0..3u32, edges).prop_map(|(layout, edges)| {
        let edges: Vec<(u32, u32)> = match layout {
            0 => edges
                .into_iter()
                .map(|(x, y)| (x % DOMAIN, y % DOMAIN))
                .collect(),
            // 70 mentioned values: 2i ≻ 2i + 1.
            1 => (0..35).map(|i| (2 * i, 2 * i + 1)).chain(edges).collect(),
            // Value 200 beats 0..=130; two more sources beat a few values.
            _ => (0..=130)
                .map(|y| (200, y))
                .chain(edges.into_iter().take(6).map(|(x, y)| (201 + x % 2, y)))
                .collect(),
        };
        let mut rel = Relation::new();
        for (x, y) in edges {
            let _ = rel.insert(ValueId::new(x), ValueId::new(y));
        }
        rel
    })
}

/// Strategy: object values that collide often enough to meet `Identical`
/// and cover both words of a wide row, the sparse layout's sources, and
/// values outside every universe.
fn kernel_value_strategy() -> impl Strategy<Value = u32> {
    const POOL: [u32; 12] = [
        63,
        64,
        65,
        69,
        100,
        129,
        130,
        200,
        201,
        202,
        UNMENTIONED[0],
        UNMENTIONED[1],
    ];
    (0..DOMAIN as usize + POOL.len()).prop_map(|i| match i.checked_sub(DOMAIN as usize) {
        None => i as u32,
        Some(pooled) => POOL[pooled],
    })
}

fn preference_strategy() -> impl Strategy<Value = Preference> {
    proptest::collection::vec(relation_strategy(), ATTRS).prop_map(Preference::from_relations)
}

fn objects_strategy(max: usize) -> impl Strategy<Value = Vec<Object>> {
    proptest::collection::vec(proptest::collection::vec(0..DOMAIN, ATTRS), 1..max).prop_map(
        |rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, vals)| {
                    Object::new(
                        ObjectId::from(i),
                        vals.into_iter().map(ValueId::new).collect(),
                    )
                })
                .collect()
        },
    )
}

/// The spines of [`layout_relation_strategy`] really produce the layouts
/// the kernel-equivalence property is meant to cover.
#[test]
fn layout_spines_are_two_word_and_sparse() {
    let wide =
        Relation::from_pairs((0..35).map(|i| (ValueId::new(2 * i), ValueId::new(2 * i + 1))));
    let wide = CompiledRelation::compile(&wide.unwrap());
    assert!(wide.num_values() > 64 && wide.row(0).len() == 2 && !wide.is_sparse());
    let star = Relation::from_pairs((0..=130).map(|y| (ValueId::new(200), ValueId::new(y))));
    let star = CompiledRelation::compile(&star.unwrap());
    assert!(star.num_values() >= 128 && star.is_sparse());
}

/// Approximate similarity (Sec. 6.3) is a function of the clusters alone:
/// two builds of the same frequency vectors give bit-identical similarities
/// on a movie population, and repeated clustering runs merge the same
/// clusters at bit-identical similarities.
#[test]
fn approximate_similarity_is_reproducible() {
    let dataset = Dataset::generate(&DatasetProfile::movie().with_users(120), 42);
    let prefs = &dataset.preferences;
    for measure in [ApproxMeasure::Jaccard, ApproxMeasure::WeightedJaccard] {
        let build = || -> Vec<FrequencyVectors> {
            prefs
                .chunks(3)
                .map(|members| FrequencyVectors::of_users(members, measure))
                .collect()
        };
        let (first, second) = (build(), build());
        for (a1, a2) in first.iter().zip(&second) {
            for (b1, b2) in first.iter().zip(&second) {
                let (s1, s2) = (a1.similarity(b1), a2.similarity(b2));
                assert_eq!(s1.to_bits(), s2.to_bits(), "{}", measure.name());
            }
        }
        let config = ClusteringConfig::Approx {
            measure,
            branch_cut: 0.4,
        };
        let merges = || -> Vec<(usize, usize, u64)> {
            cluster_users(prefs, config)
                .merges
                .iter()
                .map(|step| (step.kept, step.absorbed, step.similarity.to_bits()))
                .collect()
        };
        let once = merges();
        assert!(!once.is_empty());
        assert_eq!(merges(), once, "{}", measure.name());
    }
}

/// Worker counts for `Monitor::process_batch`: the inline path, two-core
/// hosts, and more threads than cores or users.
const WORKERS: [usize; 4] = [1, 2, 3, 8];

/// Strategy: a twin-heavy population of 2–6 users drawn from a pool of 1–3
/// distinct preferences.
fn population_strategy() -> impl Strategy<Value = Vec<Preference>> {
    let pool = proptest::collection::vec(preference_strategy(), 1..4);
    let holders = proptest::collection::vec(0usize..3, 2..7);
    (pool, holders).prop_map(|(pool, holders)| {
        holders
            .iter()
            .map(|&k| pool[k % pool.len()].clone())
            .collect()
    })
}

/// A fixed cluster list that splits users `1..` by parity — and with it
/// twins — and leaves user 0 in no cluster.
fn clusters_without_user_0(prefs: &[Preference]) -> Filter {
    let clusters = (0..2)
        .filter_map(|parity| {
            let members: Vec<UserId> = (1..prefs.len())
                .filter(|u| u % 2 == parity)
                .map(UserId::from)
                .collect();
            let common = Preference::common_of(members.iter().map(|m| &prefs[m.index()]));
            (!members.is_empty()).then_some((members, common))
        })
        .collect();
    Filter::virtual_users(clusters)
}

/// Every configuration the batched path is checked on, labelled.
fn batch_configurations(prefs: &[Preference]) -> Vec<(String, Monitor)> {
    let mut configurations: Vec<(String, Monitor)> = TRANSCRIPT_BACKENDS
        .iter()
        .map(|backend| {
            let spec = BackendSpec::parse(backend).expect("valid backend");
            (backend.to_string(), spec.build(prefs))
        })
        .collect();
    for lifetime in [Lifetime::UNLIMITED, Lifetime::Window(5)] {
        let filter = clusters_without_user_0(prefs);
        let monitor = Monitor::new(prefs, lifetime, Some(filter));
        configurations.push((format!("user 0 unclustered, {lifetime:?}"), monitor));
    }
    configurations
}

/// Everything observable of a monitor besides its arrivals: each user's
/// frontier and buffer, each cluster's frontier and buffer, the counters.
type MonitorView = (
    Vec<Vec<ObjectId>>,
    Vec<Vec<ObjectId>>,
    Vec<(Vec<ObjectId>, Vec<ObjectId>)>,
    MonitorStats,
);

fn monitor_view(monitor: &Monitor) -> MonitorView {
    let users = || (0..monitor.num_users()).map(UserId::from);
    let clusters = (0..monitor.num_clusters())
        .map(|k| (monitor.cluster_frontier(k), monitor.cluster_buffer(k)))
        .collect();
    (
        users().map(|u| monitor.frontier(u)).collect(),
        users().map(|u| monitor.buffer(u)).collect(),
        clusters,
        monitor.stats(),
    )
}

/// The configurations whose frontiers must equal the naive oracle here:
/// the exact backends (no stream is long enough for a compaction sweep),
/// and a fixed cluster list on an unlimited history for its clustered users.
fn is_exact(label: &str) -> bool {
    [
        "baseline",
        "baseline:compact",
        "ftv:0.4",
        "ftv:0.4:compact",
        "baseline-sw:24",
        "user 0 unclustered, History(Unlimited)",
    ]
    .contains(&label)
}

/// Asserts every user's frontier equals the naive frontier of its
/// preference over `alive` — on a fixed cluster list, every clustered
/// user's.
fn assert_oracle_frontiers(monitor: &Monitor, alive: &[Object], label: &str) {
    let clustered: Vec<UserId> = (0..monitor.num_clusters())
        .flat_map(|k| monitor.cluster_members(k).to_vec())
        .collect();
    for user in (0..monitor.num_users()).map(UserId::from) {
        if label.starts_with("user 0 unclustered") && !clustered.contains(&user) {
            continue;
        }
        let mut oracle = naive_pareto_frontier(monitor.preference(user), alive);
        oracle.sort_unstable();
        assert_eq!(monitor.frontier(user), oracle, "{label}: user {user}");
    }
}

/// The preference a REGISTER or UPDATE brings: an even `source` copies a
/// current user's preference (a twin), an odd one brings `novel`.
fn churn_preference(monitor: &Monitor, source: u8, novel: &Preference) -> Preference {
    match source % 2 {
        0 => {
            let holder = UserId::from(source as usize / 2 % monitor.num_users());
            monitor.preference(holder).clone()
        }
        _ => novel.clone(),
    }
}

/// REGISTER (`op` 1), UPDATE (2) or UNREGISTER (3) between two batches.
fn churn(monitor: &mut Monitor, op: u8, preference: &Preference, pick: u8) {
    let user = UserId::from(pick as usize % monitor.num_users());
    match op {
        1 => {
            monitor.add_user(preference.clone());
        }
        2 => monitor.update_user(user, preference.clone()),
        3 if monitor.num_users() > 1 => {
            monitor.remove_user(user);
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batching and threads are invisible: `process_batch` over random
    /// batch cuts with 1, 2, 3 or 8 workers reports exactly the arrivals
    /// (targets and deltas) of one `process` call per object, and leaves
    /// exactly its frontiers, buffers and counters — `comparisons` included
    /// — on every backend of the golden transcript and on fixed cluster
    /// lists that leave a user in no cluster and split twins, with
    /// REGISTER, UPDATE and UNREGISTER between batches. The populations are
    /// twin-heavy and churn registers and updates onto a current user's
    /// preference as often as onto a novel one, so twins join, leave and
    /// are swap-renumbered; every exact configuration's frontiers equal the
    /// naive oracle throughout.
    #[test]
    fn batched_parallel_processing_equals_per_object_processing(
        initial in population_strategy(),
        segments in proptest::collection::vec(
            ((objects_strategy(12), 1usize..6), 0u8..4, (0u8..255, preference_strategy()), 0u8..255),
            1..6,
        ),
    ) {
        for (label, mut reference) in batch_configurations(&initial) {
            let mut batched: Vec<Monitor> = WORKERS.iter().map(|_| reference.clone()).collect();
            let mut next_id = 0u64;
            let mut stream: Vec<Object> = Vec::new();
            let alive = |stream: &[Object], monitor: &Monitor| match monitor.lifetime() {
                Lifetime::Window(size) => stream[stream.len().saturating_sub(size)..].to_vec(),
                Lifetime::History(_) => stream.to_vec(),
            };
            for ((objects, cut), op, (source, novel), pick) in &segments {
                let objects: Vec<Object> = objects
                    .iter()
                    .map(|object| {
                        next_id += 1;
                        object.with_id(ObjectId::new(next_id))
                    })
                    .collect();
                for batch in objects.chunks(*cut) {
                    let expected: Vec<_> = batch.iter().map(|o| reference.process(o.clone())).collect();
                    for (monitor, workers) in batched.iter_mut().zip(WORKERS) {
                        let got = monitor.process_batch(batch, workers);
                        prop_assert_eq!(got, expected.clone(), "{} with {} workers", label, workers);
                    }
                    stream.extend_from_slice(batch);
                    if is_exact(&label) {
                        assert_oracle_frontiers(&reference, &alive(&stream, &reference), &label);
                    }
                }
                let preference = churn_preference(&reference, *source, novel);
                churn(&mut reference, *op, &preference, *pick);
                if is_exact(&label) {
                    let label = format!("{label} after op {op}");
                    assert_oracle_frontiers(&reference, &alive(&stream, &reference), &label);
                }
                let want = monitor_view(&reference);
                for (monitor, workers) in batched.iter_mut().zip(WORKERS) {
                    churn(monitor, *op, &preference, *pick);
                    prop_assert_eq!(
                        monitor_view(monitor), want.clone(),
                        "{} with {} workers after op {}", label, workers, op
                    );
                }
            }
        }
    }

    /// Every constructed relation is a valid strict partial order.
    #[test]
    fn relations_are_strict_partial_orders(rel in relation_strategy()) {
        prop_assert!(rel.validate().is_ok());
        for (x, y) in rel.pairs() {
            prop_assert!(x != y);
            prop_assert!(!rel.prefers(y, x));
        }
    }

    /// Intersection of two relations is contained in both and is itself a
    /// strict partial order (Theorem 4.2).
    #[test]
    fn intersection_is_common_subrelation(a in relation_strategy(), b in relation_strategy()) {
        let common = a.intersection(&b);
        prop_assert!(common.validate().is_ok());
        for (x, y) in common.pairs() {
            prop_assert!(a.prefers(x, y) && b.prefers(x, y));
        }
    }

    /// The Hasse diagram is a subgraph of the relation whose reachability
    /// (from the maximal values) covers every mentioned value.
    #[test]
    fn hasse_diagram_is_consistent(rel in relation_strategy()) {
        let hasse = HasseDiagram::of(&rel);
        for (x, y) in hasse.cover_edges() {
            prop_assert!(rel.prefers(x, y));
        }
        prop_assert!(hasse.edge_count() <= rel.len());
        for &v in rel.values() {
            prop_assert!(hasse.distance_from_maximal(v).is_some());
            let w = hasse.weight(v);
            prop_assert!(w > 0.0 && w <= 1.0);
        }
        for m in hasse.maximal_values() {
            prop_assert_eq!(hasse.distance_from_maximal(m), Some(0));
            prop_assert_eq!(hasse.weight(m), 1.0);
        }
    }

    /// Object dominance is antisymmetric and irreflexive.
    #[test]
    fn dominance_is_antisymmetric(pref in preference_strategy(), objects in objects_strategy(8)) {
        for a in &objects {
            prop_assert_eq!(pref.compare(a, a), Dominance::Identical);
            for b in &objects {
                let ab = pref.compare(a, b);
                let ba = pref.compare(b, a);
                prop_assert_eq!(ab, ba.flip());
            }
        }
    }

    /// The incremental baseline monitor agrees with the naive oracle.
    #[test]
    fn baseline_matches_naive_frontier(
        prefs in proptest::collection::vec(preference_strategy(), 1..4),
        objects in objects_strategy(24),
    ) {
        let mut monitor = Monitor::new(&prefs, Lifetime::UNLIMITED, None);
        for object in objects.clone() {
            monitor.process(object);
        }
        for (user, pref) in prefs.iter().enumerate() {
            let mut oracle = naive_pareto_frontier(pref, &objects);
            oracle.sort_unstable();
            prop_assert_eq!(monitor.frontier(UserId::from(user)), oracle);
        }
    }

    /// FilterThenVerify with one all-users cluster produces exactly the
    /// baseline's frontiers and target users (Lemma 4.6).
    #[test]
    fn filter_then_verify_equals_baseline(
        prefs in proptest::collection::vec(preference_strategy(), 1..4),
        objects in objects_strategy(20),
    ) {
        let mut baseline = Monitor::new(&prefs, Lifetime::UNLIMITED, None);
        let mut ftv = Monitor::new(&prefs, Lifetime::UNLIMITED, Some(Filter::virtual_users(one_cluster(&prefs))));
        for object in objects {
            let a = baseline.process(object.clone());
            let b = ftv.process(object);
            prop_assert_eq!(a.target_users, b.target_users);
        }
        for user in 0..prefs.len() {
            prop_assert_eq!(
                baseline.frontier(UserId::from(user)),
                ftv.frontier(UserId::from(user))
            );
        }
    }

    /// Theorem 4.5: the cluster frontier always contains every member's
    /// frontier.
    #[test]
    fn cluster_frontier_contains_member_frontiers(
        prefs in proptest::collection::vec(preference_strategy(), 2..4),
        objects in objects_strategy(20),
    ) {
        let mut ftv = Monitor::new(&prefs, Lifetime::UNLIMITED, Some(Filter::virtual_users(one_cluster(&prefs))));
        for object in objects {
            ftv.process(object);
            let pu = ftv.cluster_frontier(0);
            for user in 0..prefs.len() {
                for id in ftv.frontier(UserId::from(user)) {
                    prop_assert!(pu.contains(&id));
                }
            }
        }
    }

    /// The sliding-window baseline matches the oracle recomputed over the
    /// currently alive objects, at every step.
    #[test]
    fn sliding_baseline_matches_windowed_oracle(
        prefs in proptest::collection::vec(preference_strategy(), 1..3),
        objects in objects_strategy(24),
        window in 1usize..10,
    ) {
        let mut monitor = Monitor::new(&prefs, Lifetime::Window(window), None);
        for (i, object) in objects.iter().enumerate() {
            monitor.process(object.clone());
            let start = (i + 1).saturating_sub(window);
            let alive = &objects[start..=i];
            for (user, pref) in prefs.iter().enumerate() {
                let mut oracle = naive_pareto_frontier(pref, alive);
                oracle.sort_unstable();
                prop_assert_eq!(monitor.frontier(UserId::from(user)), oracle);
            }
        }
    }

    /// The per-user buffer always contains the per-user frontier
    /// (Def. 7.4) and only alive objects.
    #[test]
    fn sliding_buffer_contains_frontier(
        prefs in proptest::collection::vec(preference_strategy(), 1..3),
        objects in objects_strategy(20),
        window in 2usize..8,
    ) {
        let mut monitor = Monitor::new(&prefs, Lifetime::Window(window), None);
        for (i, object) in objects.iter().enumerate() {
            monitor.process(object.clone());
            let oldest_alive = (i + 1).saturating_sub(window) as u64;
            for user in 0..prefs.len() {
                let frontier = monitor.frontier(UserId::from(user));
                let buffer = monitor.buffer(UserId::from(user));
                for id in &frontier {
                    prop_assert!(buffer.contains(id));
                }
                for id in &buffer {
                    prop_assert!(id.raw() >= oldest_alive, "expired object in buffer");
                }
            }
        }
    }

    /// The bitset-compiled relation agrees with the build-time relation on
    /// every value pair of the domain, plus size and round-trip.
    #[test]
    fn compiled_relation_agrees_with_relation(rel in relation_strategy()) {
        let compiled = CompiledRelation::compile(&rel);
        prop_assert_eq!(compiled.len(), rel.len());
        prop_assert_eq!(compiled.is_empty(), rel.is_empty());
        for x in 0..DOMAIN {
            for y in 0..DOMAIN {
                let (x, y) = (ValueId::new(x), ValueId::new(y));
                prop_assert_eq!(compiled.prefers(x, y), rel.prefers(x, y));
                prop_assert_eq!(compiled.comparable(x, y), rel.comparable(x, y));
            }
        }
        prop_assert_eq!(compiled.to_relation(), rel);
    }

    /// Compiled relations over a shared universe reproduce intersection,
    /// union and the bitwise-AND common relation of the build-time form.
    #[test]
    fn compiled_intersection_agrees_with_relation(
        a in relation_strategy(),
        b in relation_strategy(),
    ) {
        let mut universe: Vec<ValueId> = [a.values(), b.values()].concat();
        universe.sort_unstable();
        universe.dedup();
        let ca = CompiledRelation::compile_with_universe(&a, &universe);
        let cb = CompiledRelation::compile_with_universe(&b, &universe);
        let common = a.intersection(&b);
        prop_assert_eq!(ca.intersection_size(&cb), common.len());
        prop_assert_eq!(ca.union_size(&cb), a.len() + b.len() - common.len());
        prop_assert_eq!(ca.intersect(&cb).to_relation(), common);
    }

    /// The in-place AND narrows a relation to exactly what `intersect` and
    /// a relation compiled from the build-time intersection hold — tuple set
    /// and `len()` — on one-word dense, two-word dense and sparse layouts
    /// and mixes of them, and the transpose afterwards answers as the
    /// freshly compiled relation's does: the transpose `predecessors` built
    /// before the AND must not survive it.
    #[test]
    fn in_place_intersection_matches_a_fresh_compile(
        a in layout_relation_strategy(),
        b in layout_relation_strategy(),
        values in proptest::collection::vec(kernel_value_strategy(), 2..10),
    ) {
        let mut universe: Vec<ValueId> = [a.values(), b.values()].concat();
        universe.sort_unstable();
        universe.dedup();
        let ca = CompiledRelation::compile_with_universe(&a, &universe);
        let cb = CompiledRelation::compile_with_universe(&b, &universe);
        let fresh = CompiledRelation::compile_with_universe(&a.intersection(&b), &universe);
        let as_preference = |rel: &CompiledRelation| {
            CompiledPreference::from_relations(vec![rel.clone()])
        };
        let objects: Vec<Object> = values
            .iter()
            .enumerate()
            .map(|(i, &value)| Object::new(ObjectId::from(i), vec![ValueId::new(value)]))
            .collect();
        let mut narrowed = as_preference(&ca);
        // Build the transpose of `a` before the AND.
        for index in 0..ca.num_values() {
            let _ = narrowed.relations()[0].predecessors(index);
        }
        let mut rel = narrowed.relation(AttrId::new(0)).clone();
        rel.intersect_assign(&cb);
        prop_assert_eq!(&rel, &ca.intersect(&cb));
        prop_assert_eq!(&rel, &fresh);
        prop_assert_eq!(rel.len(), fresh.len());
        prop_assert_eq!(rel.to_relation(), a.intersection(&b));
        narrowed = as_preference(&rel);
        let fresh = as_preference(&fresh);
        for index in 0..ca.num_values() {
            prop_assert_eq!(
                narrowed.relations()[0].predecessors(index),
                fresh.relations()[0].predecessors(index)
            );
        }
        for x in &objects {
            for y in &objects {
                let ours = verdict_from_rows(&narrowed, x, y);
                prop_assert_eq!(ours, verdict_from_rows(&fresh, x, y), "{} vs {}", x, y);
                prop_assert_eq!(narrowed.compare(x, y), fresh.compare(x, y));
            }
        }
    }

    /// The compiled preference's object comparison agrees with the
    /// build-time preference on random objects, hence so does dominance.
    #[test]
    fn compiled_preference_compare_agrees(
        pref in preference_strategy(),
        objects in objects_strategy(10),
    ) {
        let compiled = CompiledPreference::compile(&pref);
        prop_assert_eq!(compiled.arity(), pref.arity());
        prop_assert_eq!(compiled.total_pairs(), pref.total_pairs());
        for a in &objects {
            for b in &objects {
                prop_assert_eq!(compiled.compare(a, b), pref.compare(a, b));
                prop_assert_eq!(compiled.dominates(a, b), pref.dominates(a, b));
            }
        }
    }

    /// Kernel equivalence: the closure rows with their transpose (what the
    /// frontier index reads), the pairwise compiled form and the uncompiled
    /// preference return the same verdict — and the flipped one with the
    /// sides swapped — on every row layout (one-word dense, two-word dense,
    /// sparse), with object values inside and outside the relations'
    /// universes.
    #[test]
    fn transposed_rows_agree_with_both_pairwise_forms(
        relations in proptest::collection::vec(layout_relation_strategy(), ATTRS),
        objects in proptest::collection::vec(
            proptest::collection::vec(kernel_value_strategy(), ATTRS), 2..10),
    ) {
        let pref = Preference::from_relations(relations);
        let compiled = pref.compile();
        let objects: Vec<Object> = objects
            .into_iter()
            .enumerate()
            .map(|(i, vals)| Object::new(
                ObjectId::from(i),
                vals.into_iter().map(ValueId::new).collect(),
            ))
            .collect();
        for a in &objects {
            for b in &objects {
                let verdict = verdict_from_rows(&compiled, a, b);
                prop_assert_eq!(verdict, compiled.compare(a, b), "{} vs {}", a, b);
                prop_assert_eq!(verdict, pref.compare(a, b), "{} vs {}", a, b);
                prop_assert_eq!(verdict_from_rows(&compiled, b, a), verdict.flip());
            }
        }
        // Values no layout ever mentions: two different ones are
        // incomparable, the same one on both sides is skipped as equal —
        // whatever the other attributes say.
        let base = objects[0].values();
        let with_first = |id: u64, first: u32| {
            let mut values = base.to_vec();
            values[0] = ValueId::new(first);
            Object::new(ObjectId::new(id), values)
        };
        let (x, y, x_twin) = (
            with_first(100, UNMENTIONED[0]),
            with_first(101, UNMENTIONED[1]),
            with_first(102, UNMENTIONED[0]),
        );
        prop_assert_eq!(verdict_from_rows(&compiled, &x, &y), Dominance::Incomparable);
        prop_assert_eq!(verdict_from_rows(&compiled, &x, &x_twin), Dominance::Identical);
        for other in &objects {
            let inside = verdict_from_rows(&compiled, other, &x);
            prop_assert_eq!(inside, pref.compare(other, &x));
            prop_assert_eq!(verdict_from_rows(&compiled, &x, other), inside.flip());
        }
    }

    /// Common preference relations: Preference::common_of is contained in
    /// every member preference on every attribute (Def. 4.1).
    #[test]
    fn common_preference_is_shared_by_all(prefs in proptest::collection::vec(preference_strategy(), 1..5)) {
        let common = Preference::common_of(prefs.iter());
        for attr in 0..common.arity() {
            let attr = AttrId::from(attr);
            for (x, y) in common.relation(attr).pairs() {
                for pref in &prefs {
                    prop_assert!(pref.prefers(attr, x, y));
                }
            }
            prop_assert!(common.relation(attr).validate().is_ok());
        }
    }

    /// History compaction never evicts an object that a full-history
    /// replay would place in any observed user's frontier (the ISSUE
    /// invariant), collapses only value-duplicates beyond that, and keeps
    /// both live frontiers and late-registration backfill exactly equal to
    /// the full stream for every observed preference.
    #[test]
    fn compaction_never_evicts_observed_frontier_objects(
        prefs in proptest::collection::vec(preference_strategy(), 1..4),
        objects in objects_strategy(40),
    ) {
        let mut monitor =
            Monitor::new(&prefs, Lifetime::History(HistoryMode::Compact { cap: None }), None);
        for object in objects.clone() {
            monitor.process(object);
        }
        monitor.compact_history_now();
        let retained = monitor.retained_history_ids();
        prop_assert_eq!(
            retained.len() as u64 + monitor.history_evicted(),
            objects.len() as u64
        );
        for (user, pref) in prefs.iter().enumerate() {
            let mut full = naive_pareto_frontier(pref, &objects);
            full.sort_unstable();
            for id in &full {
                prop_assert!(
                    retained.binary_search(id).is_ok(),
                    "compaction evicted frontier object {} of user {}", id, user
                );
            }
            // Live frontiers are independent of history retention.
            prop_assert_eq!(monitor.frontier(UserId::from(user)), full);
        }
        // Backfill with every observed preference replays to the exact
        // full-stream frontier from the compacted history alone.
        for pref in prefs.clone() {
            let added = monitor.add_user(pref.clone());
            let mut full = naive_pareto_frontier(&pref, &objects);
            full.sort_unstable();
            prop_assert_eq!(monitor.frontier(added), full);
        }
    }

    /// Interleaved ingest / add_user / update_user churn on a compacting
    /// history, with sweeps forced after every segment: as long as churn
    /// preferences stay inside the observed universe (they are drawn from
    /// the initial pool), every backfill and every live frontier equals
    /// the full-history replay.
    #[test]
    fn compacted_churn_backfill_stays_exact_for_seen_preferences(
        initial in proptest::collection::vec(preference_strategy(), 1..4),
        segments in proptest::collection::vec(
            (objects_strategy(10), 0u8..255, 0u8..2), 1..5),
    ) {
        let mut monitor =
            Monitor::new(&initial, Lifetime::History(HistoryMode::Compact { cap: None }), None);
        let mut prefs = initial.clone();
        let mut history: Vec<Object> = Vec::new();
        let mut next_obj = 0u64;
        for (objects, pick, op) in segments {
            for object in objects {
                let object = Object::new(ObjectId::new(next_obj), object.values().to_vec());
                next_obj += 1;
                monitor.process(object.clone());
                history.push(object);
            }
            monitor.compact_history_now();
            let pool_pref = initial[(pick as usize) % initial.len()].clone();
            let changed = if op == 0 {
                prefs.push(pool_pref.clone());
                monitor.add_user(pool_pref)
            } else {
                let user = UserId::from((pick as usize) % prefs.len());
                prefs[user.index()] = pool_pref.clone();
                monitor.update_user(user, pool_pref);
                user
            };
            let mut full = naive_pareto_frontier(&prefs[changed.index()], &history);
            full.sort_unstable();
            prop_assert_eq!(
                monitor.frontier(changed), full,
                "backfill of user {} diverged from full history", changed
            );
            // The invariant holds for every live user after every sweep.
            let retained = monitor.retained_history_ids();
            for (user, pref) in prefs.iter().enumerate() {
                for id in naive_pareto_frontier(pref, &history) {
                    prop_assert!(
                        retained.binary_search(&id).is_ok(),
                        "sweep evicted frontier object {} of user {}", id, user
                    );
                }
            }
        }
    }

    /// After a random insert/remove/update sequence, under every exact
    /// measure, the incrementally maintained clustering still partitions
    /// the users, holds no empty cluster, and every cluster's common
    /// relation equals the intersection of its members' relations — in
    /// particular, an in-place UPDATE (stay-put re-AND-fold or local repair
    /// + re-insertion) preserves all three invariants.
    #[test]
    fn clustering_churn_keeps_common_relations_exact(
        initial in proptest::collection::vec(preference_strategy(), 0..5),
        ops in proptest::collection::vec((0u8..3, preference_strategy(), 0u8..255), 1..20),
        branch in 0usize..3,
        measure in 0..ExactMeasure::ALL.len(),
    ) {
        let branch_cut = [0.0, 0.3, 100.0][branch];
        let measure = ExactMeasure::ALL[measure];
        let mut clustering = Clustering::new(&initial, measure, branch_cut);
        let mut live: Vec<(UserId, Preference)> = initial
            .iter()
            .enumerate()
            .map(|(i, p)| (UserId::from(i), p.clone()))
            .collect();
        let mut next_id = initial.len() as u32;
        for (op, pref, pick) in ops {
            if op == 0 || live.is_empty() {
                let user = UserId::new(next_id);
                next_id += 1;
                clustering.insert_user(user, &pref);
                live.push((user, pref));
            } else if op == 2 {
                // In-place preference update of a random live user.
                let idx = (pick as usize) % live.len();
                let user = live[idx].0;
                clustering.update_user(user, &pref);
                live[idx].1 = pref;
            } else {
                let idx = (pick as usize) % live.len();
                let (user, _) = live.swap_remove(idx);
                clustering.remove_user(user);
            }
            prop_assert_eq!(clustering.num_users(), live.len());
            let mut seen = std::collections::HashSet::new();
            for k in 0..clustering.num_clusters() {
                let members = clustering.members(k).to_vec();
                prop_assert!(!members.is_empty(), "cluster {} is empty", k);
                for &m in &members {
                    prop_assert!(seen.insert(m), "user {} in two clusters", m);
                }
                assert_common_is_intersection(
                    "clustering churn",
                    &clustering.common_preference(k),
                    &members,
                    |m| clustering.preference_of(m).expect("member stored").clone(),
                );
            }
            prop_assert_eq!(seen.len(), live.len());
        }
    }

    /// Interleaved ingest / add_user / update_user / remove_user on a
    /// FilterThenVerify monitor with a maintained clustering keeps every
    /// per-user frontier exactly equal to a fresh baseline over the same
    /// history (Lemma 4.6 under churn), and keeps the cluster invariants of
    /// the ISSUE: no empty cluster, common relation = intersection of
    /// members'.
    #[test]
    fn ftv_dynamic_membership_stays_exact(
        initial in proptest::collection::vec(preference_strategy(), 1..4),
        segments in proptest::collection::vec(
            (objects_strategy(8), preference_strategy(), 0u8..255, 0u8..4), 1..5),
        branch in 0usize..3,
    ) {
        let branch_cut = [0.0, 0.4, 100.0][branch];
        let clustering = Clustering::new(&initial, ExactMeasure::Jaccard, branch_cut);
        let mut ftv = Monitor::new(&initial, Lifetime::UNLIMITED, Some(Filter::maintained(clustering)));
        let mut prefs = initial;
        let mut history: Vec<Object> = Vec::new();
        let mut next_obj = 0u64;
        for (objects, new_pref, pick, op) in segments {
            for object in objects {
                let object = Object::new(ObjectId::new(next_obj), object.values().to_vec());
                next_obj += 1;
                ftv.process(object.clone());
                history.push(object);
            }
            if op == 2 {
                // In-place preference update of a random existing user: no
                // id changes, exactness must survive the cluster diff.
                let idx = (pick as usize) % prefs.len();
                ftv.update_user(UserId::from(idx), new_pref.clone());
                prefs[idx] = new_pref;
            } else {
                let added = ftv.add_user(new_pref.clone());
                prop_assert_eq!(added.index(), prefs.len());
                prefs.push(new_pref);
            }
            if op == 1 && prefs.len() > 1 {
                let idx = (pick as usize) % prefs.len();
                ftv.remove_user(UserId::from(idx));
                prefs.swap_remove(idx);
            }
            // Exactness: frontiers equal a fresh baseline replay.
            let mut baseline = Monitor::new(&prefs, Lifetime::UNLIMITED, None);
            for object in &history {
                baseline.process(object.clone());
            }
            for user in 0..prefs.len() {
                prop_assert_eq!(
                    ftv.frontier(UserId::from(user)),
                    baseline.frontier(UserId::from(user)),
                    "user {} after churn", user
                );
            }
            // Cluster invariants.
            let mut seen = std::collections::HashSet::new();
            for k in 0..ftv.num_clusters() {
                let members = ftv.cluster_members(k).to_vec();
                prop_assert!(!members.is_empty(), "cluster {} is empty", k);
                for &m in &members {
                    prop_assert!(seen.insert(m), "user {} in two clusters", m);
                }
                assert_common_is_intersection(
                    "ftv churn",
                    ftv.virtual_preference(k),
                    &members,
                    |m| ftv.preference(m).clone(),
                );
            }
            prop_assert_eq!(seen.len(), prefs.len());
        }
    }

    /// The lock-free log-bucket histogram honours its documented contract
    /// against an exact sorted reference, through record, snapshot *and*
    /// merge: counts and sums are exact, and every reported quantile is an
    /// upper bound on the true order statistic within the documented ≤2%
    /// relative error (1/64 bucket width; values below 64 are exact).
    #[test]
    fn log_histogram_quantiles_stay_within_relative_error_bound(
        // Right-shifting by a random amount spreads values across the whole
        // magnitude range instead of clustering near u64::MAX.
        left in proptest::collection::vec(
            (0..=u64::MAX, 0..64u32).prop_map(|(v, s)| v >> s), 1..200),
        right in proptest::collection::vec(
            (0..=u64::MAX, 0..64u32).prop_map(|(v, s)| v >> s), 0..200),
    ) {
        let (a, b) = (LogHistogram::new(), LogHistogram::new());
        for &v in &left {
            a.record(v);
        }
        for &v in &right {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());

        let mut exact: Vec<u64> = left.iter().chain(&right).copied().collect();
        exact.sort_unstable();
        prop_assert_eq!(merged.count(), exact.len() as u64);
        let true_sum = exact.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
        prop_assert_eq!(merged.sum(), true_sum);

        for q in [0.0f64, 0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0] {
            // Same rank rule the histogram documents: the ceil(q*n)-th
            // smallest observation, clamped into 1..=n.
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let reported = merged.quantile(q);
            prop_assert!(
                reported >= truth,
                "q={q}: reported {reported} below exact {truth}"
            );
            prop_assert!(
                (reported - truth) as f64 <= truth as f64 * 0.02 + 1.0,
                "q={q}: reported {reported} beyond 2% of exact {truth}"
            );
        }
    }
}
