//! Golden transcript of the monitoring algorithms: one fixed-seed script of
//! ingest, REGISTER (a twin and a novel preference), UPDATE (stay / move /
//! singleton), UNREGISTER (with and without swap-renumbering) and window
//! expiry, driven through every backend string, with everything a client
//! can observe written to `tests/golden/monitor_transcript.txt` (a `.txt`,
//! not a `.golden`: the `*.golden` files there are metrics expositions,
//! and the benchmark harness parses every one of them as such).
//!
//! The oracle batteries pin the *exact* backends against the naive
//! frontier; this file additionally pins what no oracle can — the lossy
//! Alg. 5 mending of a non-singleton `ftv-sw` / `ftv-approx-sw` clustering
//! and the Alg. 3 approximation — so a rewrite of `pm-core` has to
//! reproduce them byte for byte. That includes the work counter: frontiers
//! are scanned in storage (= arrival) order, so `comparisons=` is a pure
//! function of the script.
//!
//! Regenerate with `UPDATE_GOLDEN=1 cargo test -p pm-integration-tests`
//! only on an intentional change of algorithm behaviour.

use std::fmt::Write as _;

use pm_cluster::{Clustering, ExactMeasure, Placement, Update};
use pm_datagen::{Dataset, DatasetProfile};
use pm_engine::BackendSpec;
use pm_model::{Object, ObjectId, UserId};
use pm_porder::Preference;

const WINDOW: usize = 24;
const BRANCH_CUT: f64 = 0.4;
const INITIAL_USERS: usize = 10;
/// Objects per ingest step.
const CHUNK: usize = 15;
/// Objects ingested before the first membership change: more than the 256
/// pushes between two sweeps of a compacting history, so every backfill of
/// the `compact` backends replays a history that has already evicted.
const WARMUP: usize = 260;

const BACKENDS: [&str; 9] = [
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

/// One step of the script, in monitor-local user ids.
enum Step {
    Ingest(Vec<Object>),
    Register(&'static str, Preference),
    Update(&'static str, UserId, Preference),
    Unregister(UserId),
}

/// What a mirrored [`Clustering`] says an update would do.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Outcome {
    Stay,
    Move,
    Singleton,
}

fn probe(clustering: &Clustering, user: UserId, preference: &Preference) -> Outcome {
    match clustering.clone().update_user(user, preference) {
        Update::Stayed { .. } => Outcome::Stay,
        Update::Moved {
            to: Placement::Joined { .. },
            ..
        } => Outcome::Move,
        Update::Moved {
            to: Placement::Singleton { .. },
            ..
        } => Outcome::Singleton,
    }
}

/// Builds the script. A [`Clustering`] with the backends' measure and
/// branch cut mirrors every membership change so the three UPDATE steps
/// are *chosen* to stay, move and spin off a singleton — the script fails
/// loudly if the fixed seed ever stops exercising one of them.
fn build_script() -> (Vec<Preference>, Vec<Step>) {
    let profile = DatasetProfile::movie()
        .with_users(18)
        .with_objects(60)
        .with_interactions(45);
    let dataset = Dataset::generate(&profile, 12);
    let pool = &dataset.preferences;
    // Users 0 and 1 start as twins.
    let mut users: Vec<Preference> = pool[..INITIAL_USERS].to_vec();
    users[1] = users[0].clone();
    let initial = users.clone();
    let mut mirror = Clustering::new(&users, ExactMeasure::Jaccard, BRANCH_CUT);
    assert!(
        mirror.num_clusters() < users.len(),
        "the seed must produce at least one non-singleton cluster"
    );

    // The base objects cycled, except that every fifth arrival repeats the
    // value vector seen two arrivals earlier: identical objects are alive
    // together even inside the window (Alg. 1's `Identical` branch).
    let mut objects: Vec<Object> = Vec::new();
    for i in 0..WARMUP + 9 * CHUNK {
        let source = match i % 5 {
            4 => objects[i - 2].clone(),
            _ => dataset.objects[(i - i / 5) % dataset.objects.len()].clone(),
        };
        objects.push(source.with_id(ObjectId::from(i)));
    }
    let mut steps = vec![Step::Ingest(objects[..WARMUP].to_vec())];
    let mut chunks = objects[WARMUP..].chunks(CHUNK).map(<[Object]>::to_vec);
    let mut ingest = |steps: &mut Vec<Step>| steps.push(Step::Ingest(chunks.next().unwrap()));

    let twin = users[3].clone();
    mirror.insert_user(UserId::from(users.len()), &twin);
    users.push(twin.clone());
    steps.push(Step::Register("twin", twin));
    ingest(&mut steps);

    let novel = pool[INITIAL_USERS].clone();
    assert!(!users.contains(&novel), "the novel preference must be new");
    mirror.insert_user(UserId::from(users.len()), &novel);
    users.push(novel.clone());
    steps.push(Step::Register("novel", novel));
    ingest(&mut steps);

    for (label, wanted) in [
        ("stay", Outcome::Stay),
        ("move", Outcome::Move),
        ("singleton", Outcome::Singleton),
    ] {
        // Only users of non-singleton clusters: a user alone in its
        // cluster stays put by rule, which would make "stay" vacuous.
        let (user, preference) = (0..users.len())
            .map(UserId::from)
            .filter(|&u| mirror.members(mirror.cluster_of(u).unwrap()).len() > 1)
            .flat_map(|u| pool.iter().map(move |p| (u, p)))
            .find(|&(u, p)| *p != users[u.index()] && probe(&mirror, u, p) == wanted)
            .unwrap_or_else(|| panic!("no UPDATE in the pool makes a user {label}"));
        mirror.update_user(user, preference);
        users[user.index()] = preference.clone();
        steps.push(Step::Update(label, user, preference.clone()));
        ingest(&mut steps);
    }

    // Swap-renumber: the last user takes over slot 0 …
    let last = UserId::from(users.len() - 1);
    mirror.remove_user(UserId::new(0));
    mirror.rename_user(last, UserId::new(0));
    users.swap_remove(0);
    steps.push(Step::Unregister(UserId::new(0)));
    ingest(&mut steps);
    // … and removing the highest id renumbers nobody.
    steps.push(Step::Unregister(UserId::from(users.len() - 1)));
    users.pop();
    ingest(&mut steps);
    ingest(&mut steps);
    ingest(&mut steps);
    assert!(chunks.next().is_none(), "the script uses the whole stream");
    (initial, steps)
}

fn ids<T: Copy + Into<u64>>(items: impl IntoIterator<Item = T>) -> String {
    let rendered: Vec<String> = items.into_iter().map(|i| i.into().to_string()).collect();
    rendered.join(",")
}

fn object_ids(objects: &[Object]) -> String {
    ids(objects.iter().map(|o| o.id().raw()))
}

fn transcript(backend: &str, initial: &[Preference], steps: &[Step]) -> String {
    let mut monitor = BackendSpec::parse(backend).unwrap().build(initial);
    let mut out = String::new();
    writeln!(out, "== {backend}").unwrap();
    for step in steps {
        match step {
            Step::Ingest(objects) => {
                for object in objects {
                    let arrival = monitor.process(object.clone());
                    let deltas: Vec<String> = arrival
                        .deltas
                        .iter()
                        .map(|d| {
                            let sign = if d.entered { '+' } else { '-' };
                            format!("{sign}{}:{}", d.user.raw(), d.object.raw())
                        })
                        .collect();
                    writeln!(
                        out,
                        "object {}: targets={} deltas={}",
                        arrival.object.raw(),
                        ids(arrival.target_users.iter().map(|u| u.raw())),
                        deltas.join(",")
                    )
                    .unwrap();
                }
            }
            Step::Register(label, preference) => {
                let user = monitor.add_user(preference.clone());
                writeln!(out, "register {label}: user={}", user.raw()).unwrap();
            }
            Step::Update(label, user, preference) => {
                monitor.update_user(*user, preference.clone());
                writeln!(out, "update {label}: user={}", user.raw()).unwrap();
            }
            Step::Unregister(user) => {
                let moved = monitor.remove_user(*user);
                let moved = moved.map_or("-".to_owned(), |m| m.raw().to_string());
                writeln!(out, "unregister: user={} moved={moved}", user.raw()).unwrap();
            }
        }
        // Intermediate frontiers as size + FNV-1a digest (they run to
        // hundreds of ids each); the final ones are spelled out below.
        for user in 0..monitor.num_users() {
            let frontier = monitor.frontier(UserId::from(user));
            let digest = frontier.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, id| {
                (h ^ id.raw()).wrapping_mul(0x0100_0000_01b3)
            });
            writeln!(
                out,
                "  frontier {user}: n={} fnv={digest:016x}",
                frontier.len()
            )
            .unwrap();
        }
    }
    for user in 0..monitor.num_users() {
        let frontier = monitor.frontier(UserId::from(user));
        writeln!(
            out,
            "final frontier {user}: {}",
            ids(frontier.iter().map(|o| o.raw()))
        )
        .unwrap();
    }
    let state = monitor.export_state();
    let stats = monitor.stats();
    if let Some(history) = &state.history {
        writeln!(
            out,
            "state history={} observed={} evicted={}",
            object_ids(&history.objects),
            history.observed.len(),
            history.evicted
        )
        .unwrap();
    }
    if let Some(window) = &state.window {
        writeln!(out, "state window={}", object_ids(window)).unwrap();
    }
    writeln!(
        out,
        "stats arrivals={} expirations={} notifications={} users={}",
        stats.arrivals,
        stats.expirations,
        stats.notifications,
        monitor.num_users()
    )
    .unwrap();
    writeln!(out, "comparisons={}", stats.comparisons).unwrap();
    out
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/monitor_transcript.txt"
);

#[test]
fn monitor_transcript_matches_golden_file() {
    let (initial, steps) = build_script();
    let mut rendered = String::new();
    for backend in BACKENDS {
        rendered.push_str(&transcript(backend, &initial, &steps));
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file (regenerate with UPDATE_GOLDEN=1)");
    // Compare line by line first so a divergence names its first line.
    for (line, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "transcript diverges at line {}", line + 1);
    }
    assert_eq!(
        rendered, golden,
        "transcript length differs from the golden file"
    );
}

/// Two monitors driven by the same script do the same work: every scan
/// order is a function of frontier contents, none of hash-map iteration.
#[test]
fn comparisons_are_deterministic_on_every_backend() {
    let (initial, steps) = build_script();
    for backend in BACKENDS {
        let comparisons = |transcript: String| {
            let line = transcript.lines().last().unwrap().to_owned();
            assert!(line.starts_with("comparisons="), "{backend}: {line}");
            line
        };
        assert_eq!(
            comparisons(transcript(backend, &initial, &steps)),
            comparisons(transcript(backend, &initial, &steps)),
            "{backend}"
        );
    }
}

/// The window backends expire and Alg. 1 meets identical objects: the
/// script must slide past `W` and keep value-twins alive together.
#[test]
fn script_exercises_expiry_and_identical_objects() {
    let (_, steps) = build_script();
    let objects: Vec<&Object> = steps
        .iter()
        .filter_map(|s| match s {
            Step::Ingest(objects) => Some(objects.iter()),
            _ => None,
        })
        .flatten()
        .collect();
    assert!(objects.len() > 4 * WINDOW);
    assert!(
        objects
            .windows(3)
            .any(|w| w[0].values() == w[2].values() && w[0].id() != w[2].id()),
        "the stream keeps identical value vectors alive together"
    );
}
