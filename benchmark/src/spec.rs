//! The four workloads: server flags, traffic shape, sizes and the pinned
//! input digests. Names are fixed; a later change resizes a workload here
//! and re-pins it, it never renames one.

use pm_datagen::{Dataset, DatasetProfile};
use pm_model::{Object, ObjectId};
use pm_porder::{HasseDiagram, Preference};

/// The default `--seed`; the digests in [`Spec::pin`] are taken at it.
pub const DEFAULT_SEED: u64 = 42;

/// The `pm-datagen` seed of every population and base-object set. It is
/// fixed: two `pm-datagen` seeds give populations whose cost per object
/// differs by 15-35 % (archetypes, cluster shapes and frontier densities
/// are all redrawn), which would drown any regression bound. `--seed`
/// instead draws the arrival order of the stream and the oracle's sample
/// users, so every seed runs the same population on the same objects.
pub const DATASET_SEED: u64 = 42;

/// Sample users the oracle recomputes naively (and connection B watches).
pub const SAMPLE_USERS: usize = 32;

/// Churn: a registered user is unregistered this many cycles later.
pub const CHURN_LAG: usize = 8;

/// REGISTER / UPDATE / UNREGISTER triples every workload appends after its
/// timed window, so `register_p50_ms` and `update_p50_ms` exist everywhere.
/// (`churn_wal` churns inside the window instead.)
pub const TAIL_CHURN: usize = 24;

/// Ids of users registered mid-run start here, clear of every base id.
pub const CHURN_ID_BASE: u32 = 1_000_000;

/// Index of the base preference the `cycle`-th mid-run registration copies.
/// Churn only ever reuses base preferences, so each has been observed
/// before and a compacted history stays exact for it.
pub fn register_choice(cycle: usize, users: usize) -> usize {
    (cycle * 7 + 3) % users
}

/// The `cycle`-th in-place update: `(base user, index of the base
/// preference it changes to)`.
pub fn update_choice(cycle: usize, users: usize) -> (usize, usize) {
    ((cycle * 13 + 1) % users, (cycle * 13 + 6) % users)
}

/// The open-loop segment of a workload.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Offered rate in objects per second (fixed, independent of replies).
    pub rate_obj_per_s: f64,
    /// Objects sent on the schedule.
    pub objects: usize,
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Fixed name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// `--backend`.
    pub backend: &'static str,
    /// `--shards`.
    pub shards: usize,
    /// Base population: preloaded by the server from the dataset flags, or
    /// (`node`) registered over the wire.
    pub users: usize,
    /// `--objects`: base objects the preferences are derived from; the
    /// stream replays them in order.
    pub base_objects: usize,
    /// `--interactions`.
    pub interactions: usize,
    /// `--node`: empty genesis, the population arrives via `REGISTER` from
    /// a shared-preference pool of `(prototypes, zipf skew)`.
    pub node: Option<(usize, f64)>,
    /// Run with `--wal-dir <tmp> --wal-sync batch`, then `kill -9` and
    /// recover.
    pub wal: bool,
    /// Objects per `INGEST`.
    pub batch: usize,
    /// Objects ingested before any clock starts (fills a sliding window).
    pub fill: usize,
    /// Open-loop segment, timed from each request's due time.
    pub open_loop: Option<OpenLoop>,
    /// Objects of the closed-loop timed window.
    pub closed: usize,
    /// Churn verbs ride inside the closed-loop window, one cycle per batch.
    pub churn: bool,
    /// Connection B subscribes to every n-th base user (0: the sample
    /// users only).
    pub subscribe_every: usize,
    /// Objects the traced ladder replays (a prefix of the same stream).
    pub trace_prefix: usize,
    /// FNV-1a digest of preferences + stream rows at [`DEFAULT_SEED`].
    pub pin: u64,
}

/// The workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "movie_append",
            backend: "ftv:0.4",
            shards: 2,
            users: 1000,
            base_objects: 7000,
            interactions: 150,
            node: None,
            wal: false,
            batch: 8,
            fill: 0,
            open_loop: None,
            closed: 1280,
            churn: false,
            subscribe_every: 0,
            trace_prefix: 512,
            pin: 0x0e92_194d_cc6a_9bfa,
        },
        Spec {
            name: "window_open",
            backend: "ftv-sw:0.4:400",
            shards: 1,
            users: 400,
            base_objects: 12000,
            interactions: 150,
            node: None,
            wal: false,
            batch: 8,
            fill: 600,
            open_loop: Some(OpenLoop {
                rate_obj_per_s: 350.0,
                objects: 800,
            }),
            closed: 800,
            churn: false,
            subscribe_every: 0,
            trace_prefix: 480,
            pin: 0xcd96_4ba3_59c2_02ce,
        },
        Spec {
            name: "churn_wal",
            backend: "ftv:0.4:compact",
            shards: 1,
            users: 200,
            base_objects: 6000,
            interactions: 150,
            node: None,
            wal: true,
            batch: 10,
            fill: 0,
            open_loop: None,
            closed: 1500,
            churn: true,
            subscribe_every: 0,
            trace_prefix: 600,
            pin: 0x8228_f26c_83da_bfcb,
        },
        Spec {
            name: "shared_fanout",
            backend: "baseline",
            shards: 1,
            users: 5000,
            base_objects: 4000,
            interactions: 150,
            node: Some((64, 1.1)),
            wal: false,
            batch: 16,
            fill: 0,
            open_loop: None,
            closed: 4000,
            churn: false,
            subscribe_every: 4,
            trace_prefix: 480,
            pin: 0xd509_958d_8ad4_d490,
        },
    ]
}

impl Spec {
    /// Objects one round streams in total.
    pub fn stream_len(&self) -> usize {
        self.fill + self.open_loop.map_or(0, |o| o.objects) + self.closed
    }

    /// The dataset profile both sides generate from: the server from its
    /// flags, the harness for its oracle.
    pub fn profile(&self) -> DatasetProfile {
        let profile = DatasetProfile::movie()
            .with_users(self.users)
            .with_objects(self.base_objects)
            .with_interactions(self.interactions);
        match self.node {
            Some((prototypes, skew)) => profile.with_distinct_preferences(prototypes, skew),
            None => profile,
        }
    }

    /// `pm-server` flags, without `--addr` and `--wal-dir`.
    pub fn server_flags(&self) -> Vec<String> {
        let mut flags = vec![
            "--backend".to_owned(),
            self.backend.to_owned(),
            "--shards".to_owned(),
            self.shards.to_string(),
            "--profile".to_owned(),
            "movie".to_owned(),
            "--seed".to_owned(),
            DATASET_SEED.to_string(),
        ];
        if self.node.is_some() {
            flags.push("--node".to_owned());
        } else {
            for (flag, value) in [
                ("--users", self.users),
                ("--objects", self.base_objects),
                ("--interactions", self.interactions),
            ] {
                flags.push(flag.to_owned());
                flags.push(value.to_string());
            }
        }
        if self.wal {
            flags.extend(["--wal-sync".to_owned(), "batch".to_owned()]);
        }
        flags
    }
}

/// The generated inputs of one workload at one seed.
pub struct Inputs {
    /// One preference per base user, indexed by user id.
    pub prefs: Vec<Preference>,
    /// The same preferences as `REGISTER`/`UPDATE` rows.
    pub pref_rows: Vec<String>,
    /// The stream, ids = arrival order from 0 (what the server assigns).
    pub objects: Vec<Object>,
    /// The stream as `INGEST` rows (`v,v,v,v`).
    pub rows: Vec<String>,
    /// Attributes per object.
    pub arity: usize,
    /// FNV-1a digest over `pref_rows` then `rows`.
    pub digest: u64,
}

impl Inputs {
    /// Generates the inputs of `spec` with `pm-datagen`: the population
    /// and base objects at [`DATASET_SEED`], the stream as the first `len`
    /// base objects (cycled if need be) in an arrival order drawn from
    /// `seed`.
    pub fn generate(spec: &Spec, seed: u64, len: usize) -> Self {
        let dataset = Dataset::generate(&spec.profile(), DATASET_SEED);
        let arity = dataset.dimensions();
        let mut order: Vec<usize> = (0..len).map(|i| i % dataset.objects.len()).collect();
        let mut rng = SplitMix(seed ^ 0x004f_5244_4552);
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
        }
        let objects: Vec<Object> = order
            .iter()
            .enumerate()
            .map(|(i, &base)| {
                Object::new(ObjectId::from(i), dataset.objects[base].values().to_vec())
            })
            .collect();
        let rows: Vec<String> = objects.iter().map(object_row).collect();
        let pref_rows: Vec<String> = dataset.preferences.iter().map(preference_rows).collect();
        let mut digest = Fnv::default();
        for line in pref_rows.iter().chain(&rows) {
            digest.write(line.as_bytes());
            digest.write(b"\n");
        }
        Self {
            prefs: dataset.preferences,
            pref_rows,
            objects,
            rows,
            arity,
            digest: digest.finish(),
        }
    }
}

impl Inputs {
    /// `INGEST` of stream objects `first .. first + len`, newline included.
    pub fn ingest_line(&self, first: usize, len: usize) -> String {
        format!("INGEST {}\n", self.rows[first..first + len].join(";"))
    }
}

/// An object as an `INGEST` row.
fn object_row(object: &Object) -> String {
    let values: Vec<String> = object
        .values()
        .iter()
        .map(|v| v.raw().to_string())
        .collect();
    values.join(",")
}

/// A preference as `REGISTER` rows: one `;`-separated row per attribute,
/// each the sorted `x>y` cover edges of the relation (`-` when empty). The
/// server closes whatever generating set it receives, so the cover edges —
/// a fifth of the closure's tuples on the movie profile — register the
/// same preference, which the oracle confirms against the original.
pub fn preference_rows(preference: &Preference) -> String {
    let rows: Vec<String> = preference
        .relations()
        .map(|(_, relation)| {
            let mut pairs: Vec<(u32, u32)> = HasseDiagram::of(relation)
                .cover_edges()
                .map(|(x, y)| (x.raw(), y.raw()))
                .collect();
            if pairs.is_empty() {
                return "-".to_owned();
            }
            pairs.sort_unstable();
            let tuples: Vec<String> = pairs.iter().map(|(x, y)| format!("{x}>{y}")).collect();
            tuples.join(",")
        })
        .collect();
    rows.join(";")
}

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the harness's only random source (arrival order and
/// sample-user choice).
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// `count` distinct seeded picks from `candidates`, ascending.
pub fn sample(candidates: &[u32], count: usize, seed: u64) -> Vec<u32> {
    let mut pool = candidates.to_vec();
    let mut rng = SplitMix(seed ^ 0x5a4d_504c_4553);
    let take = count.min(pool.len());
    for i in 0..take {
        let j = i + (rng.next() % (pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool.sort_unstable();
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn samples_are_distinct_seeded_and_sorted() {
        let candidates: Vec<u32> = (0..100).map(|u| u * 10).collect();
        let a = sample(&candidates, 32, 42);
        assert_eq!(a.len(), 32);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|u| u % 10 == 0));
        assert_eq!(a, sample(&candidates, 32, 42));
        assert_ne!(a, sample(&candidates, 32, 43));
        assert_eq!(sample(&candidates[..5], 32, 1).len(), 5);
    }

    #[test]
    fn workload_names_are_the_fixed_four() {
        let names: Vec<&str> = all().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["movie_append", "window_open", "churn_wal", "shared_fanout"]
        );
    }
}
