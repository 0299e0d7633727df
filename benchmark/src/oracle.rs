//! The independent oracle: for the sample users, every `INGEST` reply's
//! target membership and every `FRONTIER` reply is recomputed naively from
//! the generated inputs with the uncompiled `Preference::dominates` — no
//! monitor, cluster, bitset kernel or engine code is on this path.

use pm_model::Object;
use pm_porder::{frontier::naive_pareto_frontier, Preference};

/// What the generator observed, in the order the server applied it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// One `INGEST` batch: stream objects `first .. first + targets.len()`
    /// and, per object, the sample users its reply named as targets.
    Ingest {
        /// Stream index (= server-assigned id) of the batch's first object.
        first: usize,
        /// Per object: the sample users in its target set, ascending.
        targets: Vec<Vec<u32>>,
    },
    /// `UPDATE <user>` to base preference number `pref` was acknowledged.
    Update {
        /// The updated sample user.
        user: u32,
        /// Index of the new preference in the generated preferences.
        pref: usize,
    },
    /// `FRONTIER <user>` answered `reply` at this point of the stream.
    Frontier {
        /// The queried sample user.
        user: u32,
        /// The reply's object ids, ascending.
        reply: Vec<u64>,
    },
}

/// The oracle's findings over one op log.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Verdict {
    /// Comparisons made (target memberships + frontiers).
    pub checks: u64,
    /// Comparisons that disagreed (exact backends only).
    pub mismatches: u64,
    /// (object, sample user) pairs both sides call a target.
    pub true_positives: u64,
    /// Pairs only the server calls a target.
    pub false_positives: u64,
    /// Pairs only the oracle calls a target.
    pub false_negatives: u64,
    /// The first disagreement, for the report.
    pub first_mismatch: Option<String>,
}

impl Verdict {
    /// Share of the oracle's targets the server reported (1 when none).
    pub fn recall(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_negatives,
        )
    }

    /// Share of the server's targets the oracle confirms (1 when none).
    pub fn precision(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }

    fn absorb(&mut self, other: Verdict) {
        self.checks += other.checks;
        self.mismatches += other.mismatches;
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
    }

    fn mismatch(&mut self, what: impl FnOnce() -> String) {
        self.mismatches += 1;
        if self.first_mismatch.is_none() {
            self.first_mismatch = Some(what());
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

/// The problem the oracle checks a log against.
pub struct Reference<'a> {
    /// The generated base preferences (user id = index).
    pub prefs: &'a [Preference],
    /// The generated stream (id = index).
    pub objects: &'a [Object],
    /// `Some(W)` for a sliding-window backend.
    pub window: Option<usize>,
    /// Whether the backend promises exact results: disagreements then count
    /// as mismatches. Otherwise target disagreements only feed recall and
    /// precision, and `FRONTIER` replies are not compared.
    pub exact: bool,
}

/// Replays `log` for each of `users` on up to `threads` threads.
pub fn check(reference: &Reference<'_>, users: &[u32], log: &[Op], threads: usize) -> Verdict {
    let chunk = users.len().div_ceil(threads.max(1)).max(1);
    let mut verdict = Verdict::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = users
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    let mut verdict = Verdict::default();
                    for &user in slice {
                        verdict.absorb(check_user(reference, user, log));
                    }
                    verdict
                })
            })
            .collect();
        for worker in workers {
            verdict.absorb(worker.join().expect("oracle thread panicked"));
        }
    });
    verdict
}

/// One user's naive state: the objects seen and, for an append-only
/// backend, the indices of its current frontier.
struct NaiveUser<'a> {
    reference: &'a Reference<'a>,
    pref: &'a Preference,
    seen: usize,
    frontier: Vec<usize>,
}

impl NaiveUser<'_> {
    /// Whether stream object `i`, arriving now, is Pareto-optimal; updates
    /// the frontier.
    fn arrive(&mut self, i: usize) -> bool {
        let objects = self.reference.objects;
        let candidate = &objects[i];
        self.seen = i + 1;
        match self.reference.window {
            // `candidate` pushes out object `i - W`; it is a target iff no
            // object still alive dominates it.
            Some(window) => !objects[(i + 1).saturating_sub(window)..i]
                .iter()
                .any(|alive| self.pref.dominates(alive, candidate)),
            // Dominance is transitive, so testing the frontier suffices.
            None => {
                if self
                    .frontier
                    .iter()
                    .any(|&f| self.pref.dominates(&objects[f], candidate))
                {
                    return false;
                }
                self.frontier
                    .retain(|&f| !self.pref.dominates(candidate, &objects[f]));
                self.frontier.push(i);
                true
            }
        }
    }

    /// The frontier over everything alive, ascending.
    fn current_frontier(&self) -> Vec<u64> {
        match self.reference.window {
            Some(window) => {
                let alive = &self.reference.objects[self.seen.saturating_sub(window)..self.seen];
                naive_pareto_frontier(self.pref, alive)
                    .iter()
                    .map(|id| id.raw())
                    .collect()
            }
            None => self.frontier.iter().map(|&f| f as u64).collect(),
        }
    }
}

fn check_user(reference: &Reference<'_>, user: u32, log: &[Op]) -> Verdict {
    let mut verdict = Verdict::default();
    let mut state = NaiveUser {
        reference,
        pref: &reference.prefs[user as usize],
        seen: 0,
        frontier: Vec::new(),
    };
    for op in log {
        match op {
            Op::Ingest { first, targets } => {
                for (offset, reported) in targets.iter().enumerate() {
                    let i = first + offset;
                    let expected = state.arrive(i);
                    let got = reported.binary_search(&user).is_ok();
                    verdict.checks += 1;
                    match (expected, got) {
                        (true, true) => verdict.true_positives += 1,
                        (false, true) => verdict.false_positives += 1,
                        (true, false) => verdict.false_negatives += 1,
                        (false, false) => {}
                    }
                    if reference.exact && expected != got {
                        verdict.mismatch(|| {
                            format!("object {i}: user {user} target={got}, oracle says {expected}")
                        });
                    }
                }
            }
            Op::Update {
                user: updated,
                pref,
            } if *updated == user => {
                state.pref = &reference.prefs[*pref];
                if reference.window.is_none() {
                    // Rebuild the frontier of everything seen so far.
                    let seen = std::mem::take(&mut state.seen);
                    state.frontier.clear();
                    for i in 0..seen {
                        state.arrive(i);
                    }
                }
            }
            Op::Frontier {
                user: queried,
                reply,
            } if *queried == user && reference.exact => {
                verdict.checks += 1;
                let expected = state.current_frontier();
                if *reply != expected {
                    verdict.mismatch(|| {
                        format!(
                            "FRONTIER {user} after {} objects: got {} ids, oracle has {}",
                            state.seen,
                            reply.len(),
                            expected.len()
                        )
                    });
                }
            }
            Op::Update { .. } | Op::Frontier { .. } => {}
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_model::{AttrId, ObjectId, ValueId};

    fn chain(arity: usize, order: &[u32]) -> Preference {
        let mut p = Preference::new(arity);
        for attr in 0..arity {
            for pair in order.windows(2) {
                p.prefer(
                    AttrId::from(attr),
                    ValueId::new(pair[0]),
                    ValueId::new(pair[1]),
                );
            }
        }
        p
    }

    fn objects(values: &[u32]) -> Vec<Object> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| Object::new(ObjectId::from(i), vec![ValueId::new(v)]))
            .collect()
    }

    #[test]
    fn append_only_targets_and_frontier() {
        // User 0 prefers 0 > 1 > 2; stream 2, 1, 1, 0, 2.
        let prefs = vec![chain(1, &[0, 1, 2])];
        let objects = objects(&[2, 1, 1, 0, 2]);
        let reference = Reference {
            prefs: &prefs,
            objects: &objects,
            window: None,
            exact: true,
        };
        let good = vec![
            Op::Ingest {
                first: 0,
                targets: vec![vec![0], vec![0], vec![0], vec![0], vec![]],
            },
            Op::Frontier {
                user: 0,
                reply: vec![3],
            },
        ];
        let verdict = check(&reference, &[0], &good, 2);
        assert_eq!(verdict.mismatches, 0, "{verdict:?}");
        assert_eq!(verdict.checks, 6);
        assert_eq!(verdict.recall(), 1.0);

        let mut bad = good.clone();
        bad[0] = Op::Ingest {
            first: 0,
            targets: vec![vec![0], vec![0], vec![], vec![0], vec![0]],
        };
        let verdict = check(&reference, &[0], &bad, 1);
        assert_eq!(verdict.mismatches, 2);
        assert_eq!(verdict.false_negatives, 1);
        assert_eq!(verdict.false_positives, 1);
        assert!(verdict.first_mismatch.unwrap().contains("object 2"));
    }

    #[test]
    fn window_restricts_dominators_and_feeds_recall() {
        // Window of 2: object 0 (value 0) has expired when object 2
        // (value 1) arrives, so only object 1 (value 2) is alive.
        let prefs = vec![chain(1, &[0, 1, 2])];
        let objects = objects(&[0, 2, 1, 1]);
        let reference = Reference {
            prefs: &prefs,
            objects: &objects,
            window: Some(2),
            exact: false,
        };
        let log = vec![Op::Ingest {
            first: 0,
            // The server misses object 2 and wrongly reports object 1.
            targets: vec![vec![0], vec![0], vec![], vec![0]],
        }];
        let verdict = check(&reference, &[0], &log, 1);
        assert_eq!(verdict.mismatches, 0, "approximate backends never mismatch");
        assert_eq!(
            (
                verdict.true_positives,
                verdict.false_positives,
                verdict.false_negatives
            ),
            (2, 1, 1)
        );
        assert!((verdict.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((verdict.precision() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn update_rebuilds_the_frontier_under_the_new_preference() {
        let prefs = vec![chain(1, &[0, 1, 2]), chain(1, &[2, 1, 0])];
        let objects = objects(&[0, 1, 2]);
        let reference = Reference {
            prefs: &prefs,
            objects: &objects,
            window: None,
            exact: true,
        };
        let log = vec![
            Op::Ingest {
                first: 0,
                targets: vec![vec![0], vec![]],
            },
            Op::Update { user: 0, pref: 1 },
            Op::Frontier {
                user: 0,
                reply: vec![1],
            },
            Op::Ingest {
                first: 2,
                targets: vec![vec![0]],
            },
            Op::Frontier {
                user: 0,
                reply: vec![2],
            },
        ];
        let verdict = check(&reference, &[0], &log, 1);
        assert_eq!(verdict.mismatches, 0, "{verdict:?}");
    }
}
