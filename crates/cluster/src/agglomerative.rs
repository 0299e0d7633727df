//! Hierarchical agglomerative clustering of users with a branch cut.
//!
//! The paper (Sec. 5 and 8.2) clusters users with the conventional
//! agglomerative algorithm: every user starts as a singleton cluster, the
//! two most similar clusters are merged repeatedly, and the dendrogram is
//! cut at branch cut `h` — i.e. merging stops once no pair of clusters has
//! similarity ≥ `h`.
//!
//! Two families of similarity are supported:
//!
//! * **Exact** ([`ExactMeasure`]) — cluster similarity is computed on the
//!   clusters' *common preference relations*; the merged cluster's common
//!   relation is the per-attribute intersection of its parents'. The loop
//!   runs entirely on bitset-compiled relations sharing one interned
//!   universe per attribute: similarities are AND + popcount over bit-rows
//!   and a merge narrows the keeper's common relation by a word-wise AND in
//!   place ([`pm_porder::CompiledRelation::intersect_assign`]). The Hasse
//!   value weights ([`pm_porder::CompiledRelation::value_weights`], the one
//!   Hasse reduction of `pm_porder`) are computed only under the two
//!   weighted measures, which alone read them.
//! * **Approximate** ([`ApproxMeasure`]) — cluster similarity is computed on
//!   per-cluster frequency vectors (Sec. 6.3); merging adds the vectors.
//!   The vectors are pair-sorted, so a run's merges and their similarities
//!   are the same on every run.
//!   The merged cluster's exact common relation is still materialised for
//!   the output, while the *approximate* common relation (Alg. 3) is built
//!   later by [`crate::approx::approx_common_preference`].

use std::collections::{BTreeSet, HashMap};

use pm_model::{AttrId, UserId, ValueId};
use pm_porder::{CompiledRelation, Fingerprint, Preference, Relation};

use crate::approx_similarity::{ApproxMeasure, FrequencyVectors};
use crate::similarity::ExactMeasure;

/// Configuration of the clustering pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusteringConfig {
    /// Cluster on exact common preference relations (Sec. 5).
    Exact {
        /// Which of the four exact similarity measures to use.
        measure: ExactMeasure,
        /// Branch cut `h`: minimum similarity required to merge.
        branch_cut: f64,
    },
    /// Cluster on frequency vectors (Sec. 6.3).
    Approx {
        /// Which approximate similarity measure to use.
        measure: ApproxMeasure,
        /// Branch cut `h`: minimum similarity required to merge.
        branch_cut: f64,
    },
}

impl ClusteringConfig {
    /// The branch cut `h` of this configuration.
    pub fn branch_cut(&self) -> f64 {
        match *self {
            ClusteringConfig::Exact { branch_cut, .. } => branch_cut,
            ClusteringConfig::Approx { branch_cut, .. } => branch_cut,
        }
    }
}

/// A cluster of users together with its virtual-user preference.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// The member users of the cluster.
    pub members: Vec<UserId>,
    /// The exact common preference relation of the members (Def. 4.1),
    /// i.e. the preferences of the virtual user `U`.
    pub common: Preference,
}

impl Cluster {
    /// Number of member users.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members (never produced by clustering).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// One merge performed by the agglomerative loop, for dendrogram inspection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeStep {
    /// Index (into the evolving cluster list) of the surviving cluster.
    pub kept: usize,
    /// Index of the cluster merged into `kept` and removed.
    pub absorbed: usize,
    /// The similarity at which the merge happened.
    pub similarity: f64,
}

/// The result of a clustering pass.
#[derive(Debug, Clone)]
pub struct ClusteringOutcome {
    /// The final clusters (dendrogram cut at `h`).
    pub clusters: Vec<Cluster>,
    /// The sequence of merges performed, in order.
    pub merges: Vec<MergeStep>,
}

impl ClusteringOutcome {
    /// Number of clusters produced (`k` in the paper's cost model).
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether no clusters were produced (only for empty input).
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The size of the largest cluster.
    pub fn largest_cluster(&self) -> usize {
        self.clusters.iter().map(Cluster::len).max().unwrap_or(0)
    }
}

/// The sorted value universe of every attribute across all users, so that
/// all clusters' compiled relations of one attribute share an index space.
pub(crate) fn attribute_universes(preferences: &[Preference], arity: usize) -> Vec<Vec<ValueId>> {
    let mut sets: Vec<BTreeSet<ValueId>> = vec![BTreeSet::new(); arity];
    for pref in preferences {
        for (attr, rel) in pref.relations() {
            sets[attr.index()].extend(rel.values());
        }
    }
    sets.into_iter()
        .map(|set| set.into_iter().collect())
        .collect()
}

/// One cluster's common preference relations as bit matrices (all clusters
/// share per-attribute universes) plus — only under a weighted measure
/// ([`ExactMeasure::is_weighted`]) — the Hasse value weights it reads,
/// aligned to the same dense indices.
///
/// Shared with [`crate::maintain::Clustering`], which keeps one such state
/// per distinct preference and per cluster to support incremental
/// membership changes.
#[derive(Debug, Clone)]
pub(crate) struct ExactState {
    relations: Vec<CompiledRelation>,
    /// Per-attribute Hasse value weights; `None` under the unweighted
    /// measures, which never read them.
    weights: Option<Vec<Vec<f64>>>,
}

impl ExactState {
    pub(crate) fn of_user(
        pref: &Preference,
        universes: &[Vec<ValueId>],
        measure: ExactMeasure,
    ) -> Self {
        let empty = Relation::new();
        let relations: Vec<CompiledRelation> = universes
            .iter()
            .enumerate()
            .map(|(idx, universe)| {
                let rel = if idx < pref.arity() {
                    pref.relation(AttrId::from(idx))
                } else {
                    &empty
                };
                CompiledRelation::compile_with_universe(rel, universe)
            })
            .collect();
        let mut state = Self {
            relations,
            weights: None,
        };
        state.weigh(measure);
        state
    }

    /// The AND-fold of `states` (Def. 4.1 / Theorem 4.2): one copy of the
    /// first state's relations narrowed in place by the others, with the
    /// weights `measure` needs computed once from the finished fold.
    ///
    /// # Panics
    /// Panics if `states` is empty.
    pub(crate) fn fold<'a>(
        mut states: impl Iterator<Item = &'a ExactState>,
        measure: ExactMeasure,
    ) -> ExactState {
        let first = states.next().expect("a fold has at least one state");
        let mut fold = ExactState {
            relations: first.relations.clone(),
            weights: None,
        };
        for state in states {
            fold.merge_assign(state);
        }
        fold.weigh(measure);
        fold
    }

    /// Merges `other` into this cluster's common relation (Def. 4.1): a
    /// word-wise AND per attribute, in place. No closure recomputation is
    /// needed (Theorem 4.2). Weights, when held, are recomputed.
    pub(crate) fn merge_assign(&mut self, other: &ExactState) {
        for (ours, theirs) in self.relations.iter_mut().zip(&other.relations) {
            ours.intersect_assign(theirs);
        }
        if self.weights.is_some() {
            self.weights = Some(self.value_weights());
        }
    }

    /// Computes the Hasse value weights if `measure` reads them, and drops
    /// them otherwise.
    fn weigh(&mut self, measure: ExactMeasure) {
        self.weights = measure.is_weighted().then(|| self.value_weights());
    }

    fn value_weights(&self) -> Vec<Vec<f64>> {
        self.relations
            .iter()
            .map(CompiledRelation::value_weights)
            .collect()
    }

    /// Whether this state holds Hasse value weights.
    #[cfg(test)]
    pub(crate) fn holds_weights(&self) -> bool {
        self.weights.is_some()
    }

    /// Attribute `idx`'s weights, empty when none are held.
    fn attr_weights(&self, idx: usize) -> &[f64] {
        self.weights.as_ref().map_or(&[], |weights| &weights[idx])
    }

    /// Cluster similarity: the measure summed over attributes (Eq. 1), each
    /// attribute an AND(+NOT) + popcount pass over the two bit matrices.
    pub(crate) fn similarity(&self, other: &ExactState, measure: ExactMeasure) -> f64 {
        debug_assert!(
            !measure.is_weighted() || (self.weights.is_some() && other.weights.is_some()),
            "a weighted measure needs states that hold weights"
        );
        self.relations
            .iter()
            .zip(&other.relations)
            .enumerate()
            .map(|(idx, (a, b))| {
                measure.compiled_attr_similarity(
                    a,
                    self.attr_weights(idx),
                    b,
                    other.attr_weights(idx),
                )
            })
            .sum()
    }

    /// Decompiles into the [`Preference`] of the cluster's virtual user.
    pub(crate) fn to_preference(&self) -> Preference {
        Preference::from_relations(
            self.relations
                .iter()
                .map(CompiledRelation::to_relation)
                .collect(),
        )
    }
}

/// Internal per-cluster state during the agglomerative loop.
enum State {
    Exact(ExactState),
    Approx(FrequencyVectors),
}

struct Working {
    members: Vec<UserId>,
    /// Member indices into the original preference slice.
    member_idx: Vec<usize>,
    state: State,
}

/// Clusters `preferences` (indexed by user id) under `config`.
///
/// The returned clusters partition the users; singleton clusters are kept
/// as-is. Users are first bucketed by preference [`Fingerprint`] (with a
/// full equality check on collision), so the agglomerative loop runs over
/// *distinct* preferences weighted by multiplicity — identical users are
/// free, and build cost scales with the distinct-preference count rather
/// than the population size (the paper's Sec. 4 shared-preference premise).
/// The loop itself is the textbook O(d³) agglomerative procedure in the
/// distinct count `d`.
pub fn cluster_users(preferences: &[Preference], config: ClusteringConfig) -> ClusteringOutcome {
    let arity = preferences.iter().map(Preference::arity).max().unwrap_or(0);
    let universes = match config {
        ClusteringConfig::Exact { .. } => attribute_universes(preferences, arity),
        ClusteringConfig::Approx { .. } => Vec::new(),
    };
    // Group user indices by distinct preference, first occurrence first.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_fp: HashMap<Fingerprint, Vec<usize>> = HashMap::new();
    for (idx, pref) in preferences.iter().enumerate() {
        let slot = by_fp.entry(pref.fingerprint()).or_default();
        match slot.iter().find(|&&g| &preferences[groups[g][0]] == pref) {
            Some(&g) => groups[g].push(idx),
            None => {
                slot.push(groups.len());
                groups.push(vec![idx]);
            }
        }
    }
    let mut working: Vec<Working> = groups
        .into_iter()
        .map(|member_idx| {
            let pref = &preferences[member_idx[0]];
            Working {
                members: member_idx.iter().map(|&i| UserId::from(i)).collect(),
                state: match config {
                    ClusteringConfig::Exact { measure, .. } => {
                        // The exact measures are multiplicity-invariant
                        // (intersection is idempotent): one state per
                        // distinct preference suffices.
                        State::Exact(ExactState::of_user(pref, &universes, measure))
                    }
                    ClusteringConfig::Approx { measure, .. } => {
                        // Frequency vectors are *not* multiplicity-invariant:
                        // weight the distinct preference by its member count.
                        State::Approx(FrequencyVectors::of_users(
                            std::iter::repeat(pref).take(member_idx.len()),
                            measure,
                        ))
                    }
                },
                member_idx,
            }
        })
        .collect();
    let mut merges = Vec::new();
    let h = config.branch_cut();

    // Pairwise similarity matrix, kept in sync with `working` so that each
    // merge only recomputes one row/column instead of the full matrix
    // (the textbook O(n²)-space agglomerative optimisation).
    let n = working.len();
    let mut sims: Vec<Vec<f64>> = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let s = pair_similarity(&working[i], &working[j], &config);
            sims[i][j] = s;
            sims[j][i] = s;
        }
    }

    while working.len() > 1 {
        // Find the most similar pair.
        let mut best: Option<(usize, usize, f64)> = None;
        #[allow(clippy::needless_range_loop)]
        for i in 0..working.len() {
            for j in (i + 1)..working.len() {
                let sim = sims[i][j];
                if best.map(|(_, _, b)| sim > b).unwrap_or(true) {
                    best = Some((i, j, sim));
                }
            }
        }
        let Some((i, j, sim)) = best else { break };
        if sim < h {
            break;
        }
        let absorbed = working.swap_remove(j);
        // Mirror the swap_remove in the similarity matrix.
        sims.swap_remove(j);
        for row in &mut sims {
            row.swap_remove(j);
        }
        let keeper = &mut working[i];
        keeper.members.extend(absorbed.members);
        keeper.member_idx.extend(absorbed.member_idx);
        match (&mut keeper.state, &absorbed.state) {
            (State::Exact(a), State::Exact(b)) => a.merge_assign(b),
            (State::Approx(a), State::Approx(b)) => *a = a.merge(b),
            _ => unreachable!("cluster states never mix within one run"),
        }
        // Refresh the merged cluster's similarities.
        for other in 0..working.len() {
            if other == i {
                continue;
            }
            let s = pair_similarity(&working[i], &working[other], &config);
            sims[i][other] = s;
            sims[other][i] = s;
        }
        merges.push(MergeStep {
            kept: i,
            absorbed: j,
            similarity: sim,
        });
    }

    let clusters = working
        .into_iter()
        .map(|w| {
            let common = match w.state {
                State::Exact(state) => state.to_preference(),
                // For the approximate path the exact common relation is still
                // the natural "virtual user" summary; the approximate relation
                // is derived separately with Alg. 3.
                State::Approx(_) => {
                    Preference::common_of(w.member_idx.iter().map(|&i| &preferences[i]))
                }
            };
            Cluster {
                members: w.members,
                common,
            }
        })
        .collect();
    ClusteringOutcome { clusters, merges }
}

fn pair_similarity(a: &Working, b: &Working, config: &ClusteringConfig) -> f64 {
    match (config, &a.state, &b.state) {
        (ClusteringConfig::Exact { measure, .. }, State::Exact(sa), State::Exact(sb)) => {
            sa.similarity(sb, *measure)
        }
        (ClusteringConfig::Approx { .. }, State::Approx(va), State::Approx(vb)) => {
            va.similarity(vb)
        }
        _ => unreachable!("cluster states never mix within one run"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_model::ValueId;
    use pm_porder::Relation;
    use std::collections::HashSet;

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    fn pref(pairs: &[(u32, u32)]) -> Preference {
        let rel = Relation::from_pairs(pairs.iter().map(|&(x, y)| (v(x), v(y)))).unwrap();
        Preference::from_relations(vec![rel])
    }

    /// The six users of Table 3 (brand attribute only).
    /// Apple=0, Lenovo=1, Samsung=2, Toshiba=3.
    fn table3_users() -> Vec<Preference> {
        vec![
            pref(&[(0, 1), (1, 2), (3, 1)]),         // c1
            pref(&[(0, 1), (1, 2), (3, 2)]),         // c2
            pref(&[(2, 1), (1, 0), (1, 3)]),         // c3: Samsung ≻ Lenovo ≻ {Apple, Toshiba}
            pref(&[(2, 1), (1, 0), (1, 3), (0, 3)]), // c4: like c3 plus Apple ≻ Toshiba
            pref(&[(1, 0), (1, 3), (0, 2), (3, 2)]), // c5
            pref(&[(1, 0), (0, 3), (0, 2)]),         // c6
        ]
    }

    #[test]
    fn high_branch_cut_keeps_singletons() {
        let users = table3_users();
        let out = cluster_users(
            &users,
            ClusteringConfig::Exact {
                measure: ExactMeasure::WeightedJaccard,
                branch_cut: 100.0,
            },
        );
        assert_eq!(out.len(), users.len());
        assert!(out.merges.is_empty());
        assert_eq!(out.largest_cluster(), 1);
    }

    #[test]
    fn zero_branch_cut_merges_everything() {
        let users = table3_users();
        let out = cluster_users(
            &users,
            ClusteringConfig::Exact {
                measure: ExactMeasure::IntersectionSize,
                branch_cut: 0.0,
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out.clusters[0].len(), 6);
        assert_eq!(out.merges.len(), 5);
    }

    #[test]
    fn clusters_partition_all_users() {
        let users = table3_users();
        for cfg in [
            ClusteringConfig::Exact {
                measure: ExactMeasure::Jaccard,
                branch_cut: 0.3,
            },
            ClusteringConfig::Approx {
                measure: ApproxMeasure::Jaccard,
                branch_cut: 0.3,
            },
        ] {
            let out = cluster_users(&users, cfg);
            let mut seen: Vec<u32> = out
                .clusters
                .iter()
                .flat_map(|c| c.members.iter().map(|u| u.raw()))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn example_5_5_weighted_jaccard_clusters() {
        // With weighted Jaccard and h ∈ (0, 3/11], the paper obtains
        // {{c1, c2, c5, c6}, {c3, c4}}.
        let users = table3_users();
        let out = cluster_users(
            &users,
            ClusteringConfig::Exact {
                measure: ExactMeasure::WeightedJaccard,
                branch_cut: 0.2,
            },
        );
        assert_eq!(
            out.len(),
            2,
            "expected two clusters, got {:?}",
            out.clusters
        );
        let mut sizes: Vec<usize> = out.clusters.iter().map(Cluster::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 4]);
        let big = out.clusters.iter().find(|c| c.len() == 4).unwrap();
        let mut members: Vec<u32> = big.members.iter().map(|u| u.raw()).collect();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 4, 5]);
    }

    #[test]
    fn common_preference_is_intersection_of_members() {
        let users = table3_users();
        let out = cluster_users(
            &users,
            ClusteringConfig::Exact {
                measure: ExactMeasure::IntersectionSize,
                branch_cut: 0.0,
            },
        );
        let all = &out.clusters[0];
        let expected = Preference::common_of(users.iter());
        let attr = pm_model::AttrId::new(0);
        let got: std::collections::HashSet<_> = all.common.relation(attr).pairs().collect();
        let want: std::collections::HashSet<_> = expected.relation(attr).pairs().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn approx_path_reports_exact_common_relation() {
        let users = table3_users();
        let out = cluster_users(
            &users,
            ClusteringConfig::Approx {
                measure: ApproxMeasure::WeightedJaccard,
                branch_cut: 0.0,
            },
        );
        assert_eq!(out.len(), 1);
        let attr = pm_model::AttrId::new(0);
        let expected = Preference::common_of(users.iter());
        assert_eq!(
            out.clusters[0].common.relation(attr).len(),
            expected.relation(attr).len()
        );
    }

    #[test]
    fn empty_input_yields_no_clusters() {
        let out = cluster_users(
            &[],
            ClusteringConfig::Exact {
                measure: ExactMeasure::Jaccard,
                branch_cut: 0.5,
            },
        );
        assert!(out.is_empty());
        assert_eq!(out.largest_cluster(), 0);
    }

    #[test]
    fn single_user_is_its_own_cluster() {
        let users = vec![pref(&[(0, 1)])];
        let out = cluster_users(
            &users,
            ClusteringConfig::Approx {
                measure: ApproxMeasure::Jaccard,
                branch_cut: 0.5,
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out.clusters[0].members, vec![UserId::new(0)]);
    }

    /// Many users sharing few distinct preferences must cluster exactly as
    /// the distinct set does — the dedup pass only changes the work done,
    /// never the outcome (Lemma 4.6: twins are maximally similar, so they
    /// always travel together).
    #[test]
    fn duplicated_population_clusters_like_its_distinct_preferences() {
        let distinct = table3_users();
        let copies = 5usize;
        // Interleave the copies so twins are not adjacent in user-id order.
        let users: Vec<Preference> = (0..distinct.len() * copies)
            .map(|i| distinct[i % distinct.len()].clone())
            .collect();
        let config = ClusteringConfig::Exact {
            measure: ExactMeasure::WeightedJaccard,
            branch_cut: 0.2,
        };
        let base = cluster_users(&distinct, config);
        let out = cluster_users(&users, config);
        assert_eq!(out.len(), base.len());
        // Pairwise merges happen between distinct groups only, so the merge
        // log is bounded by the distinct count, not the user count.
        assert!(
            out.merges.len() < distinct.len(),
            "{} merges for {} distinct preferences",
            out.merges.len(),
            distinct.len()
        );
        for cluster in &out.clusters {
            // Which distinct preference each member holds (user i % 6).
            let kinds: HashSet<usize> = cluster
                .members
                .iter()
                .map(|u| u.index() % distinct.len())
                .collect();
            // Every twin of those kinds is present …
            assert_eq!(cluster.members.len(), kinds.len() * copies);
            // … and the kinds form exactly one cluster of the distinct run.
            let twin = base
                .clusters
                .iter()
                .find(|c| c.members.iter().map(|u| u.index()).collect::<HashSet<_>>() == kinds)
                .unwrap_or_else(|| panic!("no base cluster with kinds {kinds:?}"));
            let want: HashSet<_> = twin.common.relation(AttrId::new(0)).pairs().collect();
            let got: HashSet<_> = cluster.common.relation(AttrId::new(0)).pairs().collect();
            assert_eq!(got, want);
        }
    }

    /// The approx path weights its frequency vectors by multiplicity: a
    /// duplicated population still partitions every user and reports the
    /// exact common relation per cluster.
    #[test]
    fn approx_path_weights_duplicates_by_multiplicity() {
        let distinct = table3_users();
        let users: Vec<Preference> = (0..distinct.len() * 4)
            .map(|i| distinct[i % distinct.len()].clone())
            .collect();
        let out = cluster_users(
            &users,
            ClusteringConfig::Approx {
                measure: ApproxMeasure::Jaccard,
                branch_cut: 0.3,
            },
        );
        let mut seen: Vec<UserId> = out
            .clusters
            .iter()
            .flat_map(|c| c.members.iter().copied())
            .collect();
        seen.sort();
        let expected: Vec<UserId> = (0..users.len()).map(UserId::from).collect();
        assert_eq!(seen, expected);
        for cluster in &out.clusters {
            let expected =
                Preference::common_of(cluster.members.iter().map(|&m| &users[m.index()]));
            let want: HashSet<_> = expected.relation(AttrId::new(0)).pairs().collect();
            let got: HashSet<_> = cluster.common.relation(AttrId::new(0)).pairs().collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn branch_cut_accessor_matches_config() {
        assert_eq!(
            ClusteringConfig::Exact {
                measure: ExactMeasure::Jaccard,
                branch_cut: 0.7
            }
            .branch_cut(),
            0.7
        );
        assert_eq!(
            ClusteringConfig::Approx {
                measure: ApproxMeasure::Jaccard,
                branch_cut: 0.4
            }
            .branch_cut(),
            0.4
        );
    }
}
