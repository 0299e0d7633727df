//! Incrementally maintained clustering for dynamic user populations.
//!
//! The agglomerative pass of [`crate::cluster_users`] is a build-time
//! operation: it assumes the whole population is known before the stream
//! starts. Online REGISTER/UNREGISTER traffic instead needs
//! *dendrogram-local repair*:
//!
//! * [`Clustering::insert_user`] either joins the most similar existing
//!   cluster — when that similarity clears the branch cut `h`, exactly the
//!   agglomerative merge criterion — or spins up a new singleton cluster.
//!   Joining narrows the cluster's common preference relation in place by a
//!   word-wise AND ([`pm_porder::CompiledRelation::intersect_assign`]) with
//!   the new member's relations.
//! * [`Clustering::remove_user`] shrinks the user's cluster, recomputing
//!   its common relation as the AND-fold of the remaining members'
//!   compiled relations, or dissolves the cluster entirely when the last
//!   member leaves.
//! * [`Clustering::update_user`] changes a user's preference *in place* by
//!   diffing the old and new compiled relations against the user's current
//!   cluster: when the new relations still clear the branch cut against the
//!   remaining members' common relation the user stays put and only that
//!   cluster's common relation is re-AND-folded; otherwise the cluster is
//!   locally repaired and the user re-inserted as if newly registered.
//!
//! State is keyed by **distinct preference**, not by user: users are
//! bucketed by preference [`Fingerprint`] (full equality check on
//! collision) into slab entries, each holding one compiled `ExactState`
//! and a member list. A user whose preference already exists joins its
//! twin's entry — and therefore its twin's cluster — in O(1), with no
//! similarity scan and no state change (intersection is idempotent);
//! AND-folds and universe recompiles run over distinct entries only. Churn
//! and memory thus scale with the distinct-preference count, cashing in the
//! paper's Sec. 4 premise that real users share preferences. The one
//! deliberate exception: a user alone in its cluster never moves on update
//! (callers rely on updates never dissolving a cluster), so two entries
//! with the same fingerprint may coexist in different clusters.
//!
//! All states live on shared per-attribute value universes; a registered
//! user mentioning a never-seen value triggers the one slow path: the
//! universes grow and every stored entry is recompiled. States hold Hasse
//! value weights only under a weighted measure, and a fold computes them
//! once from its result, so under `Jaccard` and `IntersectionSize` no
//! maintenance step computes them at all.

use std::collections::HashMap;

use pm_model::{UserId, ValueId};
use pm_porder::{Fingerprint, Preference};

use crate::agglomerative::{attribute_universes, cluster_users, Cluster, ExactState};
use crate::{ClusteringConfig, ExactMeasure};

/// Where [`Clustering::insert_user`] placed a user.
#[derive(Debug, Clone)]
pub enum Placement {
    /// The user joined existing cluster `cluster`, whose common preference
    /// relation shrank to `common` (the old common relation intersected
    /// with the user's relations — unchanged when the user joined an
    /// identical-preference twin).
    Joined {
        /// Index of the joined cluster.
        cluster: usize,
        /// The cluster's recomputed common preference relation.
        common: Preference,
    },
    /// No cluster was similar enough (or none existed): the user became a
    /// new singleton cluster, appended at index `cluster`.
    Singleton {
        /// Index of the new singleton cluster (`num_clusters() - 1`).
        cluster: usize,
    },
}

impl Placement {
    /// The index of the cluster the user ended up in.
    pub fn cluster(&self) -> usize {
        match *self {
            Placement::Joined { cluster, .. } | Placement::Singleton { cluster } => cluster,
        }
    }
}

/// What [`Clustering::remove_user`] did to the user's cluster.
#[derive(Debug, Clone)]
pub enum Removal {
    /// Cluster `cluster` lost the user; its common preference relation was
    /// recomputed from the remaining members as `common` (unchanged when an
    /// identical-preference twin remains).
    Shrunk {
        /// Index of the shrunk cluster.
        cluster: usize,
        /// The cluster's recomputed common preference relation.
        common: Preference,
    },
    /// The user was the cluster's last member: the cluster at `cluster`
    /// was removed by swap-remove (the previously-last cluster now holds
    /// this index).
    Dissolved {
        /// Index the dissolved cluster occupied.
        cluster: usize,
    },
}

/// What [`Clustering::update_user`] did with the user's new preference.
#[derive(Debug, Clone)]
pub enum Update {
    /// The new relations still clear the branch cut against the rest of the
    /// user's cluster (trivially so for a singleton): the user stayed in
    /// `cluster` and its common preference relation was re-AND-folded to
    /// `common`.
    Stayed {
        /// Index of the cluster the user stayed in.
        cluster: usize,
        /// The cluster's recomputed common preference relation.
        common: Preference,
    },
    /// The new relations no longer fit: the user left its old cluster and
    /// was re-inserted under the ordinary placement rule (`to`). The old
    /// cluster always *shrinks* — a singleton would have stayed put — so
    /// no cluster index shifts before `to` is applied; the variant carries
    /// the shrunk cluster's index and recomputed common relation directly
    /// to make dissolution unrepresentable.
    Moved {
        /// Index of the cluster the user left.
        from_cluster: usize,
        /// That cluster's recomputed common preference relation.
        from_common: Preference,
        /// Where the user landed.
        to: Placement,
    },
}

/// One distinct preference: its compiled state plus every user holding it.
/// An entry belongs to exactly one cluster; its members are a subset of
/// that cluster's members.
#[derive(Debug, Clone)]
struct DistinctEntry {
    fingerprint: Fingerprint,
    preference: Preference,
    state: ExactState,
    members: Vec<UserId>,
    cluster: usize,
}

#[derive(Debug, Clone)]
struct MaintainedCluster {
    /// Member users in insertion order (the caller-facing view).
    members: Vec<UserId>,
    /// Distinct-preference entries making up this cluster; the state fold
    /// runs over these, not over users.
    entries: Vec<u32>,
    state: ExactState,
}

/// A clustering of users that tracks membership changes incrementally.
///
/// Built once with the agglomerative algorithm over the initial population,
/// then maintained under churn with dendrogram-local repair (see the module
/// docs). The caller chooses the user-id space: ids only need to be unique,
/// not dense.
#[derive(Debug, Clone)]
pub struct Clustering {
    measure: ExactMeasure,
    branch_cut: f64,
    universes: Vec<Vec<ValueId>>,
    /// Slab of distinct-preference entries; freed slots are recycled.
    entries: Vec<Option<DistinctEntry>>,
    free: Vec<u32>,
    /// Fingerprint → live entry ids (more than one only on hash collision
    /// or for same-preference entries pinned in different clusters by the
    /// singleton stay-put rule).
    by_fp: HashMap<Fingerprint, Vec<u32>>,
    /// User → entry id holding its preference.
    users: HashMap<UserId, u32>,
    clusters: Vec<MaintainedCluster>,
}

impl Clustering {
    /// Clusters `preferences` (indexed by user id) with the agglomerative
    /// algorithm under `measure` and `branch_cut`, keeping the compiled
    /// state needed for later incremental maintenance.
    pub fn new(preferences: &[Preference], measure: ExactMeasure, branch_cut: f64) -> Self {
        let outcome = cluster_users(
            preferences,
            ClusteringConfig::Exact {
                measure,
                branch_cut,
            },
        );
        let arity = preferences.iter().map(Preference::arity).max().unwrap_or(0);
        let universes = attribute_universes(preferences, arity);
        let mut this = Self {
            measure,
            branch_cut,
            universes,
            entries: Vec::new(),
            free: Vec::new(),
            by_fp: HashMap::new(),
            users: HashMap::new(),
            clusters: Vec::new(),
        };
        for cluster in &outcome.clusters {
            let cidx = this.clusters.len();
            let state = ExactState::of_user(&cluster.common, &this.universes, measure);
            this.clusters.push(MaintainedCluster {
                members: cluster.members.clone(),
                entries: Vec::new(),
                state,
            });
            for &member in &cluster.members {
                this.attach_in_cluster(member, &preferences[member.index()], None, cidx);
            }
        }
        this
    }

    /// The similarity measure merges are judged by.
    pub fn measure(&self) -> ExactMeasure {
        self.measure
    }

    /// The branch cut `h` a join must clear.
    pub fn branch_cut(&self) -> f64 {
        self.branch_cut
    }

    /// Number of clustered users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Whether no users are clustered.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// Number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Number of distinct preferences across the population (live slab
    /// entries). Entries pinned in different clusters by the singleton
    /// stay-put rule count separately.
    pub fn distinct_preferences(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Whether `user` is currently clustered.
    pub fn contains(&self, user: UserId) -> bool {
        self.users.contains_key(&user)
    }

    /// The stored preference of `user`, if clustered.
    pub fn preference_of(&self, user: UserId) -> Option<&Preference> {
        self.users
            .get(&user)
            .map(|&eid| &self.entry(eid).preference)
    }

    /// The index of the cluster containing `user`, if any. O(1): the
    /// user's distinct-preference entry tracks its cluster index.
    pub fn cluster_of(&self, user: UserId) -> Option<usize> {
        self.users.get(&user).map(|&eid| self.entry(eid).cluster)
    }

    /// The members of cluster `cluster`, in insertion order.
    pub fn members(&self, cluster: usize) -> &[UserId] {
        &self.clusters[cluster].members
    }

    /// The common preference relation of cluster `cluster` (Def. 4.1),
    /// decompiled from the maintained bit matrices.
    pub fn common_preference(&self, cluster: usize) -> Preference {
        self.clusters[cluster].state.to_preference()
    }

    /// All clusters as [`Cluster`] values (members + exact common
    /// preference), e.g. for constructing a FilterThenVerify monitor.
    pub fn clusters(&self) -> Vec<Cluster> {
        self.clusters
            .iter()
            .map(|cluster| Cluster {
                members: cluster.members.clone(),
                common: cluster.state.to_preference(),
            })
            .collect()
    }

    fn entry(&self, eid: u32) -> &DistinctEntry {
        self.entries[eid as usize]
            .as_ref()
            .expect("entry id points at a live slot")
    }

    fn entry_mut(&mut self, eid: u32) -> &mut DistinctEntry {
        self.entries[eid as usize]
            .as_mut()
            .expect("entry id points at a live slot")
    }

    /// Extends the shared universes to cover `pref`, recompiling every
    /// stored state when they grow — the rare slow path taken when a
    /// registered user mentions a value (or attribute) never seen before.
    /// Recompilation touches each *distinct* preference once.
    fn ensure_covered(&mut self, pref: &Preference) {
        let covered = pref.arity() <= self.universes.len()
            && pref.relations().all(|(attr, rel)| {
                let universe = &self.universes[attr.index()];
                rel.values()
                    .iter()
                    .all(|v| universe.binary_search(v).is_ok())
            });
        if covered {
            return;
        }
        let all: Vec<Preference> = self
            .entries
            .iter()
            .flatten()
            .map(|entry| entry.preference.clone())
            .chain([pref.clone()])
            .collect();
        let arity = all.iter().map(Preference::arity).max().unwrap_or(0);
        self.universes = attribute_universes(&all, arity);
        for entry in self.entries.iter_mut().flatten() {
            entry.state = ExactState::of_user(&entry.preference, &self.universes, self.measure);
        }
        for idx in 0..self.clusters.len() {
            let entry_ids = self.clusters[idx].entries.clone();
            self.clusters[idx].state = self.fold_entries(&entry_ids);
        }
    }

    /// The AND-fold of the entries' compiled relations: the cluster's
    /// common preference relation per Def. 4.1 / Theorem 4.2. Folding over
    /// distinct entries equals folding over users because intersection is
    /// idempotent.
    fn fold_entries(&self, entry_ids: &[u32]) -> ExactState {
        ExactState::fold(
            entry_ids.iter().map(|&eid| &self.entry(eid).state),
            self.measure,
        )
    }

    /// Finds the entry holding exactly `preference` (fingerprint bucket +
    /// full equality), optionally restricted to one cluster.
    fn find_entry(
        &self,
        fingerprint: Fingerprint,
        preference: &Preference,
        cluster: Option<usize>,
    ) -> Option<u32> {
        self.by_fp.get(&fingerprint).and_then(|ids| {
            ids.iter().copied().find(|&eid| {
                let entry = self.entry(eid);
                cluster.map_or(true, |c| entry.cluster == c) && entry.preference == *preference
            })
        })
    }

    /// Adds `user` to cluster `cidx`'s entry for `preference`, allocating a
    /// fresh slab entry (compiling `state` if not supplied) when the
    /// cluster holds no identical-preference twin. Maintains `users`,
    /// `by_fp`, and the cluster's entry list — but not the cluster's member
    /// list or state, which the caller owns.
    fn attach_in_cluster(
        &mut self,
        user: UserId,
        preference: &Preference,
        state: Option<ExactState>,
        cidx: usize,
    ) -> u32 {
        let fingerprint = preference.fingerprint();
        let eid = match self.find_entry(fingerprint, preference, Some(cidx)) {
            Some(eid) => eid,
            None => {
                let state = state.unwrap_or_else(|| {
                    ExactState::of_user(preference, &self.universes, self.measure)
                });
                let entry = DistinctEntry {
                    fingerprint,
                    preference: preference.clone(),
                    state,
                    members: Vec::new(),
                    cluster: cidx,
                };
                let eid = match self.free.pop() {
                    Some(eid) => {
                        self.entries[eid as usize] = Some(entry);
                        eid
                    }
                    None => {
                        self.entries.push(Some(entry));
                        (self.entries.len() - 1) as u32
                    }
                };
                self.by_fp.entry(fingerprint).or_default().push(eid);
                self.clusters[cidx].entries.push(eid);
                eid
            }
        };
        self.entry_mut(eid).members.push(user);
        self.users.insert(user, eid);
        eid
    }

    /// Removes `user` from its entry's member list, freeing the entry (and
    /// unlinking it from its cluster's entry list) when it empties. Does
    /// not touch `users` or the cluster's member list/state.
    fn detach_from_entry(&mut self, user: UserId, eid: u32) {
        let entry = self.entry_mut(eid);
        entry.members.retain(|&member| member != user);
        if entry.members.is_empty() {
            let fingerprint = entry.fingerprint;
            let cidx = entry.cluster;
            self.entries[eid as usize] = None;
            self.free.push(eid);
            if let Some(ids) = self.by_fp.get_mut(&fingerprint) {
                ids.retain(|&other| other != eid);
                if ids.is_empty() {
                    self.by_fp.remove(&fingerprint);
                }
            }
            self.clusters[cidx].entries.retain(|&other| other != eid);
        }
    }

    /// Inserts `user` with `preference`. A user whose exact preference is
    /// already clustered joins its twin's entry — and cluster — in O(1):
    /// identical preferences are maximally similar by construction, and the
    /// common relation is unchanged (AND with itself). Otherwise the
    /// ordinary rule applies: join the most similar cluster if that
    /// similarity reaches the branch cut, else create a new singleton
    /// cluster.
    ///
    /// # Panics
    /// Panics if `user` is already clustered.
    pub fn insert_user(&mut self, user: UserId, preference: &Preference) -> Placement {
        assert!(
            !self.users.contains_key(&user),
            "user {user} is already clustered"
        );
        self.ensure_covered(preference);
        let fingerprint = preference.fingerprint();
        if let Some(eid) = self.find_entry(fingerprint, preference, None) {
            let cidx = self.entry(eid).cluster;
            self.entry_mut(eid).members.push(user);
            self.users.insert(user, eid);
            self.clusters[cidx].members.push(user);
            return Placement::Joined {
                cluster: cidx,
                common: self.clusters[cidx].state.to_preference(),
            };
        }
        let state = ExactState::of_user(preference, &self.universes, self.measure);
        let mut best: Option<(usize, f64)> = None;
        for (idx, cluster) in self.clusters.iter().enumerate() {
            let sim = state.similarity(&cluster.state, self.measure);
            if best.map(|(_, b)| sim > b).unwrap_or(true) {
                best = Some((idx, sim));
            }
        }
        match best {
            Some((idx, sim)) if sim >= self.branch_cut => {
                self.clusters[idx].members.push(user);
                self.clusters[idx].state.merge_assign(&state);
                self.attach_in_cluster(user, preference, Some(state), idx);
                Placement::Joined {
                    cluster: idx,
                    common: self.clusters[idx].state.to_preference(),
                }
            }
            _ => {
                let idx = self.clusters.len();
                self.clusters.push(MaintainedCluster {
                    members: vec![user],
                    entries: Vec::new(),
                    state: state.clone(),
                });
                self.attach_in_cluster(user, preference, Some(state), idx);
                Placement::Singleton { cluster: idx }
            }
        }
    }

    /// Removes `user`, repairing only its own cluster. When an
    /// identical-preference twin remains, the cluster's common relation is
    /// unchanged and no fold runs at all.
    ///
    /// # Panics
    /// Panics if `user` is not clustered.
    pub fn remove_user(&mut self, user: UserId) -> Removal {
        let eid = self
            .users
            .remove(&user)
            .unwrap_or_else(|| panic!("user {user} is not clustered"));
        let cidx = self.entry(eid).cluster;
        let entry_survives = self.entry(eid).members.len() > 1;
        self.detach_from_entry(user, eid);
        self.clusters[cidx].members.retain(|&member| member != user);
        if self.clusters[cidx].members.is_empty() {
            self.clusters.swap_remove(cidx);
            // The previously-last cluster moved into slot `cidx`: repoint
            // its entries.
            if cidx < self.clusters.len() {
                let moved = self.clusters[cidx].entries.clone();
                for other in moved {
                    self.entry_mut(other).cluster = cidx;
                }
            }
            return Removal::Dissolved { cluster: cidx };
        }
        if !entry_survives {
            let entry_ids = self.clusters[cidx].entries.clone();
            self.clusters[cidx].state = self.fold_entries(&entry_ids);
        }
        Removal::Shrunk {
            cluster: cidx,
            common: self.clusters[cidx].state.to_preference(),
        }
    }

    /// Replaces the preference of `user` in place, diffing the old and new
    /// compiled relations against the user's current cluster.
    ///
    /// When the new relations still clear the branch cut against the
    /// AND-fold of the *other* members' relations, the user stays in its
    /// cluster and only that cluster's common relation is recomputed (one
    /// AND-fold over the cluster's distinct entries — no membership change
    /// anywhere). A singleton trivially stays put: its common relation just
    /// becomes the new preference. Otherwise the old cluster is repaired
    /// exactly as by [`Self::remove_user`] and the user re-inserted exactly
    /// as by [`Self::insert_user`] — but the user id never changes, so
    /// callers need no renumbering.
    ///
    /// # Panics
    /// Panics if `user` is not clustered.
    pub fn update_user(&mut self, user: UserId, preference: &Preference) -> Update {
        assert!(
            self.users.contains_key(&user),
            "user {user} is not clustered"
        );
        self.ensure_covered(preference);
        let old_eid = self.users[&user];
        let cidx = self.entry(old_eid).cluster;
        if self.entry(old_eid).preference == *preference {
            // The preference didn't actually change: nothing to re-fold.
            return Update::Stayed {
                cluster: cidx,
                common: self.clusters[cidx].state.to_preference(),
            };
        }
        if self.clusters[cidx].members.len() == 1 {
            // A singleton is always at least as similar to itself as the
            // branch cut requires: stay put, the common relation IS the
            // user's new relations. (Deliberately no twin-join across
            // clusters here — callers rely on updates never dissolving a
            // cluster.)
            let state = ExactState::of_user(preference, &self.universes, self.measure);
            self.detach_from_entry(user, old_eid);
            self.attach_in_cluster(user, preference, Some(state.clone()), cidx);
            self.clusters[cidx].state = state;
            return Update::Stayed {
                cluster: cidx,
                common: self.clusters[cidx].state.to_preference(),
            };
        }
        // The AND-fold of the cluster *without* this user: its old entry
        // still participates iff a twin remains in it.
        let rest_entries: Vec<u32> = self.clusters[cidx]
            .entries
            .iter()
            .copied()
            .filter(|&eid| eid != old_eid || self.entry(old_eid).members.len() > 1)
            .collect();
        let state = ExactState::of_user(preference, &self.universes, self.measure);
        let mut rest = self.fold_entries(&rest_entries);
        let sim = state.similarity(&rest, self.measure);
        if sim >= self.branch_cut {
            rest.merge_assign(&state);
            self.clusters[cidx].state = rest;
            self.detach_from_entry(user, old_eid);
            self.attach_in_cluster(user, preference, Some(state), cidx);
            return Update::Stayed {
                cluster: cidx,
                common: self.clusters[cidx].state.to_preference(),
            };
        }
        // The changed preference no longer fits: local repair + re-insertion.
        // The cluster has other members, so it always shrinks (never
        // dissolves) and no cluster index shifts before the insertion. The
        // AND-fold of the remaining entries was already computed for the
        // branch-cut test, so the repair reuses it instead of re-folding.
        self.detach_from_entry(user, old_eid);
        self.clusters[cidx].members.retain(|&member| member != user);
        self.clusters[cidx].state = rest;
        let from_common = self.clusters[cidx].state.to_preference();
        self.users.remove(&user);
        let to = self.insert_user(user, preference);
        Update::Moved {
            from_cluster: cidx,
            from_common,
            to,
        }
    }

    /// Renames `old` to `new` without touching any cluster state. Used by
    /// callers that renumber users on swap-remove.
    ///
    /// # Panics
    /// Panics if `old` is not clustered or `new` already is.
    pub fn rename_user(&mut self, old: UserId, new: UserId) {
        if old == new {
            return;
        }
        assert!(
            !self.users.contains_key(&new),
            "user {new} is already clustered"
        );
        let eid = self
            .users
            .remove(&old)
            .unwrap_or_else(|| panic!("user {old} is not clustered"));
        self.users.insert(new, eid);
        let cidx = self.entry(eid).cluster;
        for member in &mut self.entry_mut(eid).members {
            if *member == old {
                *member = new;
            }
        }
        for member in &mut self.clusters[cidx].members {
            if *member == old {
                *member = new;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_model::AttrId;
    use pm_porder::Relation;

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    fn pref(pairs: &[(u32, u32)]) -> Preference {
        let rel = Relation::from_pairs(pairs.iter().map(|&(x, y)| (v(x), v(y)))).unwrap();
        Preference::from_relations(vec![rel])
    }

    /// The six users of Table 3 (brand attribute only).
    fn table3_users() -> Vec<Preference> {
        vec![
            pref(&[(0, 1), (1, 2), (3, 1)]),
            pref(&[(0, 1), (1, 2), (3, 2)]),
            pref(&[(2, 1), (1, 0), (1, 3)]),
            pref(&[(2, 1), (1, 0), (1, 3), (0, 3)]),
            pref(&[(1, 0), (1, 3), (0, 2), (3, 2)]),
            pref(&[(1, 0), (0, 3), (0, 2)]),
        ]
    }

    fn assert_common_matches(clustering: &Clustering) {
        for k in 0..clustering.num_clusters() {
            let members = clustering.members(k).to_vec();
            assert!(!members.is_empty(), "cluster {k} is empty");
            let expected = Preference::common_of(
                members
                    .iter()
                    .map(|&m| clustering.preference_of(m).expect("member has preference")),
            );
            let got = clustering.common_preference(k);
            let arity = expected.arity().max(got.arity());
            for attr in 0..arity {
                let attr = AttrId::from(attr);
                let want: std::collections::HashSet<_> = if attr.index() < expected.arity() {
                    expected.relation(attr).pairs().collect()
                } else {
                    Default::default()
                };
                let have: std::collections::HashSet<_> = if attr.index() < got.arity() {
                    got.relation(attr).pairs().collect()
                } else {
                    Default::default()
                };
                assert_eq!(have, want, "cluster {k} attribute {attr}");
            }
        }
    }

    /// Entry bookkeeping invariants: members partition across entries,
    /// entry member lists agree with cluster member lists, `users` points
    /// at the right slots.
    fn assert_entries_consistent(clustering: &Clustering) {
        let mut seen = 0usize;
        for k in 0..clustering.num_clusters() {
            let cluster_members: std::collections::HashSet<UserId> =
                clustering.members(k).iter().copied().collect();
            let mut entry_members: std::collections::HashSet<UserId> = Default::default();
            for entry in clustering.clusters[k]
                .entries
                .iter()
                .map(|&eid| clustering.entry(eid))
            {
                assert_eq!(entry.cluster, k, "entry points at its cluster");
                assert!(!entry.members.is_empty(), "no dead entries in clusters");
                assert_eq!(entry.fingerprint, entry.preference.fingerprint());
                for &m in &entry.members {
                    assert!(entry_members.insert(m), "user {m} in two entries");
                    assert_eq!(
                        clustering.users.get(&m),
                        clustering.clusters[k]
                            .entries
                            .iter()
                            .find(|&&eid| clustering.entry(eid).members.contains(&m)),
                        "users map points at the member's entry"
                    );
                }
            }
            assert_eq!(entry_members, cluster_members, "cluster {k} partition");
            seen += cluster_members.len();
        }
        assert_eq!(seen, clustering.num_users());
    }

    #[test]
    fn build_matches_agglomerative_outcome() {
        let users = table3_users();
        let clustering = Clustering::new(&users, ExactMeasure::WeightedJaccard, 0.2);
        let outcome = cluster_users(
            &users,
            ClusteringConfig::Exact {
                measure: ExactMeasure::WeightedJaccard,
                branch_cut: 0.2,
            },
        );
        assert_eq!(clustering.num_clusters(), outcome.len());
        assert_eq!(clustering.num_users(), users.len());
        assert_eq!(clustering.distinct_preferences(), users.len());
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn insert_joins_similar_cluster_and_intersects_common() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users[..4], ExactMeasure::WeightedJaccard, 0.2);
        // c5 is similar to the {c1, c2} side of Table 3; with the paper's
        // branch cut it joins an existing cluster rather than staying alone.
        let placement = clustering.insert_user(UserId::new(4), &users[4]);
        assert!(
            matches!(placement, Placement::Joined { .. }),
            "{placement:?}"
        );
        assert_common_matches(&clustering);
        assert_eq!(clustering.num_users(), 5);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn insert_far_user_becomes_singleton() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users, ExactMeasure::Jaccard, 100.0);
        // An impossible branch cut keeps everything singleton.
        assert_eq!(clustering.num_clusters(), users.len());
        let extra = pref(&[(5, 6)]);
        let placement = clustering.insert_user(UserId::new(99), &extra);
        assert!(
            matches!(placement, Placement::Singleton { .. }),
            "{placement:?}"
        );
        assert_eq!(placement.cluster(), clustering.num_clusters() - 1);
        assert_eq!(clustering.cluster_of(UserId::new(99)), Some(users.len()));
        assert_common_matches(&clustering);
    }

    #[test]
    fn twin_insert_joins_its_twins_cluster_without_a_scan() {
        let users = table3_users();
        // Even under an impossible branch cut, an *identical* preference
        // joins its twin: identical preferences are maximally similar by
        // construction, and sharing the entry is what makes churn scale
        // with distinct preferences.
        let mut clustering = Clustering::new(&users, ExactMeasure::Jaccard, 100.0);
        let clusters_before = clustering.num_clusters();
        let placement = clustering.insert_user(UserId::new(10), &users[2]);
        match placement {
            Placement::Joined {
                cluster,
                ref common,
            } => {
                assert_eq!(Some(cluster), clustering.cluster_of(UserId::new(2)));
                // Common relation unchanged: AND with itself.
                assert_eq!(common, &clustering.common_preference(cluster));
            }
            ref other => panic!("twin must join, got {other:?}"),
        }
        assert_eq!(clustering.num_clusters(), clusters_before);
        assert_eq!(clustering.distinct_preferences(), users.len());
        assert_eq!(clustering.num_users(), users.len() + 1);
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);

        // Removing one twin keeps the entry (and the common) intact …
        let removal = clustering.remove_user(UserId::new(2));
        assert!(matches!(removal, Removal::Shrunk { .. }), "{removal:?}");
        assert_eq!(clustering.distinct_preferences(), users.len());
        // … removing the last twin dissolves the now-empty cluster.
        let removal = clustering.remove_user(UserId::new(10));
        assert!(matches!(removal, Removal::Dissolved { .. }), "{removal:?}");
        assert_eq!(clustering.distinct_preferences(), users.len() - 1);
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn update_coalesces_and_splits_distinct_entries() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users, ExactMeasure::IntersectionSize, 0.0);
        assert_eq!(clustering.num_clusters(), 1);
        assert_eq!(clustering.distinct_preferences(), 6);
        // User 1 adopts user 0's preference: their entries coalesce.
        let update = clustering.update_user(UserId::new(1), &users[0]);
        assert!(matches!(update, Update::Stayed { .. }), "{update:?}");
        assert_eq!(clustering.distinct_preferences(), 5);
        assert_eq!(clustering.num_users(), 6);
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
        // A later update diverges again: the shared entry splits.
        let update = clustering.update_user(UserId::new(1), &users[1]);
        assert!(matches!(update, Update::Stayed { .. }), "{update:?}");
        assert_eq!(clustering.distinct_preferences(), 6);
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn insert_with_unseen_values_extends_universes() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users, ExactMeasure::Jaccard, 0.2);
        // Values 7..9 never occur in Table 3: the shared universes must grow.
        let extra = pref(&[(7, 8), (8, 9)]);
        clustering.insert_user(UserId::new(42), &extra);
        assert_common_matches(&clustering);
        // A second arity: attribute 1 never existed before.
        let mut wide = Preference::new(2);
        wide.prefer(AttrId::new(1), v(0), v(1));
        clustering.insert_user(UserId::new(43), &wide);
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn remove_repairs_only_the_users_cluster() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users, ExactMeasure::IntersectionSize, 0.0);
        assert_eq!(clustering.num_clusters(), 1);
        let removal = clustering.remove_user(UserId::new(2));
        assert!(matches!(removal, Removal::Shrunk { .. }), "{removal:?}");
        assert_eq!(clustering.num_users(), 5);
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn removing_last_member_dissolves_the_cluster() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users, ExactMeasure::Jaccard, 100.0);
        let k = clustering.num_clusters();
        let removal = clustering.remove_user(UserId::new(3));
        assert!(matches!(removal, Removal::Dissolved { .. }), "{removal:?}");
        assert_eq!(clustering.num_clusters(), k - 1);
        assert!(!clustering.contains(UserId::new(3)));
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn rename_preserves_membership() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users, ExactMeasure::Jaccard, 0.2);
        let before = clustering.cluster_of(UserId::new(5)).unwrap();
        clustering.rename_user(UserId::new(5), UserId::new(50));
        assert_eq!(clustering.cluster_of(UserId::new(50)), Some(before));
        assert!(!clustering.contains(UserId::new(5)));
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn empty_clustering_accepts_first_insert() {
        let mut clustering = Clustering::new(&[], ExactMeasure::Jaccard, 0.5);
        assert!(clustering.is_empty());
        assert_eq!(clustering.num_clusters(), 0);
        let placement = clustering.insert_user(UserId::new(0), &pref(&[(0, 1)]));
        assert!(matches!(placement, Placement::Singleton { cluster: 0 }));
        assert_eq!(clustering.num_users(), 1);
        assert_common_matches(&clustering);
    }

    #[test]
    #[should_panic(expected = "already clustered")]
    fn double_insert_panics() {
        let mut clustering = Clustering::new(&table3_users(), ExactMeasure::Jaccard, 0.2);
        clustering.insert_user(UserId::new(0), &pref(&[(0, 1)]));
    }

    #[test]
    fn update_of_singleton_stays_put_and_refreshes_common() {
        let users = table3_users();
        // An impossible branch cut keeps every user a singleton.
        let mut clustering = Clustering::new(&users, ExactMeasure::Jaccard, 100.0);
        let clusters_before = clustering.num_clusters();
        let cluster_before = clustering.cluster_of(UserId::new(2)).unwrap();
        let new_pref = pref(&[(3, 0), (0, 2)]);
        let update = clustering.update_user(UserId::new(2), &new_pref);
        match update {
            Update::Stayed { cluster, common } => {
                assert_eq!(cluster, cluster_before);
                let want: std::collections::HashSet<_> =
                    new_pref.relation(AttrId::new(0)).pairs().collect();
                let have: std::collections::HashSet<_> =
                    common.relation(AttrId::new(0)).pairs().collect();
                assert_eq!(have, want);
            }
            other => panic!("singleton must stay put, got {other:?}"),
        }
        assert_eq!(clustering.num_clusters(), clusters_before);
        assert_eq!(clustering.num_users(), users.len());
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn singleton_update_to_an_existing_preference_stays_put() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users, ExactMeasure::Jaccard, 100.0);
        let cluster_before = clustering.cluster_of(UserId::new(2)).unwrap();
        // User 2 (alone in its cluster) adopts user 3's preference. The
        // stay-put rule pins it in place: a second entry with the same
        // fingerprint now exists in a different cluster.
        let update = clustering.update_user(UserId::new(2), &users[3]);
        assert!(
            matches!(update, Update::Stayed { cluster, .. } if cluster == cluster_before),
            "{update:?}"
        );
        assert_eq!(clustering.num_users(), users.len());
        assert_eq!(clustering.distinct_preferences(), users.len());
        assert_ne!(
            clustering.cluster_of(UserId::new(2)),
            clustering.cluster_of(UserId::new(3))
        );
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn update_keeping_similarity_stays_and_refolds_common() {
        let users = table3_users();
        // IntersectionSize with cut 0.0 puts everyone in one cluster and
        // keeps any update in it.
        let mut clustering = Clustering::new(&users, ExactMeasure::IntersectionSize, 0.0);
        assert_eq!(clustering.num_clusters(), 1);
        let new_pref = pref(&[(0, 1), (1, 2)]);
        let update = clustering.update_user(UserId::new(1), &new_pref);
        assert!(
            matches!(update, Update::Stayed { cluster: 0, .. }),
            "{update:?}"
        );
        assert_eq!(clustering.num_clusters(), 1);
        assert_eq!(
            clustering
                .preference_of(UserId::new(1))
                .unwrap()
                .total_pairs(),
            new_pref.total_pairs()
        );
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn update_that_no_longer_fits_moves_the_user() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users, ExactMeasure::Jaccard, 0.2);
        // Find a user sharing a cluster with someone else, then hand it a
        // preference over values nobody else mentions: similarity drops to
        // zero, the user must leave via local repair + re-insertion.
        let victim = (0..users.len())
            .map(UserId::from)
            .find(|&u| clustering.members(clustering.cluster_of(u).unwrap()).len() > 1)
            .expect("the paper's clustering has a non-singleton cluster");
        let old_cluster = clustering.cluster_of(victim).unwrap();
        let alien = pref(&[(17, 18), (18, 19)]);
        let update = clustering.update_user(victim, &alien);
        match update {
            Update::Moved {
                from_cluster, to, ..
            } => {
                assert_eq!(from_cluster, old_cluster);
                assert!(matches!(to, Placement::Singleton { .. }), "{to:?}");
            }
            other => panic!("expected a move, got {other:?}"),
        }
        assert_ne!(clustering.cluster_of(victim), Some(old_cluster));
        assert_eq!(clustering.num_users(), users.len());
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    fn update_with_unseen_values_extends_universes() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users, ExactMeasure::Jaccard, 0.2);
        // Values 40..42 and a second attribute never occurred before: the
        // shared universes must grow and every stored state recompile.
        let mut wide = Preference::new(2);
        wide.prefer(AttrId::new(0), v(40), v(41));
        wide.prefer(AttrId::new(1), v(41), v(42));
        clustering.update_user(UserId::new(0), &wide);
        assert_common_matches(&clustering);
        assert_eq!(clustering.num_users(), users.len());
        // A later plain insert still works on the extended universes.
        clustering.insert_user(UserId::new(99), &pref(&[(40, 0)]));
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }

    #[test]
    #[should_panic(expected = "not clustered")]
    fn update_of_unknown_user_panics() {
        let mut clustering = Clustering::new(&table3_users(), ExactMeasure::Jaccard, 0.2);
        clustering.update_user(UserId::new(77), &pref(&[(0, 1)]));
    }

    /// Under every measure, insert/update/remove churn leaves each
    /// maintained cluster exactly as similar to every user as a state
    /// compiled from scratch for its members' common preference — weights
    /// included — and only the weighted measures make states hold weights.
    #[test]
    fn churned_states_match_fresh_states_under_every_measure() {
        let users = table3_users();
        for measure in ExactMeasure::ALL {
            let mut clustering = Clustering::new(&users, measure, 0.2);
            clustering.insert_user(UserId::new(10), &pref(&[(0, 1), (1, 2)]));
            clustering.insert_user(UserId::new(11), &users[4]);
            clustering.update_user(UserId::new(2), &users[5]);
            clustering.update_user(UserId::new(0), &pref(&[(3, 0), (0, 2)]));
            clustering.remove_user(UserId::new(4));
            clustering.remove_user(UserId::new(1));
            assert_common_matches(&clustering);
            assert_entries_consistent(&clustering);
            let fresh = |p: &Preference| ExactState::of_user(p, &clustering.universes, measure);
            for (k, cluster) in clustering.clusters.iter().enumerate() {
                let common =
                    fresh(&Preference::common_of(cluster.members.iter().map(|&m| {
                        clustering.preference_of(m).expect("member stored")
                    })));
                for (&user, &eid) in &clustering.users {
                    let theirs = fresh(&clustering.entry(eid).preference);
                    assert_eq!(
                        cluster.state.similarity(&theirs, measure).to_bits(),
                        common.similarity(&theirs, measure).to_bits(),
                        "{}: cluster {k} against user {user}",
                        measure.name()
                    );
                }
            }
            let states = clustering
                .clusters
                .iter()
                .map(|cluster| &cluster.state)
                .chain(
                    clustering
                        .entries
                        .iter()
                        .flatten()
                        .map(|entry| &entry.state),
                );
            for state in states {
                assert_eq!(
                    state.holds_weights(),
                    measure.is_weighted(),
                    "{}",
                    measure.name()
                );
            }
        }
    }

    #[test]
    fn heavy_twin_churn_keeps_entry_count_small() {
        let users = table3_users();
        let mut clustering = Clustering::new(&users, ExactMeasure::WeightedJaccard, 0.2);
        // 60 twins of the six distinct preferences arrive …
        for i in 0..60u32 {
            clustering.insert_user(UserId::new(100 + i), &users[(i % 6) as usize]);
        }
        assert_eq!(clustering.num_users(), 66);
        assert_eq!(clustering.distinct_preferences(), 6);
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
        // … and half leave again; distinct state never grew.
        for i in (0..60u32).step_by(2) {
            clustering.remove_user(UserId::new(100 + i));
        }
        assert_eq!(clustering.num_users(), 36);
        assert_eq!(clustering.distinct_preferences(), 6);
        assert_common_matches(&clustering);
        assert_entries_consistent(&clustering);
    }
}
