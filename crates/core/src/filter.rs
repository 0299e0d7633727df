//! The cluster filter layer: the filter axis of a [`crate::Monitor`].
//!
//! Users are grouped into clusters of similar preferences. Each cluster `U`
//! is represented by a *virtual user* (Def. 4.1) whose preference relation
//! is the common — or, for the Sec. 6 variant, the Alg. 3 approximate
//! common — preference relation of the members. The cluster maintains a
//! shared Pareto frontier `P_U` which, by Theorem 4.5, is a superset of
//! every member's frontier: an arriving object dominated within `P_U` is
//! discarded for all members at once (filter step); an object that
//! survives is verified against each member's own frontier (verify step).
//! A monitor without this layer is Alg. 1 / Alg. 4.

use std::sync::Arc;

use pm_cluster::{
    approx_common_preference, ApproxConfig, Cluster, Clustering, Placement, Removal, Update,
};
use pm_model::UserId;
use pm_porder::{CompiledPreference, Interned, Preference};

use crate::frontier::Frontier;
use crate::monitor::Base;

/// One virtual user with everything maintained for it: the compiled
/// relation its scans run on, its Pareto frontier and — on a sliding
/// window — its Pareto frontier buffer (Def. 7.4).
///
/// With a filter layer a group is a cluster (`P_U`, `PB_U`). Without one
/// it is a set of users holding the *same* preference: identical
/// preferences induce identical frontiers and buffers (Def. 3.2 depends
/// only on the preference relations), so the group's frontier *is* each
/// member's frontier.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    /// Member users, in joining order.
    pub(crate) members: Vec<UserId>,
    /// Build-time form of the group's preference (introspection).
    pub(crate) preference: Arc<Preference>,
    /// Bitset form every scan runs on.
    pub(crate) compiled: Arc<CompiledPreference>,
    pub(crate) frontier: Frontier,
    /// Stays empty while nothing expires.
    pub(crate) buffer: Frontier,
}

impl Group {
    fn new(members: Vec<UserId>, preference: Preference) -> Self {
        let compiled = preference.compile();
        Self {
            members,
            frontier: Frontier::new(&compiled),
            buffer: Frontier::new(&compiled),
            compiled: Arc::new(compiled),
            preference: Arc::new(preference),
        }
    }

    /// Replaces the group's relation, keeping its frontier and buffer:
    /// their value codes were issued by the old relation, so both are
    /// re-encoded under the new one.
    fn set_preference(&mut self, preference: Preference) {
        self.compiled = Arc::new(preference.compile());
        self.preference = Arc::new(preference);
        self.frontier.recode(&self.compiled);
        self.buffer.recode(&self.compiled);
    }

    pub(crate) fn rename(&mut self, from: UserId, to: UserId) {
        for member in &mut self.members {
            if *member == from {
                *member = to;
            }
        }
    }
}

/// The exact common relation (Def. 4.1) of `members`' current preferences.
fn common_of<'a>(members: impl Iterator<Item = &'a UserId>, users: &'a [Interned]) -> Preference {
    Preference::common_of(members.map(|m| users[m.index()].preference.as_ref()))
}

/// The Alg. 3 approximate common relation of `members`' current
/// preferences.
fn approx_common(members: &[UserId], config: ApproxConfig, users: &[Interned]) -> Preference {
    let preferences = members.iter().map(|m| users[m.index()].preference.as_ref());
    approx_common_preference(preferences, config)
}

/// The filter layer of a [`crate::Monitor`]: the clusters, optionally the
/// incrementally maintained [`Clustering`] that drives membership changes,
/// and optionally the Alg. 3 thresholds that make the virtual preferences
/// approximate (see the module docs).
#[derive(Debug, Clone)]
pub struct Filter {
    pub(crate) clusters: Vec<Group>,
    /// The verify step's frontiers, one per user (indexed by user id).
    pub(crate) verify: Vec<Frontier>,
    /// `None` for a fixed cluster list, which falls back to singleton
    /// insertion and `common_of` repair under membership changes.
    clustering: Option<Clustering>,
    /// When set, every (re)computed virtual preference is the Alg. 3
    /// approximate common relation instead of the exact intersection.
    approx: Option<ApproxConfig>,
}

impl Filter {
    /// A fixed cluster list whose virtual users carry the given
    /// preferences verbatim, one `(members, virtual preference)` pair per
    /// cluster. Users outside every cluster are never reported.
    pub fn virtual_users(clusters: Vec<(Vec<UserId>, Preference)>) -> Self {
        Self {
            clusters: clusters
                .into_iter()
                .map(|(members, preference)| Group::new(members, preference))
                .collect(),
            verify: Vec::new(),
            clustering: None,
            approx: None,
        }
    }

    /// A fixed cluster list whose virtual users carry the clusters' exact
    /// common preference relations (FilterThenVerify).
    pub fn clusters(clusters: &[Cluster]) -> Self {
        let pair = |c: &Cluster| (c.members.clone(), c.common.clone());
        Self::virtual_users(clusters.iter().map(pair).collect())
    }

    /// Clusters backed by an incrementally maintained [`Clustering`] over
    /// exactly the monitor's users: a registration then joins the most
    /// similar cluster (or spins up a singleton), and an unregistration or
    /// update repairs only the affected clusters, all through the
    /// clustering's compiled intersect path.
    pub fn maintained(clustering: Clustering) -> Self {
        let mut this = Self::clusters(&clustering.clusters());
        this.clustering = Some(clustering);
        this
    }

    /// Makes the virtual preferences the *approximate* common relations of
    /// Alg. 3 under `config` (FilterThenVerifyApprox), now and after every
    /// membership change.
    pub fn approx(mut self, config: ApproxConfig) -> Self {
        self.approx = Some(config);
        self
    }

    /// Binds the layer to the monitor's users: one empty verify frontier
    /// each, and — for the approximate variant — the Alg. 3 relation of
    /// every cluster.
    ///
    /// # Panics
    /// Panics if a maintained clustering does not cover exactly `users`.
    pub(crate) fn attach(&mut self, users: &[Interned]) {
        if let Some(clustering) = &self.clustering {
            assert_eq!(
                clustering.num_users(),
                users.len(),
                "clustering must cover exactly the monitor's users"
            );
        }
        self.verify = users.iter().map(|u| Frontier::new(&u.compiled)).collect();
        if let Some(config) = self.approx {
            for group in &mut self.clusters {
                group.set_preference(approx_common(&group.members, config, users));
            }
        }
    }

    /// Installs a cluster's recomputed common relation: the exact monitor
    /// takes `exact_common` as is, the approximate one rebuilds the Alg. 3
    /// relation from the members' current preferences.
    ///
    /// Append-only, `P_U` is deliberately left as is: any set of alive
    /// objects filtered under the new relation is a sound filter —
    /// rejection still implies dominance for every member — and exactness
    /// rests on the per-member verify step (Lemma 4.6), not on `P_U` being
    /// the exact cluster frontier. On a window the old state was computed
    /// under a different relation and a too-small buffer would miss
    /// promotions on future expiries, so `P_U` and `PB_U` are rebuilt by
    /// replay to exactly what a from-start cluster would hold.
    fn set_common(&mut self, cluster: usize, exact_common: Preference, base: &mut Base) {
        let group = &mut self.clusters[cluster];
        group.set_preference(match self.approx {
            Some(config) => approx_common(&group.members, config, &base.users),
            None => exact_common,
        });
        if base.alive.expires() {
            group.frontier = base.alive.replay_frontier(&group.compiled, &mut base.stats);
            group.buffer = base.alive.replay_buffer(&group.compiled, &mut base.stats);
        }
    }

    /// Registers `user` (already in `base.users`) with its backfilled
    /// frontier `own`: it joins the most similar cluster of a maintained
    /// clustering, or becomes a singleton cluster.
    pub(crate) fn add(&mut self, user: UserId, own: Frontier, base: &mut Base) {
        self.verify.push(own);
        let placement = match &mut self.clustering {
            Some(clustering) => {
                clustering.insert_user(user, base.users[user.index()].preference.as_ref())
            }
            None => Placement::Singleton {
                cluster: self.clusters.len(),
            },
        };
        self.place(user, placement, base);
    }

    fn place(&mut self, user: UserId, placement: Placement, base: &mut Base) {
        match placement {
            Placement::Joined { cluster, common } => {
                self.clusters[cluster].members.push(user);
                self.set_common(cluster, common, base);
            }
            // A one-member virtual user *is* the user: it shares the user's
            // compiled preference and starts from the user's own frontier.
            Placement::Singleton { cluster } => {
                debug_assert_eq!(cluster, self.clusters.len());
                let interned = &base.users[user.index()];
                self.clusters.push(Group {
                    members: vec![user],
                    preference: Arc::clone(&interned.preference),
                    compiled: Arc::clone(&interned.compiled),
                    frontier: self.verify[user.index()].clone(),
                    buffer: base
                        .alive
                        .replay_buffer(&interned.compiled, &mut base.stats),
                });
            }
        }
    }

    /// The cluster of every user, indexed by user id; `None` for a user
    /// outside every cluster (fixed cluster lists only).
    pub(crate) fn cluster_index(&self) -> Vec<Option<usize>> {
        let mut index = vec![None; self.verify.len()];
        for (cluster, group) in self.clusters.iter().enumerate() {
            for member in &group.members {
                let slot = &mut index[member.index()];
                debug_assert!(slot.is_none(), "clusters are disjoint: {member} is in two");
                *slot = Some(cluster);
            }
        }
        index
    }

    /// The index of the cluster holding `user` in a fixed cluster list.
    fn cluster_of(&self, user: UserId) -> Option<usize> {
        self.clusters
            .iter()
            .position(|group| group.members.contains(&user))
    }

    /// Repairs the clusters after `user`'s preference was replaced in
    /// `base.users` and its frontier re-backfilled to `own`: the user stays
    /// put with a re-AND-folded common relation, or moves via local repair
    /// and re-insertion. A fixed cluster list keeps the user where it is —
    /// it has no branch cut to judge by.
    pub(crate) fn update(&mut self, user: UserId, own: Frontier, base: &mut Base) {
        self.verify[user.index()] = own;
        let preference = base.users[user.index()].preference.as_ref();
        let update = match &mut self.clustering {
            Some(clustering) => clustering.update_user(user, preference),
            None => match self.cluster_of(user) {
                Some(cluster) => Update::Stayed {
                    cluster,
                    common: common_of(self.clusters[cluster].members.iter(), &base.users),
                },
                // In no cluster (fixed cluster lists only).
                None => return,
            },
        };
        match update {
            Update::Stayed { cluster, common } => self.set_common(cluster, common, base),
            Update::Moved {
                from_cluster,
                from_common,
                to,
            } => {
                self.clusters[from_cluster].members.retain(|&m| m != user);
                self.set_common(from_cluster, from_common, base);
                self.place(user, to, base);
            }
        }
    }

    /// Repairs the clusters for the removal of `user` (still present in
    /// `base.users`): its cluster shrinks, or dissolves by swap-remove.
    pub(crate) fn remove(&mut self, user: UserId, base: &mut Base) {
        let removal = match &mut self.clustering {
            Some(clustering) => clustering.remove_user(user),
            None => match self.cluster_of(user) {
                Some(cluster) if self.clusters[cluster].members.len() == 1 => {
                    Removal::Dissolved { cluster }
                }
                Some(cluster) => {
                    let rest = self.clusters[cluster].members.iter();
                    Removal::Shrunk {
                        cluster,
                        common: common_of(rest.filter(|&&m| m != user), &base.users),
                    }
                }
                // In no cluster (fixed cluster lists only).
                None => return,
            },
        };
        match removal {
            Removal::Dissolved { cluster } => {
                self.clusters.swap_remove(cluster);
            }
            Removal::Shrunk { cluster, common } => {
                self.clusters[cluster].members.retain(|&m| m != user);
                self.set_common(cluster, common, base);
            }
        }
    }

    /// After a swap-remove renumbered the previously-last user `moved` to
    /// `user`, renames it across the maintained clustering and every
    /// cluster member list.
    pub(crate) fn rename(&mut self, moved: UserId, user: UserId) {
        if let Some(clustering) = &mut self.clustering {
            clustering.rename_user(moved, user);
        }
        for group in &mut self.clusters {
            group.rename(moved, user);
        }
    }
}
