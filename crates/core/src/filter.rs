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
//!
//! The verify step's state is kept per cluster in groups keyed by
//! `Base::key`, as the unfiltered layer keeps its frontiers. Where a
//! replay provably equals a live member's verify frontier — exact virtual
//! preferences on an append-only lifetime with a lossless history (Lemma
//! 4.6) — twins share one entry per cluster: a registration or update onto a
//! preference the cluster already holds replays nothing, and each arrival is
//! verified once per distinct preference and reported to every holder.
//! Elsewhere (Alg. 5 followed literally, the Alg. 3 approximation, a history
//! under a hard cap) a live verify frontier may legitimately differ from a
//! replay, so every member keeps an entry of its own. The cluster is part of
//! the key because fixed cluster lists may split twins or leave users out.

use std::collections::BTreeMap;
use std::sync::Arc;

use pm_cluster::{approx_common_preference, ApproxConfig, Clustering, Placement, Removal, Update};
use pm_model::UserId;
use pm_porder::{CompiledPreference, Interned, Preference};

use crate::frontier::Frontier;
use crate::monitor::Base;

/// One virtual user with everything maintained for it: the compiled
/// relation its scans run on, its Pareto frontier and — on a sliding
/// window — its Pareto frontier buffer (Def. 7.4).
///
/// A group is a cluster's virtual user (`P_U`, `PB_U`), or a set of users
/// holding the *same* preference: identical preferences induce identical
/// frontiers and buffers (Def. 3.2 depends only on the preference
/// relations), so the group's frontier *is* each member's frontier.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    /// Member users: ascending in a layer's per-user groups, the order an
    /// arrival's outcomes are expanded in; in joining order for a virtual
    /// user.
    pub(crate) members: Vec<UserId>,
    /// Build-time form of the group's preference (introspection).
    pub(crate) preference: Arc<Preference>,
    /// Bitset form every scan runs on.
    pub(crate) compiled: Arc<CompiledPreference>,
    pub(crate) frontier: Frontier,
    /// Stays empty while nothing expires.
    pub(crate) buffer: Frontier,
}

/// A layer's per-user groups, keyed by [`Base::key`]: one group per
/// distinct preference where twins share, one per user otherwise.
pub(crate) type Groups = BTreeMap<usize, Group>;

impl Group {
    fn new(members: Vec<UserId>, preference: Preference) -> Self {
        let compiled = preference.compile();
        Self {
            members,
            frontier: Frontier::default(),
            buffer: Frontier::default(),
            compiled: Arc::new(compiled),
            preference: Arc::new(preference),
        }
    }

    /// Replaces the group's relation, keeping its frontier and buffer:
    /// their postings are keyed by the old relation's universes, so both
    /// are re-indexed under the new one.
    fn set_preference(&mut self, preference: Preference) {
        self.compiled = Arc::new(preference.compile());
        self.preference = Arc::new(preference);
        self.frontier.recode(&self.compiled);
        self.buffer.recode(&self.compiled);
    }

    /// Renames member `from` to `to` where it stands.
    pub(crate) fn rename(&mut self, from: UserId, to: UserId) {
        for member in &mut self.members {
            if *member == from {
                *member = to;
            }
        }
    }

    /// Adds `user` to an ascending member list.
    pub(crate) fn admit(&mut self, user: UserId) {
        let at = self.members.partition_point(|&member| member < user);
        self.members.insert(at, user);
    }

    /// Renames member `from` to `to` in an ascending member list, which
    /// stays ascending: a swap-remove renumbers the highest id to a lower
    /// one.
    fn renumber(&mut self, from: UserId, to: UserId) {
        self.members.retain(|&member| member != from);
        self.admit(to);
    }
}

/// One cluster: its virtual user and its members' verify state.
#[derive(Debug, Clone)]
pub(crate) struct Cluster {
    /// The members, the cluster's relation, `P_U` and `PB_U`.
    pub(crate) virtual_user: Group,
    /// The verify step's frontiers, keyed by [`Base::key`].
    pub(crate) verify: Groups,
    /// Whether every member shares the one verify entry and holds the
    /// cluster's relation (twins sharing only). `P_U` is then kept equal to
    /// that entry's frontier: the filter step scans it as Alg. 1 does and
    /// the entry takes its outcome with no verify step at all.
    pub(crate) degenerate: bool,
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
    pub(crate) clusters: Vec<Cluster>,
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
    /// cluster. Users outside every cluster are never reported and hold an
    /// empty frontier.
    pub fn virtual_users(clusters: Vec<(Vec<UserId>, Preference)>) -> Self {
        let cluster = |(members, preference)| Cluster {
            virtual_user: Group::new(members, preference),
            verify: Groups::new(),
            degenerate: false,
        };
        Self {
            clusters: clusters.into_iter().map(cluster).collect(),
            clustering: None,
            approx: None,
        }
    }

    /// A fixed cluster list whose virtual users carry the clusters' exact
    /// common preference relations (FilterThenVerify).
    pub fn clusters(clusters: &[pm_cluster::Cluster]) -> Self {
        let pair = |c: &pm_cluster::Cluster| (c.members.clone(), c.common.clone());
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

    /// Whether twins in one cluster share a verify entry: where a replay
    /// provably equals a live member's verify frontier — exact virtual
    /// preferences (Lemma 4.6), an append-only lifetime and a lossless
    /// history.
    pub(crate) fn twins(&self, base: &Base) -> bool {
        self.approx.is_none() && !base.alive.expires() && base.alive.is_lossless()
    }

    /// Binds the layer to the monitor's users (no object is alive yet):
    /// for the approximate variant the Alg. 3 relation of every cluster,
    /// then every member's verify entry.
    ///
    /// # Panics
    /// Panics if a maintained clustering does not cover exactly the users,
    /// and (with debug assertions) if a user is listed in two clusters.
    pub(crate) fn attach(&mut self, base: &mut Base) {
        if let Some(clustering) = &self.clustering {
            assert_eq!(
                clustering.num_users(),
                base.users.len(),
                "clustering must cover exactly the monitor's users"
            );
        }
        if let Some(config) = self.approx {
            for cluster in &mut self.clusters {
                let group = &mut cluster.virtual_user;
                group.set_preference(approx_common(&group.members, config, &base.users));
            }
        }
        let mut listed = vec![false; base.users.len()];
        for cluster in 0..self.clusters.len() {
            for member in self.clusters[cluster].virtual_user.members.clone() {
                let seen = std::mem::replace(&mut listed[member.index()], true);
                debug_assert!(!seen, "clusters are disjoint: {member} is in two");
                self.join(cluster, member, base);
            }
            self.settle(cluster, base);
        }
    }

    /// The cluster holding `user`, if any (fixed cluster lists may leave
    /// users out).
    pub(crate) fn cluster_of(&self, user: UserId) -> Option<usize> {
        match &self.clustering {
            Some(clustering) => clustering.cluster_of(user),
            None => (self.clusters.iter())
                .position(|cluster| cluster.virtual_user.members.contains(&user)),
        }
    }

    /// Where `user`'s verify entry lives: its cluster and key.
    fn entry_of(&self, user: UserId, base: &Base) -> Option<(usize, usize)> {
        Some((self.cluster_of(user)?, base.key(user, self.twins(base))))
    }

    /// `user`'s verify frontier, or `None` outside every cluster.
    pub(crate) fn frontier(&self, user: UserId, base: &Base) -> Option<&Frontier> {
        let (cluster, key) = self.entry_of(user, base)?;
        let entry = self.clusters[cluster].verify.get(&key);
        let entry = entry.expect("every clustered user has a verify entry");
        Some(&entry.frontier)
    }

    /// Puts `user` into its verify entry of `cluster`, created by replay
    /// unless a twin already holds it. A verify entry never reads a
    /// Def. 7.4 buffer, so none is replayed.
    fn join(&mut self, cluster: usize, user: UserId, base: &mut Base) {
        let key = base.key(user, self.twins(base));
        base.join(&mut self.clusters[cluster].verify, key, user, false);
    }

    /// Takes `user` out of its verify entry, dropping the entry with its
    /// last member. Runs before the user's preference or cluster changes:
    /// they locate the entry.
    pub(crate) fn leave(&mut self, user: UserId, base: &Base) {
        if let Some((cluster, key)) = self.entry_of(user, base) {
            Base::leave(&mut self.clusters[cluster].verify, key, user);
        }
    }

    /// Re-decides whether `cluster` is degenerate after a change of its
    /// members or relation (see [`Cluster::degenerate`]). Becoming so, it
    /// takes the entry's compiled preference and frontier as `P_U`: an
    /// append-only `P_U` is otherwise only a sound superset of the frontier
    /// under the cluster's relation, while the entry's is exact.
    fn settle(&mut self, cluster: usize, base: &Base) {
        let twins = self.twins(base);
        let Cluster {
            virtual_user,
            verify,
            degenerate,
        } = &mut self.clusters[cluster];
        let mut entries = verify.values();
        *degenerate = match (entries.next(), entries.next()) {
            (Some(entry), None) if twins && entry.preference == virtual_user.preference => {
                virtual_user.preference = Arc::clone(&entry.preference);
                virtual_user.compiled = Arc::clone(&entry.compiled);
                virtual_user.frontier = entry.frontier.clone();
                true
            }
            _ => false,
        };
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
        let group = &mut self.clusters[cluster].virtual_user;
        group.set_preference(match self.approx {
            Some(config) => approx_common(&group.members, config, &base.users),
            None => exact_common,
        });
        if base.alive.expires() {
            group.frontier = base.alive.replay_frontier(&group.compiled, &mut base.stats);
            group.buffer = base.alive.replay_buffer(&group.compiled, &mut base.stats);
        }
    }

    /// Registers `user` (already in `base.users`): it joins the most
    /// similar cluster of a maintained clustering, or becomes a singleton
    /// cluster.
    pub(crate) fn add(&mut self, user: UserId, base: &mut Base) {
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
        let cluster = placement.cluster();
        match placement {
            Placement::Joined { cluster, common } => {
                self.clusters[cluster].virtual_user.members.push(user);
                self.set_common(cluster, common, base);
                self.join(cluster, user, base);
            }
            // A one-member virtual user *is* the user: it shares the user's
            // compiled preference and starts from the user's own frontier.
            Placement::Singleton { cluster } => {
                debug_assert_eq!(cluster, self.clusters.len());
                let interned = &base.users[user.index()];
                let buffer = base
                    .alive
                    .replay_buffer(&interned.compiled, &mut base.stats);
                self.clusters.push(Cluster {
                    virtual_user: Group {
                        members: vec![user],
                        preference: Arc::clone(&interned.preference),
                        compiled: Arc::clone(&interned.compiled),
                        frontier: Frontier::default(),
                        buffer,
                    },
                    verify: Groups::new(),
                    degenerate: false,
                });
                self.join(cluster, user, base);
                let Cluster {
                    virtual_user,
                    verify,
                    ..
                } = &mut self.clusters[cluster];
                let own = verify.values().next().expect("the user just joined");
                virtual_user.frontier = own.frontier.clone();
            }
        }
        self.settle(cluster, base);
    }

    /// Repairs the clusters after `user` left its verify entry
    /// ([`Self::leave`]) and its preference was replaced in `base.users`:
    /// the user stays put with a re-AND-folded common relation, or moves
    /// via local repair and re-insertion, and joins its new verify entry. A
    /// fixed cluster list keeps the user where it is — it has no branch cut
    /// to judge by.
    pub(crate) fn update(&mut self, user: UserId, base: &mut Base) {
        let preference = base.users[user.index()].preference.as_ref();
        let update = match &mut self.clustering {
            Some(clustering) => clustering.update_user(user, preference),
            None => match self.cluster_of(user) {
                Some(cluster) => {
                    let members = self.clusters[cluster].virtual_user.members.iter();
                    Update::Stayed {
                        cluster,
                        common: common_of(members, &base.users),
                    }
                }
                // In no cluster (fixed cluster lists only).
                None => return,
            },
        };
        match update {
            Update::Stayed { cluster, common } => {
                self.set_common(cluster, common, base);
                self.join(cluster, user, base);
                self.settle(cluster, base);
            }
            Update::Moved {
                from_cluster,
                from_common,
                to,
            } => {
                let from = &mut self.clusters[from_cluster].virtual_user;
                from.members.retain(|&m| m != user);
                self.set_common(from_cluster, from_common, base);
                self.settle(from_cluster, base);
                self.place(user, to, base);
            }
        }
    }

    /// Repairs the clusters for the removal of `user` (still present in
    /// `base.users`): it leaves its verify entry, and its cluster shrinks or
    /// dissolves by swap-remove.
    pub(crate) fn remove(&mut self, user: UserId, base: &mut Base) {
        // In no cluster (fixed cluster lists only): nothing to repair.
        let Some(cluster) = self.cluster_of(user) else {
            return;
        };
        self.leave(user, base);
        let removal = match &mut self.clustering {
            Some(clustering) => clustering.remove_user(user),
            None => {
                let members = &self.clusters[cluster].virtual_user.members;
                if members.len() == 1 {
                    Removal::Dissolved { cluster }
                } else {
                    let rest = members.iter().filter(|&&m| m != user);
                    Removal::Shrunk {
                        cluster,
                        common: common_of(rest, &base.users),
                    }
                }
            }
        };
        match removal {
            Removal::Dissolved { cluster } => {
                self.clusters.swap_remove(cluster);
            }
            Removal::Shrunk { cluster, common } => {
                let group = &mut self.clusters[cluster].virtual_user;
                group.members.retain(|&m| m != user);
                self.set_common(cluster, common, base);
                self.settle(cluster, base);
            }
        }
    }

    /// After a swap-remove renumbered the previously-last user `moved` to
    /// `user`, renames it across the maintained clustering, every cluster
    /// member list and its verify entry, which moves from key `from` to
    /// `to` (they differ where entries are keyed per user). `cluster` is
    /// where `moved` was found before the renaming.
    pub(crate) fn rename(
        &mut self,
        moved: UserId,
        user: UserId,
        cluster: Option<usize>,
        (from, to): (usize, usize),
    ) {
        if let Some(clustering) = &mut self.clustering {
            clustering.rename_user(moved, user);
        }
        for cluster in &mut self.clusters {
            cluster.virtual_user.rename(moved, user);
        }
        if let Some(cluster) = cluster {
            rekey(&mut self.clusters[cluster].verify, (from, to), moved, user);
        }
    }
}

/// Moves the group of the renumbered user `moved` from key `from` to `to`
/// and lists it there under its new id `user`.
pub(crate) fn rekey(groups: &mut Groups, (from, to): (usize, usize), moved: UserId, user: UserId) {
    let mut group = groups.remove(&from).expect("every user is in its group");
    group.renumber(moved, user);
    groups.insert(to, group);
}
