//! Approximate common preference relations — `GetApproxPreferenceTuples`
//! (Alg. 3, Sec. 6.1 of the paper).
//!
//! Given a cluster of users, a preference tuple shared by *all* members is a
//! common preference tuple and is always included. Further tuples are
//! considered in descending order of their frequency among the members and
//! greedily added — together with their transitive closure — as long as the
//! growing relation stays a strict partial order, its size stays below θ1,
//! and the tuple's frequency stays above θ2.

use std::collections::HashMap;

use pm_model::{AttrId, ValueId};
use pm_porder::{Preference, Relation};

/// Thresholds governing the size of approximate common preference relations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxConfig {
    /// θ1: the approximate relation stops growing once it holds at least
    /// this many tuples (common tuples are exempt).
    pub theta1: usize,
    /// θ2: tuples whose frequency among cluster members is ≤ θ2 are never
    /// added (common tuples, frequency 1, are exempt).
    pub theta2: f64,
}

impl ApproxConfig {
    /// A generous default: up to 256 tuples per attribute, majority support.
    pub const fn new(theta1: usize, theta2: f64) -> Self {
        Self { theta1, theta2 }
    }
}

impl Default for ApproxConfig {
    fn default() -> Self {
        Self {
            theta1: 256,
            theta2: 0.5,
        }
    }
}

/// Builds the approximate common preference relation `≻̂ᵈ_U` of one
/// attribute from the member users' relations on that attribute (Alg. 3).
pub fn approx_common_relation<'a, I>(relations: I, config: ApproxConfig) -> Relation
where
    I: IntoIterator<Item = &'a Relation>,
{
    let members: Vec<&Relation> = relations.into_iter().collect();
    if members.is_empty() {
        return Relation::new();
    }
    let n = members.len() as f64;

    // Frequency of every candidate tuple among the members. Tuples absent
    // from every member have frequency 0 and can never pass θ2 (and are not
    // common), so only tuples present in at least one member are enumerated.
    let mut freq: HashMap<(ValueId, ValueId), usize> = HashMap::new();
    for rel in &members {
        for pair in rel.pairs() {
            *freq.entry(pair).or_insert(0) += 1;
        }
    }
    // Descending frequency; ties broken by the pair ids for determinism.
    let mut ordered: Vec<((ValueId, ValueId), usize)> = freq.into_iter().collect();
    ordered.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut approx = Relation::new();
    for ((x, y), count) in ordered {
        let frequency = count as f64 / n;
        if count == members.len() {
            // Common preference tuple: always included (Lines 2–3 of Alg. 3).
            // Common tuples of strict partial orders can never conflict.
            let _ = approx.insert(x, y);
            continue;
        }
        if approx.len() >= config.theta1 || frequency <= config.theta2 {
            break;
        }
        if approx.can_insert(x, y) {
            // Line 7: include the tuple together with its transitive closure.
            approx
                .insert(x, y)
                .expect("can_insert guarantees the relation stays a strict partial order");
        }
    }
    approx
}

/// Builds the full approximate common preference of a cluster: Alg. 3
/// applied to every attribute of the members' preferences.
pub fn approx_common_preference<'a, I>(preferences: I, config: ApproxConfig) -> Preference
where
    I: IntoIterator<Item = &'a Preference>,
    I::IntoIter: Clone,
{
    let iter = preferences.into_iter();
    let arity = iter.clone().map(Preference::arity).max().unwrap_or(0);
    let relations = (0..arity)
        .map(|idx| {
            let attr = AttrId::from(idx);
            approx_common_relation(iter.clone().map(|p| p.relation(attr)), config)
        })
        .collect();
    Preference::from_relations(relations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> ValueId {
        ValueId::new(i)
    }

    fn rel(pairs: &[(u32, u32)]) -> Relation {
        Relation::from_pairs(pairs.iter().map(|&(x, y)| (v(x), v(y)))).unwrap()
    }

    /// The common relation of `users` (Def. 4.1).
    fn common_of(users: &[Relation]) -> Relation {
        users[1..]
            .iter()
            .fold(users[0].clone(), |acc, r| acc.intersection(r))
    }

    /// The three users of Figure 1a / Example 6.2.
    /// Encoding chosen so the deterministic tie-break reproduces the
    /// paper's enumeration order: Apple=0, Lenovo=1, Toshiba=2, Samsung=3.
    ///
    /// Frequencies (Table 5): (A,T)=3/3, (A,S)=(L,T)=(T,S)=(S,L)=2/3,
    /// (A,L)=(L,S)=(T,L)=(S,T)=1/3.
    fn figure1_users() -> Vec<Relation> {
        vec![
            // user 1: A ≻ T ≻ S, L ≻ T (closure adds A ≻ S, L ≻ S).
            rel(&[(0, 2), (2, 3), (1, 2)]),
            // user 2: A ≻ T, L ≻ T, S ≻ L (closure adds S ≻ T).
            rel(&[(0, 2), (1, 2), (3, 1)]),
            // user 3: A ≻ T ≻ S ≻ L (closure adds A ≻ S, A ≻ L, T ≻ L).
            rel(&[(0, 2), (2, 3), (3, 1)]),
        ]
    }

    #[test]
    fn figure1_frequencies_match_table5() {
        let users = figure1_users();
        let count = |x: u32, y: u32| users.iter().filter(|r| r.prefers(v(x), v(y))).count();
        assert_eq!(count(0, 2), 3); // (A,T)
        assert_eq!(count(0, 3), 2); // (A,S)
        assert_eq!(count(1, 2), 2); // (L,T)
        assert_eq!(count(2, 3), 2); // (T,S)
        assert_eq!(count(3, 1), 2); // (S,L)
        assert_eq!(count(0, 1), 1); // (A,L)
        assert_eq!(count(1, 3), 1); // (L,S)
        assert_eq!(count(2, 1), 1); // (T,L)
        assert_eq!(count(3, 2), 1); // (S,T)
        assert_eq!(count(1, 0), 0);
        assert_eq!(count(2, 0), 0);
        assert_eq!(count(3, 0), 0);
    }

    #[test]
    fn example_6_2_greedy_construction() {
        // θ1 = 7, θ2 = 60%: the output of Example 6.2 is
        // {(A,T), (A,S), (L,T), (T,S)} plus the transitively induced (L,S);
        // (S,L) is rejected (reverse already present), (A,L) is below θ2.
        let users = figure1_users();
        let approx = approx_common_relation(users.iter(), ApproxConfig::new(7, 0.6));
        let expected: std::collections::HashSet<(ValueId, ValueId)> = [
            (v(0), v(2)), // (A,T)
            (v(0), v(3)), // (A,S)
            (v(1), v(2)), // (L,T)
            (v(2), v(3)), // (T,S)
            (v(1), v(3)), // (L,S), induced transitively
        ]
        .into_iter()
        .collect();
        assert_eq!(
            approx.pairs().collect::<std::collections::HashSet<_>>(),
            expected
        );
        approx.validate().unwrap();
    }

    #[test]
    fn approx_relation_is_superset_of_common_relation() {
        let users = figure1_users();
        let common = common_of(&users);
        for theta1 in [0, 1, 4, 100] {
            for theta2 in [0.0, 0.4, 0.7, 1.0] {
                let approx =
                    approx_common_relation(users.iter(), ApproxConfig::new(theta1, theta2));
                for pair in common.pairs() {
                    assert!(
                        approx.prefers(pair.0, pair.1),
                        "common tuple {pair:?} missing for θ1={theta1}, θ2={theta2}"
                    );
                }
                approx.validate().unwrap();
            }
        }
    }

    #[test]
    fn tight_thresholds_reduce_to_common_relation() {
        let users = figure1_users();
        let common = common_of(&users);
        // θ2 = 1.0 excludes every non-common tuple.
        let approx = approx_common_relation(users.iter(), ApproxConfig::new(100, 1.0));
        assert_eq!(
            approx.pairs().collect::<std::collections::HashSet<_>>(),
            common.pairs().collect::<std::collections::HashSet<_>>()
        );
        // θ1 = 0 stops before any non-common tuple is added.
        let approx0 = approx_common_relation(users.iter(), ApproxConfig::new(0, 0.0));
        assert_eq!(approx0.len(), common.len());
    }

    #[test]
    fn loose_thresholds_grow_but_stay_partial_order() {
        let users = figure1_users();
        let approx = approx_common_relation(users.iter(), ApproxConfig::new(usize::MAX, 0.0));
        assert!(approx.len() >= common_of(&users).len());
        approx.validate().unwrap();
        // Asymmetry: (S,L) and (L,S) cannot both be present.
        assert!(!(approx.prefers(v(3), v(1)) && approx.prefers(v(1), v(3))));
    }

    #[test]
    fn empty_member_list_yields_empty_relation() {
        let approx = approx_common_relation(std::iter::empty(), ApproxConfig::default());
        assert!(approx.is_empty());
    }

    #[test]
    fn single_member_cluster_reproduces_its_relation() {
        let user = rel(&[(0, 1), (1, 2)]);
        let approx = approx_common_relation([&user], ApproxConfig::default());
        assert_eq!(
            approx.pairs().collect::<std::collections::HashSet<_>>(),
            user.pairs().collect::<std::collections::HashSet<_>>()
        );
    }

    #[test]
    fn approx_common_preference_covers_all_attributes() {
        let p1 = Preference::from_relations(vec![rel(&[(0, 1)]), rel(&[(2, 3)])]);
        let p2 = Preference::from_relations(vec![rel(&[(0, 1)]), rel(&[(3, 2)])]);
        let approx = approx_common_preference([&p1, &p2], ApproxConfig::new(10, 0.4));
        assert_eq!(approx.arity(), 2);
        assert!(approx.relation(AttrId::new(0)).prefers(v(0), v(1)));
        // On attribute 1 the two users conflict; whichever tuple is added
        // first wins, the other is rejected, so exactly one survives.
        assert_eq!(approx.relation(AttrId::new(1)).len(), 1);
    }

    #[test]
    fn default_config_is_majority_vote() {
        let cfg = ApproxConfig::default();
        assert_eq!(cfg.theta1, 256);
        assert_eq!(cfg.theta2, 0.5);
    }
}
