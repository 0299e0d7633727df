//! The paper's running examples, shared by this crate's unit tests.
//!
//! Encoding of the laptop domain (Tables 1, 2 and 8):
//!
//! display: 9.9-under=0, 10-12.9=1, 13-15.9=2, 16-18.9=3, 19-up=4
//! brand:   Apple=0, Lenovo=1, Samsung=2, Sony=3, Toshiba=4
//! cpu:     single=0, dual=1, triple=2, quad=3

use pm_model::{AttrId, Object, ObjectId, UserId, ValueId};
use pm_porder::Preference;

pub(crate) fn obj(id: u64, vals: &[u32]) -> Object {
    Object::new(
        ObjectId::new(id),
        vals.iter().map(|&x| ValueId::new(x)).collect(),
    )
}

/// A preference over `arity` attributes from `(attribute, better, worse)`
/// tuples.
pub(crate) fn preference(arity: usize, tuples: &[(u32, u32, u32)]) -> Preference {
    let mut preference = Preference::new(arity);
    for &(attr, better, worse) in tuples {
        preference.prefer(AttrId::new(attr), ValueId::new(better), ValueId::new(worse));
    }
    preference
}

/// Users c1 and c2 of Table 2.
pub(crate) fn laptop_users() -> Vec<Preference> {
    let c1 = preference(
        3,
        &[
            (0, 2, 1),
            (0, 1, 3),
            (0, 1, 4),
            (0, 1, 0),
            (1, 0, 1),
            (1, 1, 4),
            (1, 1, 2),
            (1, 0, 3),
            (2, 1, 2),
            (2, 1, 3),
            (2, 2, 0),
            (2, 3, 0),
        ],
    );
    let c2 = preference(
        3,
        &[
            // display: 13-15.9 ≻ {10-12.9, 16-18.9}, 16-18.9 ≻ 19-up ≻
            //          9.9-under, 10-12.9 ≻ 9.9-under
            (0, 2, 1),
            (0, 2, 3),
            (0, 3, 4),
            (0, 4, 0),
            (0, 1, 0),
            // brand: Apple ≻ Toshiba, Lenovo ≻ Toshiba, Toshiba ≻ Sony,
            //        Lenovo ≻ Samsung
            (1, 0, 4),
            (1, 1, 4),
            (1, 4, 3),
            (1, 1, 2),
            // cpu: quad ≻ triple ≻ dual ≻ single
            (2, 3, 2),
            (2, 2, 1),
            (2, 1, 0),
        ],
    );
    vec![c1, c2]
}

/// Objects o1–o14 of Table 1.
pub(crate) fn laptop_objects() -> Vec<Object> {
    vec![
        obj(1, &[1, 0, 0]),  // o1: 12, Apple, single
        obj(2, &[2, 0, 1]),  // o2: 14, Apple, dual
        obj(3, &[2, 2, 1]),  // o3: 15, Samsung, dual
        obj(4, &[4, 4, 1]),  // o4: 19, Toshiba, dual
        obj(5, &[0, 2, 3]),  // o5: 9, Samsung, quad
        obj(6, &[1, 3, 0]),  // o6: 11.5, Sony, single
        obj(7, &[0, 1, 3]),  // o7: 9.5, Lenovo, quad
        obj(8, &[1, 0, 1]),  // o8: 12.5, Apple, dual
        obj(9, &[4, 3, 0]),  // o9: 19.5, Sony, single
        obj(10, &[0, 1, 2]), // o10: 9.5, Lenovo, triple
        obj(11, &[0, 4, 2]), // o11: 9, Toshiba, triple
        obj(12, &[0, 2, 2]), // o12: 8.5, Samsung, triple
        obj(13, &[2, 3, 1]), // o13: 14.5, Sony, dual
        obj(14, &[3, 3, 0]), // o14: 17, Sony, single
    ]
}

/// o15 (16.5, Lenovo, quad) of Example 1.1: Pareto-optimal for c2 only.
pub(crate) fn o15() -> Object {
    obj(15, &[3, 1, 3])
}

/// o16 (16, Toshiba, single): Pareto-optimal for nobody.
pub(crate) fn o16() -> Object {
    obj(16, &[3, 4, 0])
}

/// The Table 8 product stream of Example 7.7.
pub(crate) fn table8_objects() -> Vec<Object> {
    vec![
        obj(1, &[3, 1, 1]), // o1: 17, Lenovo, dual
        obj(2, &[0, 3, 0]), // o2: 9.5, Sony, single
        obj(3, &[1, 0, 1]), // o3: 12, Apple, dual
        obj(4, &[3, 1, 3]), // o4: 16, Lenovo, quad
        obj(5, &[4, 4, 0]), // o5: 19, Toshiba, single
        obj(6, &[1, 2, 3]), // o6: 12.5, Samsung, quad
        obj(7, &[2, 0, 1]), // o7: 14, Apple, dual
    ]
}

/// All users in one cluster carrying their exact common relation.
pub(crate) fn one_cluster(users: &[Preference]) -> Vec<(Vec<UserId>, Preference)> {
    vec![(
        (0..users.len()).map(UserId::from).collect(),
        Preference::common_of(users.iter()),
    )]
}

/// Every user in a cluster of its own.
pub(crate) fn singletons(users: &[Preference]) -> Vec<(Vec<UserId>, Preference)> {
    let own_cluster = |(i, p): (usize, &Preference)| (vec![UserId::from(i)], p.clone());
    users.iter().enumerate().map(own_cluster).collect()
}
