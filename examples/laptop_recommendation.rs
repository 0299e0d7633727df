//! The paper's running example (Tables 1 and 2): an inventory of laptops,
//! two customers with partially ordered preferences, and the
//! FilterThenVerify monitor sharing computation through their common
//! preference relation (the virtual user `U` of Example 4.8).
//!
//! Run with `cargo run -p pm-examples --bin laptop_recommendation`.

use pm_core::{Filter, Lifetime, Monitor};
use pm_model::{AttrId, Object, ObjectId, UserId, ValueId};
use pm_porder::Preference;

// Attribute encodings (see Tables 1 & 2 of the paper):
// display: 9.9-under=0, 10-12.9=1, 13-15.9=2, 16-18.9=3, 19-up=4
// brand:   Apple=0, Lenovo=1, Samsung=2, Sony=3, Toshiba=4
// cpu:     single=0, dual=1, triple=2, quad=3
fn v(i: u32) -> ValueId {
    ValueId::new(i)
}

fn a(i: u32) -> AttrId {
    AttrId::new(i)
}

fn customer_c1() -> Preference {
    let mut p = Preference::new(3);
    p.prefer(a(0), v(2), v(1))
        .prefer(a(0), v(1), v(3))
        .prefer(a(0), v(1), v(4))
        .prefer(a(0), v(1), v(0))
        .prefer(a(1), v(0), v(1))
        .prefer(a(1), v(1), v(4))
        .prefer(a(1), v(1), v(2))
        .prefer(a(1), v(0), v(3))
        .prefer(a(2), v(1), v(2))
        .prefer(a(2), v(1), v(3))
        .prefer(a(2), v(2), v(0))
        .prefer(a(2), v(3), v(0));
    p
}

fn customer_c2() -> Preference {
    let mut p = Preference::new(3);
    p.prefer(a(0), v(2), v(1))
        .prefer(a(0), v(2), v(3))
        .prefer(a(0), v(3), v(4))
        .prefer(a(0), v(4), v(0))
        .prefer(a(0), v(1), v(0))
        .prefer(a(1), v(0), v(4))
        .prefer(a(1), v(1), v(4))
        .prefer(a(1), v(4), v(3))
        .prefer(a(1), v(1), v(2))
        .prefer(a(2), v(3), v(2))
        .prefer(a(2), v(2), v(1))
        .prefer(a(2), v(1), v(0));
    p
}

fn inventory() -> Vec<Object> {
    let obj = |id: u64, vals: [u32; 3]| {
        Object::new(ObjectId::new(id), vals.iter().map(|&x| v(x)).collect())
    };
    vec![
        obj(1, [1, 0, 0]),  // 12",   Apple,   single
        obj(2, [2, 0, 1]),  // 14",   Apple,   dual
        obj(3, [2, 2, 1]),  // 15",   Samsung, dual
        obj(4, [4, 4, 1]),  // 19",   Toshiba, dual
        obj(5, [0, 2, 3]),  // 9",    Samsung, quad
        obj(6, [1, 3, 0]),  // 11.5", Sony,    single
        obj(7, [0, 1, 3]),  // 9.5",  Lenovo,  quad
        obj(8, [1, 0, 1]),  // 12.5", Apple,   dual
        obj(9, [4, 3, 0]),  // 19.5", Sony,    single
        obj(10, [0, 1, 2]), // 9.5",  Lenovo,  triple
        obj(11, [0, 4, 2]), // 9",    Toshiba, triple
        obj(12, [0, 2, 2]), // 8.5",  Samsung, triple
        obj(13, [2, 3, 1]), // 14.5", Sony,    dual
        obj(14, [3, 3, 0]), // 17",   Sony,    single
        obj(15, [3, 1, 3]), // 16.5", Lenovo,  quad   (Example 1.1's new arrival)
        obj(16, [3, 4, 0]), // 16",   Toshiba, single (filtered for everyone)
    ]
}

fn main() {
    let users = vec![customer_c1(), customer_c2()];
    // One cluster containing both customers; its virtual user carries their
    // common preference relation (Def. 4.1).
    let clusters = vec![(
        vec![UserId::new(0), UserId::new(1)],
        Preference::common_of(users.iter()),
    )];
    let mut monitor = Monitor::new(
        &users,
        Lifetime::UNLIMITED,
        Some(Filter::virtual_users(clusters)),
    );

    for object in inventory() {
        let arrival = monitor.process(object);
        let names: Vec<String> = arrival
            .target_users
            .iter()
            .map(|u| format!("c{}", u.raw() + 1))
            .collect();
        println!(
            "o{:<2} is Pareto-optimal for {:?}",
            arrival.object.raw(),
            names
        );
    }

    println!();
    println!("cluster frontier P_U  = {:?}", monitor.cluster_frontier(0));
    println!(
        "c1 frontier P_c1      = {:?}",
        monitor.frontier(UserId::new(0))
    );
    println!(
        "c2 frontier P_c2      = {:?}",
        monitor.frontier(UserId::new(1))
    );
    println!("comparisons performed = {}", monitor.stats().comparisons);
}
