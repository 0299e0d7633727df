//! Quickstart: build a tiny product table, express two users' preferences as
//! strict partial orders, and monitor which users should be notified about
//! each arriving product.
//!
//! Run with `cargo run -p pm-examples --bin quickstart`.

use pm_core::{Lifetime, Monitor};
use pm_model::{Attribute, Domain, Object, ObjectId, Schema, UserId};
use pm_porder::Preference;

fn main() {
    // 1. Describe the objects: laptops with three categorical attributes.
    let schema = Schema::from_attributes([
        Attribute::with_domain(
            "display",
            Domain::from_labels(["9.9-under", "10-12.9", "13-15.9", "16-18.9", "19-up"]),
        ),
        Attribute::with_domain(
            "brand",
            Domain::from_labels(["Apple", "Lenovo", "Samsung", "Sony", "Toshiba"]),
        ),
        Attribute::with_domain(
            "cpu",
            Domain::from_labels(["single", "dual", "triple", "quad"]),
        ),
    ]);

    // 2. Express user preferences as strict partial orders, one per attribute.
    //    `prefer(attr, better, worse)` adds a preference tuple; transitive
    //    closure is maintained automatically.
    let display = schema.attr_id("display").unwrap();
    let brand = schema.attr_id("brand").unwrap();
    let cpu = schema.attr_id("cpu").unwrap();
    let val = |attr, label: &str| schema.attribute(attr).domain.id_of(label).unwrap();

    let mut alice = Preference::new(schema.arity());
    alice
        .prefer(display, val(display, "13-15.9"), val(display, "10-12.9"))
        .prefer(display, val(display, "10-12.9"), val(display, "19-up"))
        .prefer(brand, val(brand, "Apple"), val(brand, "Lenovo"))
        .prefer(brand, val(brand, "Lenovo"), val(brand, "Toshiba"))
        .prefer(cpu, val(cpu, "dual"), val(cpu, "single"));

    let mut bob = Preference::new(schema.arity());
    bob.prefer(display, val(display, "13-15.9"), val(display, "16-18.9"))
        .prefer(brand, val(brand, "Lenovo"), val(brand, "Samsung"))
        .prefer(cpu, val(cpu, "quad"), val(cpu, "dual"))
        .prefer(cpu, val(cpu, "dual"), val(cpu, "single"));

    // 3. Create a monitor and feed it arriving products.
    let mut monitor = Monitor::new(&[alice, bob], Lifetime::UNLIMITED, None);
    let products = [
        ("12-inch Apple single-core", ["10-12.9", "Apple", "single"]),
        ("14-inch Apple dual-core", ["13-15.9", "Apple", "dual"]),
        ("15-inch Samsung dual-core", ["13-15.9", "Samsung", "dual"]),
        ("16.5-inch Lenovo quad-core", ["16-18.9", "Lenovo", "quad"]),
    ];
    let names = ["alice", "bob"];
    for (idx, (label, values)) in products.iter().enumerate() {
        let object = Object::from_labels(ObjectId::from(idx), &schema, values).unwrap();
        let arrival = monitor.process(object);
        let targets: Vec<&str> = arrival
            .target_users
            .iter()
            .map(|u| names[u.index()])
            .collect();
        println!("{label:28} -> notify {targets:?}");
    }

    // 4. Inspect the maintained Pareto frontiers.
    for (idx, name) in names.iter().enumerate() {
        println!(
            "{name}'s Pareto frontier: {:?}",
            monitor.frontier(UserId::from(idx))
        );
    }
    println!("work done: {}", monitor.stats());
}
