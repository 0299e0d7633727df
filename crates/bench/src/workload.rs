//! The fixed dominance-workload access pattern of the `dominance` Criterion
//! bench: which object and value pairs each timed comparison draws.

use pm_model::{AttrId, Object, ValueId};

/// How many distinct preferences the dominance workload cycles through.
pub const WORKLOAD_PREFS: usize = 8;

/// Indices of the `i`-th (left, right) object pair of the comparison
/// stream over a pool of `num_objects` objects.
#[inline]
pub fn object_pair_indices(i: usize, num_objects: usize) -> (usize, usize) {
    (i % num_objects, (i * 7 + 3) % num_objects)
}

/// The `i`-th (x, y) value pair of the raw-`prefers` stream, drawn from the
/// objects' first attribute.
#[inline]
pub fn value_pair(objects: &[Object], i: usize) -> (ValueId, ValueId) {
    let attr = AttrId::new(0);
    (
        objects[i % objects.len()].value(attr),
        objects[(i * 5 + 1) % objects.len()].value(attr),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_model::ObjectId;

    #[test]
    fn pair_indices_stay_in_bounds_and_cycle() {
        for i in 0..1_000 {
            let (a, b) = object_pair_indices(i, 37);
            assert!(a < 37 && b < 37);
        }
        assert_ne!(object_pair_indices(0, 37), object_pair_indices(1, 37));
    }

    #[test]
    fn value_pairs_come_from_the_first_attribute() {
        let objects: Vec<Object> = (0..5)
            .map(|i| {
                Object::new(
                    ObjectId::new(i),
                    vec![ValueId::new(i as u32), ValueId::new(9)],
                )
            })
            .collect();
        for i in 0..20 {
            let (x, y) = value_pair(&objects, i);
            assert!(x.raw() < 5 && y.raw() < 5, "attr-0 values only");
        }
    }
}
