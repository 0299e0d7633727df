//! Objects: one categorical value per schema attribute.

use std::fmt;
use std::sync::Arc;

use crate::ids::{AttrId, ObjectId, ValueId};
use crate::schema::Schema;

/// An object `o ∈ O`: an identifier (doubling as arrival timestamp) plus one
/// interned value per attribute of the schema, in attribute order.
///
/// The values are one shared immutable row: cloning an object (into a
/// window, a history, every frontier it is on) bumps a reference count
/// instead of copying the row, so a process holds one row per alive object
/// however many users it is Pareto-optimal for.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Object {
    id: ObjectId,
    values: Arc<[ValueId]>,
}

impl Object {
    /// Creates an object from its id and per-attribute values.
    pub fn new(id: ObjectId, values: Vec<ValueId>) -> Self {
        Self {
            id,
            values: values.into(),
        }
    }

    /// Builds an object by resolving value labels against a schema.
    ///
    /// Returns `None` if the number of labels does not match the schema arity
    /// or if any label is not interned in the corresponding domain.
    pub fn from_labels(id: ObjectId, schema: &Schema, labels: &[&str]) -> Option<Self> {
        if labels.len() != schema.arity() {
            return None;
        }
        let mut values = Vec::with_capacity(labels.len());
        for (attr_id, label) in schema.attr_ids().zip(labels) {
            values.push(schema.attribute(attr_id).domain.id_of(label)?);
        }
        Some(Self::new(id, values))
    }

    /// The object identifier / arrival timestamp.
    #[inline]
    pub fn id(&self) -> ObjectId {
        self.id
    }

    /// The value of attribute `attr` (`o.d` in the paper).
    ///
    /// # Panics
    /// Panics if `attr` is out of range for this object.
    #[inline]
    pub fn value(&self, attr: AttrId) -> ValueId {
        self.values[attr.index()]
    }

    /// All values in attribute order.
    #[inline]
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// Number of attributes this object carries.
    #[inline]
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Whether two objects are identical on every attribute (`o = o'` in
    /// Def. 3.2), considering only the first `arity` attributes.
    #[inline]
    pub fn identical_on(&self, other: &Object, arity: usize) -> bool {
        self.values[..arity] == other.values[..arity]
    }

    /// Whether two objects are identical on every attribute.
    #[inline]
    pub fn identical(&self, other: &Object) -> bool {
        self.values == other.values
    }

    /// Returns a copy of this object restricted to its first `k` attributes.
    pub fn project(&self, k: usize) -> Object {
        Object::new(self.id, self.values[..k.min(self.values.len())].to_vec())
    }

    /// Returns a copy of this object with a different identifier, sharing
    /// this object's value row.
    ///
    /// Used when replaying a dataset as a stream (the paper repeats the
    /// object sequence to form its 1M-object streams).
    pub fn with_id(&self, id: ObjectId) -> Object {
        Object {
            id,
            values: Arc::clone(&self.values),
        }
    }
}

impl fmt::Display for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let vals: Vec<String> = self.values.iter().map(|v| v.to_string()).collect();
        write!(f, "{}⟨{}⟩", self.id, vals.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Domain};

    fn laptop_schema() -> Schema {
        Schema::from_attributes([
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
        ])
    }

    #[test]
    fn from_labels_resolves_values() {
        let schema = laptop_schema();
        let o = Object::from_labels(ObjectId::new(2), &schema, &["13-15.9", "Apple", "dual"])
            .expect("valid labels");
        assert_eq!(o.id(), ObjectId::new(2));
        assert_eq!(o.arity(), 3);
        let brand = schema.attr_id("brand").unwrap();
        assert_eq!(
            schema.attribute(brand).domain.label_of(o.value(brand)),
            Some("Apple")
        );
    }

    #[test]
    fn from_labels_rejects_unknown_label() {
        let schema = laptop_schema();
        assert!(
            Object::from_labels(ObjectId::new(0), &schema, &["13-15.9", "Dell", "dual"]).is_none()
        );
    }

    #[test]
    fn from_labels_rejects_wrong_arity() {
        let schema = laptop_schema();
        assert!(Object::from_labels(ObjectId::new(0), &schema, &["13-15.9", "Apple"]).is_none());
    }

    #[test]
    fn identical_compares_all_values() {
        let a = Object::new(ObjectId::new(1), vec![ValueId::new(0), ValueId::new(1)]);
        let b = Object::new(ObjectId::new(2), vec![ValueId::new(0), ValueId::new(1)]);
        let c = Object::new(ObjectId::new(3), vec![ValueId::new(0), ValueId::new(2)]);
        assert!(a.identical(&b));
        assert!(!a.identical(&c));
        assert!(a.identical_on(&c, 1));
    }

    #[test]
    fn projection_truncates_values() {
        let o = Object::new(
            ObjectId::new(5),
            vec![ValueId::new(3), ValueId::new(1), ValueId::new(2)],
        );
        let p = o.project(2);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.id(), ObjectId::new(5));
        assert_eq!(p.values(), &[ValueId::new(3), ValueId::new(1)]);
    }

    #[test]
    fn with_id_reuses_values() {
        let o = Object::new(ObjectId::new(5), vec![ValueId::new(3)]);
        let o2 = o.with_id(ObjectId::new(9));
        assert_eq!(o2.id(), ObjectId::new(9));
        assert_eq!(o2.values(), o.values());
    }

    #[test]
    fn display_shows_id_and_values() {
        let o = Object::new(ObjectId::new(1), vec![ValueId::new(0), ValueId::new(2)]);
        assert_eq!(o.to_string(), "o1⟨v0, v2⟩");
    }
}
