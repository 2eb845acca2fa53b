//! RDF triple stores: the single-ternary-relation databases of "RDF WDPTs".

pub use wdpt_model::parse::TRIPLE_PRED;
use wdpt_model::{Const, Database, Interner, Pred};

/// An RDF dataset: a thin wrapper over [`Database`] holding the single
/// ternary relation `triple(subject, predicate, object)`. The paper notes
/// that all its results hold already over this restricted schema.
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    db: Database,
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        TripleStore::default()
    }

    /// The interned triple predicate.
    pub fn pred(interner: &mut Interner) -> Pred {
        interner.pred(TRIPLE_PRED)
    }

    /// Inserts a triple of already-interned constants.
    pub fn insert(&mut self, interner: &mut Interner, s: Const, p: Const, o: Const) -> bool {
        let pred = Self::pred(interner);
        self.db.insert(pred, vec![s, p, o])
    }

    /// Inserts a triple given as strings (interning as needed).
    pub fn insert_str(&mut self, interner: &mut Interner, s: &str, p: &str, o: &str) -> bool {
        let (s, p, o) = (
            interner.constant(s),
            interner.constant(p),
            interner.constant(o),
        );
        self.insert(interner, s, p, o)
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.db.size()
    }

    /// True iff the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.db.size() == 0
    }

    /// The underlying relational database (for the WDPT engines).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Consumes the store, returning the database.
    pub fn into_database(self) -> Database {
        self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_count() {
        let mut i = Interner::new();
        let mut ts = TripleStore::new();
        assert!(ts.is_empty());
        assert!(ts.insert_str(&mut i, "Swim", "recorded_by", "Caribou"));
        assert!(!ts.insert_str(&mut i, "Swim", "recorded_by", "Caribou"));
        assert!(ts.insert_str(&mut i, "Swim", "published", "after_2010"));
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn database_exposes_single_ternary_relation() {
        let mut i = Interner::new();
        let mut ts = TripleStore::new();
        ts.insert_str(&mut i, "a", "b", "c");
        let db = ts.database();
        assert_eq!(db.predicate_count(), 1);
        let p = i.pred(TRIPLE_PRED);
        assert_eq!(db.relation(p).unwrap().arity(), 3);
    }
}
