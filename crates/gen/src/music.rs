//! The paper's motivating scenario at scale: a music catalog with optional
//! data.
//!
//! Example 1 queries a database of bands and records where ratings and
//! formation years are only *sometimes* present — the archetypal
//! semistructured workload that CQs handle poorly and WDPTs handle well.
//! [`music_catalog`] generates such a catalog of arbitrary size with
//! controlled optional-field coverage; the benchmark harness sweeps its
//! size for the Table 1 experiments and the examples use it for realistic
//! demonstrations.

use crate::db::rng;
use wdpt_model::{Database, Interner};

/// Shape parameters for the generated catalog.
#[derive(Debug, Clone, Copy)]
pub struct MusicParams {
    /// Number of bands.
    pub bands: usize,
    /// Records per band.
    pub records_per_band: usize,
    /// Probability that a record has an `nme_rating` triple.
    pub rating_probability: f64,
    /// Probability that a band has a `formed_in` triple.
    pub formed_in_probability: f64,
    /// Fraction of records published after 2010.
    pub recent_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MusicParams {
    fn default() -> Self {
        MusicParams {
            bands: 50,
            records_per_band: 4,
            rating_probability: 0.5,
            formed_in_probability: 0.5,
            recent_fraction: 0.7,
            seed: 0xCAFE,
        }
    }
}

/// Generates the catalog as a relational database over the binary schema of
/// Example 8: `rec_by(record, band)`, `publ(record, era)`,
/// `nme_rating(record, rating)`, `formed_in(band, year)`.
pub fn music_catalog(interner: &mut Interner, params: MusicParams) -> Database {
    let mut r = rng(params.seed);
    let rec_by = interner.pred("rec_by");
    let publ = interner.pred("publ");
    let nme = interner.pred("nme_rating");
    let formed = interner.pred("formed_in");
    let after = interner.constant("after_2010");
    let before = interner.constant("before_2010");
    let mut db = Database::new();
    for b in 0..params.bands {
        let band = interner.constant(&format!("band{b}"));
        if r.gen_bool(params.formed_in_probability) {
            let year = interner.constant(&format!("{}", 1960 + r.gen_range(0..60)));
            db.insert(formed, vec![band, year]);
        }
        for t in 0..params.records_per_band {
            let record = interner.constant(&format!("record{b}_{t}"));
            db.insert(rec_by, vec![record, band]);
            let era = if r.gen_bool(params.recent_fraction) {
                after
            } else {
                before
            };
            db.insert(publ, vec![record, era]);
            if r.gen_bool(params.rating_probability) {
                let rating = interner.constant(&format!("{}", 1 + r.gen_range(0..10)));
                db.insert(nme, vec![record, rating]);
            }
        }
    }
    db
}

/// The same catalog rendered as an RDF triple store over the reserved
/// `triple(subject, predicate, object)` relation — the schema that
/// `wdpt-sparql` queries compile to, and what `wdpt gen-music` writes as
/// N-Triples. Predicate names of the binary schema become
/// predicate *constants* here: `rec_by(r, b)` ⇒ `triple(r, rec_by, b)`.
/// Same seed ⇒ the same catalog as [`music_catalog`], fact for fact.
pub fn music_triples(interner: &mut Interner, params: MusicParams) -> wdpt_sparql::TripleStore {
    let mut r = rng(params.seed);
    let mut ts = wdpt_sparql::TripleStore::new();
    for b in 0..params.bands {
        let band = format!("band{b}");
        if r.gen_bool(params.formed_in_probability) {
            let year = format!("{}", 1960 + r.gen_range(0..60));
            ts.insert_str(interner, &band, "formed_in", &year);
        }
        for t in 0..params.records_per_band {
            let record = format!("record{b}_{t}");
            ts.insert_str(interner, &record, "rec_by", &band);
            let era = if r.gen_bool(params.recent_fraction) {
                "after_2010"
            } else {
                "before_2010"
            };
            ts.insert_str(interner, &record, "publ", era);
            if r.gen_bool(params.rating_probability) {
                let rating = format!("{}", 1 + r.gen_range(0..10));
                ts.insert_str(interner, &record, "nme_rating", &rating);
            }
        }
    }
    ts
}

/// The Figure 1 WDPT over the binary music schema (Example 8 rendering),
/// with all four variables free.
pub fn figure1_wdpt(interner: &mut Interner) -> wdpt_core::Wdpt {
    use wdpt_model::Atom;
    let rec_by = interner.pred("rec_by");
    let publ = interner.pred("publ");
    let nme = interner.pred("nme_rating");
    let formed = interner.pred("formed_in");
    let after = interner.constant("after_2010");
    let (x, y, z, z2) = (
        interner.var("x"),
        interner.var("y"),
        interner.var("z"),
        interner.var("z2"),
    );
    let mut b = wdpt_core::WdptBuilder::new(vec![
        Atom::new(rec_by, vec![x.into(), y.into()]),
        Atom::new(publ, vec![x.into(), after.into()]),
    ]);
    b.child(0, vec![Atom::new(nme, vec![x.into(), z.into()])]);
    b.child(0, vec![Atom::new(formed, vec![y.into(), z2.into()])]);
    b.build(vec![x, y, z, z2])
        .expect("Figure 1 is well-designed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_core::{evaluate, Engine};

    #[test]
    fn catalog_size_matches_params() {
        let mut i = Interner::new();
        let db = music_catalog(
            &mut i,
            MusicParams {
                bands: 10,
                records_per_band: 3,
                rating_probability: 1.0,
                formed_in_probability: 1.0,
                recent_fraction: 1.0,
                seed: 1,
            },
        );
        // 10 formed_in + 30 rec_by + 30 publ + 30 ratings.
        assert_eq!(db.size(), 100);
    }

    #[test]
    fn figure1_query_over_catalog() {
        let mut i = Interner::new();
        let db = music_catalog(
            &mut i,
            MusicParams {
                bands: 8,
                records_per_band: 2,
                rating_probability: 0.5,
                formed_in_probability: 0.5,
                recent_fraction: 1.0,
                seed: 3,
            },
        );
        let p = figure1_wdpt(&mut i);
        let answers = evaluate(&p, &db);
        // Every record is recent, so one answer per record.
        assert_eq!(answers.len(), 16);
        // Answers where the optional parts matched have larger domains.
        assert!(answers.iter().any(|m| m.len() > 2));
        assert!(answers.iter().any(|m| m.len() == 4) || answers.iter().any(|m| m.len() >= 2));
        // Cross-check a few answers with the tractable decision procedure.
        for h in answers.iter().take(5) {
            assert!(wdpt_core::eval_bounded_interface(&p, &db, h, Engine::Tw(1)));
        }
    }

    #[test]
    fn triple_catalog_matches_binary_catalog() {
        let mut i = Interner::new();
        let params = MusicParams {
            bands: 8,
            records_per_band: 2,
            ..Default::default()
        };
        let db = music_catalog(&mut i, params);
        let ts = music_triples(&mut i, params);
        // Fact for fact: each binary fact corresponds to one triple.
        assert_eq!(db.size(), ts.len());
        // The Figure 1 query in SPARQL form over the triple store yields
        // exactly the relational WDPT's answers over the binary catalog.
        let p_rel = figure1_wdpt(&mut i);
        let rel_answers = evaluate(&p_rel, &db);
        let q = wdpt_sparql::parse_query(
            &mut i,
            r#"(((?x, rec_by, ?y) AND (?x, publ, "after_2010"))
                 OPT (?x, nme_rating, ?z)) OPT (?y, formed_in, ?z2)"#,
        )
        .unwrap();
        let sparql_answers = q.evaluate(&ts, &mut i).unwrap();
        assert_eq!(sparql_answers, rel_answers);
    }

    #[test]
    fn optional_fields_are_really_optional() {
        let mut i = Interner::new();
        let db = music_catalog(
            &mut i,
            MusicParams {
                bands: 20,
                records_per_band: 1,
                rating_probability: 0.0,
                formed_in_probability: 0.0,
                recent_fraction: 1.0,
                seed: 9,
            },
        );
        let p = figure1_wdpt(&mut i);
        let answers = evaluate(&p, &db);
        assert_eq!(answers.len(), 20);
        assert!(answers.iter().all(|m| m.len() == 2));
    }
}
