//! A derived statistics catalog equals a build of the merged database,
//! field for field: LCG-random bases and chains of one to three deltas,
//! applied as a reload applies them (`wdpt_store::ChainSymbols::for_base`,
//! then `wdpt_store::apply_chain`), over ids dense and sparse so that both
//! ways of counting a column run, and into three kinds of target: the
//! base's own dictionary, one whose ids translate the base's, and an empty
//! one that adopts it. The chain's result, by name, is `decode_chain`'s.

mod common;

use common::Lcg;
use wdpt_model::{Database, Interner, PostingCounts, Resolve};
use wdpt_plan::{CountedCatalog, StatsCatalog, MCV_ENTRIES};
use wdpt_store::{
    apply_chain, content_hash, decode_chain, decode_snapshot, delta_to_vec, snapshot_to_vec_v2,
    ChainSymbols,
};

/// The relations a random database draws from, with their arities. `d`
/// appears only in deltas, `z` is nullary.
const BASE_RELATIONS: [(&str, usize); 4] = [("a", 1), ("b", 2), ("c", 3), ("z", 0)];
const DELTA_RELATIONS: [(&str, usize); 5] = [("a", 1), ("b", 2), ("c", 3), ("z", 0), ("d", 2)];

/// Constants interned ahead of each base value in the sparse case, so
/// that a column holding a few of the values spans four ids a row or more
/// and is counted by sorting instead of into an array.
const SPREAD: usize = 100;

/// The values a base draws from.
const BASE_DOMAIN: u64 = 40;

/// Inserts `rows` random tuples: values skewed toward low indices (the
/// smaller of two draws), out of a domain of `domain`, so lists are cut in
/// the middle of ties and a delta both raises listed values and brings new
/// ones.
fn insert_random(
    rng: &mut Lcg,
    i: &mut Interner,
    db: &mut Database,
    relations: &[(&str, usize)],
    rows: u64,
    domain: u64,
) {
    for _ in 0..rows {
        let (name, arity) = relations[rng.gen_range(relations.len() as u64) as usize];
        let pred = i.pred(name);
        let tuple = (0..arity)
            .map(|_| {
                let k = rng.gen_range(domain).min(rng.gen_range(domain));
                i.constant(&format!("v{k}"))
            })
            .collect();
        db.insert(pred, tuple);
    }
}

/// The interner a chain is applied to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Target {
    /// The base's own dictionary: every id is its own.
    Base,
    /// Foreign names, every other one followed by one of the base's, last
    /// first: the base's ids translate, and runs re-sort.
    Foreign,
    /// No symbol at all: the base's dictionary is adopted whole.
    Empty,
}

impl Target {
    fn interner(self, base: &Interner) -> Interner {
        match self {
            Target::Base => base.clone(),
            Target::Empty => Interner::new(),
            Target::Foreign => {
                let mut live = Interner::new();
                let names: Vec<_> = base.symbols().collect();
                for (k, &(space, name)) in names.iter().rev().enumerate() {
                    live.constant(&format!("foreign{k}"));
                    if k % 2 == 1 {
                        live.id(space, name);
                    }
                }
                live
            }
        }
    }
}

/// One random base and chain — sparse ids for odd seeds, each kind of
/// [`Target`] in turn — and the derived and the built catalog of the
/// chain's result.
fn derive_and_build(seed: u64) -> (StatsCatalog, StatsCatalog) {
    let mut rng = Lcg::new(seed);
    let sparse = seed % 2 == 1;
    let mut i = Interner::new();
    if sparse {
        for k in 0..BASE_DOMAIN {
            for f in 0..SPREAD {
                i.constant(&format!("filler{k}.{f}"));
            }
            i.constant(&format!("v{k}"));
        }
    }
    let mut db = Database::new();
    let base_rows = 20 + rng.gen_range(200);
    insert_random(
        &mut rng,
        &mut i,
        &mut db,
        &BASE_RELATIONS,
        base_rows,
        BASE_DOMAIN,
    );
    let base_bytes = snapshot_to_vec_v2(&i, &db).unwrap();

    let mut deltas = Vec::new();
    let mut prev = (content_hash(&base_bytes), i.clone(), db.clone());
    for _ in 0..1 + rng.gen_range(3) {
        let (hash, pi, pdb) = &prev;
        let (mut ni, mut ndb) = (pi.clone(), pdb.clone());
        let rows = 1 + rng.gen_range(40);
        insert_random(&mut rng, &mut ni, &mut ndb, &DELTA_RELATIONS, rows, 56);
        let bytes = delta_to_vec(*hash, pi, pdb, &ni, &ndb).unwrap();
        prev = (content_hash(&bytes), ni, ndb);
        deltas.push(bytes);
    }

    // The base as a reload decodes it, resolved against the target and
    // counted once in its ids; the chain applied in them, with a target
    // that, every third seed, grows between the apply and the commit, so
    // the commit remaps the chain's rows — and, where the base's names were
    // new to it, the base's.
    let (base_i, base_db) = decode_snapshot(&base_bytes).unwrap();
    // A column is counted into an array where its ids span fewer than four
    // a row, and sorted otherwise: each seed counts some base relation its
    // own way, into an array for dense ids, sorted for spread ones.
    let mut ways = [0, 0];
    for (_, rel) in base_db.relations().filter(|(_, rel)| rel.arity() > 0) {
        let counts = rel.posting_counts(0);
        let (mut least, mut most) = (u32::MAX, 0);
        counts.for_each(|c, _| (least, most) = (least.min(c.0), most.max(c.0)));
        let sorted = matches!(counts, PostingCounts::Sparse(_));
        assert_eq!(
            sorted,
            (most - least) as usize >= 4 * rel.len(),
            "seed {seed}"
        );
        ways[usize::from(sorted)] += 1;
    }
    assert!(ways[usize::from(sparse)] > 0, "seed {seed}: {ways:?}");
    let kind = [Target::Base, Target::Foreign, Target::Empty][(seed / 6 % 3) as usize];
    let at = format!("seed {seed}, {kind:?}");
    let mut live = kind.interner(&base_i);
    let (mut symbols, base) = ChainSymbols::for_base(|| &live, (base_i, base_db)).unwrap();
    let hash = content_hash(&base_bytes);
    let (merged, _) = apply_chain(|| &live, &mut symbols, hash, base, &deltas).unwrap();
    let grew = seed.is_multiple_of(3);
    if grew {
        live.constant("interned-meanwhile");
    }
    let committed = symbols.commit(&mut live, merged);
    let (_, base) = committed.base.expect("a base decoded in full");
    let counted = CountedCatalog::count(&base);
    let merged = committed.db;
    assert_eq!(merged.size(), prev.2.size(), "{at}");

    let ((chain_i, chain_db), _) = decode_chain(&base_bytes, &deltas).unwrap();
    assert_eq!(merged.display(&live), chain_db.display(&chain_i), "{at}");
    assert_eq!(
        committed.map.is_identity(),
        kind != Target::Foreign && !grew,
        "{at}"
    );
    if kind == Target::Empty && !grew {
        // Adopted: the file's dictionary in its own order, nothing added.
        assert!(live.symbols().eq(chain_i.symbols()), "{at}");
    }
    (
        counted.derive(&committed.added),
        StatsCatalog::build(&merged),
    )
}

#[test]
fn a_derived_catalog_equals_a_build_of_the_merged_database() {
    let mut cut = 0;
    for seed in 0..96u64 {
        let (derived, built) = derive_and_build(seed);
        derived
            .check()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        built.check().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(derived.len(), built.len(), "seed {seed}: relations");
        for (pred, rel) in built.relations() {
            let ours = derived.relation(pred).unwrap();
            assert_eq!(ours.rows, rel.rows, "seed {seed}: rows of {}", pred.0);
            for (col, (ours, theirs)) in ours.columns.iter().zip(&rel.columns).enumerate() {
                let at = format!("seed {seed}, predicate {}, column {col}", pred.0);
                assert_eq!(ours.distinct, theirs.distinct, "{at}: distinct");
                assert_eq!(ours.mcv, theirs.mcv, "{at}: list, in rank order");
                cut += usize::from(theirs.distinct > MCV_ENTRIES as u64);
            }
        }
    }
    // The generator reaches the case a derivation can get wrong.
    assert!(cut > 100, "{cut} cut lists");
}

#[test]
fn epochs_of_derived_catalogs_are_fresh() {
    let mut i = Interner::new();
    let mut db = Database::new();
    let mut rng = Lcg::new(7);
    insert_random(&mut rng, &mut i, &mut db, &BASE_RELATIONS, 30, 10);
    let counted = CountedCatalog::count(&db);
    let (a, b) = (
        counted.derive(&Database::new()),
        counted.derive(&Database::new()),
    );
    assert!(counted.catalog().epoch() < a.epoch() && a.epoch() < b.epoch());
    // Deriving from no rows changes nothing else.
    for (pred, rel) in counted.catalog().relations() {
        assert_eq!(a.relation(pred), Some(rel));
    }
}
