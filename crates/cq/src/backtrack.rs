//! Generic backtracking evaluation — the baseline engine for arbitrary CQs.
//!
//! This is the textbook index-nested-loop search: repeatedly pick the most
//! constrained unprocessed atom (most bound positions, then smallest
//! matching-tuple estimate), scan its matching tuples by probing the
//! relation's sorted run, extend the current partial mapping, and recurse. Its
//! worst case is exponential in the query size — exactly the `NP`-hardness
//! the paper's tractable classes are designed to avoid — but it serves as
//! (a) the general-purpose fallback and (b) the baseline the benchmark
//! harness compares the structured engines against.
//!
//! The search runs over a compiled form of the atoms, a [`Search`]: every
//! variable gets a dense *slot*, the partial mapping is a flat `[Const]`
//! frame indexed by slot, and each atom column is one of four steps — match
//! a constant, match a slot bound earlier, bind a slot, or repeat a slot
//! bound in the same atom. Binding overwrites the frame cell, so there is
//! nothing to undo on backtracking and nothing to allocate per probe. A
//! `Search` is reusable: the WDPT executor compiles one per tree node and
//! runs it once per interface valuation. Each run is a probe per step
//! ([`Relation::probe`]), and a probe whose bound columns lead the
//! relation reads its leading cell's block off the run's directory in O(1)
//! and searches only that block, so a node costs its keys times a constant,
//! in whatever order the keys come. The step checks the probe's rows
//! against its other columns itself and counts them as scanned; the
//! dynamic order ranks a step by the length of a one-column probe per
//! pinned column.
//!
//! Every homomorphism question of the toolkit is that one search: the
//! executor's nodes, the structured oracle's bags, and containment and
//! cores over a frozen canonical database each compile a `Search`, seed its
//! slots and read its frames; a cost-based plan replaces the ordering
//! heuristic by a static permutation through [`Search::compile`]'s `order`.
//! [`extend_all`] is the one function that turns frames into [`Mapping`]s —
//! the specification the tests check the procedures against.

use wdpt_model::{
    Atom, CancelToken, Cancelled, Const, Database, Mapping, ProbeTally, Relation, Term, Var,
};

/// What matching an atom does with one of its columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Col {
    /// The cell must equal this constant.
    Const(Const),
    /// The cell must equal the slot, bound before the atom was reached —
    /// like a constant, its value can be looked up in the column's index.
    Bound(u32),
    /// First occurrence of a slot nothing has bound yet: the cell becomes
    /// its value.
    Bind(u32),
    /// Later occurrence, in the same atom, of the slot a `Bind` to its left
    /// wrote: the cell must equal it.
    Eq(u32),
}

impl Col {
    fn slot(self) -> Option<usize> {
        match self {
            Col::Const(_) => None,
            Col::Bound(s) | Col::Bind(s) | Col::Eq(s) => Some(s as usize),
        }
    }
}

/// One atom of a compiled search: its relation (if the database has one of
/// the atom's arity) and where its columns sit in [`Search::cols`].
#[derive(Debug, Clone, Copy)]
struct Step<'a> {
    rel: Option<&'a Relation>,
    start: usize,
    arity: usize,
}

/// How a search proceeds after a homomorphism, or why it unwinds.
enum Found {
    Continue,
    Stop,
    /// The cancel token fired: unwind immediately, discarding progress.
    Cancelled,
}

/// True iff `order` is a permutation of `0..n` — the precondition for
/// executing it as a static atom order.
fn valid_order(order: &[usize], n: usize) -> bool {
    if order.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    order
        .iter()
        .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
}

/// A set of atoms compiled against a database, ready to be searched for
/// homomorphisms any number of times under different seed values.
///
/// The variables of the atoms are numbered `0..n` in ascending [`Var`]
/// order ([`Search::vars`]); a homomorphism is handed to the caller as the
/// frame `&[Const]` of their values, indexed by slot. Slots declared
/// *seeded* at compile time are inputs: the caller writes them with
/// [`Search::set`] before each [`Search::for_each`] or [`Search::exists`],
/// and the search treats them as bound from the start. No run depends on
/// the one before: a step's prefix probe ([`Relation::candidates`]) reads
/// its leading cell's block off the relation's directory, so seeds may
/// come in any order at the same cost.
///
/// The counts of a search — nodes expanded, index probes and builds,
/// tuples scanned, posting lengths — are kept in the `Search`'s tally, where
/// its owner reads them ([`Search::tally`]) and, being the entry point or
/// working for one, adds them to the entry point's tally; the entry point
/// records the sum ([`wdpt_model::stats::record`]).
#[derive(Debug)]
pub struct Search<'a> {
    vars: Vec<Var>,
    /// In execution order under a static order, in input order otherwise.
    steps: Vec<Step<'a>>,
    /// The columns of every step, flat. Under a static order they are
    /// classified once, here; under the dynamic order a step's variable
    /// columns are re-classified each time the step is chosen, because what
    /// is bound by then depends on the path taken.
    cols: Vec<Col>,
    dynamic: bool,
    frame: Vec<Const>,
    /// Per slot: bound on the current path (seeded slots always are). Only
    /// compile time and the dynamic order read it.
    bound: Vec<bool>,
    /// Per step, dynamic order only: on the current path.
    done: Vec<bool>,
    /// Scratch for the membership test of a fully bound atom's estimate.
    tuple: Vec<Const>,
    /// Amortizes the token's deadline checks over all runs of this search.
    poll_steps: u32,
    tally: ProbeTally,
}

impl<'a> Search<'a> {
    /// Compiles `atoms` against `db`. `order = Some(perm)` processes
    /// `atoms[perm[0]], atoms[perm[1]], …` verbatim — the hook the
    /// cost-based planner drives — and `None` re-selects the most
    /// constrained atom at every step. Anything but a permutation of
    /// `0..atoms.len()` (a plan built for a different query shape) degrades
    /// to the dynamic default: a stale plan must never change answers.
    /// `seeded` says which of the atoms' variables the caller will supply.
    pub fn compile(
        db: &'a Database,
        atoms: &[Atom],
        order: Option<&[usize]>,
        seeded: impl Fn(Var) -> bool,
    ) -> Search<'a> {
        let mut vars: Vec<Var> = atoms.iter().flat_map(Atom::vars).collect();
        vars.sort_unstable();
        vars.dedup();
        let order = order.filter(|o| valid_order(o, atoms.len()));
        let mut steps = Vec::with_capacity(atoms.len());
        let mut cols = Vec::with_capacity(atoms.iter().map(Atom::arity).sum());
        for i in 0..atoms.len() {
            let atom = &atoms[order.map_or(i, |perm| perm[i])];
            steps.push(Step {
                // An atom can only match tuples of its own arity.
                rel: db
                    .relation(atom.pred)
                    .filter(|rel| rel.arity() == atom.arity()),
                start: cols.len(),
                arity: atom.arity(),
            });
            cols.extend(atom.args.iter().map(|t| match t {
                Term::Const(c) => Col::Const(*c),
                Term::Var(v) => {
                    let slot = vars.binary_search(v).expect("collected above");
                    Col::Bind(slot as u32)
                }
            }));
        }
        let mut search = Search {
            bound: vars.iter().map(|&v| seeded(v)).collect(),
            // Unseeded cells are written before they are read.
            frame: vec![Const(0); vars.len()],
            done: vec![false; steps.len()],
            dynamic: order.is_none(),
            vars,
            steps,
            cols,
            tuple: Vec::new(),
            poll_steps: 0,
            tally: ProbeTally::default(),
        };
        if !search.dynamic {
            // The order is known, so what each atom finds bound is too.
            for i in 0..search.steps.len() {
                search.classify(i);
                search.mark(i, true);
            }
        }
        search
    }

    /// The variables of the atoms, ascending: slot `k` holds `vars()[k]`.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Supplies the value of a seeded slot for the searches that follow.
    pub fn set(&mut self, slot: usize, value: Const) {
        self.frame[slot] = value;
    }

    /// The work of every run of this search so far.
    pub fn tally(&self) -> &ProbeTally {
        &self.tally
    }

    /// [`Search::tally`], for adding to an entry point's.
    pub fn into_tally(self) -> ProbeTally {
        self.tally
    }

    /// Hands `on_hom` the frame of every homomorphism: every total
    /// assignment of the atoms' variables that agrees with the seeded slots
    /// and puts every atom in the database. `Err(Cancelled)` if `token`
    /// fires first.
    pub fn for_each(
        &mut self,
        token: &CancelToken,
        mut on_hom: impl FnMut(&[Const]),
    ) -> Result<(), Cancelled> {
        let mut keep_going = |frame: &[Const]| {
            on_hom(frame);
            true
        };
        match self.search(0, token, &mut keep_going) {
            Found::Cancelled => Err(Cancelled),
            Found::Continue | Found::Stop => Ok(()),
        }
    }

    /// True iff there is a homomorphism; stops at the first.
    pub fn exists(&mut self, token: &CancelToken) -> Result<bool, Cancelled> {
        match self.search(0, token, &mut |_| false) {
            Found::Cancelled => Err(Cancelled),
            Found::Stop => Ok(true),
            Found::Continue => Ok(false),
        }
    }

    /// Decides, for each variable column of step `i`, whether it matches a
    /// slot bound before the step, binds its slot, or repeats a slot the
    /// step itself binds — from `bound` as it stands when the step starts.
    fn classify(&mut self, i: usize) {
        let Step { start, arity, .. } = self.steps[i];
        for k in start..start + arity {
            let Some(slot) = self.cols[k].slot() else {
                continue;
            };
            let s = slot as u32;
            self.cols[k] = if self.bound[slot] {
                Col::Bound(s)
            } else if self.cols[start..k].contains(&Col::Bind(s)) {
                Col::Eq(s)
            } else {
                Col::Bind(s)
            };
        }
    }

    /// Sets `bound` for the slots step `i` binds.
    fn mark(&mut self, i: usize, bound: bool) {
        let Step { start, arity, .. } = self.steps[i];
        for k in start..start + arity {
            if let Col::Bind(s) = self.cols[k] {
                self.bound[s as usize] = bound;
            }
        }
    }

    /// The value step columns `k` is pinned to before its step runs, if
    /// any: its constant, or its slot when that is bound on this path.
    fn pinned(&self, k: usize) -> Option<Const> {
        match self.cols[k] {
            Col::Const(c) => Some(c),
            col => col.slot().filter(|&s| self.bound[s]).map(|s| self.frame[s]),
        }
    }

    /// The dynamic order's ranking of step `i`: how many of its columns are
    /// pinned, and an estimate of its matching tuples — exact (0/1) when
    /// every column is pinned, the shortest posting list among the pinned
    /// columns otherwise, the relation size when none is. Never an
    /// underestimate except for repeated variables, where the true count
    /// can only be smaller.
    fn rank(&mut self, i: usize) -> (usize, usize) {
        let Step { rel, start, arity } = self.steps[i];
        let mut pinned = 0;
        let mut shortest: Option<usize> = None;
        for k in start..start + arity {
            let Some(c) = self.pinned(k) else { continue };
            pinned += 1;
            if let Some(rel) = rel {
                let len = rel.probe([(k - start, c)], &mut self.tally).len();
                shortest = Some(shortest.map_or(len, |s| s.min(len)));
            }
        }
        let estimate = match (rel, shortest) {
            (None, _) | (_, Some(0)) => 0,
            (Some(rel), None) => rel.len(),
            (Some(rel), Some(_)) if pinned == arity => {
                self.tuple.clear();
                for k in start..start + arity {
                    let c = self.pinned(k).expect("every column is pinned");
                    self.tuple.push(c);
                }
                usize::from(rel.contains(&self.tuple))
            }
            (Some(_), Some(len)) => len,
        };
        (pinned, estimate)
    }

    /// `on_hom` returns whether to keep searching.
    fn search<F: FnMut(&[Const]) -> bool>(
        &mut self,
        depth: usize,
        token: &CancelToken,
        on_hom: &mut F,
    ) -> Found {
        // One relaxed load per call, the clock only every ~1k steps.
        if token.should_stop(&mut self.poll_steps) {
            return Found::Cancelled;
        }
        // Pick the next unprocessed atom: the given sequence under a planned
        // static order; most constrained first by default — many pinned
        // columns, ties broken toward few matches, then toward the later
        // atom.
        let next = if self.dynamic {
            let mut best: Option<(usize, (usize, usize))> = None;
            for i in 0..self.steps.len() {
                if self.done[i] {
                    continue;
                }
                let (pinned, estimate) = self.rank(i);
                let key = (pinned, usize::MAX - estimate);
                if best.is_none_or(|(_, b)| key >= b) {
                    best = Some((i, key));
                }
            }
            best.map(|(i, _)| i)
        } else {
            (depth < self.steps.len()).then_some(depth)
        };
        let Some(i) = next else {
            return if on_hom(&self.frame) {
                Found::Continue
            } else {
                Found::Stop
            };
        };
        self.tally.nodes_expanded += 1;
        let Step { rel, start, arity } = self.steps[i];
        let Some(rel) = rel else {
            return Found::Continue; // no such relation: no match, backtrack
        };
        if self.dynamic {
            self.classify(i);
            self.mark(i, true);
            self.done[i] = true;
        }
        let candidates = {
            let frame = &self.frame;
            let pinned = self.cols[start..start + arity]
                .iter()
                .enumerate()
                .filter_map(|(col, kind)| match *kind {
                    Col::Const(c) => Some((col, c)),
                    Col::Bound(s) => Some((col, frame[s as usize])),
                    Col::Bind(_) | Col::Eq(_) => None,
                });
            rel.probe(pinned, &mut self.tally)
        };
        let mut scanned = 0u64;
        let mut found = Found::Continue;
        'tuples: for tuple in candidates {
            scanned += 1;
            for (col, &cell) in tuple.iter().enumerate() {
                match self.cols[start + col] {
                    Col::Const(c) if cell != c => continue 'tuples,
                    Col::Bound(s) | Col::Eq(s) if cell != self.frame[s as usize] => {
                        continue 'tuples
                    }
                    Col::Bind(s) => self.frame[s as usize] = cell,
                    _ => {}
                }
            }
            match self.search(depth + 1, token, on_hom) {
                Found::Continue => {}
                stop => {
                    found = stop;
                    break;
                }
            }
        }
        self.tally.tuples_scanned += scanned;
        if self.dynamic {
            self.done[i] = false;
            self.mark(i, false);
        }
        found
    }
}

/// All homomorphisms from the atom set into `db` that extend `seed`,
/// i.e. total assignments of the atoms' variables consistent with `seed`
/// under which every atom is in `db`. The returned mappings include the
/// seed bindings for variables that occur in the atoms, and no others.
///
/// The executable specification: the one function that hands back
/// homomorphisms as [`Mapping`]s, for the tests' reference checks and
/// `semantics::all_homomorphisms`. Every procedure of the toolkit compiles
/// a [`Search`] and reads its frames instead. Records the search's work.
pub fn extend_all(db: &Database, atoms: &[Atom], seed: &Mapping) -> Vec<Mapping> {
    let mut search = Search::compile(db, atoms, None, |v| seed.defines(v));
    let vars = search.vars().to_vec();
    for (slot, &v) in vars.iter().enumerate() {
        if let Some(c) = seed.get(v) {
            search.set(slot, c);
        }
    }
    let mut out = Vec::new();
    search
        .for_each(CancelToken::never(), |frame| {
            let pairs = vars.iter().copied().zip(frame.iter().copied()).collect();
            out.push(Mapping::from_sorted(pairs));
        })
        .expect("the never token cannot cancel");
    wdpt_model::stats::record(search.tally());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdpt_model::parse::{parse_atoms, parse_database, parse_mapping};
    use wdpt_model::Interner;

    fn setup() -> (Interner, Database) {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(a,b) e(b,c) e(c,d) e(a,c)").unwrap();
        (i, db)
    }

    fn exists(db: &Database, atoms: &[Atom]) -> bool {
        Search::compile(db, atoms, None, |_| false)
            .exists(CancelToken::never())
            .unwrap()
    }

    /// Every homomorphism's frame, ascending, and the nodes the search
    /// expanded to find them.
    fn frames(
        db: &Database,
        atoms: &[Atom],
        order: Option<&[usize]>,
        token: &CancelToken,
    ) -> Result<(Vec<Vec<Const>>, u64), Cancelled> {
        let mut search = Search::compile(db, atoms, order, |_| false);
        let mut out = Vec::new();
        search.for_each(token, |frame| out.push(frame.to_vec()))?;
        out.sort();
        Ok((out, search.tally().nodes_expanded))
    }

    /// `atoms` compiled with the variables of `seed` as seeded slots, their
    /// values written.
    fn seeded<'a>(db: &'a Database, atoms: &[Atom], seed: &[(Var, Const)]) -> Search<'a> {
        let mut search = Search::compile(db, atoms, None, |v| seed.iter().any(|&(w, _)| w == v));
        for &(v, c) in seed {
            let slot = search.vars().binary_search(&v).unwrap();
            search.set(slot, c);
        }
        search
    }

    #[test]
    fn path_query_has_expected_answers() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        // Paths of length 2: a-b-c, b-c-d, a-c-d.
        assert_eq!(homs.len(), 3);
    }

    #[test]
    fn seed_constrains_search() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let seed = parse_mapping(&mut i, "?x -> a").unwrap();
        let homs = extend_all(&db, &atoms, &seed);
        assert_eq!(homs.len(), 2); // a-b-c and a-c-d
        assert!(homs
            .iter()
            .all(|h| h.get(i.var("x")) == Some(i.constant("a"))));
    }

    #[test]
    fn exists_short_circuits() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?x)").unwrap();
        assert!(!exists(&db, &atoms));
        let atoms2 = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        assert!(exists(&db, &atoms2));
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "r(a,a) r(a,b)").unwrap();
        let atoms = parse_atoms(&mut i, "r(?x,?x)").unwrap();
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        assert_eq!(homs.len(), 1);
    }

    #[test]
    fn constants_in_atoms_restrict_matches() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(a,?y)").unwrap();
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        assert_eq!(homs.len(), 2); // b and c
    }

    #[test]
    fn empty_body_yields_empty_mapping() {
        let (_, db) = setup();
        let homs = extend_all(&db, &[], &Mapping::empty());
        assert_eq!(homs, vec![Mapping::empty()]);
    }

    #[test]
    fn missing_relation_yields_no_homs() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "unknown(?x)").unwrap();
        assert!(extend_all(&db, &atoms, &Mapping::empty()).is_empty());
        assert!(!exists(&db, &atoms));
    }

    #[test]
    fn seed_outside_atom_vars_is_ignored() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        let seed = parse_mapping(&mut i, "?unrelated -> a").unwrap();
        let homs = extend_all(&db, &atoms, &seed);
        assert_eq!(homs.len(), 4);
        assert!(homs.iter().all(|h| h.len() == 2));
    }

    #[test]
    fn estimate_ranks_partially_bound_atoms_by_posting_list() {
        let mut i = Interner::new();
        // big/2 has 60 tuples but at most one per ?y value; small/2 has 10.
        let mut spec = String::new();
        for j in 0..60 {
            spec.push_str(&format!("big(s{j},t{j}) "));
        }
        for j in 0..10 {
            spec.push_str(&format!("small(a{j},b{j}) "));
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let atoms = parse_atoms(&mut i, "big(?x,?y), small(?z,?w)").unwrap();
        let seed = [(i.var("y"), i.constant("t7"))];
        // Bound on ?y, the big atom has a 1-element posting list; the seed
        // implementation returned rel.len() = 60 and ranked it *behind* the
        // unbound small atom (10).
        let mut bound = seeded(&db, &atoms, &seed);
        assert_eq!(bound.rank(0), (1, 1));
        assert_eq!(bound.rank(1), (0, 10));
        // Unbound, the big atom estimates its full size.
        let mut unbound = seeded(&db, &atoms, &[]);
        assert_eq!(unbound.rank(0), (0, 60));
    }

    #[test]
    fn estimate_is_exact_when_pinned_and_a_posting_length_otherwise() {
        let mut i = Interner::new();
        // Every tuple of e/2 ends in `hub`; `rare` starts exactly one.
        let mut spec = String::from("e(rare,hub) ");
        for j in 0..50 {
            spec.push_str(&format!("e(s{j},hub) "));
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let rank_of = |i: &mut Interner, atom: &str| {
            let atoms = parse_atoms(i, atom).unwrap();
            seeded(&db, &atoms, &[]).rank(0)
        };
        // Nothing pinned: the relation size.
        assert_eq!(rank_of(&mut i, "e(?x,?y)"), (0, 51));
        // Pinned on a selective column: its posting length, not len().
        assert_eq!(rank_of(&mut i, "e(rare,?y)"), (1, 1));
        // Pinned on an unselective column: its posting length all the same.
        assert_eq!(rank_of(&mut i, "e(?x,hub)"), (1, 51));
        // Every column pinned: membership, exactly 1 or 0.
        assert_eq!(rank_of(&mut i, "e(rare,hub)"), (2, 1));
        assert_eq!(rank_of(&mut i, "e(hub,rare)"), (2, 0));
        // A constant the column never holds: 0.
        assert_eq!(rank_of(&mut i, "e(ghost,?y)"), (1, 0));
        // The same through seeded slots instead of visible constants.
        let atoms = parse_atoms(&mut i, "e(?x,?y)").unwrap();
        let (x, y) = (i.var("x"), i.var("y"));
        let (rare, hub) = (i.constant("rare"), i.constant("hub"));
        assert_eq!(seeded(&db, &atoms, &[(x, rare), (y, hub)]).rank(0), (2, 1));
        assert_eq!(seeded(&db, &atoms, &[(x, hub), (y, rare)]).rank(0), (2, 0));
    }

    #[test]
    fn dynamic_order_picks_the_selective_atom_first() {
        let mut i = Interner::new();
        // Both atoms have one bound position under the seed, so only the
        // match estimate decides the order. a/2 is the larger relation but
        // its x=c0 posting list has a single entry; every b/2 tuple has
        // x=c0. The seed estimate (relation size) ranked b first and
        // expanded 1 + |b| nodes; the posting-list estimate expands a
        // first, for 2 nodes total.
        let mut spec = String::from("a(c0,u0) ");
        for j in 0..1100 {
            spec.push_str(&format!("a(g{j},h{j}) "));
        }
        for j in 0..1000 {
            spec.push_str(&format!("b(c0,v{j}) "));
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let atoms = parse_atoms(&mut i, "a(?x,?u), b(?x,?v)").unwrap();
        let (x, c0) = (i.var("x"), i.constant("c0"));
        let mut search = seeded(&db, &atoms, &[(x, c0)]);
        let mut homs = 0;
        search
            .for_each(CancelToken::never(), |_| homs += 1)
            .unwrap();
        assert_eq!(homs, 1000);
        // The mis-ranked order expands 1001 nodes; the fixed one expands 2.
        assert_eq!(
            search.tally().nodes_expanded,
            2,
            "selective atom was not processed first"
        );
    }

    #[test]
    fn cancelled_token_aborts_search() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let token = CancelToken::new();
        token.cancel();
        for order in [None, Some(&[1usize, 0][..])] {
            assert_eq!(frames(&db, &atoms, order, &token), Err(Cancelled));
            let mut search = Search::compile(&db, &atoms, order, |_| false);
            assert_eq!(search.exists(&token), Err(Cancelled));
        }
        // A live token behaves exactly like the never token.
        let live = CancelToken::new();
        let (homs, _) = frames(&db, &atoms, None, &live).unwrap();
        assert_eq!(homs.len(), 3);
        assert_eq!(
            homs,
            frames(&db, &atoms, None, CancelToken::never()).unwrap().0
        );
    }

    #[test]
    fn expired_deadline_aborts_search() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        token.poll_deadline(); // latch the expiry
        assert_eq!(frames(&db, &atoms, None, &token), Err(Cancelled));
    }

    #[test]
    fn ordered_execution_follows_the_given_permutation() {
        let mut i = Interner::new();
        // small: 2 rows; fan: fan-out 100 from each small value; filter: 1.
        let mut spec = String::from("small(a) small(b) filter(y0) ");
        for s in ["a", "b"] {
            for j in 0..100 {
                spec.push_str(&format!("fan({s},y{j}) "));
            }
        }
        let db = parse_database(&mut i, &spec).unwrap();
        let atoms = parse_atoms(&mut i, "small(?x), fan(?x,?y), filter(?y)").unwrap();
        let token = CancelToken::new();
        // Bad order: small → fan explodes the frontier before filter prunes.
        let (bad, bad_nodes) = frames(&db, &atoms, Some(&[0, 1, 2]), &token).unwrap();
        // Good order: filter first keeps the frontier at 1.
        let (good, good_nodes) = frames(&db, &atoms, Some(&[2, 1, 0]), &token).unwrap();
        // Same answers either way; radically different work.
        assert_eq!(bad, good);
        assert_eq!(good.len(), 2);
        assert!(
            good_nodes * 10 <= bad_nodes,
            "expected ≥10× gap, got {good_nodes} vs {bad_nodes}"
        );
    }

    #[test]
    fn invalid_order_degrades_to_dynamic() {
        let (mut i, db) = setup();
        let atoms = parse_atoms(&mut i, "e(?x,?y), e(?y,?z)").unwrap();
        let token = CancelToken::new();
        // Wrong length and duplicate entries both fall back cleanly.
        for order in [&[0usize][..], &[0, 0][..], &[1, 2][..]] {
            let (homs, _) = frames(&db, &atoms, Some(order), &token).unwrap();
            assert_eq!(homs.len(), 3, "order {order:?}");
        }
    }

    #[test]
    fn boolean_query_on_triangle() {
        let mut i = Interner::new();
        let db = parse_database(&mut i, "e(1,2) e(2,3) e(3,1)").unwrap();
        let atoms = parse_atoms(&mut i, "e(?x,?y) e(?y,?z) e(?z,?x)").unwrap();
        assert!(exists(&db, &atoms));
        let homs = extend_all(&db, &atoms, &Mapping::empty());
        assert_eq!(homs.len(), 3); // three rotations
    }
}
