//! String interner shared by variables, constants, and predicate symbols.
//!
//! All identifiers in a query/database universe are interned once and
//! referred to by dense `u32` ids afterwards, so that comparisons, hashing,
//! and copying of terms are cheap (see the typed wrappers in [`crate::term`]).
//! Each kind (variable / constant / predicate) has its own namespace: the
//! variable `x` and the constant `x` receive independent ids.
//!
//! Ids are handed out densely from 0, so every id at or above
//! [`Interner::len`] names nothing. The canonical databases of the
//! containment and subsumption tests use exactly those ids for their frozen
//! variables (`wdpt_cq::containment::freeze`): distinct from every interned
//! symbol by construction, minted without touching the table, and gone
//! when the test returns.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, the interner's lookup hash. Symbol names are short (tens of
/// bytes) and the map is rebuilt wholesale on every snapshot decode, where
/// SipHash's per-byte cost was the single largest line item of a v2 cold
/// start. FNV is deterministic, which also keeps decode timing stable; the
/// interner is not exposed to adversarial key sets large enough for
/// collision flooding to matter (ids cap at `u32`).
#[derive(Default)]
pub struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv1a>>;

/// FNV-1a over a symbol's namespace tag and name bytes — the key the
/// interner's lookup table is organized around.
fn sym_hash(space: Space, name: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.write(&[space as u8]);
    h.write(name.as_bytes());
    h.finish()
}

/// The three disjoint namespaces managed by an [`Interner`].
///
/// Public so that storage layers (the `wdpt-store` snapshot format) can
/// serialize and reconstruct an interner symbol-for-symbol via
/// [`Interner::symbols`] and [`Interner::from_symbols`].
///
/// The derived `Ord` (declaration order: `Var < Const < Pred`) is part of
/// the canonical symbol order used by [`Interner::extend_canonical`] and is
/// therefore load-bearing for snapshot determinism — do not reorder the
/// variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SymbolSpace {
    /// The variable namespace (**X** in the paper).
    Var,
    /// The constant namespace (**U** in the paper).
    Const,
    /// The predicate-symbol namespace (the schema `σ`).
    Pred,
}

use SymbolSpace as Space;

/// Interns strings for one "universe" of queries and databases.
///
/// Structures from `wdpt-model` and the crates above it only store ids; an
/// `Interner` is needed to create them from names and to render them back.
/// Typical usage keeps one `Interner` per test / example / benchmark run.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// `(namespace, name)` per id — the namespace is kept so
    /// [`Interner::truncate`] can remove the matching lookup entries.
    names: Vec<(Space, String)>,
    /// `sym_hash → id`, verified against `names` on every probe (the map
    /// never owns a second copy of a name, which is what makes rebuilding
    /// it from a 100k-symbol snapshot dictionary cheap). A hash shared by
    /// two *different* symbols parks the later ids in `overflow`.
    lookup: FnvMap<u64, u32>,
    /// Ids displaced by a 64-bit hash collision, scanned linearly. In
    /// practice empty; it exists so correctness never rests on FNV being
    /// collision-free.
    overflow: Vec<(u64, u32)>,
    fresh_counter: u64,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// True iff `id` names exactly `(space, name)`.
    fn is_entry(&self, id: u32, space: Space, name: &str) -> bool {
        let (s, n) = &self.names[id as usize];
        *s == space && n == name
    }

    fn probe(&self, hash: u64, space: Space, name: &str) -> Option<u32> {
        match self.lookup.get(&hash) {
            Some(&id) if self.is_entry(id, space, name) => Some(id),
            // A populated slot that names something else (or a probe miss
            // entirely) can still match through the collision overflow.
            _ => self
                .overflow
                .iter()
                .find(|&&(h, id)| h == hash && self.is_entry(id, space, name))
                .map(|&(_, id)| id),
        }
    }

    fn intern(&mut self, space: Space, name: &str) -> u32 {
        let hash = sym_hash(space, name);
        if let Some(id) = self.probe(hash, space, name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.names.push((space, name.to_owned()));
        if let Some(&displaced) = self.lookup.get(&hash) {
            debug_assert_ne!(displaced, id);
            self.overflow.push((hash, id));
        } else {
            self.lookup.insert(hash, id);
        }
        id
    }

    /// Looks up the id of an already-interned symbol without interning it.
    /// This is the read-only probe the `wdpt-store` bulk loader uses when
    /// building its local-to-global remap tables.
    pub fn lookup_id(&self, space: SymbolSpace, name: &str) -> Option<u32> {
        self.probe(sym_hash(space, name), space, name)
    }

    /// Extends the interner with every candidate symbol that is not interned
    /// yet, assigning the new ids in **canonical order**: namespace first
    /// (`Var < Const < Pred`), then lexicographic by name bytes. Duplicates
    /// among the candidates are fine — each symbol is interned once.
    ///
    /// This is the merge step of two-pass parallel interning (the
    /// `wdpt-store` bulk loader): parse workers collect symbols into
    /// per-worker local dictionaries, and this constructor folds their union
    /// into the global interner. Because the ids depend only on the *set* of
    /// new symbols (plus the interner's prior state), the result — and hence
    /// snapshot bytes — is identical across worker counts and scheduling
    /// orders. Returns how many symbols were appended.
    pub fn extend_canonical<'a, I>(&mut self, candidates: I) -> usize
    where
        I: IntoIterator<Item = (SymbolSpace, &'a str)>,
    {
        let mut fresh: Vec<(SymbolSpace, &str)> = candidates.into_iter().collect();
        fresh.sort_unstable();
        fresh.dedup();
        let mut appended = 0usize;
        for (space, name) in fresh {
            if self.lookup_id(space, name).is_none() {
                self.intern(space, name);
                appended += 1;
            }
        }
        appended
    }

    /// Rolls the interner back to its first `len` symbols, forgetting every
    /// id allocated since (`fresh_counter` is left alone, so fresh names
    /// stay unique across a rollback). Intended for rejecting a request
    /// whose symbols should not be retained: the caller must ensure no id
    /// `≥ len` outlives the call — typically by holding the interner lock
    /// across intern-check-rollback and discarding the parsed structures.
    pub fn truncate(&mut self, len: usize) {
        while self.names.len() > len {
            let id = u32::try_from(self.names.len() - 1).expect("ids fit u32");
            let (space, name) = self.names.pop().expect("len checked");
            let hash = sym_hash(space, &name);
            if let Some(pos) = self.overflow.iter().position(|&e| e == (hash, id)) {
                self.overflow.swap_remove(pos);
            } else {
                self.lookup.remove(&hash);
                // Promote a colliding survivor (if any) into the map slot.
                if let Some(pos) = self.overflow.iter().position(|&(h, _)| h == hash) {
                    let (_, survivor) = self.overflow.swap_remove(pos);
                    self.lookup.insert(hash, survivor);
                }
            }
        }
    }

    /// Interns a variable name and returns its [`crate::term::Var`] id.
    pub fn var(&mut self, name: &str) -> crate::term::Var {
        crate::term::Var(self.intern(Space::Var, name))
    }

    /// Interns a constant name and returns its [`crate::term::Const`] id.
    pub fn constant(&mut self, name: &str) -> crate::term::Const {
        crate::term::Const(self.intern(Space::Const, name))
    }

    /// Interns a predicate name and returns its [`crate::term::Pred`] id.
    pub fn pred(&mut self, name: &str) -> crate::term::Pred {
        crate::term::Pred(self.intern(Space::Pred, name))
    }

    /// Returns a fresh variable guaranteed not to collide with any variable
    /// interned so far. (There is no constant counterpart: canonical
    /// databases freeze variables into bare ids above the table — see
    /// `wdpt_cq::containment::freeze` — and intern nothing.)
    pub fn fresh_var(&mut self, hint: &str) -> crate::term::Var {
        loop {
            let candidate = format!("\u{2022}{}#{}", hint, self.fresh_counter);
            self.fresh_counter += 1;
            if self.lookup_id(Space::Var, &candidate).is_none() {
                return self.var(&candidate);
            }
        }
    }

    /// Resolves any interned id back to its name.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize].1
    }

    /// Renders a variable.
    pub fn var_name(&self, v: crate::term::Var) -> &str {
        self.name(v.0)
    }

    /// Renders a constant.
    pub fn const_name(&self, c: crate::term::Const) -> &str {
        self.name(c.0)
    }

    /// Renders a predicate symbol.
    pub fn pred_name(&self, p: crate::term::Pred) -> &str {
        self.name(p.0)
    }

    /// Number of interned symbols across all namespaces.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over every interned symbol in **id order**: the symbol with
    /// id `k` is the `k`-th item. This is the serialization hook used by the
    /// `wdpt-store` snapshot dictionary.
    pub fn symbols(&self) -> impl Iterator<Item = (SymbolSpace, &str)> + '_ {
        self.names.iter().map(|(space, name)| (*space, &**name))
    }

    /// The namespace of an interned id, or `None` for an id that was never
    /// allocated. Lets deserializers validate that a stored id really names
    /// a constant / predicate before wrapping it in a typed term.
    pub fn symbol_space(&self, id: u32) -> Option<SymbolSpace> {
        self.names.get(id as usize).map(|(space, _)| *space)
    }

    /// The fresh-name counter (see [`Interner::fresh_var`]); serialized so
    /// that fresh names minted after a reload cannot collide with fresh
    /// names minted before the snapshot was taken.
    pub fn fresh_counter(&self) -> u64 {
        self.fresh_counter
    }

    /// Raises the fresh-name counter to at least `counter` (never lowers
    /// it). Applying a delta snapshot adopts the writer's counter so fresh
    /// names minted after the apply cannot collide with fresh names minted
    /// before the delta was written; lowering is refused because it could
    /// reintroduce exactly that collision.
    pub fn raise_fresh_counter(&mut self, counter: u64) {
        self.fresh_counter = self.fresh_counter.max(counter);
    }

    /// Reconstructs an interner from a symbol listing (as produced by
    /// [`Interner::symbols`]) and a fresh-name counter: the `k`-th listed
    /// symbol receives id `k`, exactly reversing serialization. Returns
    /// `None` if a `(namespace, name)` pair repeats — a malformed listing
    /// that could not have come from a real interner.
    pub fn from_symbols<I>(symbols: I, fresh_counter: u64) -> Option<Interner>
    where
        I: IntoIterator<Item = (SymbolSpace, String)>,
    {
        let symbols = symbols.into_iter();
        let mut out = Interner::new();
        // Pre-size both sides: snapshot decode hands over the full symbol
        // listing at once, and incremental rehashing of a 100k-entry map
        // would otherwise dominate the cold-start cost.
        let n = symbols.size_hint().0;
        out.names.reserve(n);
        out.lookup.reserve(n);
        for (space, name) in symbols {
            let id = u32::try_from(out.names.len()).ok()?;
            let hash = sym_hash(space, &name);
            if out.probe(hash, space, &name).is_some() {
                return None;
            }
            out.names.push((space, name));
            match out.lookup.entry(hash) {
                Entry::Occupied(_) => out.overflow.push((hash, id)),
                Entry::Vacant(slot) => {
                    slot.insert(id);
                }
            }
        }
        out.fresh_counter = fresh_counter;
        Some(out)
    }
}

/// Helper joining interned display of a list of items.
pub(crate) fn join_display<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    let mut out = String::new();
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&f(item));
    }
    out
}

impl fmt::Display for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interner({} symbols)", self.names.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.var("x");
        let b = i.var("x");
        assert_eq!(a, b);
        assert_eq!(i.var_name(a), "x");
    }

    #[test]
    fn namespaces_are_disjoint() {
        let mut i = Interner::new();
        let v = i.var("x");
        let c = i.constant("x");
        let p = i.pred("x");
        // Ids live in one arena but the lookups are independent.
        assert_eq!(i.var_name(v), "x");
        assert_eq!(i.const_name(c), "x");
        assert_eq!(i.pred_name(p), "x");
        assert_ne!(v.0, c.0);
        assert_ne!(c.0, p.0);
    }

    #[test]
    fn fresh_vars_never_collide() {
        let mut i = Interner::new();
        let v1 = i.fresh_var("v");
        let v2 = i.fresh_var("v");
        assert_ne!(v1, v2);
        assert!(i.len() >= 2);
        assert!(!i.is_empty());
    }

    #[test]
    fn truncate_rolls_back_ids_and_lookups() {
        let mut i = Interner::new();
        let v = i.var("x");
        let len = i.len();
        let c = i.constant("rolled");
        let p = i.pred("back");
        assert_eq!(i.len(), len + 2);

        i.truncate(len);
        assert_eq!(i.len(), len);
        // Surviving ids are untouched.
        assert_eq!(i.var_name(v), "x");
        assert_eq!(i.var("x"), v);
        // Rolled-back names re-intern from scratch, reusing the freed id
        // range — and in a different namespace order, so stale ids from
        // before the rollback must not be used (they are not).
        let p2 = i.pred("back");
        let c2 = i.constant("rolled");
        assert_eq!(p2.0, c.0);
        assert_eq!(c2.0, p.0);
        assert_eq!(i.pred_name(p2), "back");
        assert_eq!(i.const_name(c2), "rolled");
    }

    #[test]
    fn symbols_round_trip_through_from_symbols() {
        let mut i = Interner::new();
        let v = i.var("x");
        let c = i.constant("x");
        let p = i.pred("edge");
        let f = i.fresh_var("fresh");
        let listing: Vec<(SymbolSpace, String)> = i
            .symbols()
            .map(|(space, name)| (space, name.to_owned()))
            .collect();
        let back = Interner::from_symbols(listing, i.fresh_counter()).unwrap();
        assert_eq!(back.len(), i.len());
        assert_eq!(back.fresh_counter(), i.fresh_counter());
        assert_eq!(back.var_name(v), "x");
        assert_eq!(back.const_name(c), "x");
        assert_eq!(back.pred_name(p), "edge");
        assert_eq!(back.var_name(f), i.var_name(f));
        // Re-interning resolves to the original ids, and namespaces survive.
        let mut back = back;
        assert_eq!(back.var("x"), v);
        assert_eq!(back.constant("x"), c);
        assert_eq!(back.pred("edge"), p);
        assert_eq!(back.symbol_space(v.0), Some(SymbolSpace::Var));
        assert_eq!(back.symbol_space(p.0), Some(SymbolSpace::Pred));
        assert_eq!(back.symbol_space(u32::MAX), None);
    }

    #[test]
    fn from_symbols_rejects_duplicates() {
        let dup = vec![
            (SymbolSpace::Const, "a".to_owned()),
            (SymbolSpace::Const, "a".to_owned()),
        ];
        assert!(Interner::from_symbols(dup, 0).is_none());
        // Same name in different namespaces is fine.
        let ok = vec![
            (SymbolSpace::Const, "a".to_owned()),
            (SymbolSpace::Pred, "a".to_owned()),
        ];
        assert!(Interner::from_symbols(ok, 0).is_some());
    }

    #[test]
    fn extend_canonical_assigns_namespace_then_name_order() {
        let mut i = Interner::new();
        let appended = i.extend_canonical(vec![
            (SymbolSpace::Pred, "edge"),
            (SymbolSpace::Const, "b"),
            (SymbolSpace::Const, "a"),
            (SymbolSpace::Var, "x"),
            (SymbolSpace::Const, "a"), // duplicate candidate
        ]);
        assert_eq!(appended, 4);
        let listing: Vec<(SymbolSpace, String)> =
            i.symbols().map(|(s, n)| (s, n.to_owned())).collect();
        assert_eq!(
            listing,
            vec![
                (SymbolSpace::Var, "x".to_owned()),
                (SymbolSpace::Const, "a".to_owned()),
                (SymbolSpace::Const, "b".to_owned()),
                (SymbolSpace::Pred, "edge".to_owned()),
            ]
        );
    }

    #[test]
    fn extend_canonical_appends_after_existing_ids() {
        let mut i = Interner::new();
        let p = i.pred("zz");
        let appended = i.extend_canonical(vec![
            (SymbolSpace::Pred, "zz"), // already interned: kept, not moved
            (SymbolSpace::Pred, "aa"),
        ]);
        assert_eq!(appended, 1);
        assert_eq!(i.pred("zz"), p, "existing ids must not change");
        assert_eq!(i.lookup_id(SymbolSpace::Pred, "aa"), Some(p.0 + 1));
        assert_eq!(i.lookup_id(SymbolSpace::Pred, "absent"), None);
        assert_eq!(i.lookup_id(SymbolSpace::Const, "zz"), None);
    }

    /// The determinism property two-pass parallel interning rests on: for a
    /// fixed symbol multiset, `extend_canonical` yields the same interner no
    /// matter how the symbols were partitioned among workers, in what order
    /// each partition emitted them, or how often a symbol repeats — and it
    /// matches a serial interner whose symbols were pre-sorted canonically.
    #[test]
    fn extend_canonical_is_partition_independent() {
        let mut rng = 0xC0FFEEu64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for round in 0..20 {
            // A random multiset of symbols across all three namespaces.
            let n = 1 + (next() % 60) as usize;
            let symbols: Vec<(SymbolSpace, String)> = (0..n)
                .map(|_| {
                    let space = match next() % 3 {
                        0 => SymbolSpace::Var,
                        1 => SymbolSpace::Const,
                        _ => SymbolSpace::Pred,
                    };
                    (space, format!("s{}", next() % 40))
                })
                .collect();

            // Serial reference: sort canonically, intern one at a time.
            let mut reference = Interner::new();
            let mut sorted: Vec<(SymbolSpace, &str)> =
                symbols.iter().map(|(s, n)| (*s, n.as_str())).collect();
            sorted.sort_unstable();
            sorted.dedup();
            for (space, name) in sorted {
                match space {
                    SymbolSpace::Var => reference.var(name).0,
                    SymbolSpace::Const => reference.constant(name).0,
                    SymbolSpace::Pred => reference.pred(name).0,
                };
            }

            // Random partition into "worker" dictionaries, each shuffled.
            let workers = 1 + (next() % 7) as usize;
            let mut parts: Vec<Vec<(SymbolSpace, &str)>> = vec![Vec::new(); workers];
            for (space, name) in &symbols {
                parts[(next() % workers as u64) as usize].push((*space, name.as_str()));
            }
            for part in &mut parts {
                for k in (1..part.len()).rev() {
                    part.swap(k, (next() % (k as u64 + 1)) as usize);
                }
            }
            let mut merged = Interner::new();
            merged.extend_canonical(parts.into_iter().flatten());

            let a: Vec<_> = reference.symbols().collect();
            let b: Vec<_> = merged.symbols().collect();
            assert_eq!(a, b, "round {round}: partitioning changed the ids");
        }
    }

    #[test]
    fn truncate_keeps_fresh_names_unique() {
        let mut i = Interner::new();
        let len = i.len();
        let f1 = i.fresh_var("s");
        let n1 = i.var_name(f1).to_string();
        i.truncate(len);
        let f2 = i.fresh_var("s");
        assert_ne!(n1, i.var_name(f2), "fresh counter must survive rollback");
    }
}
