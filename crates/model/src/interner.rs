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
//! when the test returns. Ids `≥ len` also name request-local symbols: the
//! names a query mentions and the table lacks ([`RequestScope`]).
//!
//! Memory. Every name lives in one `String`, back to back in id order; an
//! id owns a `u32` end offset into it and a namespace byte. Names are found
//! through an open-addressed table of ids — a power of two in size, at most
//! half full, probed linearly from an FNV-1a hash of `(namespace, name)` —
//! whose slots hold nothing but the id: a probe compares the candidate's
//! bytes in the arena. So a symbol costs its name's bytes plus 13–21 bytes,
//! with no heap block of its own, and a clone is four `memcpy`s.

use std::fmt;

/// FNV-1a over a symbol's namespace tag and name bytes, folded so that the
/// table's slot (the low bits) depends on the well-mixed high half too:
/// FNV's low `k` bits depend only on the low `k` bits of each input byte.
/// Symbol names are short (tens of bytes) and a snapshot decode hashes
/// every one of them, where SipHash's per-byte cost was once the single
/// largest line item of a cold start. FNV is deterministic, which also
/// keeps decode timing stable; the interner is not exposed to adversarial
/// key sets large enough for collision flooding to matter (ids cap at
/// `u32`).
fn sym_hash(space: Space, name: &str) -> usize {
    let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    let h = name
        .bytes()
        .fold(step(0xcbf2_9ce4_8422_2325, space as u8), step);
    (h ^ (h >> 32)) as usize
}

/// A table slot no id occupies. Ids stop one short of it.
const EMPTY: u32 = u32::MAX;

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
///
/// The names sit back to back in one arena; id `k`'s name is
/// `arena[ends[k - 1]..ends[k]]` (from 0 for `k = 0`). `table` is empty
/// until the first symbol, then a power of two at least twice `len`.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Every name, in id order.
    arena: String,
    /// The end of each id's name in `arena`.
    ends: Vec<u32>,
    /// The namespace of each id.
    spaces: Vec<Space>,
    /// Open-addressed by [`sym_hash`], linear probing; [`EMPTY`] or an id.
    table: Vec<u32>,
    fresh_counter: u64,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `symbols` symbols whose names take
    /// `name_bytes` bytes: its table is sized once, for all of them. A
    /// decoder that knows the count up front fills it with
    /// [`Interner::push_new`].
    pub fn with_capacity(symbols: usize, name_bytes: usize) -> Interner {
        Interner {
            arena: String::with_capacity(name_bytes),
            ends: Vec::with_capacity(symbols),
            spaces: Vec::with_capacity(symbols),
            table: vec![EMPTY; table_size(symbols)],
            fresh_counter: 0,
        }
    }

    /// Where `(space, name)` sits in the table: `Ok(id)` if interned,
    /// else `Err(slot)`, the empty slot it would take. The table must not
    /// be empty.
    fn find(&self, space: Space, name: &str) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut slot = sym_hash(space, name) & mask;
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                id if self.spaces[id as usize] == space && self.name(id) == name => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Appends `(space, name)`, known to be absent, to the arena, and
    /// returns its id; the table is not touched.
    fn append(&mut self, space: Space, name: &str) -> Option<u32> {
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != EMPTY)?;
        let end = u32::try_from(self.arena.len() + name.len()).ok()?;
        self.arena.push_str(name);
        self.ends.push(end);
        self.spaces.push(space);
        Some(id)
    }

    /// Doubles the table if one more symbol would fill more than half of
    /// it, re-placing every id from its name in the arena.
    fn reserve_one(&mut self) {
        let size = table_size(self.ends.len() + 1);
        if size <= self.table.len() {
            return;
        }
        self.table.clear();
        self.table.resize(size, EMPTY);
        let mask = size - 1;
        for id in 0..self.ends.len() as u32 {
            let mut slot = sym_hash(self.spaces[id as usize], self.name(id)) & mask;
            while self.table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = id;
        }
    }

    /// Interns `(space, name)` if it is new and returns its id, or
    /// `Err(id)` of the symbol already there. `None` if the ids or the
    /// arena's `u32` offsets are exhausted. The table makes room first, so
    /// a hit may bring forward the doubling the next new symbol needs.
    fn insert(&mut self, space: Space, name: &str) -> Option<Result<u32, u32>> {
        self.reserve_one();
        match self.find(space, name) {
            Ok(id) => Some(Err(id)),
            Err(slot) => {
                let id = self.append(space, name)?;
                self.table[slot] = id;
                Some(Ok(id))
            }
        }
    }

    fn intern(&mut self, space: Space, name: &str) -> u32 {
        match self.insert(space, name).expect("interner overflow") {
            Ok(id) | Err(id) => id,
        }
    }

    /// Appends a symbol that must be new: its id, the next one, or `None`
    /// if `(space, name)` is already interned or the interner is full
    /// (`u32` ids and name offsets). The table grows if it must; sized by
    /// [`Interner::with_capacity`], it never does.
    pub fn push_new(&mut self, space: SymbolSpace, name: &str) -> Option<u32> {
        self.insert(space, name)?.ok()
    }

    /// A read-only [`RequestScope`] over this table.
    pub fn scope<'s>(&self) -> RequestScope<'_, 's> {
        RequestScope {
            dictionary: self,
            local: Vec::new(),
        }
    }

    /// Looks up the id of an already-interned symbol without interning it.
    /// This is the read-only probe the `wdpt-store` bulk loader uses when
    /// building its local-to-global remap tables.
    pub fn lookup_id(&self, space: SymbolSpace, name: &str) -> Option<u32> {
        match self.table.is_empty() {
            true => None,
            false => self.find(space, name).ok(),
        }
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
    /// orders. Returns how many symbols were appended. The caller collects
    /// the candidates, so it sizes their buffer from what it knows — the
    /// bulk loader from its workers' symbol counts.
    pub fn extend_canonical(&mut self, mut candidates: Vec<(SymbolSpace, &str)>) -> usize {
        candidates.sort_unstable();
        candidates.dedup();
        let mut appended = 0usize;
        for (space, name) in candidates {
            if self.insert(space, name).expect("interner overflow").is_ok() {
                appended += 1;
            }
        }
        appended
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
        let i = id as usize;
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        &self.arena[start..self.ends[i] as usize]
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
        self.ends.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over every interned symbol in **id order**: the symbol with
    /// id `k` is the `k`-th item. This is the serialization hook used by the
    /// `wdpt-store` snapshot dictionary.
    pub fn symbols(&self) -> impl Iterator<Item = (SymbolSpace, &str)> + '_ {
        (0..self.ends.len() as u32).map(|id| (self.spaces[id as usize], self.name(id)))
    }

    /// The namespace of an interned id, or `None` for an id that was never
    /// allocated. Lets deserializers validate that a stored id really names
    /// a constant / predicate before wrapping it in a typed term.
    pub fn symbol_space(&self, id: u32) -> Option<SymbolSpace> {
        self.spaces.get(id as usize).copied()
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
    /// that could not have come from a real interner — or if the names
    /// overflow the `u32` ids and offsets.
    pub fn from_symbols<I, S>(symbols: I, fresh_counter: u64) -> Option<Interner>
    where
        I: IntoIterator<Item = (SymbolSpace, S)>,
        S: AsRef<str>,
    {
        let symbols = symbols.into_iter();
        // Size the table once: rehashing it as it grows would otherwise
        // dominate a cold start's dictionary.
        let mut out = Interner::with_capacity(symbols.size_hint().0, 0);
        for (space, name) in symbols {
            out.push_new(space, name.as_ref())?;
        }
        out.fresh_counter = fresh_counter;
        Some(out)
    }
}

/// The table size for `symbols` symbols: a power of two at least twice as
/// large, none for none.
fn table_size(symbols: usize) -> usize {
    match symbols {
        0 => 0,
        n => (2 * n).next_power_of_two().max(8),
    }
}

/// How names become ids and back. An [`Interner`] interns the names it
/// lacks (its `id` also copies symbols between interners); a
/// [`RequestScope`] only reads.
pub trait Resolve<'s> {
    /// The id of `name` in namespace `space`.
    fn id(&mut self, space: SymbolSpace, name: &'s str) -> u32;
    /// The name of an id this resolver handed out.
    fn name(&self, id: u32) -> &str;
    /// The id of the variable `name`.
    fn var(&mut self, name: &'s str) -> crate::term::Var {
        crate::term::Var(self.id(Space::Var, name))
    }
    /// The id of the constant `name`.
    fn constant(&mut self, name: &'s str) -> crate::term::Const {
        crate::term::Const(self.id(Space::Const, name))
    }
    /// The id of the predicate `name`.
    fn pred(&mut self, name: &'s str) -> crate::term::Pred {
        crate::term::Pred(self.id(Space::Pred, name))
    }
}

impl<'s> Resolve<'s> for Interner {
    fn id(&mut self, space: SymbolSpace, name: &'s str) -> u32 {
        self.intern(space, name)
    }
    fn name(&self, id: u32) -> &str {
        Interner::name(self, id)
    }
}

/// One request's read-only view of a dictionary. A name the dictionary
/// holds resolves to its id; any other gets a request-local id `len, len +
/// 1, …`, borrowed from the request text and gone with the scope. A
/// database in the dictionary's ids holds none of them, so an atom with a
/// request-local constant or predicate matches nothing.
pub struct RequestScope<'i, 's> {
    dictionary: &'i Interner,
    local: Vec<(Space, &'s str)>,
}

impl<'s> Resolve<'s> for RequestScope<'_, 's> {
    fn id(&mut self, space: SymbolSpace, name: &'s str) -> u32 {
        if let Some(id) = self.dictionary.lookup_id(space, name) {
            return id;
        }
        let k = self.local.iter().position(|&e| e == (space, name));
        let k = k.unwrap_or_else(|| {
            self.local.push((space, name));
            self.local.len() - 1
        });
        u32::try_from(self.dictionary.len() + k).expect("interner overflow")
    }
    fn name(&self, id: u32) -> &str {
        match (id as usize).checked_sub(self.dictionary.len()) {
            None => self.dictionary.name(id),
            Some(k) => self.local[k].1,
        }
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
        write!(f, "Interner({} symbols)", self.len())
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
    fn request_scope_resolves_known_names_and_writes_nothing() {
        let mut i = Interner::new();
        let c = i.constant("known");
        let p = i.pred("edge");
        let len = i.len();
        let mut scope = i.scope();
        assert_eq!(Resolve::constant(&mut scope, "known"), c);
        assert_eq!(Resolve::pred(&mut scope, "edge"), p);
        // Unknown names get ids from `len` on, once per (namespace, name).
        let x = Resolve::var(&mut scope, "x");
        let u = Resolve::constant(&mut scope, "unknown");
        assert_eq!((x.0, u.0), (len as u32, len as u32 + 1));
        assert_eq!(Resolve::var(&mut scope, "x"), x);
        assert_eq!(Resolve::constant(&mut scope, "x").0, len as u32 + 2);
        assert_eq!(scope.name(u.0), "unknown");
        assert_eq!(scope.name(c.0), "known");
        assert_eq!(i.len(), len);
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
            merged.extend_canonical(parts.into_iter().flatten().collect());

            let a: Vec<_> = reference.symbols().collect();
            let b: Vec<_> = merged.symbols().collect();
            assert_eq!(a, b, "round {round}: partitioning changed the ids");
        }
    }

    /// A deterministic LCG for the randomized tests.
    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        }
    }

    /// The interner's heap bytes beyond its names' own, read off the
    /// capacities of its four buffers.
    fn overhead(i: &Interner) -> usize {
        let names: usize = i.symbols().map(|(_, n)| n.len()).sum();
        (i.arena.capacity() - names)
            + 4 * i.ends.capacity()
            + std::mem::size_of::<Space>() * i.spaces.capacity()
            + 4 * i.table.capacity()
    }

    /// The reference an interner is checked against: `(namespace, name) →
    /// id`, and the listing in id order.
    #[derive(Clone, Default)]
    struct Model {
        ids: std::collections::BTreeMap<(Space, String), u32>,
        listing: Vec<(Space, String)>,
    }

    impl Model {
        fn intern(&mut self, space: Space, name: &str) -> u32 {
            let next = self.listing.len() as u32;
            let id = *self.ids.entry((space, name.to_owned())).or_insert(next);
            if id == next {
                self.listing.push((space, name.to_owned()));
            }
            id
        }

        fn lookup(&self, space: Space, name: &str) -> Option<u32> {
            self.ids.get(&(space, name.to_owned())).copied()
        }

        /// Everything an interner must agree on, lookups of every name
        /// in every namespace included.
        fn check(&self, i: &Interner, pool: &[String], at: &str) {
            assert_eq!(i.len(), self.listing.len(), "{at}");
            let listing: Vec<_> = self.listing.iter().map(|(s, n)| (*s, n.as_str())).collect();
            assert!(i.symbols().eq(listing.iter().copied()), "{at}: listing");
            for (id, (space, name)) in listing.iter().enumerate() {
                assert_eq!(i.name(id as u32), *name, "{at}");
                assert_eq!(i.symbol_space(id as u32), Some(*space), "{at}");
            }
            assert_eq!(i.symbol_space(i.len() as u32), None, "{at}");
            for name in pool {
                for space in [Space::Var, Space::Const, Space::Pred] {
                    assert_eq!(
                        i.lookup_id(space, name),
                        self.lookup(space, name),
                        "{at}: {name:?}"
                    );
                }
            }
            // The table: a power of two, at most half full, every id once.
            let t = &i.table;
            assert!(t.is_empty() || t.len().is_power_of_two(), "{at}");
            assert!(2 * i.len() <= t.len(), "{at}: more than half full");
            assert_eq!(t.iter().filter(|&&id| id != EMPTY).count(), i.len(), "{at}");
        }
    }

    /// Names for the model test: a cluster whose hashes agree in their
    /// low 12 bits — one slot in every table up to 4 096 — the empty name,
    /// multi-byte UTF-8, names that prefix one another, and plain ones.
    fn name_pool() -> Vec<String> {
        let mut by_slot: std::collections::HashMap<usize, Vec<String>> = Default::default();
        for k in 0..60_000 {
            let name = format!("c{k}");
            by_slot
                .entry(sym_hash(Space::Const, &name) & 0xfff)
                .or_default()
                .push(name);
        }
        let cluster = by_slot.into_values().max_by_key(|v| v.len()).unwrap();
        assert!(cluster.len() >= 20, "a cluster of {}", cluster.len());
        let mut pool: Vec<String> = cluster.into_iter().take(20).collect();
        let odd = [
            "",
            "é",
            "e\u{301}",
            "日本",
            "日本語",
            "🦀",
            "a",
            "ab",
            "abc",
            "a\u{0}b",
        ];
        pool.extend(odd.iter().map(|s| s.to_string()));
        pool.extend((0..300).map(|k| format!("n{k}")));
        pool
    }

    #[test]
    fn the_interner_agrees_with_a_model_under_random_interleavings() {
        let pool = name_pool();
        for seed in 0..6u64 {
            let mut next = lcg(0xA11CE + seed);
            // Diverging copies: each interner beside its own model.
            let mut pairs = vec![(Interner::new(), Model::default())];
            for step in 0..4_000 {
                let at = format!("seed {seed} step {step}");
                let k = (next() as usize) % pairs.len();
                let name = &pool[(next() as usize) % pool.len()];
                let space = [Space::Var, Space::Const, Space::Pred][(next() % 3) as usize];
                let room = pairs.len() < 4;
                let (i, model) = &mut pairs[k];
                match next() % 100 {
                    0..=59 => {
                        let id = match space {
                            Space::Var => i.var(name).0,
                            Space::Const => i.constant(name).0,
                            Space::Pred => i.pred(name).0,
                        };
                        assert_eq!(id, model.intern(space, name), "{at}: {name:?}");
                        // Around each doubling, every lookup.
                        let len = i.len();
                        if [len - 1, len, len + 1].iter().any(|n| n.is_power_of_two()) {
                            model.check(i, &pool, &at);
                        }
                    }
                    60..=89 => {
                        assert_eq!(i.lookup_id(space, name), model.lookup(space, name), "{at}")
                    }
                    90..=94 if room => {
                        let copy = (i.clone(), model.clone());
                        copy.1.check(&copy.0, &pool, &at);
                        pairs.push(copy);
                    }
                    _ => {
                        let listing: Vec<(Space, &str)> = i.symbols().collect();
                        let back = Interner::from_symbols(listing, i.fresh_counter()).unwrap();
                        model.check(&back, &pool, &at);
                        *i = back;
                    }
                }
            }
            for (i, model) in &pairs {
                model.check(i, &pool, &format!("seed {seed} end"));
            }
            // The copies diverged from their originals.
            let lens: std::collections::BTreeSet<usize> =
                pairs.iter().map(|(i, _)| i.len()).collect();
            assert!(
                pairs.len() == 1 || lens.len() > 1,
                "seed {seed}: copies never diverged"
            );
        }
    }

    #[test]
    fn one_name_in_all_three_namespaces_is_three_symbols() {
        let mut i = Interner::new();
        for name in ["", "x", "日本"] {
            let v = i.var(name).0;
            let c = i.constant(name).0;
            let p = i.pred(name).0;
            assert_eq!((c, p), (v + 1, v + 2));
            assert_eq!(i.lookup_id(Space::Const, name), Some(c));
            assert_eq!([i.name(v), i.name(c), i.name(p)], [name; 3]);
        }
        assert_eq!(i.len(), 9);
    }

    #[test]
    fn a_symbol_costs_its_name_and_at_most_21_bytes() {
        let mut next = lcg(7);
        let mut grown = Interner::new();
        for n in 1..=5_000usize {
            let name = format!("u{}_{}", next() % 100_000, n);
            grown.constant(&name);
            // Grown by pushes: the table's 4–16 bytes a symbol, a `u32`
            // and a byte a symbol twice over at worst, and the arena's
            // slack up to its names again.
            let names: usize = grown.symbols().map(|(_, n)| n.len()).sum();
            assert!(overhead(&grown) <= 26 * n + names + 64, "{n} grown");
            if n % 97 == 0 || n.is_power_of_two() || (n + 1).is_power_of_two() {
                // A clone, and a decoder's interner, are sized exactly.
                let clone = grown.clone();
                assert!(
                    overhead(&clone) <= 21 * n + 32,
                    "{n} cloned: {}",
                    overhead(&clone)
                );
                let listing: Vec<(Space, &str)> = grown.symbols().collect();
                let mut sized = Interner::with_capacity(n, names);
                for (space, name) in listing {
                    sized.push_new(space, name).unwrap();
                }
                assert!(
                    overhead(&sized) <= 21 * n + 32,
                    "{n} sized: {}",
                    overhead(&sized)
                );
            }
        }
    }

    #[test]
    fn push_new_refuses_a_symbol_already_there() {
        let mut i = Interner::with_capacity(2, 2);
        assert_eq!(i.push_new(Space::Const, "a"), Some(0));
        assert_eq!(i.push_new(Space::Const, "a"), None);
        assert_eq!(i.push_new(Space::Pred, "a"), Some(1));
        // Past its capacity it grows, like any interner.
        assert_eq!(i.push_new(Space::Var, "a"), Some(2));
        assert_eq!(i.len(), 3);
    }
}
