//! Global string interning and the id-based vocabulary of the analysis core.
//!
//! Every name that flows through the pipeline — type names, variable names,
//! field names — is interned once into a global [`Interner`] and carried as
//! a copyable [`Symbol`] (a `u32`). Equality and hashing are id-based (one
//! integer compare), which is what the hot paths — congruence closure in
//! [`crate::models`], canonical-abstraction hashing in `canvas-tvla`,
//! predicate-instance keying in `canvas-abstraction` — actually spend their
//! time on. Ordering, by contrast, resolves to the underlying string, so
//! every `Ord`-derived canonical order (literal operand order, DNF conjunct
//! order, model-universe order) is byte-identical to what the string-based
//! representation produced; the golden eval tables depend on that.
//!
//! [`FieldId`], [`MethodId`], and [`PredId`] are thin newtypes over the same
//! machinery giving the distinct vocabularies distinct types: fields and
//! methods are interned names, while predicates (the derivation's predicate
//! families) are dense indices suitable for direct vector addressing.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The global symbol table. Strings are leaked on first interning so that
/// resolution hands out `&'static str` without holding a lock.
#[derive(Default)]
pub struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let Ok(id) = u32::try_from(self.strings.len()) else {
            // 2^32 distinct names: a further id would have to alias an
            // existing symbol, and id equality is name equality, so stop
            eprintln!("canvas-logic: symbol interner exhausted its 2^32 ids");
            std::process::abort();
        };
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        self.strings.push(leaked);
        self.map.insert(leaked, id);
        id
    }
}

fn global() -> &'static RwLock<Interner> {
    static GLOBAL: OnceLock<RwLock<Interner>> = OnceLock::new();
    GLOBAL.get_or_init(|| RwLock::new(Interner::default()))
}

// A poisoned lock still guards a consistent table: nothing in
// `Interner::intern` can panic between its `strings` and `map` updates
// (the overflow branch aborts), so a panicking holder left it whole.
fn read() -> RwLockReadGuard<'static, Interner> {
    global().read().unwrap_or_else(PoisonError::into_inner)
}

fn write() -> RwLockWriteGuard<'static, Interner> {
    global().write().unwrap_or_else(PoisonError::into_inner)
}

/// Number of distinct symbols interned so far. Dense tables (bitsets,
/// per-symbol caches) can be sized from this.
pub fn interner_len() -> usize {
    read().strings.len()
}

/// An interned string.
///
/// `Copy`, 4 bytes. `Eq`/`Hash` compare the id; `Ord` compares the resolved
/// strings (see the module docs for why). Dereferences to `str`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Interns `s`, returning its symbol. Idempotent.
    pub fn intern(s: &str) -> Symbol {
        if let Some(&id) = read().map.get(s) {
            return Symbol(id);
        }
        Symbol(write().intern(s))
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        read().strings[self.0 as usize]
    }

    /// The raw id; dense per-symbol tables index with this.
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl std::ops::Deref for Symbol {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl From<Symbol> for String {
    fn from(s: Symbol) -> String {
        s.as_str().to_owned()
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Symbol> for String {
    fn eq(&self, other: &Symbol) -> bool {
        self.as_str() == other.as_str()
    }
}

/// An interned field name (`set`, `ver`, `defVer`, …).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FieldId(pub Symbol);

impl FieldId {
    pub fn new(name: impl Into<Symbol>) -> FieldId {
        FieldId(name.into())
    }

    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// An interned component-method name (`next`, `remove`, `add`, …).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MethodId(pub Symbol);

impl MethodId {
    pub fn new(name: impl Into<Symbol>) -> MethodId {
        MethodId(name.into())
    }

    pub fn as_str(self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for MethodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl PartialEq<str> for MethodId {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for MethodId {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// A dense predicate-family index assigned by the derivation fixpoint.
///
/// Unlike [`Symbol`], ids are ordinal (discovery order), so `Ord` is the
/// numeric order — family 0 is the spec's first derived predicate, and the
/// boolean-program and dataflow layers address their dense tables with
/// [`PredId::index`] directly.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PredId(u32);

impl PredId {
    pub const fn new(id: u32) -> PredId {
        PredId(id)
    }

    /// The id at dense position `index`; `None` past `u32::MAX`.
    pub fn from_index(index: usize) -> Option<PredId> {
        u32::try_from(index).ok().map(PredId)
    }

    /// The dense index for vector addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trips_and_dedups() {
        let a = Symbol::intern("hello");
        let b = Symbol::intern("hello");
        let c = Symbol::intern("world");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "hello");
        assert_eq!(c.as_str(), "world");
    }

    #[test]
    fn ord_is_string_order() {
        let b = Symbol::intern("b-second");
        let a = Symbol::intern("a-first");
        // interning order (b before a) must not leak into the ordering
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn string_comparisons() {
        let s = Symbol::intern("set");
        assert_eq!(s, "set");
        assert_eq!("set", s);
        assert_eq!(s, String::from("set"));
        assert!(s.starts_with("se")); // via Deref<Target = str>
    }

    #[test]
    fn pred_ids_are_dense() {
        let p = PredId::from_index(3).unwrap();
        assert_eq!(p.index(), 3);
        assert_eq!(PredId::from_index(u32::MAX as usize + 1), None);
        assert!(PredId::new(0) < PredId::new(1));
    }
}
