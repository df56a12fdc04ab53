//! String interning.
//!
//! Entity names, entity types and edge predicates are interned once so that
//! the query engine's hot loops compare and hash `u32` ids instead of
//! strings. The interner is append-only: ids are dense and stable.

use rustc_hash::FxHashMap;

/// An append-only string pool mapping strings to dense `u32` ids and back.
///
/// ```
/// use kgraph::Interner;
/// let mut i = Interner::new();
/// let a = i.intern("assembly");
/// assert_eq!(i.intern("assembly"), a); // idempotent
/// assert_eq!(i.resolve(a), "assembly");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<Box<str>>,
    lookup: FxHashMap<Box<str>, u32>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its dense id. Re-interning returns the same id.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.lookup.insert(boxed, id);
        id
    }

    /// Returns the id of `s` if it has been interned.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.lookup.get(s).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &str {
        &self.strings[id as usize]
    }

    /// Resolves an id, returning `None` when out of range.
    pub fn try_resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(AsRef::as_ref)
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_ref()))
    }

    /// Builds an interner directly from its id-ordered string table (the
    /// snapshot decode path — one hash per string instead of
    /// [`Self::intern`]'s lookup-then-insert two). Returns `None` when the
    /// table holds a duplicate, which a well-formed snapshot never does.
    pub fn from_strings(strings: Vec<Box<str>>) -> Option<Self> {
        let mut lookup = FxHashMap::with_capacity_and_hasher(strings.len(), Default::default());
        for (i, s) in strings.iter().enumerate() {
            if lookup.insert(s.clone(), i as u32).is_some() {
                return None;
            }
        }
        Some(Self { strings, lookup })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("product");
        let b = i.intern("assembly");
        assert_ne!(a, b);
        assert_eq!(i.intern("product"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i = Interner::new();
        let id = i.intern("Germany");
        assert_eq!(i.resolve(id), "Germany");
        assert_eq!(i.get("Germany"), Some(id));
        assert_eq!(i.get("France"), None);
    }

    #[test]
    fn try_resolve_handles_out_of_range() {
        let i = Interner::new();
        assert_eq!(i.try_resolve(0), None);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut i = Interner::new();
        for (n, s) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(i.intern(s), n as u32);
        }
        let collected: Vec<_> = i.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }

    proptest! {
        #[test]
        fn prop_bijection(strings in proptest::collection::vec("[a-z]{1,8}", 0..50)) {
            let mut i = Interner::new();
            let ids: Vec<u32> = strings.iter().map(|s| i.intern(s)).collect();
            // Resolving every id returns the original string.
            for (s, &id) in strings.iter().zip(&ids) {
                prop_assert_eq!(i.resolve(id), s.as_str());
            }
            // Distinct strings get distinct ids.
            let mut seen = std::collections::HashMap::new();
            for (s, &id) in strings.iter().zip(&ids) {
                if let Some(&prev) = seen.get(s) {
                    prop_assert_eq!(prev, id);
                } else {
                    seen.insert(s.clone(), id);
                }
            }
            prop_assert_eq!(i.len(), seen.len());
        }
    }
}
