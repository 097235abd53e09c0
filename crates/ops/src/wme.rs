//! Working memory elements and the working memory.
//!
//! A [`Wme`] is a record: a *class* symbol plus a set of attribute/value
//! pairs. Each WME carries a unique, monotonically increasing [`WmeId`] that
//! doubles as its OPS5 *time tag* — conflict resolution compares recency via
//! these ids, and Rete tokens identify their constituent WMEs by id.

use crate::symbol::{intern, Symbol};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Attribute pairs are kept sorted by [`Symbol::index`] — the copyable
/// interning-order key — so lookups are a `u32` binary search and equality
/// never touches strings. Id order is stable within a process but is *not*
/// lexicographic; [`Wme`]'s `Display` re-sorts by string for canonical text.
fn sort_key(pair: &(Symbol, Value)) -> u32 {
    pair.0.index()
}

/// Unique identifier (and time tag) of a working-memory element.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WmeId(pub u64);

impl fmt::Display for WmeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Add or delete — the polarity of a WM change or Rete token.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sign {
    /// `+`: the element/token is being added.
    Plus,
    /// `-`: the element/token is being deleted.
    Minus,
}

impl Sign {
    /// The opposite polarity (used by negative nodes, which invert signs).
    pub fn flipped(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sign::Plus => "+",
            Sign::Minus => "-",
        })
    }
}

/// A working-memory element: class plus attribute/value pairs.
///
/// Attributes are stored as a vector sorted by symbol id, so that WMEs have
/// a canonical in-process form: two WMEs constructed with the same pairs in
/// any order are equal, iteration order is deterministic, and the hot match
/// path (`get` during alpha tests and join-value extraction) is a `u32`
/// binary search with no string comparison and no tree-node chasing.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Wme {
    class: Symbol,
    attrs: Vec<(Symbol, Value)>,
}

impl Wme {
    /// Create a WME of class `class` with the given attribute pairs.
    /// Later duplicates of the same attribute overwrite earlier ones.
    pub fn new(class: impl Into<Symbol>, attrs: &[(&str, Value)]) -> Self {
        let mut wme = Wme {
            class: class.into(),
            attrs: Vec::with_capacity(attrs.len()),
        };
        for (a, v) in attrs {
            wme.set(intern(a), *v);
        }
        wme
    }

    /// Create a WME from already-interned attribute symbols.
    pub fn from_pairs(class: Symbol, pairs: impl IntoIterator<Item = (Symbol, Value)>) -> Self {
        let mut wme = Wme {
            class,
            attrs: Vec::new(),
        };
        for (a, v) in pairs {
            wme.set(a, v);
        }
        wme
    }

    /// The class symbol of this WME.
    pub fn class(&self) -> Symbol {
        self.class
    }

    /// Look up an attribute value.
    pub fn get(&self, attr: Symbol) -> Option<Value> {
        self.attrs
            .binary_search_by_key(&attr.index(), sort_key)
            .ok()
            .map(|i| self.attrs[i].1)
    }

    /// Set (or overwrite) an attribute. Used by `modify` actions.
    pub fn set(&mut self, attr: Symbol, value: Value) {
        match self.attrs.binary_search_by_key(&attr.index(), sort_key) {
            Ok(i) => self.attrs[i].1 = value,
            Err(i) => self.attrs.insert(i, (attr, value)),
        }
    }

    /// Iterate attribute pairs in canonical (id-sorted) order. This is
    /// interning order, not lexicographic — use [`Wme`]'s `Display` for
    /// canonical text.
    pub fn attrs(&self) -> impl Iterator<Item = (Symbol, Value)> + '_ {
        self.attrs.iter().copied()
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if the WME has no attributes (class only).
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }
}

impl fmt::Display for Wme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Canonical text sorts attributes lexicographically, independent of
        // interning order (traces and goldens compare this form).
        let mut pairs: Vec<(Symbol, Value)> = self.attrs.clone();
        pairs.sort_by_key(|(a, _)| a.as_str());
        write!(f, "({}", self.class)?;
        for (a, v) in pairs {
            write!(f, " ^{a} {v}")?;
        }
        write!(f, ")")
    }
}

/// The working memory: the set of live WMEs plus the time-tag counter.
///
/// Each element is one shared allocation: the [`WmeChange`](crate::WmeChange)
/// that announces it and the matcher memories that hold it point at the
/// same `Arc`, so adding a WME copies no attributes.
#[derive(Clone, Debug, Default)]
pub struct WorkingMemory {
    elements: BTreeMap<WmeId, Arc<Wme>>,
    next_id: u64,
}

impl WorkingMemory {
    /// An empty working memory whose first time tag will be 1.
    pub fn new() -> Self {
        WorkingMemory {
            elements: BTreeMap::new(),
            next_id: 1,
        }
    }

    /// Rebuild a working memory from live `(id, wme)` pairs and the next
    /// time tag to hand out — the restore half of session snapshotting.
    /// `next_id` must be beyond every live id so time tags stay unique.
    pub fn from_parts(elements: impl IntoIterator<Item = (WmeId, Wme)>, next_id: u64) -> Self {
        let elements: BTreeMap<WmeId, Arc<Wme>> = elements
            .into_iter()
            .map(|(id, wme)| (id, Arc::new(wme)))
            .collect();
        assert!(
            elements
                .keys()
                .next_back()
                .is_none_or(|last| last.0 < next_id),
            "next_id must exceed every live time tag"
        );
        WorkingMemory { elements, next_id }
    }

    /// Insert a WME, assigning it a fresh time tag.
    pub fn add(&mut self, wme: impl Into<Arc<Wme>>) -> WmeId {
        let id = WmeId(self.next_id);
        self.next_id += 1;
        self.elements.insert(id, wme.into());
        id
    }

    /// Remove the WME with the given id, returning it if present.
    pub fn remove(&mut self, id: WmeId) -> Option<Arc<Wme>> {
        self.elements.remove(&id)
    }

    /// Look up a live WME.
    pub fn get(&self, id: WmeId) -> Option<&Wme> {
        self.elements.get(&id).map(|w| &**w)
    }

    /// Iterate `(id, shared wme)` pairs in time-tag order.
    pub(crate) fn shared(&self) -> impl Iterator<Item = (WmeId, &Arc<Wme>)> {
        self.elements.iter().map(|(id, w)| (*id, w))
    }

    /// Number of live WMEs.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if no WMEs are live.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Iterate `(id, wme)` pairs in time-tag order.
    pub fn iter(&self) -> impl Iterator<Item = (WmeId, &Wme)> {
        self.elements.iter().map(|(id, w)| (*id, &**w))
    }

    /// The time tag that the *next* added WME will receive.
    pub fn next_id(&self) -> WmeId {
        WmeId(self.next_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(name: &str, color: &str) -> Wme {
        Wme::new("block", &[("name", name.into()), ("color", color.into())])
    }

    #[test]
    fn wme_attribute_order_is_canonical() {
        let a = Wme::new("b", &[("x", 1.into()), ("y", 2.into())]);
        let b = Wme::new("b", &[("y", 2.into()), ("x", 1.into())]);
        assert_eq!(a, b);
        let attrs: Vec<_> = a.attrs().collect();
        assert_eq!(attrs.len(), 2);
    }

    #[test]
    fn duplicate_attribute_last_wins() {
        let w = Wme::new("b", &[("x", 1.into()), ("x", 2.into())]);
        assert_eq!(w.get(intern("x")), Some(Value::Int(2)));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn get_missing_attribute_is_none() {
        let w = block("b1", "blue");
        assert_eq!(w.get(intern("absent")), None);
    }

    #[test]
    fn set_overwrites() {
        let mut w = block("b1", "blue");
        w.set(intern("color"), Value::sym("red"));
        assert_eq!(w.get(intern("color")), Some(Value::sym("red")));
    }

    #[test]
    fn display_format() {
        let w = block("b1", "blue");
        assert_eq!(w.to_string(), "(block ^color blue ^name b1)");
    }

    #[test]
    fn display_is_lexicographic_even_when_id_order_differs() {
        // Intern the lexicographically-smaller attribute *second*, so id
        // order and string order disagree; Display must still sort by
        // string while attrs() iterates id order.
        let w = Wme::new(
            "probe",
            &[("zz-disp-probe", 1.into()), ("aa-disp-probe", 2.into())],
        );
        assert_eq!(w.to_string(), "(probe ^aa-disp-probe 2 ^zz-disp-probe 1)");
        let ids: Vec<u32> = w.attrs().map(|(a, _)| a.index()).collect();
        assert!(ids.windows(2).all(|p| p[0] < p[1]), "attrs id-sorted");
    }

    #[test]
    fn wm_assigns_increasing_time_tags() {
        let mut wm = WorkingMemory::new();
        let a = wm.add(block("b1", "blue"));
        let b = wm.add(block("b2", "red"));
        assert!(a < b);
        assert_eq!(a, WmeId(1));
        assert_eq!(b, WmeId(2));
    }

    #[test]
    fn wm_remove_returns_element_and_frees_slot() {
        let mut wm = WorkingMemory::new();
        let id = wm.add(block("b1", "blue"));
        assert_eq!(wm.len(), 1);
        let w = wm.remove(id).unwrap();
        assert_eq!(w.get(intern("name")), Some(Value::sym("b1")));
        assert!(wm.is_empty());
        assert!(wm.remove(id).is_none());
    }

    #[test]
    fn wm_time_tags_never_reused_after_removal() {
        let mut wm = WorkingMemory::new();
        let a = wm.add(block("b1", "blue"));
        wm.remove(a);
        let b = wm.add(block("b1", "blue"));
        assert_ne!(a, b);
        assert!(b > a);
    }

    #[test]
    fn sign_flip() {
        assert_eq!(Sign::Plus.flipped(), Sign::Minus);
        assert_eq!(Sign::Minus.flipped(), Sign::Plus);
        assert_eq!(Sign::Plus.to_string(), "+");
    }

    #[test]
    fn wm_iteration_in_time_tag_order() {
        let mut wm = WorkingMemory::new();
        for i in 0..5 {
            wm.add(Wme::new("c", &[("i", i.into())]));
        }
        let ids: Vec<u64> = wm.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
    }
}
