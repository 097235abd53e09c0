//! Interned symbols.
//!
//! OPS5 programs are dominated by small symbolic constants (`blue`, `block`,
//! `^on`, variable names). Interning turns them into copyable `u32` handles
//! so that the hot match path compares and hashes integers instead of
//! strings — the same trick the OPS83-encoded Rete of the paper relies on.
//!
//! The interner is process-global and append-only: a symbol, once interned,
//! lives for the lifetime of the process. This keeps [`Symbol`] `Copy` and
//! `'static`-resolvable without threading a table through every API.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// A handle to an interned string.
///
/// Equality and hashing are on the handle (O(1)). Two `Symbol`s are equal
/// iff their source strings are equal.
///
/// Two orders exist, with different jobs:
///
/// * [`Ord`] is *lexicographic on the underlying string* — a canonical,
///   process-independent order for anything textual (trace goldens, WME
///   `Display`, sorted program listings).
/// * [`Symbol::index`] is the *id order* key — the raw `u32` interning
///   order, `Copy` and comparable without touching the string table. Hot
///   containers (WME attribute vectors) sort on this instead; their
///   iteration order is deterministic within a process but not
///   lexicographic.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

struct Interner {
    /// Map from string to handle index.
    map: HashMap<&'static str, u32>,
    /// Handle index to leaked string.
    strings: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

/// Intern `s`, returning its stable handle.
pub fn intern(s: &str) -> Symbol {
    {
        let guard = interner().read().expect("symbol interner poisoned");
        if let Some(&idx) = guard.map.get(s) {
            return Symbol(idx);
        }
    }
    let mut guard = interner().write().expect("symbol interner poisoned");
    if let Some(&idx) = guard.map.get(s) {
        return Symbol(idx);
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    let idx = u32::try_from(guard.strings.len()).expect("interner full");
    guard.strings.push(leaked);
    guard.map.insert(leaked, idx);
    Symbol(idx)
}

/// Resolve a handle back to its string.
pub fn resolve(sym: Symbol) -> &'static str {
    let guard = interner().read().expect("symbol interner poisoned");
    guard.strings[sym.0 as usize]
}

impl Symbol {
    /// The string this symbol was interned from.
    pub fn as_str(self) -> &'static str {
        resolve(self)
    }

    /// Raw handle value; stable for the lifetime of the process.
    ///
    /// This is the **id-order key**: hot containers sort and search on it
    /// because it is `Copy`, compares as a single `u32`, and never touches
    /// the string table. The Rete hash function also mixes it into node
    /// and value identities. Id order is interning order — deterministic
    /// within a process, *not* lexicographic; use [`Ord`] where canonical
    /// textual order matters.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        intern(s)
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = intern("blue");
        let b = intern("blue");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "blue");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(intern("left"), intern("right"));
    }

    #[test]
    fn empty_string_is_a_valid_symbol() {
        let e = intern("");
        assert_eq!(e.as_str(), "");
        assert_eq!(e, intern(""));
    }

    #[test]
    fn display_roundtrips() {
        let s = intern("clear-the-blue-block");
        assert_eq!(s.to_string(), "clear-the-blue-block");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| intern("shared-symbol")))
            .collect();
        let syms: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn index_is_stable() {
        let a = intern("stable-idx-test");
        assert_eq!(a.index(), intern("stable-idx-test").index());
    }

    #[test]
    fn id_order_is_interning_order_not_lexicographic() {
        // Freshly interned symbols get increasing indices regardless of
        // their lexicographic relation — the two orders are independent.
        let z = intern("zzz-id-order-probe");
        let a = intern("aaa-id-order-probe");
        assert!(z.index() < a.index(), "interning order");
        assert!(z > a, "Ord stays lexicographic");
    }
}
