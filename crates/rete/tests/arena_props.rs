//! Property tests: arena-token binding reconstruction must agree with the
//! historical self-contained [`BetaToken`]/[`Bindings`] representation —
//! kept here, as the oracle — on random join chains.
//!
//! The arena stores only the values each level *introduced* plus a parent
//! pointer; the old representation carried the full accumulated binding
//! set in every token. These tests build the same random chain both ways
//! and check that every variable resolves to the same value through
//! [`TokenArena::value`]'s parent-chain walk, that the `FlatToken` wire
//! form round-trips across arenas, and that refcount release drains the
//! arena completely.

use mpps_ops::{intern, Symbol, Value, WmeId};
use mpps_rete::{FlatToken, TokenArena, TokenId, VarRef};
use proptest::prelude::*;

/// A sorted association list from variable to bound value (oracle form).
///
/// Sorted by [`Symbol::index`] — the id-order key — so lookups compare
/// `u32`s, never strings.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
struct Bindings(Vec<(Symbol, Value)>);

impl Bindings {
    /// Look up a variable.
    fn get(&self, var: Symbol) -> Option<Value> {
        self.0
            .binary_search_by(|(s, _)| s.index().cmp(&var.index()))
            .ok()
            .map(|i| self.0[i].1)
    }

    /// Insert or overwrite a binding.
    fn set(&mut self, var: Symbol, value: Value) {
        match self
            .0
            .binary_search_by(|(s, _)| s.index().cmp(&var.index()))
        {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (var, value)),
        }
    }

    /// Number of bound variables.
    fn len(&self) -> usize {
        self.0.len()
    }
}

impl FromIterator<(Symbol, Value)> for Bindings {
    fn from_iter<T: IntoIterator<Item = (Symbol, Value)>>(iter: T) -> Self {
        let mut b = Bindings::default();
        for (s, v) in iter {
            b.set(s, v);
        }
        b
    }
}

/// A self-contained beta token (oracle form): the WMEs matching a prefix of
/// a production's positive CEs, plus the variable bindings they induce.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct BetaToken {
    /// Time tags of the WMEs matched so far, in positive-CE order.
    wme_ids: Vec<WmeId>,
    /// Accumulated variable bindings.
    bindings: Bindings,
}

impl BetaToken {
    /// The token for a first-CE match.
    fn seed(wme_id: WmeId, bindings: Bindings) -> Self {
        BetaToken {
            wme_ids: vec![wme_id],
            bindings,
        }
    }

    /// Extend with one more matched WME and extra bindings.
    fn extended(&self, wme_id: WmeId, extra: &[(Symbol, Value)]) -> Self {
        let mut t = self.clone();
        t.wme_ids.push(wme_id);
        for &(s, v) in extra {
            t.bindings.set(s, v);
        }
        t
    }
}

#[test]
fn bindings_sorted_and_deduped() {
    let mut b = Bindings::default();
    b.set(intern("z"), Value::Int(1));
    b.set(intern("a"), Value::Int(2));
    b.set(intern("z"), Value::Int(3)); // overwrite
    assert_eq!(b.len(), 2);
    assert_eq!(b.get(intern("z")), Some(Value::Int(3)));
    assert_eq!(b.get(intern("a")), Some(Value::Int(2)));
    assert_eq!(b.get(intern("missing")), None);
    // Canonical order is id (interning) order, ascending.
    assert!(b.0.windows(2).all(|w| w[0].0.index() < w[1].0.index()));
}

#[test]
fn bindings_equal_regardless_of_insertion_order() {
    let a: Bindings = [(intern("x"), Value::Int(1)), (intern("y"), Value::Int(2))]
        .into_iter()
        .collect();
    let b: Bindings = [(intern("y"), Value::Int(2)), (intern("x"), Value::Int(1))]
        .into_iter()
        .collect();
    assert_eq!(a, b);
}

#[test]
fn token_extension_accumulates() {
    let seed = BetaToken::seed(
        WmeId(1),
        [(intern("x"), Value::Int(5))].into_iter().collect(),
    );
    let ext = seed.extended(WmeId(2), &[(intern("y"), Value::sym("q"))]);
    assert_eq!(ext.wme_ids, vec![WmeId(1), WmeId(2)]);
    assert_eq!(ext.bindings.get(intern("x")), Some(Value::Int(5)));
    assert_eq!(ext.bindings.get(intern("y")), Some(Value::sym("q")));
    // Original untouched.
    assert_eq!(seed.wme_ids.len(), 1);
}

/// The variable introduced at `(level, slot)` — deterministic, so the
/// oracle map is keyed exactly like the arena layout.
fn var(level: usize, slot: usize) -> Symbol {
    intern(&format!("apv-{level}-{slot}"))
}

/// One random chain: per level, a matched WME id and the values the level
/// introduces (0–3 of them; levels may introduce nothing, as negative-CE
/// passthroughs and bind-free joins do).
fn chain() -> impl Strategy<Value = Vec<(u64, Vec<Value>)>> {
    let value = prop_oneof![
        (0i64..1000).prop_map(Value::Int),
        (0usize..8).prop_map(|i| Value::sym(&format!("apv-sym-{i}"))),
    ];
    prop::collection::vec((0u64..64, prop::collection::vec(value, 0..4)), 1..6)
}

/// Build `spec` into `arena` (returning the top token, one reference) and
/// in parallel the oracle `BetaToken` the old representation would carry.
fn build(arena: &mut TokenArena, spec: &[(u64, Vec<Value>)]) -> (TokenId, BetaToken) {
    let mut cur = TokenId::NONE;
    let mut oracle: Option<BetaToken> = None;
    for (level, (wme, vals)) in spec.iter().enumerate() {
        let t = arena.alloc(cur, WmeId(*wme));
        let extra: Vec<(Symbol, Value)> = vals
            .iter()
            .enumerate()
            .map(|(slot, v)| (var(level, slot), *v))
            .collect();
        for v in vals {
            arena.push_val(t, *v);
        }
        oracle = Some(match &oracle {
            None => BetaToken::seed(WmeId(*wme), extra.iter().copied().collect()),
            Some(o) => o.extended(WmeId(*wme), &extra),
        });
        if cur != TokenId::NONE {
            // The child's parent reference keeps `cur` alive.
            arena.release(cur);
        }
        cur = t;
    }
    (cur, oracle.expect("chain has at least one level"))
}

proptest! {
    #[test]
    fn arena_reconstruction_matches_bindings_oracle(spec in chain()) {
        let mut arena = TokenArena::new();
        let (top, oracle) = build(&mut arena, &spec);

        prop_assert_eq!(arena.wme_ids(top), oracle.wme_ids.clone());

        // Every introduced variable resolves identically through the
        // parent-chain walk and through the accumulated binding set.
        let mut seen = 0;
        for (level, (_, vals)) in spec.iter().enumerate() {
            for slot in 0..vals.len() {
                let r = VarRef { level: level as u16, slot: slot as u16 };
                prop_assert_eq!(Some(arena.value(top, r)), oracle.bindings.get(var(level, slot)));
                seen += 1;
            }
        }
        // All chain variables are distinct, so the oracle holds exactly
        // the introduced bindings — the arena lost none.
        prop_assert_eq!(oracle.bindings.len(), seen);

        // The wire form round-trips into a fresh arena (a worker shipping
        // a token to a peer) with identical chain identity and values.
        let flat: FlatToken = arena.extract(top);
        let mut other = TokenArena::new();
        let t2 = other.intern(&flat);
        prop_assert_eq!(other.wme_ids(t2), arena.wme_ids(top));
        prop_assert_eq!(other.chain_hash(t2), arena.chain_hash(top));
        for (level, (_, vals)) in spec.iter().enumerate() {
            for slot in 0..vals.len() {
                let r = VarRef { level: level as u16, slot: slot as u16 };
                prop_assert_eq!(other.value(t2, r), arena.value(top, r));
            }
        }
        prop_assert_eq!(other.extract(t2), flat);

        // Releasing the single outstanding reference frees the whole
        // chain in both arenas.
        arena.release(top);
        prop_assert_eq!(arena.live(), 0);
        other.release(t2);
        prop_assert_eq!(other.live(), 0);
    }

    #[test]
    fn chain_equality_agrees_with_wme_lists(a in chain(), b in chain()) {
        let mut arena = TokenArena::new();
        let (ta, oa) = build(&mut arena, &a);
        let (tb, ob) = build(&mut arena, &b);
        prop_assert_eq!(arena.chain_eq(ta, tb), oa.wme_ids == ob.wme_ids);
        // Equality is on the WME chain: the fingerprints must agree
        // whenever the chains do.
        if oa.wme_ids == ob.wme_ids {
            prop_assert_eq!(arena.chain_hash(ta), arena.chain_hash(tb));
        }
        arena.release(ta);
        arena.release(tb);
        prop_assert_eq!(arena.live(), 0);
    }
}
