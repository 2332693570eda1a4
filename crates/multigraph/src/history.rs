//! Node state histories.
//!
//! The state of a non-leader node at round `r` is the ordered list of its
//! edge-label sets in rounds `0..r` (Definition 6): `S(v, r) = [⊥, L(v,0),
//! …, L(v,r-1)]`. We drop the uniform `⊥` prefix, as the paper does when
//! convenient, and represent the state as a [`History`] — a sequence of
//! [`LabelSet`]s.
//!
//! For `k = 2` the three possible label sets order as `{1} < {2} < {1,2}`,
//! so a length-`L` history is a ternary string and histories biject with
//! `0..3^L` via [`History::ternary_index`]. The *sign* of a history — the
//! parity of its `{1,2}` entries — is exactly the sign of the corresponding
//! component of the paper's kernel vector `k_r` (Lemma 3).
//!
//! # The arena
//!
//! Simulations do not hold owned histories: a [`HistoryArena`] interns
//! each distinct history once and hands out 4-byte [`HistoryId`]
//! handles. As in Di Luna–Viglietta's history trees, a history is stored
//! as a node of a tree rather than as a sequence: each entry is a
//! fixed-size record of parent handle, last label-set mask, length,
//! cached ternary index and sign. No entry owns heap memory, so
//! interning a round's histories appends to one `Vec` and dropping an
//! arena frees one allocation. The mask sequence is the parent chain:
//! [`HistoryArena::masks`] collects it, and
//! [`HistoryArena::cmp_canonical`] and [`HistoryArena::masks_rev`]
//! compare histories by walking it, without allocating.
//!
//! Entries arrive one at a time through [`HistoryArena::child`], which
//! deduplicates through a `(parent, mask)` hash index, or one level at a
//! time through [`HistoryArena::intern_level`], which skips the index
//! because its checks prove every pair new. `child` indexes the entries
//! the bulk path added before its next lookup, so the arena stays
//! hash-consed whichever path interned a history, and both push in call
//! order, so handle values are the same either way.

use crate::label::LabelSet;
use core::cmp::Ordering;
use core::fmt;
use std::collections::HashMap;

/// Number of length-`len` histories over `k = 2` label sets, i.e. `3^len`.
///
/// # Panics
///
/// Panics if `3^len` overflows `usize` (len ≥ 41 on 64-bit). Fallible
/// callers — everything on an algorithm-runner path — should use
/// [`checked_ternary_count`] and surface a typed error instead.
pub fn ternary_count(len: usize) -> usize {
    checked_ternary_count(len).expect("3^len overflows usize")
}

/// [`ternary_count`] without the panic: `None` when `3^len` overflows
/// `usize` (len ≥ 41 on 64-bit).
pub fn checked_ternary_count(len: usize) -> Option<usize> {
    u32::try_from(len)
        .ok()
        .and_then(|len| 3usize.checked_pow(len))
}

/// A node state history: the list `[L(v,0), …, L(v,r-1)]` of per-round edge
/// label sets.
///
/// # Examples
///
/// ```
/// use anonet_multigraph::{History, LabelSet};
///
/// let h = History::new(vec![LabelSet::L1, LabelSet::L12]);
/// assert_eq!(h.to_string(), "[{1},{1,2}]");
/// assert_eq!(h.ternary_index(), 2); // digits (0, 2) → 0·3 + 2
/// assert_eq!(h.sign(), -1);         // one {1,2} entry → negative
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct History(Vec<LabelSet>);

impl History {
    /// Creates a history from label sets (round 0 first).
    pub fn new(sets: Vec<LabelSet>) -> History {
        History(sets)
    }

    /// The empty history (`[⊥]` in paper notation: a node before round 0).
    pub fn empty() -> History {
        History(Vec::new())
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no rounds are recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The label sets, round 0 first.
    pub fn sets(&self) -> &[LabelSet] {
        &self.0
    }

    /// The label set at round `r`.
    pub fn get(&self, r: usize) -> Option<LabelSet> {
        self.0.get(r).copied()
    }

    /// Returns the history extended by one more round.
    pub fn child(&self, next: LabelSet) -> History {
        let mut sets = self.0.clone();
        sets.push(next);
        History(sets)
    }

    /// The history truncated to its first `len` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn prefix(&self, len: usize) -> History {
        assert!(len <= self.len(), "prefix longer than history");
        History(self.0[..len].to_vec())
    }

    /// The parent history (all but the last round), or `None` if empty.
    pub fn parent(&self) -> Option<History> {
        if self.is_empty() {
            None
        } else {
            Some(History(self.0[..self.len() - 1].to_vec()))
        }
    }

    /// For `k = 2`: the index of this history in the lexicographic
    /// enumeration of all length-`len` ternary histories — the column index
    /// of the paper's observation matrix `M_r` (§4.2 column ordering).
    ///
    /// # Panics
    ///
    /// Panics if any label set is not a `k = 2` set.
    pub fn ternary_index(&self) -> usize {
        self.0
            .iter()
            .fold(0usize, |acc, s| acc * 3 + s.ternary_digit())
    }

    /// Inverse of [`History::ternary_index`]: the `idx`-th length-`len`
    /// history over `k = 2` label sets.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 3^len`.
    pub fn from_ternary_index(len: usize, idx: usize) -> History {
        assert!(idx < ternary_count(len), "ternary index out of range");
        let mut digits = vec![0usize; len];
        let mut rest = idx;
        for d in digits.iter_mut().rev() {
            *d = rest % 3;
            rest /= 3;
        }
        History(
            digits
                .into_iter()
                .map(LabelSet::from_ternary_digit)
                .collect(),
        )
    }

    /// For `k = 2`: the sign of the corresponding kernel component of
    /// Lemma 3 — `+1` if the history contains an even number of `{1,2}`
    /// entries, `-1` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if any label set is not a `k = 2` set.
    pub fn sign(&self) -> i64 {
        let twos = self.0.iter().filter(|s| s.ternary_digit() == 2).count();
        if twos % 2 == 0 {
            1
        } else {
            -1
        }
    }
}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "History{self}")
    }
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<LabelSet> for History {
    fn from_iter<I: IntoIterator<Item = LabelSet>>(iter: I) -> History {
        History(iter.into_iter().collect())
    }
}

/// Error parsing a [`History`] from its display form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseHistoryError {
    detail: String,
}

impl fmt::Display for ParseHistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse history: {}", self.detail)
    }
}

impl std::error::Error for ParseHistoryError {}

/// Parses the display form, e.g. `"[{1},{1,2}]"` (labels up to 31).
impl core::str::FromStr for History {
    type Err = ParseHistoryError;

    fn from_str(s: &str) -> Result<History, ParseHistoryError> {
        let err = |d: &str| ParseHistoryError { detail: d.into() };
        let inner = s
            .trim()
            .strip_prefix('[')
            .and_then(|x| x.strip_suffix(']'))
            .ok_or_else(|| err("missing [ ] delimiters"))?;
        let mut sets = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let body_start = rest.strip_prefix('{').ok_or_else(|| err("expected '{'"))?;
            let close = body_start
                .find('}')
                .ok_or_else(|| err("unterminated '{'"))?;
            let body = &body_start[..close];
            let labels: Vec<u8> = body
                .split(',')
                .map(|x| x.trim().parse::<u8>())
                .collect::<Result<_, _>>()
                .map_err(|_| err("labels must be integers"))?;
            sets.push(
                LabelSet::from_labels(&labels, crate::label::MAX_LABELS)
                    .map_err(|e| err(&e.to_string()))?,
            );
            rest = body_start[close + 1..].trim();
            if let Some(r) = rest.strip_prefix(',') {
                rest = r.trim();
                if rest.is_empty() {
                    return Err(err("trailing comma"));
                }
            } else if !rest.is_empty() {
                return Err(err("expected ',' between sets"));
            }
        }
        Ok(History(sets))
    }
}

/// Handle to a history interned in a [`HistoryArena`].
///
/// Handles are 4 bytes, `Copy`, and O(1) to compare — but their numeric
/// value depends on the order the arena first saw each history, so a
/// handle is only meaningful together with the arena that produced it.
/// Comparing or resolving a handle against a *different* arena is a
/// logic error (the arena panics if the index is out of range and
/// silently denotes some other history if it is not). Cross-arena
/// comparisons must go through the canonical key
/// ([`HistoryArena::masks`]) or the resolved [`History`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HistoryId(u32);

impl HistoryId {
    /// The handle of the empty history, in every arena.
    pub const EMPTY: HistoryId = HistoryId(0);

    /// The arena-local index of this handle.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned history: a parent link plus the last round's label set,
/// with the per-history caches. The entry is fixed-size (24 bytes) and
/// owns no heap memory; the full mask sequence is the parent chain.
#[derive(Debug, Clone, Copy)]
struct HistoryEntry {
    /// Cached [`History::ternary_index`]; meaningful only if `ternary_ok`.
    ternary: usize,
    parent: HistoryId,
    /// The last round's label-set mask; 0 (no set) for the empty history.
    last: u32,
    /// Number of recorded rounds.
    len: u32,
    /// Cached [`History::sign`] as `±1`; 0 if some set is not a `k = 2`
    /// set.
    sign: i8,
    /// Whether every set is a `k = 2` set and the index fits `usize`.
    ternary_ok: bool,
}

impl HistoryEntry {
    /// The entry of the empty history.
    const EMPTY: HistoryEntry = HistoryEntry {
        ternary: 0,
        parent: HistoryId::EMPTY,
        last: 0,
        len: 0,
        sign: 1,
        ternary_ok: true,
    };

    /// The entry of this history (handle `parent`) extended by `next`.
    fn child(&self, parent: HistoryId, next: LabelSet) -> HistoryEntry {
        let mask = next.mask();
        let digit = (mask <= 0b11).then(|| next.ternary_digit());
        let ternary = digit
            .filter(|_| self.ternary_ok)
            .and_then(|d| self.ternary.checked_mul(3)?.checked_add(d));
        HistoryEntry {
            ternary: ternary.unwrap_or(0),
            parent,
            last: mask,
            len: self.len.checked_add(1).expect("history length exceeds u32"),
            sign: match digit {
                Some(2) => -self.sign,
                Some(_) => self.sign,
                None => 0,
            },
            ternary_ok: ternary.is_some(),
        }
    }
}

/// A hash-consing arena for [`History`] values.
///
/// `simulate` produces one `(label, state)` delivery per edge per round;
/// materialising the state as an owned [`History`] clones a growing
/// label-set vector for every single delivery. The arena stores each
/// *distinct* history once, as a parent handle plus its last label set,
/// and hands out 4-byte [`HistoryId`] handles. Per-round queries the
/// leader needs — length, last set, parent, ternary column index, kernel
/// sign — are cached per entry, so reading them through a handle is
/// O(1); the full mask sequence ([`HistoryArena::masks`]) is a walk up
/// the parent chain.
///
/// Histories enter the arena two ways, and both keep it hash-consed
/// (one handle per distinct history):
///
/// * [`HistoryArena::child`] — one history at a time, deduplicated
///   through a `(parent, mask)` hash index;
/// * [`HistoryArena::intern_level`] — a whole round's new histories in
///   one call with no hash probe, for pairs that two O(1) checks prove
///   new. The round engine ([`RoundEngine`](crate::soa::RoundEngine))
///   interns every round this way.
///
/// The hash index is built lazily: `child` first indexes whatever the
/// bulk path appended since its last call. Both paths push entries in
/// call order, so handle values do not depend on which path interned a
/// history.
///
/// # Examples
///
/// ```
/// use anonet_multigraph::{History, HistoryArena, HistoryId, LabelSet};
///
/// let mut arena = HistoryArena::new();
/// let root = HistoryArena::empty();
/// let a = arena.child(root, LabelSet::L1);
/// let b = arena.child(root, LabelSet::L1);
/// assert_eq!(a, b); // hash-consed: same history, same handle
/// let ab = arena.child(a, LabelSet::L12);
/// assert_eq!(arena.resolve(ab), History::new(vec![LabelSet::L1, LabelSet::L12]));
/// assert_eq!(arena.ternary_index(ab), 2); // cached, O(1)
/// assert_eq!(arena.sign(ab), -1);
///
/// // A level in bulk: parents at the deepest level, pairs increasing.
/// let mut level = Vec::new();
/// arena.intern_level([(ab, LabelSet::L1), (ab, LabelSet::L2)], &mut level);
/// assert_eq!(arena.child(ab, LabelSet::L2), level[1]); // still hash-consed
/// ```
#[derive(Debug, Clone)]
pub struct HistoryArena {
    entries: Vec<HistoryEntry>,
    /// Number of rounds of the longest interned history.
    deepest: u32,
    /// `(parent, mask) → child` for [`HistoryArena::child`]; covers
    /// `entries[..indexed]` and catches up on each `child` call.
    children: HashMap<(u32, u32), u32>,
    indexed: usize,
}

impl Default for HistoryArena {
    fn default() -> Self {
        HistoryArena::new()
    }
}

impl HistoryArena {
    /// An arena holding only the empty history.
    pub fn new() -> HistoryArena {
        HistoryArena {
            entries: vec![HistoryEntry::EMPTY],
            deepest: 0,
            children: HashMap::new(),
            // The empty history is nobody's child.
            indexed: 1,
        }
    }

    /// The handle of the empty history (valid in every arena).
    pub fn empty() -> HistoryId {
        HistoryId::EMPTY
    }

    /// Number of distinct histories interned so far (including the empty
    /// one).
    pub fn interned(&self) -> usize {
        self.entries.len()
    }

    /// Every handle of this arena, in interning order (the empty history
    /// first).
    pub fn ids(&self) -> impl Iterator<Item = HistoryId> {
        (0..self.entries.len()).map(|i| HistoryId(u32::try_from(i).expect("handles fit u32")))
    }

    fn entry(&self, id: HistoryId) -> &HistoryEntry {
        &self.entries[id.index()]
    }

    /// Appends the entry of `parent` extended by `next`, unchecked.
    fn push(&mut self, parent: HistoryId, next: LabelSet) -> HistoryId {
        let id = u32::try_from(self.entries.len()).expect("arena handle space exhausted");
        let entry = self.entry(parent).child(parent, next);
        self.deepest = self.deepest.max(entry.len);
        self.entries.push(entry);
        HistoryId(id)
    }

    /// The handle of `parent` extended by one round — interning it on
    /// first sight, returning the existing handle afterwards.
    pub fn child(&mut self, parent: HistoryId, next: LabelSet) -> HistoryId {
        for (i, e) in self.entries.iter().enumerate().skip(self.indexed) {
            let id = u32::try_from(i).expect("handles fit u32");
            self.children.insert((e.parent.0, e.last), id);
        }
        self.indexed = self.entries.len();
        let key = (parent.0, next.mask());
        if let Some(&id) = self.children.get(&key) {
            return HistoryId(id);
        }
        let id = self.push(parent, next);
        self.children.insert(key, id.0);
        self.indexed = self.entries.len();
        id
    }

    /// Interns one level of new histories in bulk: each `(parent, set)`
    /// pair, in the given order, becomes a new entry whose handle is
    /// appended to `out`.
    ///
    /// No hash lookup runs. Instead two checks per pair, each O(1),
    /// prove every pair new: every parent has as many rounds as the
    /// arena's longest history had when the call began (so none of its
    /// children exists yet), and the pairs strictly increase in
    /// `(parent, mask)` order (so none repeats within the call). The
    /// handles are exactly those that [`HistoryArena::child`] calls on
    /// the same pairs in the same order would return, and `child` keeps
    /// returning them afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a pair fails either check, since pushing it could
    /// intern a history twice; [`HistoryArena::child`] is the API for
    /// pairs that may exist. The pairs before it stay interned, and
    /// they are new, so the arena stays hash-consed. Also panics if a
    /// parent handle is out of range or the arena runs out of `u32`
    /// handles.
    pub fn intern_level<I>(&mut self, pairs: I, out: &mut Vec<HistoryId>)
    where
        I: IntoIterator<Item = (HistoryId, LabelSet)>,
    {
        let deepest = self.deepest;
        let mut prev: Option<(HistoryId, u32)> = None;
        for (parent, set) in pairs {
            let key = (parent, set.mask());
            let len = self.entry(parent).len;
            assert!(
                len == deepest,
                "bulk parent {parent:?} has {len} rounds, not the deepest {deepest}"
            );
            assert!(
                prev.is_none_or(|p| p < key),
                "bulk pair {key:?} does not follow {prev:?} in (parent, mask) order"
            );
            prev = Some(key);
            out.push(self.push(parent, set));
        }
    }

    /// Interns an owned history, one round at a time.
    pub fn intern(&mut self, h: &History) -> HistoryId {
        h.sets()
            .iter()
            .fold(HistoryId::EMPTY, |id, &s| self.child(id, s))
    }

    /// Reconstructs the owned [`History`] behind a handle.
    pub fn resolve(&self, id: HistoryId) -> History {
        self.masks(id)
            .into_iter()
            .map(|m| {
                LabelSet::from_mask(m, crate::label::MAX_LABELS)
                    .expect("arena masks are valid label sets")
            })
            .collect()
    }

    /// Number of recorded rounds of the history behind `id` — O(1).
    pub fn history_len(&self, id: HistoryId) -> usize {
        self.entry(id).len as usize
    }

    /// The canonical key of the history behind `id`: its label-set mask
    /// sequence, round 0 first, collected from the parent chain.
    /// Lexicographic order on keys equals [`History`]'s derived `Ord`,
    /// so keys compare and hash across arenas. Within one arena,
    /// [`HistoryArena::cmp_canonical`] and [`HistoryArena::masks_rev`]
    /// compare without allocating.
    pub fn masks(&self, id: HistoryId) -> Vec<u32> {
        let mut masks: Vec<u32> = self.masks_rev(id).collect();
        masks.reverse();
        masks
    }

    /// The label-set masks of the history behind `id`, last round
    /// first — a walk up the parent chain that allocates nothing.
    pub fn masks_rev(&self, id: HistoryId) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.entry(id);
        std::iter::from_fn(move || {
            if cur.len == 0 {
                return None;
            }
            let mask = cur.last;
            cur = self.entry(cur.parent);
            Some(mask)
        })
    }

    /// The canonical order of two histories of this arena: equal to
    /// `self.masks(a).cmp(&self.masks(b))`, without allocating.
    ///
    /// Both handles walk up to their common length; if they meet, the
    /// shorter history is a prefix of the longer. Otherwise they walk up
    /// in lockstep until their parents coincide, and the last sets
    /// there are the first difference. Hash-consing (one handle per
    /// distinct history) makes equal handles mean equal prefixes.
    pub fn cmp_canonical(&self, a: HistoryId, b: HistoryId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let (la, lb) = (self.entry(a).len, self.entry(b).len);
        let (mut x, mut y) = (self.ancestor(a, lb), self.ancestor(b, la));
        if x == y {
            return la.cmp(&lb);
        }
        loop {
            let (ex, ey) = (self.entry(x), self.entry(y));
            if ex.parent == ey.parent {
                return ex.last.cmp(&ey.last);
            }
            (x, y) = (ex.parent, ey.parent);
        }
    }

    /// The ancestor of `id` with at most `len` rounds (`id` itself if it
    /// is no longer).
    fn ancestor(&self, mut id: HistoryId, len: u32) -> HistoryId {
        while self.entry(id).len > len {
            id = self.entry(id).parent;
        }
        id
    }

    /// The parent handle (all but the last round), or `None` for the
    /// empty history.
    pub fn parent(&self, id: HistoryId) -> Option<HistoryId> {
        let e = self.entry(id);
        (e.len > 0).then_some(e.parent)
    }

    /// The last round's label set, or `None` for the empty history.
    pub fn last(&self, id: HistoryId) -> Option<LabelSet> {
        LabelSet::from_mask(self.entry(id).last, crate::label::MAX_LABELS).ok()
    }

    /// Cached [`History::ternary_index`] — O(1) per query instead of
    /// O(rounds).
    ///
    /// # Panics
    ///
    /// Panics if some label set is not a `k = 2` set, mirroring
    /// [`History::ternary_index`], or if the index overflows `usize`.
    pub fn ternary_index(&self, id: HistoryId) -> usize {
        self.checked_ternary_index(id)
            .expect("history is not a k = 2 ternary history (or its index overflows)")
    }

    /// Checked [`HistoryArena::ternary_index`]: `None` when the history is
    /// not a `k = 2` ternary history (or its index overflows `usize`),
    /// instead of panicking. This is the accessor for code paths that must
    /// fail closed on malformed deliveries — e.g. the fault-aware leaders
    /// in [`faults`](crate::faults).
    pub fn checked_ternary_index(&self, id: HistoryId) -> Option<usize> {
        let e = self.entry(id);
        e.ternary_ok.then_some(e.ternary)
    }

    /// Whether `id` is a `k = 2` ternary history (every label set one of
    /// `{1}`, `{2}`, `{1, 2}`). Unlike
    /// [`HistoryArena::checked_ternary_index`] this holds at any depth:
    /// the cached sign (a `±1` product) never overflows, while the
    /// column index leaves `usize` around depth 41. Used by the
    /// fault-aware leaders' deep confirmation screening.
    pub fn is_ternary(&self, id: HistoryId) -> bool {
        self.entry(id).sign != 0
    }

    /// Cached [`History::sign`] — O(1) per query.
    ///
    /// # Panics
    ///
    /// Panics if some label set is not a `k = 2` set.
    pub fn sign(&self, id: HistoryId) -> i64 {
        assert!(
            self.is_ternary(id),
            "history is not a k = 2 ternary history"
        );
        i64::from(self.entry(id).sign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ternary_index_roundtrip() {
        for len in 0..4 {
            for idx in 0..ternary_count(len) {
                let h = History::from_ternary_index(len, idx);
                assert_eq!(h.len(), len);
                assert_eq!(h.ternary_index(), idx);
            }
        }
    }

    #[test]
    fn paper_column_order() {
        // First column of M_r is [{1},…,{1}], last is [{1,2},…,{1,2}] (§4.2).
        let first = History::from_ternary_index(3, 0);
        assert!(first.sets().iter().all(|&s| s == LabelSet::L1));
        let last = History::from_ternary_index(3, 26);
        assert!(last.sets().iter().all(|&s| s == LabelSet::L12));
        // Second column is [{1},{1},{2}].
        let second = History::from_ternary_index(3, 1);
        assert_eq!(second.sets(), &[LabelSet::L1, LabelSet::L1, LabelSet::L2]);
    }

    #[test]
    fn sign_matches_k0_and_k1() {
        // k_0 = [1, 1, -1].
        let k0: Vec<i64> = (0..3)
            .map(|i| History::from_ternary_index(1, i).sign())
            .collect();
        assert_eq!(k0, vec![1, 1, -1]);
        // k_1 = [1, 1, -1, 1, 1, -1, -1, -1, 1] (§4.2).
        let k1: Vec<i64> = (0..9)
            .map(|i| History::from_ternary_index(2, i).sign())
            .collect();
        assert_eq!(k1, vec![1, 1, -1, 1, 1, -1, -1, -1, 1]);
    }

    #[test]
    fn child_parent_prefix() {
        let h = History::new(vec![LabelSet::L2, LabelSet::L12]);
        assert_eq!(h.parent().unwrap(), History::new(vec![LabelSet::L2]));
        assert_eq!(h.child(LabelSet::L1).len(), 3);
        assert_eq!(h.prefix(1), History::new(vec![LabelSet::L2]));
        assert_eq!(History::empty().parent(), None);
        assert_eq!(h.get(1), Some(LabelSet::L12));
        assert_eq!(h.get(2), None);
    }

    #[test]
    fn display() {
        let h = History::new(vec![LabelSet::L1, LabelSet::L12]);
        assert_eq!(h.to_string(), "[{1},{1,2}]");
        assert_eq!(History::empty().to_string(), "[]");
    }

    #[test]
    fn parse_roundtrip() {
        for s in ["[]", "[{1}]", "[{1},{1,2}]", "[{2},{2},{1,2}]", "[{3,5}]"] {
            let h: History = s.parse().unwrap();
            assert_eq!(h.to_string(), s, "roundtrip {s}");
        }
        // Whitespace tolerated.
        let h: History = " [ {1} , {1 , 2} ] ".parse().unwrap();
        assert_eq!(h.to_string(), "[{1},{1,2}]");
    }

    #[test]
    fn parse_errors() {
        for s in [
            "", "{1}", "[{1}", "[{}]", "[{a}]", "[{1},]", "[{1}{2}]", "[{0}]",
        ] {
            assert!(s.parse::<History>().is_err(), "{s:?} must fail");
        }
    }

    #[test]
    fn from_iterator() {
        let h: History = [LabelSet::L1, LabelSet::L2].into_iter().collect();
        assert_eq!(h.ternary_index(), 1);
    }

    #[test]
    fn arena_hash_conses_and_resolves() {
        let mut arena = HistoryArena::new();
        assert_eq!(arena.interned(), 1);
        let root = HistoryArena::empty();
        assert_eq!(arena.resolve(root), History::empty());
        assert_eq!(arena.history_len(root), 0);
        assert_eq!(arena.parent(root), None);
        assert_eq!(arena.last(root), None);

        let a = arena.child(root, LabelSet::L1);
        let b = arena.child(root, LabelSet::L1);
        assert_eq!(a, b);
        assert_eq!(arena.interned(), 2);

        let ab = arena.child(a, LabelSet::L12);
        assert_eq!(
            arena.resolve(ab),
            History::new(vec![LabelSet::L1, LabelSet::L12])
        );
        assert_eq!(arena.history_len(ab), 2);
        assert_eq!(arena.parent(ab), Some(a));
        assert_eq!(arena.last(ab), Some(LabelSet::L12));
        assert_eq!(arena.masks(ab), &[0b01, 0b11]);
    }

    #[test]
    fn arena_caches_agree_with_history_for_all_k2_histories() {
        let mut arena = HistoryArena::new();
        for len in 0..=4usize {
            for idx in 0..3usize.pow(len as u32) {
                let h = History::from_ternary_index(len, idx);
                let id = arena.intern(&h);
                assert_eq!(arena.resolve(id), h);
                assert_eq!(arena.history_len(id), h.len());
                assert_eq!(arena.ternary_index(id), h.ternary_index());
                assert_eq!(arena.sign(id), h.sign());
                // Interning again returns the same handle.
                assert_eq!(arena.intern(&h), id);
            }
        }
        assert_eq!(arena.interned(), 1 + 3 + 9 + 27 + 81);
    }

    #[test]
    fn arena_key_order_matches_history_order() {
        let mut arena = HistoryArena::new();
        let mut pairs: Vec<(Vec<u32>, History)> = Vec::new();
        for len in 0..=3usize {
            for idx in 0..3usize.pow(len as u32) {
                let h = History::from_ternary_index(len, idx);
                let id = arena.intern(&h);
                pairs.push((arena.masks(id).to_vec(), h));
            }
        }
        let mut by_key = pairs.clone();
        by_key.sort_by(|a, b| a.0.cmp(&b.0));
        let mut by_history = pairs;
        by_history.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(by_key, by_history);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn arena_entries_are_24_bytes() {
        assert_eq!(std::mem::size_of::<HistoryEntry>(), 24);
    }

    #[test]
    fn bulk_level_stays_hash_consed() {
        let mut arena = HistoryArena::new();
        let a = arena.child(HistoryArena::empty(), LabelSet::L1);
        let b = arena.child(HistoryArena::empty(), LabelSet::L12);
        let mut level = vec![HistoryArena::empty()];
        let pairs = [(a, LabelSet::L2), (a, LabelSet::L12), (b, LabelSet::L1)];
        arena.intern_level(pairs, &mut level);
        assert_eq!(level.len(), 4, "handles are appended after what `out` held");
        assert_eq!(arena.interned(), 6);
        for (&id, (parent, set)) in level[1..].iter().zip(pairs) {
            assert_eq!(arena.child(parent, set), id);
            assert_eq!(arena.resolve(id), arena.resolve(parent).child(set));
        }
        assert_eq!(arena.interned(), 6, "child() found every bulk entry");
        // The next level extends the new deepest histories.
        let mut next = Vec::new();
        arena.intern_level([(level[3], LabelSet::L2)], &mut next);
        assert_eq!(arena.history_len(next[0]), 3);
        assert_eq!(arena.sign(next[0]), -1);
    }

    #[test]
    #[should_panic(expected = "not the deepest 1")]
    fn bulk_level_rejects_a_parent_below_the_deepest_level() {
        let mut arena = HistoryArena::new();
        let a = arena.child(HistoryArena::empty(), LabelSet::L1);
        // The root's {1} child exists already: a bulk push of it would
        // intern it twice.
        let pairs = [(a, LabelSet::L1), (HistoryArena::empty(), LabelSet::L1)];
        arena.intern_level(pairs, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "does not follow")]
    fn bulk_level_rejects_a_repeated_pair() {
        let root = HistoryArena::empty();
        let pairs = [(root, LabelSet::L2), (root, LabelSet::L2)];
        HistoryArena::new().intern_level(pairs, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "does not follow")]
    fn bulk_level_rejects_a_decreasing_pair() {
        let root = HistoryArena::empty();
        let pairs = [(root, LabelSet::L2), (root, LabelSet::L1)];
        HistoryArena::new().intern_level(pairs, &mut Vec::new());
    }

    #[test]
    fn cmp_canonical_orders_prefixes_first() {
        let mut arena = HistoryArena::new();
        let mut ids = Vec::new();
        for s in [
            "[]",
            "[{1}]",
            "[{1},{2}]",
            "[{1},{1,2}]",
            "[{2}]",
            "[{2},{1}]",
            "[{1,2}]",
        ] {
            ids.push(arena.intern(&s.parse().unwrap()));
        }
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                assert_eq!(arena.cmp_canonical(a, b), i.cmp(&j), "{i} vs {j}");
                assert_eq!(
                    arena.cmp_canonical(a, b),
                    arena.masks(a).cmp(&arena.masks(b))
                );
            }
        }
        assert!(arena.masks_rev(ids[3]).eq([0b11, 0b01]));
    }

    #[test]
    #[should_panic(expected = "not a k = 2 ternary history")]
    fn arena_ternary_index_rejects_wide_sets() {
        let mut arena = HistoryArena::new();
        let wide = LabelSet::from_labels(&[3], 3).unwrap();
        let id = arena.child(HistoryArena::empty(), wide);
        arena.ternary_index(id);
    }
}
