//! The BDD node store: arena nodes, complement edges, open-addressed
//! unique/computed tables, pinning garbage collection.
//!
//! # Node representation
//!
//! Nodes live in a slab arena (`Vec<Node>`, 12 bytes per node) and are
//! addressed by packed 32-bit references: bit 0 is the *complement*
//! (negation) attribute, bits 1.. are the arena index. There is a single
//! terminal node (index 0, the constant ONE); FALSE is its complemented
//! edge. Negation is therefore a 1-bit flip — no nodes are allocated for
//! it — and the classic WPC backward traversal, which negates predicates
//! at every NAND/NOR/XNOR gate, pays nothing for them.
//!
//! # Canonical form
//!
//! With complement edges a function has two structural representations
//! (`f` and `¬f` with all edges flipped). Canonicity is restored by the
//! *regular then-edge* rule: the high (then) child of every stored node
//! is a regular (non-complemented) reference. [`BddManager::mk`] enforces
//! the rule by flipping both children and returning a complemented
//! reference when the requested then-edge is complemented. Two
//! references are equal iff they denote the same function.
//!
//! # Tables
//!
//! The unique table is an open-addressing (linear probing, power-of-two)
//! index of node *indices* hashed over the node fields with the
//! [`fasthash`](crate::fasthash) mix — one u32 per slot, so a probe
//! touches one cache line per eight slots instead of chasing `HashMap`
//! bucket pointers. The computed table is a lossy direct-mapped cache of
//! `(op, f, g, h) → r` entries: collisions overwrite (results are
//! canonical, so a stale miss only costs recomputation, never
//! soundness). Both are sized from the `vc2.*` trace gauges of previous
//! runs via [`BddManager::with_table_capacity`] (DESIGN.md §13).

use crate::fasthash::mix3;

/// A BDD variable, identified by a dense index. Variable identity is
/// stable under reordering; only the variable's *level* moves.
pub type VarId = u32;

/// A handle to a BDD function: a packed 32-bit edge — bit 0 is the
/// complement attribute, bits 1.. the arena index of the node. Node
/// indices are stable across reordering and garbage collection as long
/// as the node is kept live via GC roots or [`BddManager::pin`].
///
/// `Bdd` values are only meaningful together with the [`BddManager`]
/// that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// Packs an index + complement bit into an edge.
    #[inline]
    pub(crate) fn edge(index: u32, complement: bool) -> Bdd {
        Bdd(index << 1 | complement as u32)
    }

    /// The arena index of the referenced node (complement bit stripped).
    #[inline]
    pub fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the edge carries the complement attribute.
    #[inline]
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The same node with the complement attribute flipped (`¬f`).
    #[inline]
    pub(crate) fn flip(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// The regular (non-complemented) reference to the same node.
    #[inline]
    pub(crate) fn regular(self) -> Bdd {
        Bdd(self.0 & !1)
    }

    /// XORs another edge's complement bit onto this edge.
    #[inline]
    pub(crate) fn xor_complement(self, parity: u32) -> Bdd {
        Bdd(self.0 ^ parity)
    }
}

/// An arena node: `var` plus the two cofactor edges. The `high` edge is
/// always regular (canonical form); `low` may be complemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Node {
    pub var: VarId,
    pub low: Bdd,
    pub high: Bdd,
}

/// Sentinel variable id for the terminal node (level = +∞).
pub(crate) const TERMINAL_VAR: VarId = u32::MAX;

const UNIQUE_EMPTY: u32 = u32::MAX;
const UNIQUE_TOMB: u32 = u32::MAX - 1;

/// Open-addressing unique table: maps `(var, low, high)` (read from the
/// arena) to the owning node index. Linear probing over a power-of-two
/// slot array of bare `u32` indices; deletions leave tombstones that a
/// rehash clears once they outnumber a quarter of the slots.
#[derive(Debug, Clone)]
struct UniqueTable {
    slots: Vec<u32>,
    mask: usize,
    len: usize,
    tombs: usize,
    /// Never shrink below the pre-sized capacity (DESIGN.md §13).
    min_slots: usize,
}

#[inline]
fn unique_hash(var: VarId, low: Bdd, high: Bdd) -> u64 {
    mix3(var as u64, low.0 as u64, high.0 as u64)
}

impl UniqueTable {
    fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(16) * 2).next_power_of_two();
        UniqueTable {
            slots: vec![UNIQUE_EMPTY; slots],
            mask: slots - 1,
            len: 0,
            tombs: 0,
            min_slots: slots,
        }
    }

    /// Looks up `(var, low, high)`; on a miss returns the slot where the
    /// new index must be stored (after the caller pushes the node).
    fn find(&self, nodes: &[Node], var: VarId, low: Bdd, high: Bdd) -> Result<u32, usize> {
        let mut i = unique_hash(var, low, high) as usize & self.mask;
        let mut first_tomb: Option<usize> = None;
        loop {
            match self.slots[i] {
                UNIQUE_EMPTY => return Err(first_tomb.unwrap_or(i)),
                UNIQUE_TOMB => {
                    first_tomb.get_or_insert(i);
                }
                idx => {
                    let n = &nodes[idx as usize];
                    if n.var == var && n.low == low && n.high == high {
                        return Ok(idx);
                    }
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Stores `idx` at `slot` (from a failed [`find`](Self::find)).
    fn insert_at(&mut self, slot: usize, idx: u32) {
        if self.slots[slot] == UNIQUE_TOMB {
            self.tombs -= 1;
        }
        self.slots[slot] = idx;
        self.len += 1;
    }

    /// Whether the table must grow/rehash before the next insertion.
    #[inline]
    fn needs_rehash(&self) -> bool {
        // Keep load (incl. tombstones) at or below 2/3.
        3 * (self.len + self.tombs) >= 2 * self.slots.len()
    }

    /// Rebuilds the slot array at 4× the live population (clearing
    /// tombstones, growing or shrinking as the population moved, but
    /// never below the pre-sized floor).
    fn rehash(&mut self, nodes: &[Node]) {
        let size = (self.len.max(8) * 4).next_power_of_two().max(self.min_slots);
        let mut fresh = vec![UNIQUE_EMPTY; size];
        let mask = size - 1;
        for &idx in &self.slots {
            if idx == UNIQUE_EMPTY || idx == UNIQUE_TOMB {
                continue;
            }
            let n = &nodes[idx as usize];
            let mut i = unique_hash(n.var, n.low, n.high) as usize & mask;
            while fresh[i] != UNIQUE_EMPTY {
                i = (i + 1) & mask;
            }
            fresh[i] = idx;
        }
        self.slots = fresh;
        self.mask = mask;
        self.tombs = 0;
    }

    /// Removes the entry for `(var, low, high)` if it still resolves to
    /// `idx` (a later allocation may legitimately own the key).
    fn remove(&mut self, var: VarId, low: Bdd, high: Bdd, idx: u32) {
        let mut i = unique_hash(var, low, high) as usize & self.mask;
        loop {
            match self.slots[i] {
                UNIQUE_EMPTY => return,
                stored => {
                    if stored == idx {
                        self.slots[i] = UNIQUE_TOMB;
                        self.len -= 1;
                        self.tombs += 1;
                        return;
                    }
                    // keep probing through tombstones and mismatches
                }
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Drops every entry (used by full GC sweeps that re-insert).
    fn clear(&mut self) {
        self.slots.fill(UNIQUE_EMPTY);
        self.len = 0;
        self.tombs = 0;
    }
}

/// A lossy direct-mapped computed table (operation cache). `key.0 == 0`
/// with `key == EMPTY_KEY` marks an unused entry; collisions overwrite.
#[derive(Debug, Clone)]
struct ComputedTable {
    entries: Vec<CacheEntry>,
    mask: usize,
    len: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheEntry {
    op: u32,
    f: u32,
    g: u32,
    h: u32,
    r: u32,
}

const CACHE_FREE: u32 = u32::MAX;

impl ComputedTable {
    fn with_capacity(capacity: usize) -> Self {
        let size = capacity.max(1 << 10).next_power_of_two();
        ComputedTable {
            entries: vec![CacheEntry { op: CACHE_FREE, f: 0, g: 0, h: 0, r: 0 }; size],
            mask: size - 1,
            len: 0,
        }
    }

    #[inline]
    fn slot(&self, op: u32, f: Bdd, g: Bdd, h: Bdd) -> usize {
        (mix3((op as u64) << 32 | f.0 as u64, g.0 as u64, h.0 as u64) as usize) & self.mask
    }

    #[inline]
    fn get(&self, op: u32, f: Bdd, g: Bdd, h: Bdd) -> Option<Bdd> {
        let e = &self.entries[self.slot(op, f, g, h)];
        (e.op == op && e.f == f.0 && e.g == g.0 && e.h == h.0).then_some(Bdd(e.r))
    }

    #[inline]
    fn put(&mut self, op: u32, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        let slot = self.slot(op, f, g, h);
        let e = &mut self.entries[slot];
        if e.op == CACHE_FREE {
            self.len += 1;
        }
        *e = CacheEntry { op, f: f.0, g: g.0, h: h.0, r: r.0 };
    }

    fn clear(&mut self) {
        self.entries.fill(CacheEntry { op: CACHE_FREE, f: 0, g: 0, h: 0, r: 0 });
        self.len = 0;
    }

    /// Drops every entry that touches a dead node, keeping the rest —
    /// GC must not destroy the cache locality the traversal depends on.
    /// Non-edge key fields (e.g. restrict's packed `(var, val)`) can at
    /// worst alias a dead index and cause a spurious drop, never a
    /// spurious keep: every true edge field is checked directly.
    fn sweep(&mut self, dead: &[bool]) {
        for e in &mut self.entries {
            if e.op == CACHE_FREE {
                continue;
            }
            let stale = [e.f, e.g, e.h, e.r].iter().any(|&x| {
                let i = (x >> 1) as usize;
                i < dead.len() && dead[i]
            });
            if stale {
                *e = CacheEntry { op: CACHE_FREE, f: 0, g: 0, h: 0, r: 0 };
                self.len -= 1;
            }
        }
    }

    /// Doubles the (cleared) cache up to `target` entries.
    fn grow_to(&mut self, target: usize) {
        let size = target.next_power_of_two();
        if size > self.entries.len() {
            self.entries = vec![CacheEntry { op: CACHE_FREE, f: 0, g: 0, h: 0, r: 0 }; size];
            self.mask = size - 1;
            self.len = 0;
        }
    }
}

/// A Reduced Ordered BDD manager with complement edges.
///
/// Nodes live in a slab arena; reduced-ness is maintained by the unique
/// table, ordered-ness by the `var2level` permutation (which dynamic
/// reordering mutates), canonicity by the regular-then-edge rule. Dead
/// nodes are reclaimed by mark-and-sweep [`gc`](BddManager::gc) against
/// caller-provided roots plus [`pin`](BddManager::pin)ned external
/// references, and their indices recycled through a free list.
///
/// # Examples
///
/// ```
/// use sbif_bdd::BddManager;
///
/// let mut m = BddManager::new();
/// let a = m.var(0);
/// let b = m.var(1);
/// let f = m.and(a, b);
/// assert_eq!(m.eval(f, |v| v == 0 || v == 1), true);
/// assert_eq!(m.eval(f, |v| v == 0), false);
/// // Negation is a pointer flip — no allocation, O(1).
/// let nf = m.not(f);
/// let back = m.not(nf);
/// assert_eq!(back, f);
/// ```
#[derive(Debug)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    unique: UniqueTable,
    cache: ComputedTable,
    pub(crate) var2level: Vec<u32>,
    pub(crate) level2var: Vec<VarId>,
    free: Vec<u32>,
    pub(crate) dead: Vec<bool>,
    /// External pin counts (node index → count); pinned nodes survive
    /// every GC regardless of the `roots` argument.
    pins: crate::fasthash::FxHashMap<u32, u32>,
    /// When set (during reordering), `mk` logs newly allocated node ids
    /// here so the swap bookkeeping sees nodes recycled from the free
    /// list as well.
    pub(crate) mk_log: Option<Vec<u32>>,
    /// Live-node threshold that triggers automatic reordering in
    /// [`maybe_reorder`](BddManager::maybe_reorder).
    pub reorder_threshold: usize,
    /// Peak number of live nodes ever observed (Table II col. 8),
    /// counted post-complement-edges: a function and its negation share
    /// every node.
    pub peak_nodes: usize,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// The constant TRUE: the regular edge to the terminal.
    pub const TRUE: Bdd = Bdd(0);
    /// The constant FALSE: the complemented edge to the terminal.
    pub const FALSE: Bdd = Bdd(1);

    /// Creates a manager holding only the terminal, with default-sized
    /// tables.
    pub fn new() -> Self {
        Self::with_table_capacity(1 << 12)
    }

    /// Creates a manager whose unique and computed tables are pre-sized
    /// for roughly `expected_nodes` live nodes — the knob the vc2 driver
    /// feeds from the `vc2.peak_live_nodes` trace gauge of previous runs
    /// so the hot phase of the backward traversal never pays for
    /// incremental rehashing (DESIGN.md §13).
    pub fn with_table_capacity(expected_nodes: usize) -> Self {
        let term = Node { var: TERMINAL_VAR, low: Bdd(0), high: Bdd(0) };
        BddManager {
            nodes: vec![term],
            unique: UniqueTable::with_capacity(expected_nodes),
            cache: ComputedTable::with_capacity(expected_nodes),
            var2level: Vec::new(),
            level2var: Vec::new(),
            free: Vec::new(),
            dead: vec![false],
            pins: crate::fasthash::FxHashMap::default(),
            mk_log: None,
            reorder_threshold: 100_000,
            peak_nodes: 1,
        }
    }

    /// Number of live (declared and not retired) variables — the number
    /// of levels in the current order.
    pub fn num_vars(&self) -> usize {
        self.level2var.len()
    }

    /// Ensures variables `0..=v` exist (new variables go to the bottom of
    /// the order) and returns the function of variable `v`.
    pub fn var(&mut self, v: VarId) -> Bdd {
        while self.var2level.len() <= v as usize {
            let lvl = self.level2var.len() as u32;
            self.var2level.push(lvl);
            self.level2var.push(self.var2level.len() as VarId - 1);
        }
        self.mk(v, Self::FALSE, Self::TRUE)
    }

    /// The level of a variable (0 = top).
    #[inline]
    pub fn level_of(&self, v: VarId) -> u32 {
        if v == TERMINAL_VAR {
            u32::MAX
        } else {
            self.var2level[v as usize]
        }
    }

    /// The current variable order, top to bottom.
    pub fn order(&self) -> &[VarId] {
        &self.level2var
    }

    /// Removes a variable from the order. The caller guarantees that no
    /// live node is labelled with `v` and that `v` will never be used
    /// again (e.g. a gate-output variable that has just been composed
    /// away). Retiring keeps the level set small, which is what makes
    /// frequent dynamic reordering affordable during long backward
    /// traversals.
    ///
    /// Retiring a variable that was never declared is a no-op (it has no
    /// level to remove).
    ///
    /// # Panics
    ///
    /// Panics if `v` was already retired.
    pub fn retire_var(&mut self, v: VarId) {
        if v as usize >= self.var2level.len() {
            return; // never declared: nothing to retire
        }
        let lvl = self.var2level[v as usize];
        assert_ne!(lvl, u32::MAX, "variable {v} already retired");
        self.level2var.remove(lvl as usize);
        self.var2level[v as usize] = u32::MAX;
        for l in lvl as usize..self.level2var.len() {
            self.var2level[self.level2var[l] as usize] = l as u32;
        }
    }

    /// Whether `v` is declared and not retired.
    pub fn is_live_var(&self, v: VarId) -> bool {
        (v as usize) < self.var2level.len() && self.var2level[v as usize] != u32::MAX
    }

    /// Declares all variables of `order` (if needed) and installs it as
    /// the variable order, top to bottom, by rebuilding the permutation.
    ///
    /// Must be called before any nodes over these variables exist.
    ///
    /// # Panics
    ///
    /// Panics if non-terminal nodes already exist, or if `order` contains
    /// duplicates or misses a declared variable.
    pub fn set_order(&mut self, order: &[VarId]) {
        assert!(
            self.nodes.len() == 1 && self.free.is_empty(),
            "set_order requires an empty manager"
        );
        let max = order.iter().copied().max().map_or(0, |m| m as usize + 1);
        assert_eq!(order.len(), max, "order must be a permutation of 0..max");
        self.var2level = vec![u32::MAX; order.len()];
        self.level2var = order.to_vec();
        for (lvl, &v) in order.iter().enumerate() {
            assert_eq!(self.var2level[v as usize], u32::MAX, "duplicate variable in order");
            self.var2level[v as usize] = lvl as u32;
        }
    }

    /// The reduced, canonical edge for `(v, low, high)` — cofactors given
    /// as *semantic* edges. Enforces the regular-then-edge rule: when
    /// `high` is complemented, the stored node is `(v, ¬low, ¬high)` and
    /// a complemented edge is returned.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the children's levels do not lie below
    /// `v`'s level.
    pub(crate) fn mk(&mut self, v: VarId, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        // Canonical form: the stored then-edge must be regular.
        let parity = high.0 & 1;
        let low = low.xor_complement(parity);
        let high = high.xor_complement(parity);
        debug_assert!(self.level_of(v) < self.level_of_node(low));
        debug_assert!(self.level_of(v) < self.level_of_node(high));
        let idx = match self.unique.find(&self.nodes, v, low, high) {
            Ok(idx) => {
                self.dead[idx as usize] = false;
                idx
            }
            Err(slot) => {
                let node = Node { var: v, low, high };
                let idx = match self.free.pop() {
                    Some(idx) => {
                        self.nodes[idx as usize] = node;
                        self.dead[idx as usize] = false;
                        idx
                    }
                    None => {
                        let idx = self.nodes.len() as u32;
                        assert!(idx < u32::MAX >> 1, "BDD arena exhausted (2^31 nodes)");
                        self.nodes.push(node);
                        self.dead.push(false);
                        idx
                    }
                };
                self.unique.insert_at(slot, idx);
                if self.unique.needs_rehash() {
                    self.unique.rehash(&self.nodes);
                    // Keep the (lossy) computed table in step with the
                    // node population so hit rates survive growth.
                    self.cache.grow_to(self.unique.len);
                }
                if let Some(log) = &mut self.mk_log {
                    log.push(idx);
                }
                self.peak_nodes = self.peak_nodes.max(self.nodes.len() - self.free.len());
                idx
            }
        };
        Bdd::edge(idx, false).xor_complement(parity)
    }

    /// `true` iff `f` is one of the terminals.
    #[inline]
    pub fn is_const(&self, f: Bdd) -> bool {
        f.0 <= 1
    }

    /// The top variable of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn top_var(&self, f: Bdd) -> VarId {
        assert!(!self.is_const(f), "terminals have no top variable");
        self.nodes[f.index()].var
    }

    /// The low (else) cofactor of `f` at its top variable, as a semantic
    /// edge (the stored edge with `f`'s complement attribute applied).
    pub fn low(&self, f: Bdd) -> Bdd {
        self.nodes[f.index()].low.xor_complement(f.0 & 1)
    }

    /// The high (then) cofactor of `f` at its top variable, as a semantic
    /// edge.
    pub fn high(&self, f: Bdd) -> Bdd {
        self.nodes[f.index()].high.xor_complement(f.0 & 1)
    }

    /// Evaluates `f` under an assignment.
    pub fn eval<F: Fn(VarId) -> bool>(&self, f: Bdd, assignment: F) -> bool {
        let mut parity = 0u32;
        let mut cur = f;
        while !self.is_const(cur) {
            parity ^= cur.0 & 1;
            let n = &self.nodes[cur.index()];
            cur = if assignment(n.var) { n.high } else { n.low };
        }
        (cur.0 ^ parity) & 1 == 0
    }

    /// Number of distinct nodes reachable from `f` (including the
    /// terminal). A function and its negation share all nodes, so
    /// `size(f) == size(¬f)`.
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f.regular()];
        while let Some(n) = stack.pop() {
            if seen.insert(n.index()) && !self.is_const(n) {
                stack.push(self.nodes[n.index()].low.regular());
                stack.push(self.nodes[n.index()].high);
            }
        }
        seen.len()
    }

    /// Number of live (allocated, not freed) nodes in the manager.
    pub fn live_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Current number of unique-table entries (canonical triples). Lags
    /// [`live_nodes`](Self::live_nodes) by the unhashed terminal.
    pub fn unique_len(&self) -> usize {
        self.unique.len
    }

    /// Current number of occupied computed-table (operation cache)
    /// entries. The cache is lossy and cleared on garbage collection and
    /// reordering, so this is the residue of the work since the last
    /// such event, not a lifetime total.
    pub fn cache_len(&self) -> usize {
        self.cache.len
    }

    /// Computed-table lookup (complement-edge canonical keys).
    #[inline]
    pub(crate) fn cache_get(&self, op: u32, f: Bdd, g: Bdd, h: Bdd) -> Option<Bdd> {
        self.cache.get(op, f, g, h)
    }

    /// Computed-table insert.
    #[inline]
    pub(crate) fn cache_put(&mut self, op: u32, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        self.cache.put(op, f, g, h, r);
    }

    /// Clears the computed table (reordering and GC invalidate indices).
    pub(crate) fn cache_clear(&mut self) {
        self.cache.clear();
    }

    /// The support of `f` (variables it depends on), ascending by id.
    pub fn support(&self, f: Bdd) -> Vec<VarId> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.regular()];
        while let Some(n) = stack.pop() {
            if seen.insert(n.index()) && !self.is_const(n) {
                let node = &self.nodes[n.index()];
                vars.insert(node.var);
                stack.push(node.low.regular());
                stack.push(node.high);
            }
        }
        vars.into_iter().collect()
    }

    /// Pins `f`'s node (and transitively everything it reaches) across
    /// garbage collections, independent of the `roots` each
    /// [`gc`](Self::gc) call receives. Pins nest: every [`pin`](Self::pin)
    /// needs a matching [`unpin`](Self::unpin).
    pub fn pin(&mut self, f: Bdd) {
        if self.is_const(f) {
            return;
        }
        *self.pins.entry(f.index() as u32).or_insert(0) += 1;
    }

    /// Releases one pin of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not currently pinned.
    pub fn unpin(&mut self, f: Bdd) {
        if self.is_const(f) {
            return;
        }
        let idx = f.index() as u32;
        let count = self.pins.get_mut(&idx).expect("unpin without matching pin");
        *count -= 1;
        if *count == 0 {
            self.pins.remove(&idx);
        }
    }

    /// Mark-and-sweep garbage collection: everything not reachable from
    /// `roots` or a [`pin`](Self::pin)ned node is freed and its index
    /// recycled. Also clears the computed table. Returns the number of
    /// nodes freed.
    pub fn gc(&mut self, roots: &[Bdd]) -> usize {
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        let mut stack: Vec<u32> = roots.iter().map(|r| r.index() as u32).collect();
        stack.extend(self.pins.keys().copied());
        while let Some(i) = stack.pop() {
            if !marked[i as usize] {
                marked[i as usize] = true;
                stack.push(self.nodes[i as usize].low.index() as u32);
                stack.push(self.nodes[i as usize].high.index() as u32);
            }
        }
        let mut freed = 0;
        // `dead[i]` means "on the free list", so the sweep recycles every
        // unmarked not-yet-freed node in one pass. That includes
        // reorder-killed corpses (var neutralized to TERMINAL_VAR, unique
        // entry already removed at kill time, dead still false).
        #[allow(clippy::needless_range_loop)] // indexes three arrays in lockstep
        for i in 1..self.nodes.len() {
            if !marked[i] && !self.dead[i] {
                let n = self.nodes[i];
                if n.var != TERMINAL_VAR {
                    self.unique.remove(n.var, n.low, n.high, i as u32);
                }
                self.free.push(i as u32);
                self.dead[i] = true;
                freed += 1;
            }
        }
        if freed > 0 && self.unique.tombs * 4 >= self.unique.slots.len() {
            self.unique.rehash(&self.nodes);
        }
        // Entries that only touch surviving nodes stay valid: indices
        // enter the free list exclusively through this sweep (reorder
        // kills run behind an explicit cache_clear), so no cached edge
        // can ever alias a recycled slot.
        self.cache.sweep(&self.dead);
        self.debug_validate();
        freed
    }

    /// Rebuilds the unique table from scratch over the live nodes —
    /// recovery path used by the validate walker tests.
    #[allow(dead_code)]
    pub(crate) fn rebuild_unique(&mut self) {
        self.unique.clear();
        for i in 1..self.nodes.len() {
            if self.dead[i] {
                continue;
            }
            let n = self.nodes[i];
            if n.var == TERMINAL_VAR {
                continue;
            }
            if self.unique.needs_rehash() {
                self.unique.rehash(&self.nodes);
            }
            match self.unique.find(&self.nodes, n.var, n.low, n.high) {
                Ok(_) => panic!("duplicate live triple while rebuilding unique table"),
                Err(slot) => self.unique.insert_at(slot, i as u32),
            }
        }
    }

    /// Removes a node's unique-table entry (reorder bookkeeping).
    pub(crate) fn unique_remove(&mut self, var: VarId, low: Bdd, high: Bdd, idx: u32) {
        self.unique.remove(var, low, high, idx);
    }

    /// Inserts a node's unique-table entry, asserting the key is free
    /// (reorder bookkeeping; canonicity makes collisions impossible).
    pub(crate) fn unique_insert_new(&mut self, var: VarId, low: Bdd, high: Bdd, idx: u32) {
        if self.unique.needs_rehash() {
            self.unique.rehash(&self.nodes);
        }
        match self.unique.find(&self.nodes, var, low, high) {
            Ok(prev) => panic!(
                "swap collision impossible by canonicity: ({var}, {low:?}, {high:?}) \
                 already owned by node {prev}"
            ),
            Err(slot) => self.unique.insert_at(slot, idx),
        }
    }

    /// Level of a node's variable; terminals are at level `num_vars`.
    pub(crate) fn level_of_node(&self, f: Bdd) -> u32 {
        if self.is_const(f) {
            self.num_vars() as u32
        } else {
            self.level_of(self.nodes[f.index()].var)
        }
    }

    /// Full structural validation of the manager: canonical form
    /// (regular then-edges), reducedness (`low != high`), ordering
    /// (strictly increasing levels on every edge), unique-table
    /// consistency (every live non-terminal node owned by exactly its
    /// key, no stale or duplicate entries), and free-list/dead-flag
    /// agreement. Returns a description of the first violation.
    ///
    /// Runs in `O(nodes + slots)`; the engine calls it after every GC
    /// and reorder pass in debug builds, and the property suites call it
    /// directly after every operation.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() || self.nodes[0].var != TERMINAL_VAR {
            return Err("terminal node missing".into());
        }
        let mut live_triples = 0usize;
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if self.dead[i] {
                continue;
            }
            if n.var == TERMINAL_VAR {
                continue; // neutralized corpse awaiting sweep
            }
            live_triples += 1;
            if n.high.is_complement() {
                return Err(format!("node {i}: complemented then-edge {:?}", n.high));
            }
            if n.low == n.high {
                return Err(format!("node {i}: redundant (low == high == {:?})", n.low));
            }
            for c in [n.low, n.high] {
                if c.index() >= self.nodes.len() {
                    return Err(format!("node {i}: child {:?} out of bounds", c));
                }
                if self.dead[c.index()] {
                    return Err(format!("node {i}: child {:?} is dead", c));
                }
            }
            // The unique table must resolve this node's key to itself.
            match self.unique.find(&self.nodes, n.var, n.low, n.high) {
                Ok(owner) if owner as usize == i => {}
                Ok(owner) => {
                    return Err(format!(
                        "canonicity violated: nodes {owner} and {i} share key \
                         ({}, {:?}, {:?})",
                        n.var, n.low, n.high
                    ));
                }
                Err(_) => {
                    return Err(format!("node {i}: missing from the unique table"));
                }
            }
            if !self.is_live_var(n.var) {
                // Zombie: unreachable garbage labeled a retired variable
                // (the retire_var contract guarantees unreachability);
                // it has no level, so ordering cannot be checked.
                continue;
            }
            let lvl = self.level_of(n.var);
            for c in [n.low, n.high] {
                // Zombie children sit at level +inf and pass trivially.
                if !self.is_const(c) && self.level_of_node(c) <= lvl {
                    return Err(format!(
                        "node {i}: ordering violated (level {} -> child level {})",
                        lvl,
                        self.level_of_node(c)
                    ));
                }
            }
        }
        if self.unique.len != live_triples {
            return Err(format!(
                "unique table holds {} entries but {} live triples exist",
                self.unique.len, live_triples
            ));
        }
        let free: std::collections::HashSet<u32> = self.free.iter().copied().collect();
        if free.len() != self.free.len() {
            return Err("free list contains duplicates".into());
        }
        for &idx in &free {
            if !self.dead[idx as usize] {
                return Err(format!("free node {idx} not flagged dead"));
            }
        }
        let dead_count = self.dead.iter().filter(|&&d| d).count();
        if dead_count != self.free.len() {
            return Err(format!(
                "{dead_count} dead flags but {} free-list entries (dead means freed)",
                self.free.len()
            ));
        }
        for (&idx, &count) in &self.pins {
            if count == 0 {
                return Err(format!("pin entry {idx} with zero count"));
            }
            if self.dead[idx as usize] {
                return Err(format!("pinned node {idx} is dead"));
            }
        }
        Ok(())
    }

    /// Debug-build validation hook: panics on the first structural
    /// violation. Compiled out in release builds.
    #[inline]
    pub(crate) fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        if let Err(e) = self.validate() {
            panic!("BDD invariant violated: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals() {
        let m = BddManager::new();
        assert!(m.is_const(BddManager::TRUE));
        assert!(m.is_const(BddManager::FALSE));
        assert_ne!(BddManager::TRUE, BddManager::FALSE);
        assert!(m.eval(BddManager::TRUE, |_| false));
        assert!(!m.eval(BddManager::FALSE, |_| true));
        assert_eq!(BddManager::TRUE.flip(), BddManager::FALSE);
    }

    #[test]
    fn reduction_rules() {
        let mut m = BddManager::new();
        let x = m.var(0);
        // mk with equal children collapses
        let same = m.mk(0, x, x);
        assert_eq!(same, x);
        // unique table shares
        let x2 = m.var(0);
        assert_eq!(x, x2);
        // complement-edge canonicity: ¬x through mk is the flipped edge
        let nx = m.mk(0, BddManager::TRUE, BddManager::FALSE);
        assert_eq!(nx, x.flip());
        assert_eq!(m.live_nodes(), 2, "x and ¬x share one node");
        m.validate().unwrap();
    }

    #[test]
    fn eval_and_size() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        assert_eq!(m.size(f), 3); // 2 internal + 1 terminal
        assert!(m.eval(f, |_| true));
        assert!(!m.eval(f, |v| v == 0));
        // negation shares every node
        let nf = m.not(f);
        assert_eq!(m.size(nf), m.size(f));
    }

    #[test]
    fn support_set() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let c = m.var(2);
        let f = m.or(a, c);
        assert_eq!(m.support(f), vec![0, 2]);
        assert!(m.support(BddManager::TRUE).is_empty());
    }

    #[test]
    fn gc_frees_unreachable() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        let g = m.xor(a, b); // will become garbage
        let live_before = m.live_nodes();
        let freed = m.gc(&[f, a, b]);
        assert!(freed > 0, "xor nodes should be freed");
        assert_eq!(m.live_nodes(), live_before - freed);
        // f still evaluates correctly, and new allocations recycle slots.
        assert!(m.eval(f, |_| true));
        let g2 = m.xor(a, b);
        assert!(m.eval(g2, |v| v == 0));
        let _ = g; // old handle must not be used after gc — by contract
    }

    #[test]
    fn pinned_nodes_survive_gc() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.xor(a, b);
        let tt: Vec<bool> = (0..4u32).map(|x| m.eval(f, |v| (x >> v) & 1 == 1)).collect();
        m.pin(f);
        m.gc(&[]); // no explicit roots: only the pin keeps f alive
        let tt2: Vec<bool> = (0..4u32).map(|x| m.eval(f, |v| (x >> v) & 1 == 1)).collect();
        assert_eq!(tt, tt2);
        m.validate().unwrap();
        m.unpin(f);
        let freed = m.gc(&[]);
        assert!(freed > 0, "unpinned xor cone must be collected");
    }

    #[test]
    #[should_panic(expected = "unpin without matching pin")]
    fn unpin_unpinned_panics() {
        let mut m = BddManager::new();
        let a = m.var(0);
        m.unpin(a);
    }

    #[test]
    fn sat_count_small() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let ab = m.and(a, b);
        let f = m.or(ab, c);
        // Satisfying assignments over the 3 variables, by evaluation.
        let count = |m: &BddManager, f: Bdd| {
            (0..8u32).filter(|bits| m.eval(f, |v| bits >> v & 1 == 1)).count()
        };
        // a∧b (2 for c) + c (4) − a∧b∧c (1) = 5
        assert_eq!(count(&m, f), 5);
        assert_eq!(count(&m, BddManager::TRUE), 8);
        assert_eq!(count(&m, BddManager::FALSE), 0);
        // complement edges: |¬f| = 2^3 − |f|
        let nf = m.not(f);
        assert_eq!(count(&m, nf), 3);
    }

    #[test]
    fn set_order_reverses() {
        let mut m = BddManager::new();
        m.set_order(&[2, 1, 0]);
        assert_eq!(m.level_of(2), 0);
        assert_eq!(m.level_of(0), 2);
        let a = m.var(0);
        let c = m.var(2);
        let f = m.and(a, c);
        // top variable must be the one highest in the order: var 2
        assert_eq!(m.top_var(f), 2);
    }

    #[test]
    fn retire_var_compacts_levels() {
        let mut m = BddManager::new();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let bc = m.and(b, c);
        let f = m.or(a, bc);
        // Compose variable 1 away, then retire it.
        let f2 = m.compose(f, 1, BddManager::TRUE);
        assert!(!m.support(f2).contains(&1));
        assert_eq!(m.num_vars(), 3);
        m.gc(&[f2, a, c]);
        m.retire_var(1);
        assert_eq!(m.num_vars(), 2);
        assert!(m.is_live_var(0) && !m.is_live_var(1) && m.is_live_var(2));
        // Levels stay consistent: var 2 moved up.
        assert_eq!(m.level_of(2), 1);
        // The remaining function still evaluates correctly.
        assert!(m.eval(f2, |v| v == 2));
        assert!(m.eval(f2, |v| v == 0));
        assert!(!m.eval(f2, |_| false));
    }

    #[test]
    #[should_panic(expected = "already retired")]
    fn double_retire_panics() {
        let mut m = BddManager::new();
        let _ = m.var(0);
        let _ = m.var(1);
        m.retire_var(0);
        m.retire_var(0);
    }

    #[test]
    fn unique_table_survives_heavy_churn() {
        // Grow, collect, regrow: the open-addressed table must rehash
        // through tombstone pressure without losing canonicity.
        let mut m = BddManager::with_table_capacity(16);
        for round in 0..5u32 {
            let mut f = BddManager::TRUE;
            for i in 0..10u32 {
                let x = m.var(i);
                let y = m.var(10 + ((i + round) % 10));
                let g = m.xor(x, y);
                f = m.and(f, g);
            }
            m.validate().unwrap();
            m.gc(&[]);
            m.validate().unwrap();
            assert_eq!(m.live_nodes(), 1, "round {round}: all garbage collected");
        }
    }

    #[test]
    fn reordering_works_after_retirement() {
        let mut m = BddManager::new();
        for i in 0..12u32 {
            let _ = m.var(i);
        }
        let mut f = BddManager::TRUE;
        for i in 0..4u32 {
            let x = m.var(i);
            let y = m.var(4 + i);
            let eq = m.iff(x, y);
            f = m.and(f, eq);
        }
        m.gc(&[f]);
        for v in 8..12u32 {
            m.retire_var(v);
        }
        assert_eq!(m.num_vars(), 8);
        let before = m.size(f);
        let stats = m.sift(&[f]);
        assert!(stats.size_after <= before);
        // Function preserved.
        assert!(m.eval(f, |_| true));
        assert!(!m.eval(f, |v| v == 0));
    }
}
