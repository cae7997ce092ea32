//! The generic NPRR worst-case optimal join (paper §5, Theorem 5.1).
//!
//! Pipeline (Algorithm 2):
//! 1. build the [query plan tree](qptree) (Algorithm 3);
//! 2. derive the [total order](total_order()) of attributes (Algorithm 4) and
//!    build one [`TrieIndex`] per relation along it;
//! 3. run [`Recursive-Join`](self) (Procedure 5) from the root.
//!
//! The per-tuple **size check** (Procedure 5, line 21) is the algorithmic
//! heart: for each partial tuple it compares the *estimated* output of the
//! remaining sub-join (a product of fractional powers of section sizes,
//! computed here in log-space) against the anchor relation's section size,
//! and either recurses (case a) or scans the anchor (case b). Theorem 5.1
//! proves the total work is `O(mn · ∏ N_e^{x_e})` after preprocessing.

mod prepared;
pub mod qptree;
pub mod total_order;

pub use prepared::PreparedQuery;

use crate::query::{JoinQuery, QueryError};
use crate::scratch::with_value_buf;
use crate::{JoinOutput, JoinStats};
use qptree::{build_qp_tree, QpNode};
use total_order::{positions, total_order};
use wcoj_storage::index::SearchTree;
use wcoj_storage::ops::reorder;
use wcoj_storage::{Attr, FlatIndex, HashTrieIndex, Relation, Schema, TrieIndex, Value};

/// Evaluates `q` with the NPRR algorithm under fractional cover `x`
/// (`log2_bound` is the corresponding AGM bound, reported in stats).
///
/// # Errors
/// Propagates storage errors from index construction (none expected for a
/// well-formed [`JoinQuery`]).
pub fn join_nprr(q: &JoinQuery, x: &[f64], log2_bound: f64) -> Result<JoinOutput, QueryError> {
    join_nprr_indexed::<TrieIndex>(q, x, log2_bound)
}

/// Like [`join_nprr`] but with hash-trie indexes — the paper's "collection
/// of hash indices" alternative (§5.1). Same output; different constant
/// factors (see the `ablation_index` bench).
///
/// # Errors
/// Same as [`join_nprr`].
pub fn join_nprr_hash(q: &JoinQuery, x: &[f64], log2_bound: f64) -> Result<JoinOutput, QueryError> {
    join_nprr_indexed::<HashTrieIndex>(q, x, log2_bound)
}

/// Like [`join_nprr`] but with the flat columnar indexes
/// ([`FlatIndex`]): contiguous per-level value arrays with galloping
/// lookups instead of node pointers. Bit-identical output (the release
/// stress suites gate this); different constant factors — see the
/// `ablation_index` bench's third column.
///
/// # Errors
/// Same as [`join_nprr`].
pub fn join_nprr_flat(q: &JoinQuery, x: &[f64], log2_bound: f64) -> Result<JoinOutput, QueryError> {
    join_nprr_indexed::<FlatIndex>(q, x, log2_bound)
}

/// The NPRR pipeline, generic over the [`SearchTree`] realisation.
///
/// # Errors
/// Same as [`join_nprr`].
pub fn join_nprr_indexed<S: SearchTree>(
    q: &JoinQuery,
    x: &[f64],
    log2_bound: f64,
) -> Result<JoinOutput, QueryError> {
    debug_assert_eq!(x.len(), q.relations().len());
    let h = q.hypergraph();

    let Some(root) = build_qp_tree(h) else {
        // No attributes at all: the join of non-empty nullary relations.
        return Ok(JoinOutput {
            relation: Relation::nullary_true(),
            stats: JoinStats {
                algorithm_used: "nprr",
                log2_agm_bound: log2_bound,
                cover: x.to_vec(),
                ..JoinStats::default()
            },
        });
    };

    let order = total_order(&root);
    let pos = positions(&order, h.num_vertices());

    // Per relation: vertices in total-order sequence, and the index.
    let mut edge_vertices: Vec<Vec<usize>> = Vec::with_capacity(q.relations().len());
    let mut tries: Vec<S> = Vec::with_capacity(q.relations().len());
    for (i, rel) in q.relations().iter().enumerate() {
        let mut vs: Vec<usize> = h.edge(i).to_vec();
        vs.sort_by_key(|&v| pos[v]);
        let attr_order: Vec<Attr> = vs.iter().map(|&v| q.attr_of_vertex(v)).collect();
        tries.push(S::build(rel, &attr_order)?);
        edge_vertices.push(vs);
    }

    let mut engine = Engine {
        q,
        tries: &tries,
        edge_vertices: &edge_vertices,
        pos: &pos,
        bindings: vec![None; h.num_vertices()],
        shard: None,
        stats: JoinStats {
            algorithm_used: "nprr",
            log2_agm_bound: log2_bound,
            cover: x.to_vec(),
            ..JoinStats::default()
        },
    };
    let rows = engine.recursive_join(&root, x);
    assemble_output(q, &order, rows, engine.stats)
}

/// Converts `Recursive-Join`'s row set (over the total order) into a
/// relation in the canonical sorted-attribute layout.
pub(crate) fn assemble_output(
    q: &JoinQuery,
    order: &[usize],
    rows: Vec<Vec<Value>>,
    stats: JoinStats,
) -> Result<JoinOutput, QueryError> {
    let order_attrs: Vec<Attr> = order.iter().map(|&v| q.attr_of_vertex(v)).collect();
    let schema = Schema::new(order_attrs).expect("order is a permutation");
    let mut rel = Relation::empty(schema);
    for row in &rows {
        rel.push_row(row).expect("row arity = |V|");
    }
    rel.sort_dedup();
    let relation = reorder(&rel, &q.output_schema())?;
    Ok(JoinOutput { relation, stats })
}

/// Inclusive value range restricting the attribute at total-order
/// position 1 *inside* one root shard — the handle of **intra-value
/// parallelism**. For a fixed root binding, the case-b scan of the anchor
/// relation's section enumerates the level-1 values in sorted order; two
/// sub-shards with disjoint anchor ranges enumerate disjoint slices of
/// that scan (and of every later scan binding position 1), so they
/// produce disjoint row sets whose union is exactly the parent shard's —
/// the same §5.2 step-2a argument as root sharding, one level down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorRange {
    /// Smallest admitted value for the second attribute in the total order.
    pub lo: Value,
    /// Largest admitted value (inclusive).
    pub hi: Value,
}

impl AnchorRange {
    /// Does `v` fall inside this range?
    #[inline]
    #[must_use]
    pub fn contains(&self, v: Value) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// Inclusive value range restricting the attribute at total-order
/// position 0 — the handle the partition-parallel executor uses to carve
/// `Recursive-Join` into independent sub-joins. §5.2 (step 2a) is the
/// correctness argument: the trie subtree under each level-0 branch *is*
/// the search tree of that section, so runs restricted to disjoint root
/// ranges touch disjoint sets of output rows and need no coordination.
///
/// A shard may additionally carry an [`AnchorRange`] restricting the
/// attribute at total-order position 1: a *sub-shard* splitting the work
/// inside one heavy root value across workers. Sub-shards only make
/// sense for queries whose total order has ≥ 2 attributes — the planner
/// (`wcoj-service`'s `plan` module) enforces that; an anchored shard on a
/// shorter order would re-enumerate the full result in every sub-shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootShard {
    /// Smallest admitted value for the first attribute in the total order.
    pub lo: Value,
    /// Largest admitted value (inclusive).
    pub hi: Value,
    /// Optional sub-range over the attribute at total-order position 1
    /// (intra-value parallelism for heavy root values).
    pub anchor: Option<AnchorRange>,
}

impl RootShard {
    /// An unanchored shard covering `[lo, hi]` of the root attribute.
    #[inline]
    #[must_use]
    pub fn range(lo: Value, hi: Value) -> RootShard {
        RootShard {
            lo,
            hi,
            anchor: None,
        }
    }

    /// Does `v` fall inside this shard's root range?
    #[inline]
    #[must_use]
    pub fn contains(&self, v: Value) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Does `v` fall inside this shard's anchor range (trivially true for
    /// unanchored shards)?
    #[inline]
    #[must_use]
    pub fn anchor_contains(&self, v: Value) -> bool {
        self.anchor.is_none_or(|a| a.contains(v))
    }
}

/// An optional inclusive value interval restricting one scan level.
type LevelRange = Option<(Value, Value)>;

/// (ST3) restricted to per-level value ranges: visits each length-`extra`
/// extension of `node` whose level-0 value lies in `level0` and whose
/// level-1 value lies in `level1` (either filter may be absent), pruning
/// the descent at the filtered levels so out-of-range subtrees are never
/// walked (a per-tuple filter would make every shard pay for the whole
/// enumeration).
fn for_each_extension_filtered<S: SearchTree>(
    trie: &S,
    node: S::Node,
    extra: usize,
    level0: LevelRange,
    level1: LevelRange,
    mut f: impl FnMut(&[Value]),
) {
    if level0.is_none() && level1.is_none() {
        trie.for_each_extension(node, extra, f);
        return;
    }
    debug_assert!(extra >= 1);
    // Borrow the backend's contiguous child slice when it has one; only
    // copy the level out for backends without a flat layout.
    let children_owned;
    let children: &[Value] = match trie.child_slice(node) {
        Some(s) => s,
        None => {
            children_owned = trie.child_values(node);
            &children_owned
        }
    };
    let (lo0, hi0) = level0.unwrap_or((Value(u64::MIN), Value(u64::MAX)));
    let lo = children.partition_point(|&v| v < lo0);
    let hi = children.partition_point(|&v| v <= hi0);
    let mut buf: Vec<Value> = Vec::with_capacity(extra);
    for &v in &children[lo..hi] {
        let child = trie.descend(node, v).expect("listed child exists");
        buf.clear();
        buf.push(v);
        match level1 {
            _ if extra == 1 => f(&buf),
            None => trie.for_each_extension(child, extra - 1, |rest| {
                buf.truncate(1);
                buf.extend_from_slice(rest);
                f(&buf);
            }),
            Some((lo1, hi1)) => {
                let grand_owned;
                let grand: &[Value] = match trie.child_slice(child) {
                    Some(s) => s,
                    None => {
                        grand_owned = trie.child_values(child);
                        &grand_owned
                    }
                };
                let l1 = grand.partition_point(|&w| w < lo1);
                let h1 = grand.partition_point(|&w| w <= hi1);
                for &w in &grand[l1..h1] {
                    let gchild = trie.descend(child, w).expect("listed child exists");
                    buf.truncate(1);
                    buf.push(w);
                    if extra == 2 {
                        f(&buf);
                    } else {
                        trie.for_each_extension(gchild, extra - 2, |rest| {
                            buf.truncate(2);
                            buf.extend_from_slice(rest);
                            f(&buf);
                        });
                    }
                }
            }
        }
    }
}

pub(crate) struct Engine<'a, S: SearchTree> {
    pub(crate) q: &'a JoinQuery,
    pub(crate) tries: &'a [S],
    /// Per relation: its vertices sorted by total-order position (= the
    /// trie's level order).
    pub(crate) edge_vertices: &'a [Vec<usize>],
    /// vertex → total-order position.
    pub(crate) pos: &'a [usize],
    /// Current partial assignment `t_S` (plus scratch `t_W`, `t_{W⁻}`),
    /// indexed by vertex.
    pub(crate) bindings: Vec<Option<Value>>,
    /// When set, only tuples whose total-order-position-0 value lies in
    /// this range are enumerated (partition-parallel execution).
    pub(crate) shard: Option<RootShard>,
    pub(crate) stats: JoinStats,
}

impl<S: SearchTree> Engine<'_, S> {
    /// The `(level-0, level-1)` value-range filters a scan must honour,
    /// given the total-order positions bound by its first one or two
    /// levels. Partition-parallel runs restrict the attribute at position
    /// 0 to the shard's root range and (for anchored sub-shards) the
    /// attribute at position 1 to the anchor range; every attribute is
    /// bound by exactly one scan per enumeration path, so pruning at the
    /// binding scan restricts the run to exactly the shard's slice of the
    /// output. A scan binding position 0 over ≥ 2 levels always binds
    /// position 1 at its level 1 (TO2 forces `W = ∅` there, so the scan
    /// covers a prefix of the total order); position 1 not bound that way
    /// is bound by a scan starting at position 1, filtered at its level 0.
    fn scan_filters(
        &self,
        first_pos: usize,
        second_pos: Option<usize>,
    ) -> (LevelRange, LevelRange) {
        let Some(shard) = self.shard else {
            return (None, None);
        };
        let anchor = shard.anchor.map(|a| (a.lo, a.hi));
        match first_pos {
            0 => {
                let level1 = if second_pos == Some(1) { anchor } else { None };
                (Some((shard.lo, shard.hi)), level1)
            }
            1 => (anchor, None),
            _ => (None, None),
        }
    }

    /// The section node of relation `e`'s trie under the current bindings,
    /// restricted to `e`'s attributes with total-order position `< limit`
    /// — the paper's `R_e[t_{S∩e}]` where `S` is the order prefix below
    /// `limit`. `None` when the bound prefix is absent from the relation
    /// (the section is empty).
    fn section(&self, e: usize, limit: usize) -> Option<S::Node> {
        let trie = &self.tries[e];
        let mut node = trie.root();
        for &v in &self.edge_vertices[e] {
            if self.pos[v] >= limit {
                break;
            }
            let val = self.bindings[v].expect("prefix attribute must be bound");
            node = trie.descend(node, val)?;
        }
        Some(node)
    }

    /// Procedure 5. Returns rows over `univ(u)` in total-order sequence;
    /// `y[0..u.label]` is the fractional cover of `(univ(u), E_k)`.
    fn recursive_join(&mut self, u: &QpNode, y: &[f64]) -> Vec<Vec<Value>> {
        let k = u.label;
        debug_assert!(y.len() >= k);
        // univ in total-order sequence.
        let mut univ = u.univ.clone();
        univ.sort_by_key(|&v| self.pos[v]);
        if univ.is_empty() {
            return vec![vec![]];
        }
        let u_start = self.pos[univ[0]];

        if u.is_leaf || (u.left.is_none() && u.right.is_none()) {
            return self.leaf_join(u, k, &univ, u_start);
        }

        // lines 10–14: recurse left (or L = {t_S}).
        let l_rows: Vec<Vec<Value>> = match &u.left {
            Some(lc) => self.recursive_join(lc, &y[..k - 1]),
            None => vec![vec![]],
        };
        self.stats.intermediate_tuples += l_rows.len() as u64;

        // line 15: W = U ∖ e_k (in order), W⁻ = e_k ∩ U (in order).
        let ek = k - 1;
        let h = self.q.hypergraph();
        let w: Vec<usize> = univ
            .iter()
            .copied()
            .filter(|&v| !h.edge_contains(ek, v))
            .collect();
        let wminus: Vec<usize> = univ
            .iter()
            .copied()
            .filter(|&v| h.edge_contains(ek, v))
            .collect();
        if wminus.is_empty() {
            return l_rows; // line 17
        }
        // W precedes W⁻ in the order (TO2): the boundary position.
        let wm_start = self.pos[wminus[0]];
        debug_assert!(w.iter().all(|&v| self.pos[v] < wm_start));

        // Edges i < k that meet W⁻, with their W⁻ parts in order.
        let check_edges: Vec<(usize, Vec<usize>)> = (0..k - 1)
            .filter_map(|i| {
                let part: Vec<usize> = self.edge_vertices[i]
                    .iter()
                    .copied()
                    .filter(|&v| wminus.contains(&v))
                    .collect();
                if part.is_empty() {
                    None
                } else {
                    Some((i, part))
                }
            })
            .collect();

        let y_k = y[ek];
        // Case a recursion is only sound when the scaled vector covers
        // `(W⁻, E_{k−1})` — i.e. every W⁻ vertex lies in some earlier edge.
        // A valid cover forces y_k ≥ 1 otherwise (the paper's argument in
        // Lemma 5.6), but f64 round-off could report y_k = 1 − ε; this
        // structural guard makes the choice robust.
        let rc_coverable = u.right.is_some()
            && wminus
                .iter()
                .all(|&v| (0..k - 1).any(|i| h.edge_contains(i, v)));
        let mut ret: Vec<Vec<Value>> = Vec::new();

        for lrow in &l_rows {
            // bind t_W
            debug_assert_eq!(lrow.len(), w.len());
            for (&v, &val) in w.iter().zip(lrow) {
                self.bindings[v] = Some(val);
            }

            // anchor section size c_k = |π_{W⁻}(R_{e_k}[t_{S∩e_k}])|.
            let anchor = self.section(ek, wm_start);
            let c_k = anchor.map_or(0, |n| self.tries[ek].distinct_count(n, wminus.len()));

            // line 19/21: choose case.
            let mut case_a = false;
            if y_k < 1.0 && rc_coverable {
                // lhs = ∏_{i<k} c_i^{y_i/(1−y_k)} in log space.
                let mut lhs_log = 0.0f64;
                let mut lhs_zero = false;
                for (i, part) in &check_edges {
                    let yi = y[*i];
                    if yi <= 0.0 {
                        continue; // 0^0 = 1 convention
                    }
                    let c_i = self
                        .section(*i, wm_start)
                        .map_or(0, |n| self.tries[*i].distinct_count(n, part.len()));
                    if c_i == 0 {
                        lhs_zero = true;
                        break;
                    }
                    lhs_log += yi / (1.0 - y_k) * (c_i as f64).ln();
                }
                if c_k > 0 {
                    case_a = lhs_zero || lhs_log < (c_k as f64).ln();
                } else {
                    // empty anchor section: case b scans nothing, which is
                    // both correct and free.
                    case_a = false;
                }
            }

            if case_a {
                self.stats.case_a += 1;
                // lines 22–25: recurse right with the scaled cover, filter
                // against the anchor.
                let scaled: Vec<f64> = y[..k - 1].iter().map(|&v| v / (1.0 - y_k)).collect();
                let rc = u.right.as_ref().expect("case a requires rc");
                let z_rows = self.recursive_join(rc, &scaled);
                self.stats.intermediate_tuples += z_rows.len() as u64;
                if let Some(anchor_node) = anchor {
                    for z in z_rows {
                        // z is over W⁻ in order = e_k's next attributes.
                        if self.tries[ek].descend_tuple(anchor_node, &z).is_some() {
                            let mut row = lrow.clone();
                            row.extend_from_slice(&z);
                            ret.push(row);
                        }
                    }
                }
            } else {
                self.stats.case_b += 1;
                // lines 27–29: scan the anchor's section, probe the others.
                if let Some(anchor_node) = anchor {
                    // `tries` is `&'a [S]`: copying the field out lets the
                    // enumeration borrow a trie while the probe loop below
                    // still takes `&mut self` for the bindings.
                    let tries = self.tries;
                    let trie_ek = &tries[ek];
                    // Partition-parallel runs: when this scan binds the
                    // first (second) attribute of the total order, descend
                    // only the shard's root (anchor) range.
                    let (f0, f1) = self.scan_filters(wm_start, wminus.get(1).map(|&v| self.pos[v]));
                    // Scan rows share arity |W⁻|: materialise them
                    // back-to-back in one pooled flat buffer instead of a
                    // fresh Vec<Vec<_>> per (lrow, scan).
                    let arity = wminus.len();
                    with_value_buf(|wm_buf| {
                        for_each_extension_filtered(trie_ek, anchor_node, arity, f0, f1, |t| {
                            wm_buf.extend_from_slice(t);
                        });
                        for t_wm in wm_buf.chunks_exact(arity) {
                            // bind t_{W⁻}
                            for (&v, &val) in wminus.iter().zip(t_wm) {
                                self.bindings[v] = Some(val);
                            }
                            let ok = check_edges.iter().all(|(i, part)| {
                                match self.section(*i, wm_start) {
                                    None => false,
                                    Some(node) => {
                                        let vals: Vec<Value> = part
                                            .iter()
                                            .map(|&v| self.bindings[v].expect("W⁻ bound"))
                                            .collect();
                                        tries[*i].descend_tuple(node, &vals).is_some()
                                    }
                                }
                            });
                            for &v in &wminus {
                                self.bindings[v] = None;
                            }
                            if ok {
                                let mut row = lrow.clone();
                                row.extend_from_slice(t_wm);
                                ret.push(row);
                            }
                        }
                    });
                }
            }

            for &v in &w {
                self.bindings[v] = None;
            }
        }
        ret
    }

    /// Leaf case (Procedure 5, lines 3–9): `univ ⊆ e_i` for all `i ≤ k`
    /// (or `k = 1`): intersect the section-projections, scanning the
    /// smallest.
    fn leaf_join(
        &mut self,
        _u: &QpNode,
        k: usize,
        univ: &[usize],
        u_start: usize,
    ) -> Vec<Vec<Value>> {
        // Edges whose projection spans all of univ (at a paper-leaf: all of
        // them; at a defensive k=1 pseudo-leaf, the ones that matter).
        let full: Vec<usize> = (0..k)
            .filter(|&i| {
                univ.iter()
                    .all(|&v| self.q.hypergraph().edge_contains(i, v))
            })
            .collect();
        debug_assert!(
            !full.is_empty(),
            "leaf with no covering edge is unreachable under a valid cover"
        );
        if full.is_empty() {
            return Vec::new();
        }

        // argmin section size
        let mut best: Option<(usize, S::Node, usize)> = None;
        for &i in &full {
            let Some(node) = self.section(i, u_start) else {
                return Vec::new(); // some section empty → empty join
            };
            let c = self.tries[i].distinct_count(node, univ.len());
            if best.is_none_or(|(_, _, bc)| c < bc) {
                best = Some((i, node, c));
            }
        }
        let (j, j_node, _) = best.expect("full is non-empty");

        // Pre-resolve the other edges' section nodes.
        let mut others: Vec<(usize, S::Node)> = Vec::new();
        for &i in &full {
            if i == j {
                continue;
            }
            match self.section(i, u_start) {
                Some(node) => others.push((i, node)),
                None => return Vec::new(),
            }
        }

        let mut out = Vec::new();
        let tries = self.tries;
        let trie_j = &tries[j];
        // Partition-parallel runs: when this leaf binds the first (second)
        // attribute of the total order, descend only the shard's root
        // (anchor) range.
        let (f0, f1) = self.scan_filters(u_start, univ.get(1).map(|&v| self.pos[v]));
        // Candidates share arity |univ|: one pooled flat buffer, probed
        // with chunks_exact; only surviving rows are materialised.
        let arity = univ.len();
        with_value_buf(|cand_buf| {
            for_each_extension_filtered(trie_j, j_node, arity, f0, f1, |t| {
                cand_buf.extend_from_slice(t);
            });
            self.stats.intermediate_tuples += (cand_buf.len() / arity) as u64;
            for cand in cand_buf.chunks_exact(arity) {
                let ok = others
                    .iter()
                    .all(|&(i, node)| tries[i].descend_tuple(node, cand).is_some());
                if ok {
                    out.push(cand.to_vec());
                }
            }
        });
        out
    }
}
