//! Shard planning: how one prepared query is carved into independent
//! root-range tasks for the pool.
//!
//! The NPRR `Recursive-Join` (paper §5.2, Procedure 5) is embarrassingly
//! parallel at the root of the total order. The paper's step 2a observes
//! that for a tuple prefix `t`, the trie subtree under the branch for `t`
//! **is** the search tree of the section `Rₑ[t]`; in particular, the
//! sub-computations for two different values `a ≠ b` of the *first*
//! attribute in the total order touch disjoint subtrees of every index
//! and produce disjoint sets of output tuples. Sub-joins for disjoint
//! value ranges of the root attribute are therefore fully independent,
//! and their outputs merge by concatenation in root-value order.
//!
//! The planner splits the root-candidate list
//! ([`PreparedQuery::root_candidate_weights`]) into contiguous ranges of
//! roughly equal estimated *work* (level-1 fanout). The plan is
//! **two-level**: a heavy root value is first isolated, and one heavy
//! enough to span several work targets is further broken into *anchor
//! sub-shards* — [`RootShard`]s carrying an [`AnchorRange`] over the
//! level-1 attribute ([`ExecConfig::heavy_split_factor`]) — so even a
//! single hot key spreads across workers instead of pinning one. The
//! ranges jointly cover the whole value domain (root × anchor), so
//! correctness never depends on the candidate computation being tight.

use wcoj_core::nprr::{AnchorRange, PreparedQuery, RootShard};
use wcoj_obs::{TraceEvent, TraceLevel};
use wcoj_storage::{SearchTree, Value};

/// Per-query planning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Minimum number of root-attribute candidate values per shard; the
    /// planner never splits the root level finer than this (oversplitting
    /// tiny domains only buys scheduling overhead).
    pub shard_min_size: usize,
    /// Intra-value parallelism for heavy root values: the maximum number
    /// of anchor sub-shards one root value may be broken into. A root
    /// value whose estimated weight spans `s ≥ 2` per-shard work targets
    /// is split into `min(s, heavy_split_factor)` sub-shards over the
    /// level-1 anchor domain ([`PreparedQuery::anchor_candidates`]), so a
    /// single hot key no longer pins one worker while the rest of the
    /// pool drains. `0` or `1` disables intra-value splitting (heavy
    /// values are only isolated into singleton shards).
    pub heavy_split_factor: usize,
}

/// Shards planned per worker: oversplitting keeps a pool busy when value
/// ranges carry skewed amounts of work even after work-based sizing.
pub const OVERSPLIT: usize = 4;

/// Default [`ExecConfig::heavy_split_factor`]: twice the [`OVERSPLIT`]
/// factor, so even a query whose whole root domain is one hot value
/// yields enough sub-shards to keep a small pool busy with stealing room.
pub const HEAVY_SPLIT_DEFAULT: usize = OVERSPLIT * 2;

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            shard_min_size: 16,
            heavy_split_factor: HEAVY_SPLIT_DEFAULT,
        }
    }
}

/// Total estimated work of a weight list, accumulated in `u128` with
/// saturating adds so the per-shard target math is monotone even for
/// adversarial near-`u64::MAX` per-candidate weights (a wrapped total
/// would collapse the plan into one degenerate shard).
fn saturating_total(weights: &[(Value, u64)]) -> u128 {
    weights
        .iter()
        .fold(0u128, |acc, &(_, w)| acc.saturating_add(u128::from(w)))
}

/// One planned group of root candidates: the exclusive end index of its
/// candidate run, plus — for an intra-value split of a heavy candidate —
/// the anchor-chunk boundaries (first anchor candidate of every chunk
/// after the first).
struct GroupSpec {
    end: usize,
    anchor_bounds: Option<Vec<Value>>,
}

impl GroupSpec {
    fn tasks(&self) -> usize {
        self.anchor_bounds.as_ref().map_or(1, |b| b.len() + 1)
    }
}

/// Work-based shard planning: splits the sorted `(candidate, weight)` list
/// into contiguous inclusive ranges of roughly equal **total weight**
/// (each targets `⌈Σw / max_shards⌉`, with `max_shards` capped so no
/// range holds fewer than `min_size` candidates), jointly covering the
/// entire value domain `[0, u64::MAX]`: each range also owns the gap up
/// to the next range's first candidate.
///
/// * A *heavy* candidate — one whose weight alone reaches the target —
///   is isolated into a singleton shard so a hot key never drags its
///   neighbours onto the same worker.
/// * **Intra-value parallelism**: a candidate whose weight spans `s ≥ 2`
///   targets is broken into `min(s, heavy_split, |anchor slice|)`
///   *sub-shards* — [`RootShard`]s sharing the value's root range whose
///   [`AnchorRange`]s partition the level-1 anchor domain at boundaries
///   drawn from `anchor_slice(value)` (the sorted anchor candidates under
///   that root value, [`PreparedQuery::anchor_candidates`]). The
///   sub-shards cover the root range × the whole anchor domain exactly
///   once. Sub-split sizing deliberately ignores the candidate-count
///   floor, so a root domain of a *single* candidate can still fill the
///   pool. `heavy_split ≤ 1` disables it (and `anchor_slice` is never
///   called).
///
/// `max_shards` sets the weight target, not a hard cap; the plan size
/// stays bounded in every degenerate case. Without sub-splits at most
/// `max_shards` singletons exist and every light group other than a tail
/// flushed by a heavy neighbour carries a full target, so the plan never
/// exceeds `2 × max_shards + 1` entries. Splittable values each span ≥ 2
/// targets, so their sub-shards sum to ≤ `max_shards`, and the plan never
/// exceeds `3 × max_shards + 1` entries.
///
/// Returns an empty plan when nothing can be split at either level.
#[must_use]
pub fn plan_weighted_shards_split(
    weights: &[(Value, u64)],
    max_shards: usize,
    min_size: usize,
    heavy_split: usize,
    anchor_slice: impl Fn(Value) -> Vec<Value>,
) -> Vec<RootShard> {
    let min_size = min_size.max(1);
    if weights.is_empty() || max_shards <= 1 {
        return Vec::new();
    }
    let total = saturating_total(weights);
    // Sub-split target: what a full complement of shards would each carry.
    let target_split = total.div_ceil(max_shards as u128).max(1);
    // Level-0 grouping respects the candidate floor; a domain too small
    // for level-0 splitting becomes one group (sub-splits can still
    // multiply it).
    let capped = max_shards.min(weights.len() / min_size);
    let target_group = if capped >= 2 {
        total.div_ceil(capped as u128).max(1)
    } else {
        u128::MAX
    };

    let mut groups: Vec<GroupSpec> = Vec::new();
    let mut acc: u128 = 0;
    let mut open = false; // does an unclosed group precede index i?
    for (i, &(v, w)) in weights.iter().enumerate() {
        let w = u128::from(w);
        // How many work targets does this one candidate span?
        let split_ways = usize::try_from(w / target_split).unwrap_or(usize::MAX);
        let k = heavy_split.min(split_ways);
        if k >= 2 || w >= target_group {
            // Heavy hitter: close the open group, then isolate the key —
            // carved into ≤ k anchor sub-shards when it is splittable.
            if open {
                groups.push(GroupSpec {
                    end: i,
                    anchor_bounds: None,
                });
            }
            let anchor_bounds = if k >= 2 {
                let slice = anchor_slice(v);
                let k = k.min(slice.len());
                // fewer than 2 anchor candidates: plain singleton
                (k >= 2).then(|| {
                    let chunk = slice.len().div_ceil(k);
                    slice.iter().copied().skip(chunk).step_by(chunk).collect()
                })
            } else {
                None
            };
            groups.push(GroupSpec {
                end: i + 1,
                anchor_bounds,
            });
            acc = 0;
            open = false;
        } else {
            acc = acc.saturating_add(w);
            open = true;
            if acc >= target_group {
                groups.push(GroupSpec {
                    end: i + 1,
                    anchor_bounds: None,
                });
                acc = 0;
                open = false;
            }
        }
    }
    if open {
        groups.push(GroupSpec {
            end: weights.len(),
            anchor_bounds: None,
        });
    }
    let tasks: usize = groups.iter().map(GroupSpec::tasks).sum();
    if tasks <= 1 {
        return Vec::new();
    }

    // Emit gap-free inclusive root ranges (each group owns the gap up to
    // the next group's first candidate); a sub-split group emits one
    // shard per anchor chunk, all sharing the group's root range, their
    // anchor ranges jointly covering [0, u64::MAX].
    let mut out = Vec::with_capacity(tasks);
    let mut lo = Value(u64::MIN);
    for (g, group) in groups.iter().enumerate() {
        let hi = if g + 1 == groups.len() {
            Value(u64::MAX)
        } else {
            Value(weights[group.end].0 .0 - 1)
        };
        match &group.anchor_bounds {
            None => out.push(RootShard::range(lo, hi)),
            Some(bounds) => {
                let mut alo = Value(u64::MIN);
                for &b in bounds {
                    out.push(RootShard {
                        lo,
                        hi,
                        anchor: Some(AnchorRange {
                            lo: alo,
                            // bounds are anchor candidates at index ≥ 1 of
                            // a sorted distinct slice, so b.0 ≥ 1
                            hi: Value(b.0 - 1),
                        }),
                    });
                    alo = b;
                }
                out.push(RootShard {
                    lo,
                    hi,
                    anchor: Some(AnchorRange {
                        lo: alo,
                        hi: Value(u64::MAX),
                    }),
                });
            }
        }
        lo = Value(hi.0.wrapping_add(1));
    }
    out
}

/// A planned decomposition of one query into schedulable root-range
/// shards — the unit the [`Service`](crate::Service) executes. Built by
/// [`ShardPlan::plan`] from a preparation; carries the candidate count so
/// callers can distinguish "domain too small to split" from "**no** root
/// value can produce output" (the zero-shard case: skip the engine
/// entirely).
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: Vec<RootShard>,
    root_candidates: usize,
}

impl ShardPlan {
    /// Plans shards for `prepared` under `cfg`, with `max_shards` ranges
    /// as the sizing target (heavy-hitter isolation and sub-splits may
    /// exceed it, bounded by `3 × max_shards + 1`), never splitting the
    /// root level finer than `shard_min_size` candidates per shard.
    /// Intra-value sub-shards need an anchor level to split on, so they
    /// are only planned for total orders of ≥ 2 attributes.
    #[must_use]
    pub fn plan<S: SearchTree>(
        prepared: &PreparedQuery<S>,
        max_shards: usize,
        cfg: &ExecConfig,
    ) -> ShardPlan {
        // Memoized on the preparation: repeat submissions of a cached
        // PreparedQuery skip the level-0 weight sweep.
        let weights = prepared.cached_root_weights();
        let heavy_split = if prepared.total_order().len() >= 2 {
            cfg.heavy_split_factor
        } else {
            1
        };
        let shards =
            plan_weighted_shards_split(weights, max_shards, cfg.shard_min_size, heavy_split, |v| {
                prepared.anchor_candidates(v)
            });
        // Heavy-split decisions are worth tracing: they are the planner's
        // answer to skew, and sub-shard counts explain why a plan exceeds
        // its sizing target. Payload is only computed when tracing is on.
        let ring = wcoj_obs::trace();
        if ring.enabled(TraceLevel::Summary) {
            let sub_shards = shards.iter().filter(|s| s.anchor.is_some()).count();
            if sub_shards > 0 {
                // Sub-shards of one root value are contiguous and share
                // their root range; count the runs to count the values.
                let values = shards
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| s.anchor.is_some() && (*i == 0 || shards[i - 1].lo != s.lo))
                    .count();
                ring.record(
                    TraceLevel::Summary,
                    TraceEvent::HeavySplit {
                        values: values as u32,
                        sub_shards: sub_shards as u32,
                    },
                );
            }
        }
        ShardPlan {
            shards,
            root_candidates: weights.len(),
        }
    }

    /// The planned ranges (empty for degenerate single-run plans).
    #[must_use]
    pub fn shards(&self) -> &[RootShard] {
        &self.shards
    }

    /// Number of planned shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` iff the plan has no shards (degenerate: run unrestricted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Number of root-candidate values the planner saw.
    #[must_use]
    pub fn root_candidates(&self) -> usize {
        self.root_candidates
    }

    /// `true` iff no root value can produce output for a non-nullary
    /// query: the candidate intersection is empty, so the join is empty
    /// and needs **zero** shard tasks (nullary queries have no root
    /// attribute and are excluded — they still need their single run).
    #[must_use]
    pub fn root_domain_is_empty<S: SearchTree>(&self, prepared: &PreparedQuery<S>) -> bool {
        self.root_candidates == 0 && !prepared.total_order().is_empty()
    }

    /// The schedulable task list: one entry per shard, or a single
    /// unrestricted task (`None`) when the plan is degenerate. Callers
    /// must check [`Self::root_domain_is_empty`] first — a zero-output
    /// query needs no tasks at all.
    #[must_use]
    pub fn tasks(&self) -> Vec<Option<RootShard>> {
        if self.shards.len() <= 1 {
            vec![None]
        } else {
            self.shards.iter().copied().map(Some).collect()
        }
    }
}
