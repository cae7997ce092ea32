//! The three workloads: their seeded data, request streams and write
//! schedules. Everything here is a pure function of the seed (and of the
//! quick flag), so the end-to-end run and the traced replay see the same
//! inputs.

use crate::data::{edges_csv, Fingerprint, Graph, Rng, Shape, Zipf};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full joins, no constants; the plan cache is warm after set-up.
    Analytics,
    /// Short constant-anchored queries; Zipf constants against the
    /// 64-entry plan cache.
    Lookups,
    /// One open-loop writer beside one closed-loop reader.
    Ingest,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "analytics" => Some(Kind::Analytics),
            "lookups" => Some(Kind::Lookups),
            "ingest" => Some(Kind::Ingest),
            _ => None,
        }
    }
}

/// Rows per `ingest` write.
const INGEST_BATCH: usize = 50;
/// Batches `ingest` appends during set-up, so every measured append can
/// be paired with a delete of the oldest batch.
const INGEST_WINDOW: usize = 40;
/// Rows per write of the read-only workloads' probe: enough that a
/// write's cost is the write path's own work, not thread wake-ups.
const PROBE_BATCH: usize = 500;
/// The probe's cycle: this many writes, all appending a batch and deleting
/// it again (which cancels in the delta buffers) except the last two,
/// which append for good. Every cycle thus pushes the delta past the
/// compaction threshold about once, so about one write in this many
/// compacts and `write_p99_ms` falls in the middle of the compacting
/// writes, not on the edge of the rest.
const PROBE_CYCLE: usize = 50;
/// Zipf exponent of the `lookups` constants.
const LOOKUP_SKEW: f64 = 1.2;
/// Warm-up requests of `lookups` (run during set-up).
const LOOKUP_WARMUP: usize = 128;

/// A writer: a fixed schedule of appends and deletes of fresh-edge
/// batches against `relation`.
pub struct Writer {
    pub relation: String,
    /// Row count of `relation` right after its load.
    pub loaded_rows: u64,
    /// Batches `0..prefill` are appended during set-up.
    pub prefill: usize,
    pub batches: Vec<Vec<(u64, u64)>>,
    /// The measured writes, in order.
    pub ops: Vec<WriteOp>,
    /// Write spacing; zero for a closed loop.
    pub interval: Duration,
    /// A quiet gap of this length follows every `gap_every` writes; reads
    /// that fall inside one are checked against the exact state.
    pub gap: Duration,
    pub gap_every: usize,
}

/// One write of the measured schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    Append(usize),
    Delete(usize),
}

impl Writer {
    pub fn op(&self, j: usize) -> WriteOp {
        self.ops[j]
    }

    /// When write `j` is due, from the start of the measured window.
    pub fn due(&self, j: usize) -> Duration {
        self.interval * j as u32 + self.gap * (j / self.gap_every) as u32
    }

    /// The row total after set-up write `k` (appending batch `k`).
    pub fn prefill_rows(&self, k: usize) -> u64 {
        self.loaded_rows
            + self.batches[..=k]
                .iter()
                .map(|b| b.len() as u64)
                .sum::<u64>()
    }

    /// The row totals the server must acknowledge, one per measured write.
    pub fn expected_rows(&self) -> Vec<u64> {
        let mut total = match self.prefill {
            0 => self.loaded_rows,
            n => self.prefill_rows(n - 1),
        };
        self.ops
            .iter()
            .map(|&op| {
                match op {
                    WriteOp::Append(b) => total += self.batches[b].len() as u64,
                    WriteOp::Delete(b) => total -= self.batches[b].len() as u64,
                }
                total
            })
            .collect()
    }

    pub fn body(&self, op: WriteOp) -> String {
        let (WriteOp::Append(b) | WriteOp::Delete(b)) = op;
        edges_csv(self.batches[b].iter().copied())
    }

    /// Applies write `op` to a model of the relation.
    pub fn apply(&self, g: &mut Graph, op: WriteOp) {
        match op {
            WriteOp::Append(b) => self.batches[b].iter().for_each(|&(x, y)| g.insert(x, y)),
            WriteOp::Delete(b) => self.batches[b].iter().for_each(|&(x, y)| g.remove(x, y)),
        }
    }
}

/// `ingest`'s writes: each append of a fresh batch is followed by a delete
/// of the oldest live one, so the relation keeps its size.
fn sliding_window(writes: usize) -> Vec<WriteOp> {
    (0..writes)
        .map(|j| {
            if j.is_multiple_of(2) {
                WriteOp::Append(INGEST_WINDOW + j / 2)
            } else {
                WriteOp::Delete(j / 2)
            }
        })
        .collect()
}

/// The probe's writes: cycles of cancelling append/delete pairs closed by
/// two appends that stay (see [`PROBE_CYCLE`]).
fn probe_cycles(writes: usize) -> Vec<WriteOp> {
    let mut next = 0;
    let mut fresh = || {
        next += 1;
        next - 1
    };
    let mut ops = Vec::with_capacity(writes);
    while ops.len() < writes {
        if ops.len() % PROBE_CYCLE == PROBE_CYCLE - 2 {
            ops.push(WriteOp::Append(fresh()));
            ops.push(WriteOp::Append(fresh()));
        } else {
            let b = fresh();
            ops.push(WriteOp::Append(b));
            ops.push(WriteOp::Delete(b));
        }
    }
    ops.truncate(writes);
    ops
}

pub struct Workload {
    pub kind: Kind,
    /// `(name, csv)` in load order.
    pub relations: Vec<(String, String)>,
    /// Initial contents, by relation name.
    pub graphs: BTreeMap<String, Graph>,
    /// Distinct queries; requests refer to them by index.
    pub shapes: Vec<Shape>,
    /// A short label per shape, for grouping latencies in the summary.
    pub labels: Vec<String>,
    /// Expected answers over the state after set-up (read-only kinds).
    pub oracle: Vec<Fingerprint>,
    /// Queries run once during set-up.
    pub warmup: Vec<usize>,
    /// The measured request stream (cycled if exhausted).
    pub stream: Vec<usize>,
    /// Requests the traced replay takes from the head of `stream`.
    pub replay_len: usize,
    /// Writes beside the reader in `ingest`; in the read-only workloads,
    /// a closed-loop probe of a relation no query reads, after the reads.
    pub writer: Writer,
}

struct Sizes {
    er_vertices: u64,
    er_edges: usize,
    pa_vertices: u64,
    agm_k: u64,
    small_vertices: u64,
    small_edges: usize,
}

const FULL: Sizes = Sizes {
    er_vertices: 5_000,
    er_edges: 60_000,
    pa_vertices: 20_000,
    agm_k: 32,
    small_vertices: 1_000,
    small_edges: 1_500,
};

const QUICK: Sizes = Sizes {
    er_vertices: 800,
    er_edges: 6_000,
    pa_vertices: 3_000,
    agm_k: 12,
    small_vertices: 300,
    small_edges: 450,
};

fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

impl Workload {
    pub fn new(kind: Kind, seed: u64, seconds: u64, quick: bool) -> Workload {
        let sz = if quick { &QUICK } else { &FULL };
        let mut relations = Vec::new();
        let mut graphs = BTreeMap::new();
        let add = |relations: &mut Vec<(String, String)>,
                   graphs: &mut BTreeMap<String, Graph>,
                   name: &str,
                   g: Graph| {
            relations.push((name.to_owned(), edges_csv(g.edges())));
            graphs.insert(name.to_owned(), g);
        };
        let er = || {
            Graph::from_relation(&wcoj_datagen::random_graph_edges(
                sub_seed(seed, 1),
                sz.er_vertices,
                sz.er_edges,
            ))
        };
        let pa = || {
            Graph::from_relation(&wcoj_datagen::preferential_attachment_edges(
                sub_seed(seed, 2),
                sz.pa_vertices,
                4,
            ))
        };
        let mut rng = Rng::new(sub_seed(seed, 5));
        let mut shapes: Vec<Shape> = Vec::new();
        let mut index: HashMap<Shape, usize> = HashMap::new();
        let mut intern = |s: Shape| {
            *index.entry(s.clone()).or_insert_with(|| {
                shapes.push(s);
                shapes.len() - 1
            })
        };
        let (warmup, stream, replay_len, labels);
        match kind {
            Kind::Analytics => {
                add(&mut relations, &mut graphs, "E", er());
                add(&mut relations, &mut graphs, "P", pa());
                let grid = &wcoj_datagen::agm_tight_triangle(sz.agm_k)[0];
                add(&mut relations, &mut graphs, "G", Graph::from_relation(grid));
                add(
                    &mut relations,
                    &mut graphs,
                    "F",
                    Graph::from_relation(&wcoj_datagen::random_graph_edges(
                        sub_seed(seed, 3),
                        sz.small_vertices,
                        sz.small_edges,
                    )),
                );
                for s in [
                    Shape::Triangle("E".into()),
                    Shape::Triangle("P".into()),
                    Shape::Triangle("G".into()),
                    Shape::FourCycle("F".into()),
                    Shape::TwoPath("F".into()),
                ] {
                    intern(s);
                }
                labels = ["tri-er", "tri-pl", "tri-agm", "cyc4", "path2"]
                    .map(String::from)
                    .to_vec();
                warmup = (0..5).collect();
                // Seeded permutations of the fixed mix, so every stretch
                // of the stream holds the five queries equally often.
                let mut s = Vec::new();
                for _ in 0..(seconds.max(1) as usize * 60) {
                    let mut block: Vec<usize> = (0..5).collect();
                    rng.shuffle(&mut block);
                    s.extend(block);
                }
                stream = s;
                replay_len = if quick { 5 } else { 10 };
            }
            Kind::Lookups => {
                add(&mut relations, &mut graphs, "P", pa());
                add(&mut relations, &mut graphs, "E", er());
                let mut perm_p: Vec<u64> = (0..sz.pa_vertices).collect();
                let mut perm_e: Vec<u64> = (0..sz.er_vertices).collect();
                rng.shuffle(&mut perm_p);
                rng.shuffle(&mut perm_e);
                let zp = Zipf::new(perm_p.len(), LOOKUP_SKEW);
                let ze = Zipf::new(perm_e.len(), LOOKUP_SKEW);
                let total = LOOKUP_WARMUP + seconds.max(1) as usize * 1_500;
                let all: Vec<usize> = (0..total)
                    .map(|_| {
                        // Half the lookups are triangles through a vertex:
                        // their misses build a full index of `P`.
                        let s = match rng.below(4) {
                            0 => Shape::Out("P".into(), perm_p[zp.sample(&mut rng)]),
                            1 | 2 => Shape::TriangleAt("P".into(), perm_p[zp.sample(&mut rng)]),
                            _ => Shape::TwoHop(
                                "E".into(),
                                perm_e[ze.sample(&mut rng)],
                                perm_e[ze.sample(&mut rng)],
                            ),
                        };
                        intern(s)
                    })
                    .collect();
                warmup = all[..LOOKUP_WARMUP].to_vec();
                stream = all[LOOKUP_WARMUP..].to_vec();
                labels = Vec::new();
                replay_len = if quick { 100 } else { 400 };
            }
            Kind::Ingest => {
                add(&mut relations, &mut graphs, "E", er());
                let sources = graphs["E"].sources();
                let recip = intern(Shape::Reciprocal("E".into()));
                let anchors: Vec<usize> = (0..8)
                    .map(|_| {
                        let c = sources[rng.below(sources.len() as u64) as usize];
                        intern(Shape::TriangleAt("E".into(), c))
                    })
                    .collect();
                warmup = std::iter::once(recip)
                    .chain(anchors.iter().copied())
                    .collect();
                let reads = seconds.max(1) as usize * 400;
                stream = (0..reads)
                    .map(|i| {
                        if i.is_multiple_of(2) {
                            recip
                        } else {
                            anchors[(i / 2) % 8]
                        }
                    })
                    .collect();
                labels = Vec::new();
                replay_len = if quick { 20 } else { 60 };
            }
        }
        let labels = if labels.is_empty() {
            shapes.iter().map(|s| s.kind().to_owned()).collect()
        } else {
            labels
        };

        // The writer: fresh edges over the vertex range of its relation.
        let (relation, vertices, batch, prefill, ops, interval, gap, gap_every) = match kind {
            Kind::Ingest => (
                "E",
                sz.er_vertices,
                INGEST_BATCH,
                INGEST_WINDOW,
                // Enough for the window; the clock stops it earlier.
                sliding_window(seconds.max(1) as usize * 110),
                Duration::from_micros(10_000),
                Duration::from_millis(60),
                100,
            ),
            _ => {
                let w = Graph::new((0..sz.er_edges as u64).map(|i| (i, i + 1)));
                add(&mut relations, &mut graphs, "W", w);
                // A closed loop: each write is sent when the previous one
                // is acknowledged.
                (
                    "W",
                    2 * sz.er_edges as u64,
                    PROBE_BATCH,
                    0,
                    probe_cycles(if quick { 200 } else { 3_000 }),
                    Duration::ZERO,
                    Duration::ZERO,
                    usize::MAX,
                )
            }
        };
        let loaded_rows = graphs[relation].len() as u64;
        let mut wrng = Rng::new(sub_seed(seed, 6));
        let mut taken: HashSet<(u64, u64)> = graphs[relation].edges().collect();
        let n_batches = prefill
            + ops
                .iter()
                .filter(|op| matches!(op, WriteOp::Append(_)))
                .count();
        let batches = (0..n_batches)
            .map(|_| {
                let mut b = Vec::with_capacity(batch);
                while b.len() < batch {
                    let e = (wrng.below(vertices), wrng.below(vertices));
                    if e.0 != e.1 && taken.insert(e) {
                        b.push(e);
                    }
                }
                b.sort_unstable();
                b
            })
            .collect();
        let writer = Writer {
            relation: relation.to_owned(),
            loaded_rows,
            prefill,
            batches,
            ops,
            interval,
            gap,
            gap_every,
        };

        let oracle = match kind {
            Kind::Ingest => Vec::new(),
            _ => shapes
                .iter()
                .map(|s| s.oracle(&graphs[s.relation()]))
                .collect(),
        };
        Workload {
            kind,
            relations,
            graphs,
            shapes,
            labels,
            oracle,
            warmup,
            stream,
            replay_len,
            writer,
        }
    }

    /// The writer's relation after set-up.
    pub fn writer_start_state(&self) -> Graph {
        let mut g = self.graphs[&self.writer.relation].clone();
        for b in 0..self.writer.prefill {
            self.writer.apply(&mut g, WriteOp::Append(b));
        }
        g
    }
}

/// The exact answers along a write sequence: only the writer's relation
/// changes, and only through the writes applied so far.
pub struct Model<'a> {
    w: &'a Workload,
    writer_state: Graph,
}

impl<'a> Model<'a> {
    /// The state right after set-up.
    pub fn new(w: &'a Workload) -> Model<'a> {
        Model {
            w,
            writer_state: w.writer_start_state(),
        }
    }

    /// Applies measured write `j`.
    pub fn apply(&mut self, j: usize) {
        self.w
            .writer
            .apply(&mut self.writer_state, self.w.writer.op(j));
    }

    pub fn answer(&self, q: usize) -> Fingerprint {
        let shape = &self.w.shapes[q];
        if shape.relation() == self.w.writer.relation {
            shape.oracle(&self.writer_state)
        } else {
            self.w.oracle[q]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for kind in [Kind::Analytics, Kind::Lookups, Kind::Ingest] {
            let a = Workload::new(kind, 3, 2, true);
            let b = Workload::new(kind, 3, 2, true);
            assert_eq!(a.relations, b.relations);
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.shapes, b.shapes);
            assert_eq!(a.writer.batches, b.writer.batches);
            let c = Workload::new(kind, 4, 2, true);
            assert_ne!(a.relations, c.relations);
        }
    }

    #[test]
    fn writers_acknowledge_the_modelled_row_totals() {
        for kind in [Kind::Ingest, Kind::Lookups] {
            let w = Workload::new(kind, 1, 2, true);
            let wr = &w.writer;
            let mut g = w.writer_start_state();
            if wr.prefill > 0 {
                assert_eq!(g.len() as u64, wr.prefill_rows(wr.prefill - 1));
            }
            let totals = wr.expected_rows();
            for (j, want) in totals.iter().enumerate() {
                wr.apply(&mut g, wr.op(j));
                assert_eq!(g.len() as u64, *want, "{kind:?} write {j}");
            }
        }
        // `ingest` keeps its size; the probe grows by two batches a cycle.
        let ingest = Workload::new(Kind::Ingest, 1, 2, true).writer;
        let totals = ingest.expected_rows();
        assert_eq!(totals[1], totals[3]);
        let probe = Workload::new(Kind::Analytics, 1, 2, true).writer;
        let totals = probe.expected_rows();
        assert_eq!(totals[1], probe.loaded_rows);
        assert_eq!(
            totals[PROBE_CYCLE - 1],
            probe.loaded_rows + 2 * PROBE_BATCH as u64
        );
    }

    #[test]
    fn ingest_writes_keep_their_schedule() {
        let w = Workload::new(Kind::Ingest, 1, 2, true).writer;
        // Gaps every 100 writes; writes are otherwise evenly spaced.
        assert_eq!(w.due(100) - w.due(99), w.interval + w.gap);
        assert_eq!(w.due(2) - w.due(1), w.interval);
    }
}
