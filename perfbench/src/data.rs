//! Seeded inputs, query texts and the correctness oracle.
//!
//! The oracle is a direct adjacency computation over the generated edge
//! lists: it shares no code with the join engines under test. Answers are
//! compared as order-independent fingerprints of the CSV lines the server
//! prints (row count plus sum and xor of per-line hashes), so a missing,
//! extra, duplicated or altered row changes the fingerprint.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// SplitMix64: a small seeded generator for the request streams.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws ranks `0..n` with probability proportional to `1/(r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Order-independent digest of a set of CSV lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    sum: u64,
    xor: u64,
}

impl Fingerprint {
    fn add_line(&mut self, line: &[u8]) {
        // FNV-1a, then a finaliser so sums of similar lines spread.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &b in line {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
        let h = mix(h);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= h;
    }

    /// Digest of the union of two disjoint line sets.
    pub fn combine(a: Fingerprint, b: Fingerprint) -> Fingerprint {
        Fingerprint {
            rows: a.rows + b.rows,
            sum: a.sum.wrapping_add(b.sum),
            xor: a.xor ^ b.xor,
        }
    }

    /// Digest of a CSV body as the server sends it.
    pub fn of_csv(body: &[u8]) -> Fingerprint {
        let mut f = Fingerprint::default();
        for line in body.split(|&b| b == b'\n') {
            if !line.is_empty() {
                f.add_line(line);
            }
        }
        f
    }

    /// Digest of integer rows, rendered the way the server renders them.
    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a [u64]>) -> Fingerprint {
        let mut f = Fingerprint::default();
        let mut line = String::new();
        for row in rows {
            line.clear();
            for (i, v) in row.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                let _ = write!(line, "{v}");
            }
            f.add_line(line.as_bytes());
        }
        f
    }
}

/// A directed edge set with sorted adjacency lists.
#[derive(Clone, Default)]
pub struct Graph {
    out: BTreeMap<u64, Vec<u64>>,
    set: HashSet<(u64, u64)>,
}

impl Graph {
    pub fn new(edges: impl IntoIterator<Item = (u64, u64)>) -> Graph {
        let mut g = Graph::default();
        for (a, b) in edges {
            g.insert(a, b);
        }
        g
    }

    pub fn from_relation(rel: &wcoj_storage::Relation) -> Graph {
        Graph::new(rel.iter_rows().map(|r| (r[0].0, r[1].0)))
    }

    pub fn len(&self) -> usize {
        self.set.len()
    }

    pub fn has(&self, a: u64, b: u64) -> bool {
        self.set.contains(&(a, b))
    }

    pub fn out(&self, a: u64) -> &[u64] {
        self.out.get(&a).map_or(&[], Vec::as_slice)
    }

    pub fn insert(&mut self, a: u64, b: u64) {
        if self.set.insert((a, b)) {
            let list = self.out.entry(a).or_default();
            let at = list.partition_point(|&x| x < b);
            list.insert(at, b);
        }
    }

    pub fn remove(&mut self, a: u64, b: u64) {
        if self.set.remove(&(a, b)) {
            let list = self.out.get_mut(&a).expect("edge present");
            let at = list.partition_point(|&x| x < b);
            list.remove(at);
        }
    }

    /// Edges in ascending order.
    pub fn edges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.out
            .iter()
            .flat_map(|(&a, bs)| bs.iter().map(move |&b| (a, b)))
    }

    /// Vertices with at least one out-edge, ascending.
    pub fn sources(&self) -> Vec<u64> {
        self.out
            .iter()
            .filter(|(_, bs)| !bs.is_empty())
            .map(|(&a, _)| a)
            .collect()
    }
}

/// Renders edges as CSV lines.
pub fn edges_csv(edges: impl IntoIterator<Item = (u64, u64)>) -> String {
    let mut s = String::new();
    for (a, b) in edges {
        let _ = writeln!(s, "{a},{b}");
    }
    s
}

/// The query shapes the workloads send.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Shape {
    /// `Ans(x,y,z) :- R(x,y), R(y,z), R(x,z)`.
    Triangle(String),
    /// `Ans(a,b,c,d) :- R(a,b), R(b,c), R(c,d), R(d,a)`.
    FourCycle(String),
    /// `Ans(x,z) :- R(x,y), R(y,z)`.
    TwoPath(String),
    /// `Ans(y) :- R(c,y)`.
    Out(String, u64),
    /// `Ans(y,z) :- R(c,y), R(y,z), R(c,z)`.
    TriangleAt(String, u64),
    /// `Ans(y) :- R(c,y), R(y,d)`.
    TwoHop(String, u64, u64),
    /// `Ans(x,y) :- R(x,y), R(y,x)`.
    Reciprocal(String),
}

impl Shape {
    /// The relation the shape reads.
    pub fn relation(&self) -> &str {
        match self {
            Shape::Triangle(r)
            | Shape::FourCycle(r)
            | Shape::TwoPath(r)
            | Shape::Out(r, _)
            | Shape::TriangleAt(r, _)
            | Shape::TwoHop(r, _, _)
            | Shape::Reciprocal(r) => r,
        }
    }

    /// The shape's name without its relation and constants.
    pub fn kind(&self) -> &'static str {
        match self {
            Shape::Triangle(_) => "triangle",
            Shape::FourCycle(_) => "four-cycle",
            Shape::TwoPath(_) => "two-path",
            Shape::Out(..) => "out",
            Shape::TriangleAt(..) => "triangle-at",
            Shape::TwoHop(..) => "two-hop",
            Shape::Reciprocal(_) => "reciprocal",
        }
    }

    pub fn text(&self) -> String {
        match self {
            Shape::Triangle(r) => format!("Ans(x, y, z) :- {r}(x, y), {r}(y, z), {r}(x, z)."),
            Shape::FourCycle(r) => {
                format!("Ans(a, b, c, d) :- {r}(a, b), {r}(b, c), {r}(c, d), {r}(d, a).")
            }
            Shape::TwoPath(r) => format!("Ans(x, z) :- {r}(x, y), {r}(y, z)."),
            Shape::Out(r, c) => format!("Ans(y) :- {r}({c}, y)."),
            Shape::TriangleAt(r, c) => format!("Ans(y, z) :- {r}({c}, y), {r}(y, z), {r}({c}, z)."),
            Shape::TwoHop(r, c, d) => format!("Ans(y) :- {r}({c}, y), {r}(y, {d})."),
            Shape::Reciprocal(r) => format!("Ans(x, y) :- {r}(x, y), {r}(y, x)."),
        }
    }

    /// The expected answer over `g` (the graph of [`Shape::relation`]).
    pub fn oracle(&self, g: &Graph) -> Fingerprint {
        let mut rows: Vec<Vec<u64>> = Vec::new();
        match self {
            Shape::Triangle(_) => {
                for (x, y) in g.edges() {
                    for &z in g.out(y) {
                        if g.has(x, z) {
                            rows.push(vec![x, y, z]);
                        }
                    }
                }
            }
            Shape::FourCycle(_) => {
                for (a, b) in g.edges() {
                    for &c in g.out(b) {
                        for &d in g.out(c) {
                            if g.has(d, a) {
                                rows.push(vec![a, b, c, d]);
                            }
                        }
                    }
                }
            }
            Shape::TwoPath(_) => {
                let mut pairs = HashSet::new();
                for (x, y) in g.edges() {
                    for &z in g.out(y) {
                        pairs.insert((x, z));
                    }
                }
                rows.extend(pairs.into_iter().map(|(x, z)| vec![x, z]));
            }
            Shape::Out(_, c) => rows.extend(g.out(*c).iter().map(|&y| vec![y])),
            Shape::TriangleAt(_, c) => {
                for &y in g.out(*c) {
                    for &z in g.out(y) {
                        if g.has(*c, z) {
                            rows.push(vec![y, z]);
                        }
                    }
                }
            }
            Shape::TwoHop(_, c, d) => {
                rows.extend(
                    g.out(*c)
                        .iter()
                        .filter(|&&y| g.has(y, *d))
                        .map(|&y| vec![y]),
                );
            }
            Shape::Reciprocal(_) => {
                rows.extend(
                    g.edges()
                        .filter(|&(x, y)| g.has(y, x))
                        .map(|(x, y)| vec![x, y]),
                );
            }
        }
        Fingerprint::of_rows(rows.iter().map(Vec::as_slice))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_order_but_not_content() {
        let a = Fingerprint::of_csv(b"1,2\n3,4\n");
        assert_eq!(a, Fingerprint::of_csv(b"3,4\n1,2\n"));
        assert_eq!(a, Fingerprint::of_rows([&[1u64, 2][..], &[3, 4]]));
        assert_ne!(a, Fingerprint::of_csv(b"1,2\n3,4\n3,4\n"));
        assert_ne!(a, Fingerprint::of_csv(b"1,2\n3,5\n"));
        assert_eq!(a.rows, 2);
    }

    #[test]
    fn oracle_on_a_small_graph() {
        // 0→1→2, 0→2, 2→0: one triangle (0,1,2), reciprocal pair 0↔2.
        let g = Graph::new([(0, 1), (1, 2), (0, 2), (2, 0)]);
        let tri = Shape::Triangle("E".into()).oracle(&g);
        assert_eq!(tri, Fingerprint::of_rows([&[0u64, 1, 2][..]]));
        let rec = Shape::Reciprocal("E".into()).oracle(&g);
        assert_eq!(rec, Fingerprint::of_csv(b"0,2\n2,0\n"));
        let hop = Shape::TwoHop("E".into(), 0, 2).oracle(&g);
        assert_eq!(hop, Fingerprint::of_csv(b"1\n"));
        let path = Shape::TwoPath("E".into()).oracle(&g);
        assert_eq!(path, Fingerprint::of_csv(b"0,2\n1,0\n0,0\n2,1\n2,2\n"));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(7);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count();
        let tail = draws.iter().filter(|&&r| r == 999).count();
        assert!(top > 500 && tail < 20, "{top} {tail}");
    }
}
