//! The traced run: per-layer metrics.
//!
//! The workload's request sequence is replayed three times, one request
//! at a time: once over HTTP against the server child process (the
//! server's share and the writer's lateness), and twice in-process
//! against a catalog and service loaded exactly as the server loads them.
//! In-process, every query goes through the real path (`parse_query`,
//! `Catalog::freeze`, `submit_query`, `PendingQuery::next_batch`) and is
//! then rebuilt and rerun through the layers' public functions, each call
//! timed on its own: `Subgoal::reduce`, `JoinQuery::new` and
//! `PreparedQuery::from_shared` (with `FlatIndex::build` timed inside it),
//! `PreparedQuery::resolve_cover`, `Service::shard_layout`,
//! `Service::submit(..).wait_profiled()`, and a sequential
//! `PreparedQuery::run_shard` + `assemble` for exact work counters. The
//! two in-process replays must agree on every counter.

use crate::data::Fingerprint;
use crate::e2e::{run_query, run_write, set_up, QueryOutcome, Report, Tally};
use crate::http::Client;
use crate::server::csv_bodies;
use crate::stats::{median, ms, open_loop};
use crate::workload::{Kind, Model, Workload, WriteOp};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wcoj_core::fullcq::{Subgoal, Term};
use wcoj_core::nprr::PreparedQuery;
use wcoj_core::JoinQuery;
use wcoj_query::{load_csv, parse_query, submit_query, Catalog, ParsedTerm};
use wcoj_service::{Service, ServiceConfig};
use wcoj_storage::{Attr, Datum, DeltaIndex, FlatIndex, Relation, Value};

/// Writes of the read-only workloads' write probe that the replay takes.
const PROBE_WRITES: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Query(usize),
    Write(usize),
}

/// The replayed sequence, in the end-to-end run's order: for `ingest` the
/// writer's schedule with one read after each append/delete pair; for the
/// read-only workloads the start of the write probe, then the head of the
/// measured stream.
fn steps(w: &Workload) -> Vec<Step> {
    match w.kind {
        Kind::Ingest => (0..w.replay_len)
            .flat_map(|i| {
                [
                    Step::Write(2 * i),
                    Step::Write(2 * i + 1),
                    Step::Query(w.stream[i]),
                ]
            })
            .collect(),
        _ => (0..PROBE_WRITES.min(w.writer.ops.len()))
            .map(Step::Write)
            .chain(w.stream[..w.replay_len].iter().map(|&q| Step::Query(q)))
            .collect(),
    }
}

fn fingerprint(rel: &Relation) -> Fingerprint {
    let rows: Vec<Vec<u64>> = rel
        .iter_rows()
        .map(|r| r.iter().map(|v| v.0).collect())
        .collect();
    Fingerprint::of_rows(rows.iter().map(Vec::as_slice))
}

// ---------------------------------------------------------------------
// HTTP replay

#[derive(Default)]
struct HttpTrace {
    /// Per query step, in order: POST, GET first byte, GET last byte.
    post: Vec<f64>,
    get_first: Vec<f64>,
    get_all: Vec<f64>,
    /// POST send → GET last byte, per query step.
    round_trip: Vec<f64>,
    bytes: u64,
    rows: u64,
    write: Vec<f64>,
    late: Vec<f64>,
}

fn http_replay(w: &Workload, bin: &Path, tally: &mut Tally) -> Result<HttpTrace, String> {
    let (server, _) = set_up(w, bin, tally)?;
    let mut t = HttpTrace::default();
    let wr = &w.writer;
    let totals = wr.expected_rows();
    let record_query = |t: &mut HttpTrace, out: &QueryOutcome| {
        t.post.push(ms(out.post));
        t.get_first.push(ms(out.get_first));
        t.get_all.push(ms(out.get_all));
        t.round_trip.push(ms(out.done - out.sent));
        t.bytes += out.bytes as u64;
        t.rows += out.answer.map_or(0, |f| f.rows);
    };
    let mut client = Client::new(server.addr);
    if w.kind == Kind::Ingest {
        // The writer keeps its schedule on its own connection while the
        // reads run, as in the end-to-end run, so its lateness means what
        // it means there. Reads that overlap writes have no single exact
        // answer; the in-process replays check every one of them.
        let steps = steps(w);
        let n_writes = steps.iter().filter(|s| matches!(s, Step::Write(_))).count();
        let writes = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut client = Client::new(server.addr);
                open_loop(
                    Instant::now(),
                    n_writes,
                    Duration::MAX,
                    |j| wr.due(j),
                    |j| {
                        let op = wr.op(j);
                        run_write(&mut client, &wr.relation, op, &wr.body(op))
                    },
                )
            });
            for step in &steps {
                if let Step::Query(q) = *step {
                    let out = run_query(&mut client, &w.shapes[q].text());
                    tally.record(out.answer.is_some(), || {
                        format!("read of {} failed", w.shapes[q].text())
                    });
                    record_query(&mut t, &out);
                }
            }
            writer.join().expect("writer thread")
        });
        for (j, (timed, got)) in writes.into_iter().enumerate() {
            t.write.push(ms(timed.latency - timed.late));
            t.late.push(ms(timed.late));
            let want = totals[j];
            tally.record(got == Ok(want), || {
                format!("write {j}: acknowledged {got:?}, want {want}")
            });
        }
        return Ok(t);
    }
    // The read-only workloads: one request at a time, each answer exact.
    let mut model = Model::new(w);
    for step in steps(w) {
        match step {
            Step::Query(q) => {
                let out = run_query(&mut client, &w.shapes[q].text());
                tally.check(out.answer, model.answer(q), &w.shapes[q].text());
                record_query(&mut t, &out);
            }
            Step::Write(j) => {
                let op = wr.op(j);
                let body = wr.body(op);
                let sent = Instant::now();
                let got = run_write(&mut client, &wr.relation, op, &body);
                t.write.push(ms(sent.elapsed()));
                let want = totals[j];
                tally.record(got == Ok(want), || {
                    format!("write {j}: acknowledged {got:?}, want {want}")
                });
                model.apply(j);
            }
        }
    }
    Ok(t)
}

// ---------------------------------------------------------------------
// In-process replay

/// How `submit_query` was served, read off the plan-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheOutcome {
    Hit,
    Miss,
    Refresh,
}

/// Exact per-query work counts; equal across replays of one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    case_a: u64,
    case_b: u64,
    intermediate: u64,
    output_rows: u64,
    shards: u64,
    index_rows: u64,
}

struct QueryTrace {
    outcome: CacheOutcome,
    counts: Counts,
    /// The real path: parse, freeze, submit, first batch, full drain.
    parse: Duration,
    freeze: Duration,
    submit: Duration,
    first_batch: Duration,
    drain: Duration,
    /// The rebuild: the plan-cache miss path, layer by layer.
    reduce: Duration,
    prepare: Duration,
    index_build: Duration,
    cover: Duration,
    /// Shard planning, and the service run's phases.
    plan: Duration,
    queue_wait: Duration,
    engine: Duration,
    assemble: Duration,
    shard_busy: Duration,
    slowest_share: f64,
    /// Sequential engine time on the delta-backed snapshot ÷ on the same
    /// state compacted; `None` when the snapshot had no delta.
    delta_ratio: Option<f64>,
}

impl QueryTrace {
    fn total(&self) -> Duration {
        self.parse + self.freeze + self.submit + self.drain
    }

    /// Self-times of the layers on this query's path.
    fn miss_path(&self) -> Duration {
        if self.outcome == CacheOutcome::Miss {
            self.reduce + self.prepare + self.index_build + self.cover
        } else {
            Duration::ZERO
        }
    }

    fn attributed(&self) -> Duration {
        self.parse
            + self.freeze
            + self.miss_path()
            + self.plan
            + self.queue_wait
            + self.engine
            + self.assemble
    }
}

struct WriteTrace {
    insert: bool,
    compacted: bool,
    time: Duration,
}

struct Replay {
    queries: Vec<QueryTrace>,
    writes: Vec<WriteTrace>,
    cache: (u64, u64, u64),
    shed: u64,
}

fn load_rows(text: &str, catalog: &Catalog) -> Result<Relation, String> {
    load_csv(text, catalog.dictionary()).map_err(|e| format!("CSV: {e}"))
}

fn rows_of(rel: &Relation) -> Vec<Vec<Value>> {
    rel.iter_rows().map(<[Value]>::to_vec).collect()
}

/// A catalog and service in the state the server is in after set-up:
/// the same CSV bodies through the same calls, then the same warm-up.
fn loaded_catalog(w: &Workload, tally: &mut Tally) -> Result<(Catalog, Arc<Service>), String> {
    let service = Arc::new(Service::new(ServiceConfig::default()));
    let mut catalog = Catalog::new();
    catalog.set_service(Some(Arc::clone(&service)));
    for (name, csv) in &w.relations {
        for (i, body) in csv_bodies(csv).into_iter().enumerate() {
            let rel = load_rows(body, &catalog)?;
            if i == 0 {
                catalog.insert(name.as_str(), rel);
            } else {
                catalog
                    .insert_rows(name, &rows_of(&rel))
                    .map_err(|e| e.to_string())?;
            }
        }
    }
    let wr = &w.writer;
    for b in 0..wr.prefill {
        let rel = load_rows(&wr.body(WriteOp::Append(b)), &catalog)?;
        catalog
            .insert_rows(&wr.relation, &rows_of(&rel))
            .map_err(|e| e.to_string())?;
    }
    let model = Model::new(w);
    for &q in &w.warmup {
        let parsed = parse_query(&w.shapes[q].text()).map_err(|e| e.to_string())?;
        let got = submit_query(&parsed, &catalog)
            .and_then(wcoj_query::PendingQuery::collect)
            .map_err(|e| e.to_string())?;
        tally.check(
            Some(fingerprint(&got.relation)),
            model.answer(q),
            &w.shapes[q].text(),
        );
    }
    Ok((catalog, service))
}

fn replay(w: &Workload, tally: &mut Tally) -> Result<Replay, String> {
    let (mut catalog, service) = loaded_catalog(w, tally)?;
    let mut model = Model::new(w);
    let (h0, m0) = catalog.plan_cache().stats();
    let r0 = catalog.plan_cache().refreshes();
    let mut queries = Vec::new();
    let mut writes = Vec::new();
    let totals = w.writer.expected_rows();
    for step in steps(w) {
        match step {
            Step::Query(q) => {
                let (trace, got) = trace_query(&w.shapes[q].text(), &catalog, &service)?;
                tally.check(Some(got), model.answer(q), &w.shapes[q].text());
                queries.push(trace);
            }
            Step::Write(j) => {
                let wr = &w.writer;
                let op = wr.op(j);
                let rows = rows_of(&load_rows(&wr.body(op), &catalog)?);
                let base = catalog.base_generation(&wr.relation);
                let start = Instant::now();
                let res = match op {
                    WriteOp::Append(_) => catalog.insert_rows(&wr.relation, &rows),
                    WriteOp::Delete(_) => catalog.delete_rows(&wr.relation, &rows),
                };
                let time = start.elapsed();
                res.map_err(|e| e.to_string())?;
                let total = catalog.row_count(&wr.relation).unwrap_or(0) as u64;
                let want = totals[j];
                tally.record(total == want, || {
                    format!("in-process write {j}: {total} rows, want {want}")
                });
                writes.push(WriteTrace {
                    insert: matches!(op, WriteOp::Append(_)),
                    compacted: catalog.base_generation(&wr.relation) != base,
                    time,
                });
                model.apply(j);
            }
        }
    }
    let (h1, m1) = catalog.plan_cache().stats();
    let r1 = catalog.plan_cache().refreshes();
    Ok(Replay {
        queries,
        writes,
        cache: (h1 - h0, m1 - m0, r1 - r0),
        shed: service.counters().shed,
    })
}

/// Runs one query through the real path, then through the layers one
/// call at a time. Returns the trace and the real path's answer.
fn trace_query(
    text: &str,
    catalog: &Catalog,
    service: &Arc<Service>,
) -> Result<(QueryTrace, Fingerprint), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    // The real path.
    let t0 = Instant::now();
    let parsed = parse_query(text).map_err(|e| err(&e))?;
    let t1 = Instant::now();
    let snapshot = catalog.freeze();
    let t2 = Instant::now();
    let cache = snapshot.catalog().plan_cache();
    let ((h0, m0), r0) = (cache.stats(), cache.refreshes());
    let mut pending = submit_query(&parsed, snapshot.catalog()).map_err(|e| err(&e))?;
    let t3 = Instant::now();
    let ((h1, m1), r1) = (cache.stats(), cache.refreshes());
    let mut batches = Vec::new();
    let mut first = None;
    while let Some(batch) = pending.next_batch() {
        first.get_or_insert_with(Instant::now);
        batches.push(batch.map_err(|e| err(&e))?);
    }
    let t4 = Instant::now();
    let outcome = match (h1 - h0, m1 - m0, r1 - r0) {
        (1, 0, 0) => CacheOutcome::Hit,
        (0, 1, 0) => CacheOutcome::Miss,
        (0, 0, 1) => CacheOutcome::Refresh,
        other => return Err(format!("plan cache moved by {other:?} on one query")),
    };
    let mut answer = Fingerprint::default();
    for b in &batches {
        let f = fingerprint(b);
        answer = Fingerprint::combine(answer, f);
    }

    // The rebuild, against the same snapshot.
    let cat = snapshot.catalog();
    let mut vars: Vec<String> = Vec::new();
    let mut var_id = |name: &str| -> u32 {
        let at = vars.iter().position(|v| v == name).unwrap_or_else(|| {
            vars.push(name.to_owned());
            vars.len() - 1
        });
        u32::try_from(at).expect("few variables")
    };
    let mut atoms = Vec::new();
    for atom in &parsed.atoms {
        let terms: Vec<Term> = atom
            .terms
            .iter()
            .map(|t| match t {
                ParsedTerm::Var(v) => Term::Var(var_id(v)),
                ParsedTerm::Int(n) => Term::Const(cat.dictionary().encode(&Datum::Int(*n))),
                ParsedTerm::Str(s) => Term::Const(cat.dictionary().encode_str(s)),
            })
            .collect();
        let delta = cat.delta(&atom.relation).ok_or("unknown relation")?;
        atoms.push((delta, terms));
    }
    let head: Vec<Attr> = parsed.head_vars.iter().map(|v| Attr(var_id(v))).collect();
    let inputs: Vec<[Relation; 3]> = atoms
        .iter()
        .map(|(d, _)| [d.base().as_ref().clone(), d.ins().clone(), d.del().clone()])
        .collect();
    let has_delta = atoms.iter().any(|(d, _)| d.delta_len() > 0);

    let t = Instant::now();
    let reduced: Vec<[Relation; 3]> = inputs
        .into_iter()
        .zip(&atoms)
        .map(|(parts, (_, terms))| {
            parts.map(|rel| {
                Subgoal::new(rel, terms.clone())
                    .expect("arity checked by submit_query")
                    .reduce()
            })
        })
        .collect();
    let reduce = t.elapsed();

    let t = Instant::now();
    let bases: Vec<Relation> = reduced.iter().map(|[b, _, _]| b.clone()).collect();
    let query = Arc::new(JoinQuery::new(&bases).map_err(|e| err(&e))?);
    let sizes: Vec<usize> = reduced
        .iter()
        .map(|[b, i, d]| b.len() - d.len() + i.len())
        .collect();
    let mut index_build = Duration::ZERO;
    let mut index_rows = 0u64;
    let rels = Arc::clone(&query);
    let prepared = PreparedQuery::<DeltaIndex>::from_shared(query, Some(sizes), |i, order| {
        let t = Instant::now();
        let base = FlatIndex::build(&rels.relations()[i], order)?;
        index_build += t.elapsed();
        index_rows += rels.relations()[i].len() as u64;
        DeltaIndex::over(Arc::new(base), &reduced[i][1], &reduced[i][2], order)
    })
    .map_err(|e| err(&e))?;
    let prepare = t.elapsed() - index_build;
    let prepared = Arc::new(prepared);

    let t = Instant::now();
    let cover = if prepared.input_is_empty() {
        None
    } else {
        Some(prepared.resolve_cover(None).map_err(|e| err(&e))?)
    };
    let cover_time = t.elapsed();

    let cfg = service.exec_config();
    let t = Instant::now();
    let layout = service.shard_layout(&*prepared, &cfg);
    let plan = t.elapsed();

    let (out, profile) = service
        .submit(&prepared, &cfg)
        .map_err(|e| format!("{e:?}"))?
        .wait_profiled()
        .map_err(|e| err(&e))?;
    let rebuilt = if head.as_slice() == out.relation.schema().attrs() {
        out.relation
    } else {
        wcoj_storage::ops::project(&out.relation, &head).map_err(|e| err(&e))?
    };
    if fingerprint(&rebuilt) != answer {
        return Err(format!(
            "the layer-by-layer rebuild of {text:?} disagrees with submit_query"
        ));
    }
    let at = |d: Option<Duration>| d.unwrap_or(profile.admitted);
    let planned = at(profile.planned);
    let dispatched = at(profile.first_dispatch).max(planned);
    let finished = at(profile.last_finish).max(dispatched);
    let reassembled = at(profile.reassembled).max(finished);
    let runs: Vec<Duration> = profile.shards.iter().map(|s| s.run).collect();
    let shard_busy: Duration = runs.iter().sum();
    let slowest = runs.iter().max().copied().unwrap_or_default();

    // Sequential engine run: the exact counters, and the delta ratio.
    let mut counts = Counts {
        shards: layout.len() as u64,
        index_rows,
        ..Counts::default()
    };
    let mut delta_ratio = None;
    if let Some((x, bound)) = &cover {
        let t = Instant::now();
        let (rows, stats) = prepared.run_shard(x, *bound, None);
        let engine_seq = t.elapsed();
        let full = prepared.assemble(rows, stats).map_err(|e| err(&e))?;
        counts.case_a = full.stats.case_a;
        counts.case_b = full.stats.case_b;
        counts.intermediate = full.stats.intermediate_tuples;
        counts.output_rows = full.relation.len() as u64;
        if has_delta {
            let merged: Vec<Relation> = atoms
                .iter()
                .map(|(d, terms)| {
                    Subgoal::new(d.materialize(), terms.clone())
                        .expect("arity checked")
                        .reduce()
                })
                .collect();
            let compacted =
                PreparedQuery::<FlatIndex>::new_indexed(&merged).map_err(|e| err(&e))?;
            let (x2, b2) = compacted.resolve_cover(None).map_err(|e| err(&e))?;
            let t = Instant::now();
            let (rows2, _) = compacted.run_shard(&x2, b2, None);
            let engine_flat = t.elapsed();
            if rows2.len() != full.relation.len() {
                return Err(format!(
                    "delta-backed and compacted runs of {text:?} disagree"
                ));
            }
            delta_ratio = Some(engine_seq.as_secs_f64() / engine_flat.as_secs_f64().max(1e-9));
        }
    }

    Ok((
        QueryTrace {
            outcome,
            counts,
            parse: t1 - t0,
            freeze: t2 - t1,
            submit: t3 - t2,
            first_batch: first.unwrap_or(t4) - t3,
            drain: t4 - t3,
            reduce,
            prepare,
            index_build,
            cover: cover_time,
            plan,
            queue_wait: dispatched - planned,
            engine: finished - dispatched,
            assemble: reassembled - finished,
            shard_busy,
            slowest_share: if shard_busy.is_zero() {
                0.0
            } else {
                slowest.as_secs_f64() / shard_busy.as_secs_f64()
            },
            delta_ratio,
        },
        answer,
    ))
}

// ---------------------------------------------------------------------
// The metrics

fn med(v: impl IntoIterator<Item = f64>) -> f64 {
    median(&v.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The mean, `0` for no samples.
fn mean(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |a, b| a + b) / v.len().max(1) as f64
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The exact-repeat check: two replays of one seed must agree on every
/// work counter, on the compactions, and (read-only workloads, whose
/// replay has no timing-dependent interleaving) on every plan-cache hit
/// and miss.
fn self_check(w: &Workload, first: &Replay, second: &Replay) -> Result<(), String> {
    let counts = |r: &Replay| r.queries.iter().map(|q| q.counts).collect::<Vec<_>>();
    if counts(first) != counts(second) {
        return Err("work counters differ between two replays of one seed".into());
    }
    let compactions = |r: &Replay| r.writes.iter().map(|x| x.compacted).collect::<Vec<_>>();
    if compactions(first) != compactions(second) {
        return Err("compactions differ between two replays of one seed".into());
    }
    if w.kind != Kind::Ingest {
        let outcomes = |r: &Replay| r.queries.iter().map(|q| q.outcome).collect::<Vec<_>>();
        if first.cache != second.cache || outcomes(first) != outcomes(second) {
            return Err(format!(
                "plan-cache counts differ between replays: {:?} vs {:?}",
                first.cache, second.cache
            ));
        }
    }
    Ok(())
}

pub fn run(w: &Workload, bin: &Path) -> Result<Report, String> {
    let mut tally = Tally::default();
    let http = http_replay(w, bin, &mut tally)?;
    let first = replay(w, &mut tally)?;
    let second = replay(w, &mut tally)?;

    self_check(w, &first, &second)?;

    // Timings pool both replays; counts come from one.
    let qs: Vec<&QueryTrace> = first.queries.iter().chain(&second.queries).collect();
    let ws: Vec<&WriteTrace> = first.writes.iter().chain(&second.writes).collect();
    let of = |o: CacheOutcome| qs.iter().filter(move |q| q.outcome == o);
    let n = first.queries.len().max(1) as f64;
    let sum = |f: fn(&Counts) -> u64| first.queries.iter().map(|q| f(&q.counts)).sum::<u64>();
    let (hits, misses, refreshes) = first.cache;
    let total: Duration = qs.iter().map(|q| q.total()).sum();
    let unattributed: f64 = qs
        .iter()
        .map(|q| ms(q.total()) - ms(q.attributed()))
        .sum::<f64>()
        / qs.len().max(1) as f64;
    let in_process: Vec<f64> = first.queries.iter().map(|q| ms(q.total())).collect();
    let overhead: Vec<f64> = http
        .round_trip
        .iter()
        .zip(&in_process)
        .map(|(h, p)| h - p)
        .collect();

    let mut m: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    m.insert(
        "server.post_query_ms",
        (med(http.post.iter().copied()), "ms"),
    );
    m.insert("server.overhead_ms", (med(overhead), "ms"));
    m.insert(
        "server.first_chunk_ms",
        (med(http.get_first.iter().copied()), "ms"),
    );
    m.insert(
        "server.get_rows_ms",
        (med(http.get_all.iter().copied()), "ms"),
    );
    m.insert(
        "server.bytes_per_row",
        (http.bytes as f64 / http.rows.max(1) as f64, "B"),
    );
    m.insert("server.write_ms", (med(http.write.iter().copied()), "ms"));
    m.insert(
        "client.writer_late_ms",
        (med(http.late.iter().copied()), "ms"),
    );

    m.insert(
        "query.parse_us",
        (med(qs.iter().map(|q| us(q.parse))), "us"),
    );
    m.insert(
        "query.freeze_us",
        (med(qs.iter().map(|q| us(q.freeze))), "us"),
    );
    m.insert(
        "query.submit_hit_us",
        (med(of(CacheOutcome::Hit).map(|q| us(q.submit))), "us"),
    );
    m.insert(
        "query.submit_miss_ms",
        (med(of(CacheOutcome::Miss).map(|q| ms(q.submit))), "ms"),
    );
    m.insert(
        "query.submit_refresh_ms",
        (med(of(CacheOutcome::Refresh).map(|q| ms(q.submit))), "ms"),
    );
    m.insert(
        "query.plan_hit_ratio",
        (hits as f64 / (hits + misses).max(1) as f64, "ratio"),
    );
    m.insert("query.plan_misses", (misses as f64, "count"));
    m.insert("query.plan_refreshes", (refreshes as f64, "count"));
    m.insert(
        "query.drain_ms",
        (med(qs.iter().map(|q| ms(q.drain))), "ms"),
    );
    m.insert(
        "query.first_batch_ms",
        (med(qs.iter().map(|q| ms(q.first_batch))), "ms"),
    );
    let write_med = |insert: bool| {
        med(ws
            .iter()
            .filter(|x| x.insert == insert && !x.compacted)
            .map(|x| ms(x.time)))
    };
    m.insert("query.catalog_insert_ms", (write_med(true), "ms"));
    m.insert("query.catalog_delete_ms", (write_med(false), "ms"));
    m.insert(
        "query.catalog_compact_ms",
        (
            med(ws.iter().filter(|x| x.compacted).map(|x| ms(x.time))),
            "ms",
        ),
    );
    m.insert(
        "query.catalog_compactions",
        (
            first.writes.iter().filter(|x| x.compacted).count() as f64,
            "count",
        ),
    );
    m.insert("query.unattributed_ms", (unattributed, "ms"));

    let misses_only = || of(CacheOutcome::Miss);
    m.insert(
        "core.reduce_ms",
        (med(misses_only().map(|q| ms(q.reduce))), "ms"),
    );
    m.insert(
        "core.prepare_ms",
        (med(misses_only().map(|q| ms(q.prepare))), "ms"),
    );
    m.insert(
        "hypergraph.cover_us",
        (med(misses_only().map(|q| us(q.cover))), "us"),
    );
    m.insert(
        "storage.index_build_ms",
        (med(misses_only().map(|q| ms(q.index_build))), "ms"),
    );
    let miss_rows: Vec<f64> = first
        .queries
        .iter()
        .filter(|q| q.outcome == CacheOutcome::Miss)
        .map(|q| q.counts.index_rows as f64)
        .collect();
    m.insert("storage.index_rows_per_query", (mean(&miss_rows), "count"));
    m.insert(
        "core.engine_ms",
        (med(qs.iter().map(|q| ms(q.engine))), "ms"),
    );
    m.insert(
        "core.assemble_ms",
        (med(qs.iter().map(|q| ms(q.assemble))), "ms"),
    );
    m.insert("core.case_a", (sum(|c| c.case_a) as f64, "count"));
    m.insert("core.case_b", (sum(|c| c.case_b) as f64, "count"));
    let inter = sum(|c| c.intermediate);
    let out_rows = sum(|c| c.output_rows);
    m.insert("core.intermediate_tuples", (inter as f64, "count"));
    m.insert("core.output_rows", (out_rows as f64, "count"));
    m.insert(
        "core.intermediates_per_row",
        (inter as f64 / out_rows.max(1) as f64, "ratio"),
    );
    m.insert(
        "core.delta_engine_ratio",
        (med(qs.iter().filter_map(|q| q.delta_ratio)), "ratio"),
    );
    m.insert("exec.shards", (sum(|c| c.shards) as f64 / n, "count"));
    m.insert("exec.plan_us", (med(qs.iter().map(|q| us(q.plan))), "us"));
    m.insert(
        "service.queue_wait_ms",
        (med(qs.iter().map(|q| ms(q.queue_wait))), "ms"),
    );
    m.insert(
        "service.run_ms",
        (med(qs.iter().map(|q| ms(q.shard_busy))), "ms"),
    );
    m.insert(
        "service.slowest_shard_share",
        (med(qs.iter().map(|q| q.slowest_share)), "ratio"),
    );
    m.insert("service.shed", ((first.shed + second.shed) as f64, "count"));

    // Where the in-process time went, for reading the result.
    let share = |f: &dyn Fn(&QueryTrace) -> Duration| {
        qs.iter().map(|q| f(q).as_secs_f64()).sum::<f64>() / total.as_secs_f64().max(1e-12)
    };
    let summary = format!(
        "{{\"replayed_queries\":{},\"replayed_writes\":{},\"in_process_ms_per_query\":{:.3},\
         \"share_engine_assemble\":{:.3},\"share_miss_path\":{:.3},\"share_unattributed\":{:.3},\
         \"plan_cache\":{{\"hits\":{hits},\"misses\":{misses},\"refreshes\":{refreshes}}}}}",
        first.queries.len(),
        first.writes.len(),
        ms(total) / qs.len().max(1) as f64,
        share(&|q| q.engine + q.assemble),
        share(&|q| q.miss_path()),
        share(&|q| q.total().saturating_sub(q.attributed())),
    );
    Ok(Report {
        metrics: m,
        tally,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two in-process replays of quick inputs agree exactly, and every
    /// answer on the way matches the oracle.
    #[test]
    fn quick_replays_repeat_exactly() {
        for kind in [Kind::Analytics, Kind::Lookups, Kind::Ingest] {
            let w = Workload::new(kind, 9, 1, true);
            let mut tally = Tally::default();
            let first = replay(&w, &mut tally).unwrap();
            let second = replay(&w, &mut tally).unwrap();
            assert_eq!(tally.failed, 0, "{kind:?}: {:?}", tally.notes);
            assert!(tally.attempted > 0);
            self_check(&w, &first, &second).unwrap();
            assert!(
                first.queries.iter().any(|q| q.counts.output_rows > 0),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn ingest_steps_pair_each_read_with_two_writes() {
        let w = Workload::new(Kind::Ingest, 2, 1, true);
        let s = steps(&w);
        assert_eq!(s.len(), 3 * w.replay_len);
        assert_eq!(
            &s[..3],
            &[Step::Write(0), Step::Write(1), Step::Query(w.stream[0])]
        );
    }
}
