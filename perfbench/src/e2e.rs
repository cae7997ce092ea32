//! The untraced end-to-end run against the `wcoj-server` child process.

use crate::data::Fingerprint;
use crate::http::{json_uint, Client};
use crate::server::{load, ServerProc};
use crate::stats::{median, ms, open_loop, percentile, tail_supported, Timed};
use crate::workload::{Kind, Model, Workload, WriteOp};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client threads (and keep-alive connections) of the read-only loops.
const CLIENTS: usize = 2;
/// Slices the read-only workloads' read window and write probe are cut
/// into, alternating.
const PROBE_SLICES: usize = 10;

/// What one query over HTTP came back with.
pub struct QueryOutcome {
    pub sent: Instant,
    pub done: Instant,
    /// `POST /query` send → first result byte (or the end, if empty).
    pub first: Duration,
    /// `Some` iff both requests succeeded with a 2xx status.
    pub answer: Option<Fingerprint>,
    /// Body bytes of the rows response.
    pub bytes: usize,
    /// Time spent in `POST /query` alone.
    pub post: Duration,
    /// `GET …/rows` send → first result byte, and → last byte.
    pub get_first: Duration,
    pub get_all: Duration,
}

/// `POST /query` then `GET /query/{id}/rows`.
pub fn run_query(client: &mut Client, text: &str) -> QueryOutcome {
    let sent = Instant::now();
    let fail = |post: Duration| QueryOutcome {
        sent,
        done: Instant::now(),
        first: sent.elapsed(),
        answer: None,
        bytes: 0,
        post,
        get_first: Duration::ZERO,
        get_all: Duration::ZERO,
    };
    let id = match client.request("POST", "/query", text.as_bytes()) {
        Ok(r) if r.status == 202 => json_uint(&r.text(), "id"),
        _ => None,
    };
    let post = sent.elapsed();
    let Some(id) = id else {
        return fail(post);
    };
    let get_sent = Instant::now();
    match client.request("GET", &format!("/query/{id}/rows"), b"") {
        Ok(r) if r.status == 200 => {
            let done = Instant::now();
            let first_at = r.first_byte.unwrap_or(done);
            QueryOutcome {
                sent,
                done,
                first: first_at - sent,
                answer: Some(Fingerprint::of_csv(&r.body)),
                bytes: r.body.len(),
                post,
                get_first: first_at - get_sent,
                get_all: done - get_sent,
            }
        }
        _ => fail(post),
    }
}

/// One write over HTTP; `Ok(row total)` on a 200.
pub fn run_write(client: &mut Client, relation: &str, op: WriteOp, body: &str) -> Result<u64, ()> {
    let method = match op {
        WriteOp::Append(_) => "POST",
        WriteOp::Delete(_) => "DELETE",
    };
    match client.request(
        method,
        &format!("/relation/{relation}/rows"),
        body.as_bytes(),
    ) {
        Ok(r) if r.status == 200 => json_uint(&r.text(), "rows").ok_or(()),
        _ => Err(()),
    }
}

/// Operation accounting of one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that came back but differ from the oracle.
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(what());
            }
        }
    }

    pub fn check(&mut self, got: Option<Fingerprint>, want: Fingerprint, what: &str) {
        self.attempted += 1;
        match got {
            Some(f) if f == want => {}
            Some(f) => {
                self.failed += 1;
                self.wrong += 1;
                if self.notes.len() < 5 {
                    self.notes.push(format!(
                        "wrong answer to {what}: got {} rows, want {}",
                        f.rows, want.rows
                    ));
                }
            }
            None => {
                self.failed += 1;
                if self.notes.len() < 5 {
                    self.notes.push(format!("request failed: {what}"));
                }
            }
        }
    }
}

/// Spawns a server, loads the workload and runs its warm-up pass.
/// Returns the server and the set-up time (spawn → ready).
pub fn set_up(
    w: &Workload,
    bin: &Path,
    tally: &mut Tally,
) -> Result<(ServerProc, Duration), String> {
    let start = Instant::now();
    let server = ServerProc::spawn(bin)?;
    let mut client = Client::new(server.addr);
    for (name, csv) in &w.relations {
        let rows = load(&mut client, name, csv)?;
        if rows != w.graphs[name].len() as u64 {
            return Err(format!(
                "{name}: server holds {rows} rows, generated {}",
                w.graphs[name].len()
            ));
        }
    }
    let wr = &w.writer;
    for b in 0..wr.prefill {
        let op = WriteOp::Append(b);
        let got = run_write(&mut client, &wr.relation, op, &wr.body(op));
        if got != Ok(wr.prefill_rows(b)) {
            return Err(format!(
                "set-up append {b}: acknowledged {got:?}, want {}",
                wr.prefill_rows(b)
            ));
        }
    }
    let model = Model::new(w);
    for &q in &w.warmup {
        let shape = &w.shapes[q];
        let want = model.answer(q);
        let out = run_query(&mut client, &shape.text());
        if out.answer != Some(want) {
            tally.check(out.answer, want, &shape.text());
            return Err(format!("warm-up query {} failed", shape.text()));
        }
    }
    Ok((server, start.elapsed()))
}

/// Reads `wcoj_plan_cache_{hits,misses,refreshes}_total` from `/metrics`.
fn plan_cache_counts(client: &mut Client) -> [u64; 3] {
    let text = client
        .request("GET", "/metrics", b"")
        .map(|r| r.text())
        .unwrap_or_default();
    let get = |name: &str| {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(0, |v| v as u64)
    };
    [
        get("wcoj_plan_cache_hits_total"),
        get("wcoj_plan_cache_misses_total"),
        get("wcoj_plan_cache_refreshes_total"),
    ]
}

/// CPU time the hypervisor took from this machine so far (the `steal`
/// column of `/proc/stat`, in clock ticks): a run that lost much of it
/// measured a busy host, not the program.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

struct Read {
    q: usize,
    out: QueryOutcome,
}

struct WriteSample {
    timed: Timed,
    sent: Instant,
    ack: Instant,
    rows: Result<u64, ()>,
}

pub struct Report {
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub tally: Tally,
    pub summary: String,
}

/// Runs the measured window of `w` for `seconds`.
pub fn run(
    w: &Workload,
    bin: &Path,
    seconds: u64,
    setups: usize,
    strict: bool,
) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut setup_times = Vec::new();
    let mut server = None;
    for _ in 0..setups {
        // Stop the previous server before timing the next set-up.
        drop(server.take());
        let (s, t) = set_up(w, bin, &mut tally)?;
        setup_times.push(t.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr;
    let mut probe = Client::new(addr);
    let cache_before = plan_cache_counts(&mut probe);

    let steal_before = steal_ticks();
    let window = Duration::from_secs(seconds);
    let next = AtomicUsize::new(0);
    let reader = |n_clients: usize, deadline: Instant| {
        let mut reads: Vec<Read> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n_clients)
                .map(|_| {
                    s.spawn(|| {
                        let mut client = Client::new(addr);
                        let mut mine = Vec::new();
                        while Instant::now() < deadline {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let q = w.stream[i % w.stream.len()];
                            mine.push(Read {
                                q,
                                out: run_query(&mut client, &w.shapes[q].text()),
                            });
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                reads.extend(h.join().expect("client thread"));
            }
        });
        reads
    };
    let wr = &w.writer;
    // Runs writes `first..first + count` of the schedule.
    let writer = |start: Instant, until: Duration, first: usize, count: usize| {
        let mut client = Client::new(addr);
        open_loop(
            start,
            count,
            until,
            |i| wr.due(first + i),
            |i| {
                let op = wr.op(first + i);
                let body = wr.body(op);
                let sent = Instant::now();
                let rows = run_write(&mut client, &wr.relation, op, &body);
                (sent, Instant::now(), rows)
            },
        )
        .into_iter()
        .map(|(timed, (sent, ack, rows))| WriteSample {
            timed,
            sent,
            ack,
            rows,
        })
        .collect::<Vec<_>>()
    };

    let (mut reads, writes, read_elapsed);
    if w.kind == Kind::Ingest {
        let start = Instant::now();
        let (r, wrt) = std::thread::scope(|s| {
            let wh = s.spawn(|| writer(start, window, 0, wr.ops.len()));
            let r = reader(1, start + window);
            (r, wh.join().expect("writer thread"))
        });
        read_elapsed = start.elapsed();
        reads = r;
        writes = wrt;
    } else {
        // The write probe runs at rest, in slices before each tenth of the
        // read window: spread over the run, it sees the same host as the
        // reads, and a short burst of host noise hits only a slice.
        let mut probe = Vec::new();
        let mut r = Vec::new();
        let mut elapsed = Duration::ZERO;
        let n = wr.ops.len();
        for slice in 0..PROBE_SLICES {
            let first = n * slice / PROBE_SLICES;
            let count = n * (slice + 1) / PROBE_SLICES - first;
            probe.extend(writer(Instant::now(), Duration::MAX, first, count));
            let start = Instant::now();
            r.extend(reader(CLIENTS, start + window / PROBE_SLICES as u32));
            elapsed += start.elapsed();
        }
        writes = probe;
        reads = r;
        read_elapsed = elapsed;
    }
    let cache_after = plan_cache_counts(&mut probe);
    let steal = steal_ticks().zip(steal_before).map(|(a, b)| a - b);
    reads.sort_by_key(|r| r.out.sent);

    // Writes: every acknowledgement carries the exact row total.
    for ((j, ws), want) in writes.iter().enumerate().zip(wr.expected_rows()) {
        tally.record(ws.rows == Ok(want), || {
            format!("write {j}: acknowledged {:?}, want {want}", ws.rows)
        });
    }

    // Reads.
    let mut verified = 0u64;
    if w.kind == Kind::Ingest {
        // A read is checked when no write was in flight while it ran:
        // it then saw exactly the state after the acknowledged writes.
        let mut model = Model::new(w);
        let mut applied = 0;
        for r in &reads {
            let k = writes.partition_point(|ws| ws.ack <= r.out.sent);
            let quiet = writes.get(k).is_none_or(|ws| ws.sent >= r.out.done);
            if r.out.answer.is_none() || !quiet {
                tally.record(r.out.answer.is_some(), || {
                    format!("read of {} failed", w.shapes[r.q].text())
                });
                continue;
            }
            while applied < k {
                model.apply(applied);
                applied += 1;
            }
            tally.check(r.out.answer, model.answer(r.q), &w.shapes[r.q].text());
            verified += 1;
        }
        // The final state, after the writer stopped.
        while applied < writes.len() {
            model.apply(applied);
            applied += 1;
        }
        let mut client = Client::new(addr);
        for &q in &w.warmup {
            let out = run_query(&mut client, &w.shapes[q].text());
            tally.check(out.answer, model.answer(q), &w.shapes[q].text());
            verified += 1;
        }
    } else {
        for r in &reads {
            tally.check(r.out.answer, w.oracle[r.q], &w.shapes[r.q].text());
            verified += u64::from(r.out.answer == Some(w.oracle[r.q]));
        }
    }

    let in_window: Vec<&Read> = reads.iter().filter(|r| r.out.answer.is_some()).collect();
    let lat: Vec<f64> = in_window
        .iter()
        .map(|r| ms(r.out.done - r.out.sent))
        .collect();
    let first: Vec<f64> = in_window.iter().map(|r| ms(r.out.first)).collect();
    // Beside the reader the writer is open loop: a write counts from when
    // it was due. The read-only workloads' probe runs at rest, where the
    // only lateness is the client's own wake-up, so a write there counts
    // from its send.
    let wlat: Vec<f64> = writes
        .iter()
        .map(|s| {
            if w.kind == Kind::Ingest {
                ms(s.timed.latency)
            } else {
                ms(s.timed.latency - s.timed.late)
            }
        })
        .collect();
    let late: Vec<f64> = writes.iter().map(|s| ms(s.timed.late)).collect();
    if strict {
        if !tail_supported(lat.len(), 0.9) {
            return Err(format!(
                "only {} queries: too few for query_p90_ms",
                lat.len()
            ));
        }
        if !tail_supported(wlat.len(), 0.99) {
            return Err(format!(
                "only {} writes: too few for write_p99_ms",
                wlat.len()
            ));
        }
    }
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no samples for {what}"));
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", (need(median(&setup_times), "setup_s")?, "s"));
    metrics.insert("query_p50_ms", (need(median(&lat), "query_p50_ms")?, "ms"));
    metrics.insert(
        "query_p90_ms",
        (need(percentile(&lat, 0.9), "query_p90_ms")?, "ms"),
    );
    metrics.insert(
        "first_row_p50_ms",
        (need(median(&first), "first_row_p50_ms")?, "ms"),
    );
    metrics.insert(
        "queries_per_s",
        (lat.len() as f64 / read_elapsed.as_secs_f64(), "1/s"),
    );
    metrics.insert("write_p50_ms", (need(median(&wlat), "write_p50_ms")?, "ms"));
    metrics.insert(
        "write_p99_ms",
        (need(percentile(&wlat, 0.99), "write_p99_ms")?, "ms"),
    );
    metrics.insert(
        "success_rate",
        (
            1.0 - tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
        ),
    );
    metrics.insert(
        "peak_rss_mb",
        (
            server
                .peak_rss_mb()
                .ok_or("cannot read the server's VmHWM")?,
            "MiB",
        ),
    );

    // Per-query-kind latencies and run facts, for reading the result.
    let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for r in &in_window {
        by_label
            .entry(&w.labels[r.q])
            .or_default()
            .push(ms(r.out.done - r.out.sent));
    }
    let per_shape: Vec<String> = by_label
        .iter()
        .map(|(label, v)| {
            format!(
                "\"{label}\":{{\"n\":{},\"p50_ms\":{:.3},\"p90_ms\":{:.3}}}",
                v.len(),
                median(v).unwrap_or(0.0),
                percentile(v, 0.9).unwrap_or(0.0)
            )
        })
        .collect();
    let d = |i: usize| cache_after[i] - cache_before[i];
    // The open-loop writer's lateness is its validity check; the closed
    // loop probe has none.
    let lateness = if w.kind == Kind::Ingest {
        format!(
            "{{\"p50_ms\":{:.3},\"max_ms\":{:.3}}}",
            median(&late).unwrap_or(0.0),
            late.iter().copied().fold(0.0, f64::max)
        )
    } else {
        "null".to_owned()
    };
    let summary = format!(
        "{{\"queries\":{},\"verified_reads\":{verified},\"writes\":{},\"writer_late\":{lateness},\
         \"plan_cache\":{{\"hits\":{},\"misses\":{},\"refreshes\":{}}},\"setups_s\":{:?},\"steal_ticks\":{},\"per_query\":{{{}}}}}",
        lat.len(),
        wlat.len(),
        d(0),
        d(1),
        d(2),
        setup_times,
        steal.map_or(-1, |t| t as i64),
        per_shape.join(",")
    );
    Ok(Report {
        metrics,
        tally,
        summary,
    })
}
