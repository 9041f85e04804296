//! The closed-loop batch workloads: sat-search and eij-translate.
//!
//! One thread answers one query at a time, parse included, as a user
//! running `sufsat FILE` would. A pass answers every query once in a
//! seeded order; the run measures whole passes only, so every run sees
//! the same mix of instances and its percentiles fall on the same ranks.

use std::time::Instant;

use sufsat_prng::Prng;

use crate::inputs::{shuffle, Query};
use crate::pipeline::{check, decide_text, staged_decide, Verdict, Work, WrongVerdict};
use crate::stats::{median, quantile, Metrics, RunResult};
use crate::trace::Tracer;

/// Fewest latency samples a run takes, so ten lie beyond its 90th
/// percentile.
pub const MIN_SAMPLES: usize = 100;

/// The pass orders of a run: one seeded permutation per pass.
pub struct PassOrder {
    rng: Prng,
    n: usize,
}

impl PassOrder {
    /// Pass orders over `n` items drawn from `seed`.
    pub fn new(seed: u64, n: usize) -> PassOrder {
        PassOrder {
            rng: Prng::seed_from_u64(seed ^ 0x0bde_7000),
            n,
        }
    }

    /// The next pass's order.
    pub fn next_pass(&mut self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n).collect();
        shuffle(&mut order, &mut self.rng);
        order
    }
}

/// Per-pass totals of the work counters the spread metrics use.
#[derive(Default)]
pub struct PassWork(Vec<Work>);

impl PassWork {
    /// Records one pass's total.
    pub fn push(&mut self, w: Work) {
        self.0.push(w);
    }

    /// Median, minimum and maximum across passes of each work counter,
    /// plus the per-pass HYBRID class split.
    pub fn put_metrics(&self, m: &mut Metrics) {
        let col =
            |f: fn(&Work) -> u64| -> Vec<f64> { self.0.iter().map(|w| f(w) as f64).collect() };
        m.put("seplog.classes", median(&col(|w| w.classes)), "count");
        m.put(
            "seplog.eij_classes",
            median(&col(|w| w.eij_classes)),
            "count",
        );
        m.put("seplog.sd_classes", median(&col(|w| w.sd_classes)), "count");
        // `decide` does not report gates; only layer-by-layer passes do.
        let gates: Vec<f64> = col(|w| w.gates).into_iter().filter(|&g| g > 0.0).collect();
        m.put(
            "encode.gates",
            if gates.is_empty() {
                0.0
            } else {
                median(&gates)
            },
            "count",
        );
        m.put_spread("encode.trans_clauses", &col(|w| w.trans_clauses));
        m.put_spread("encode.cnf_clauses", &col(|w| w.cnf_clauses));
        m.put_spread("sat.conflicts", &col(|w| w.conflicts));
        m.put_spread("sat.decisions", &col(|w| w.decisions));
        m.put_spread("sat.propagations", &col(|w| w.propagations));
        let props: u64 = self.0.iter().map(|w| w.propagations).sum();
        let solve_s: f64 = self.0.iter().map(|w| w.solve_s).sum();
        m.put("sat.propagations_per_s", props as f64 / solve_s, "1/s");
    }
}

/// Totals of one pass.
struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    ok: u64,
    work: Work,
    verdicts: Vec<Verdict>,
}

fn untraced_pass(queries: &[Query], order: &[usize]) -> Result<Pass, WrongVerdict> {
    let start = Instant::now();
    let mut pass = Pass {
        wall_s: 0.0,
        latencies_ms: Vec::with_capacity(order.len()),
        ok: 0,
        work: Work::default(),
        verdicts: Vec::with_capacity(order.len()),
    };
    for &i in order {
        let q = &queries[i];
        let t = Instant::now();
        let (verdict, work) = decide_text(&q.text, q.mode);
        pass.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.ok += u64::from(check(&q.name, q.valid, verdict)?);
        pass.work.add(&work);
        pass.verdicts.push(verdict);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    Ok(pass)
}

/// The whole passes of an end-to-end run.
///
/// A run starts another pass only while one more, as long as the last,
/// still ends within its seconds, so a run never measures longer than
/// asked (beyond its first pass and [`MIN_SAMPLES`]). Throughput is the
/// median over passes, so one pass that a busy host slowed does not move
/// it. The latency percentiles pool every query of every pass, so a run
/// of at least [`MIN_SAMPLES`] queries has at least ten beyond its 90th
/// percentile.
#[derive(Default)]
pub struct Passes {
    walls_s: Vec<f64>,
    ok: Vec<u64>,
    attempted: Vec<u64>,
    latencies_ms: Vec<f64>,
}

impl Passes {
    /// Whether a run of `seconds` starts another pass.
    pub fn want_more(&self, seconds: f64) -> bool {
        let spent: f64 = self.walls_s.iter().sum();
        let last = self.walls_s.last().copied().unwrap_or(0.0);
        self.walls_s.is_empty() || self.latencies_ms.len() < MIN_SAMPLES || spent + last <= seconds
    }

    /// Records one pass: its wall time, its correct definitive verdicts,
    /// and the latency of every query it attempted (a failed query reads
    /// infinite).
    pub fn record(&mut self, wall_s: f64, ok: u64, latencies_ms: &[f64]) {
        self.walls_s.push(wall_s);
        self.ok.push(ok);
        self.attempted.push(latencies_ms.len() as u64);
        self.latencies_ms.extend_from_slice(latencies_ms);
    }

    /// The end-to-end metrics of the passes recorded.
    pub fn result(&self) -> RunResult {
        let rate = |counts: &[u64]| -> f64 {
            let per_pass: Vec<f64> = counts
                .iter()
                .zip(&self.walls_s)
                .map(|(&n, &s)| n as f64 / s)
                .collect();
            median(&per_pass)
        };
        let ok: u64 = self.ok.iter().sum();
        let attempted: u64 = self.attempted.iter().sum();
        let mut m = Metrics::default();
        m.put("throughput_qps", rate(&self.ok), "queries/s");
        m.put("latency_p50_ms", quantile(&self.latencies_ms, 0.5), "ms");
        m.put("latency_p90_ms", quantile(&self.latencies_ms, 0.9), "ms");
        m.put("ok_share", ok as f64 / attempted as f64, "ratio");
        m.put("capacity_rps", rate(&self.attempted), "requests/s");
        RunResult {
            attempted,
            failed: attempted - ok,
            metrics: m,
        }
    }
}

/// End-to-end run: whole untraced passes for about `seconds`.
pub fn run(queries: &[Query], seed: u64, seconds: f64) -> Result<RunResult, WrongVerdict> {
    let mut orders = PassOrder::new(seed, queries.len());
    let mut passes = Passes::default();
    while passes.want_more(seconds) {
        let pass = untraced_pass(queries, &orders.next_pass())?;
        passes.record(pass.wall_s, pass.ok, &pass.latencies_ms);
    }
    Ok(passes.result())
}

/// Traced run: pairs of passes in one order, first through `decide`, then
/// layer by layer under spans. Verdicts must agree pair by pair; the
/// throughput gap between the two halves is the tracing overhead.
pub fn run_traced(
    queries: &[Query],
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<RunResult, WrongVerdict> {
    let mut orders = PassOrder::new(seed, queries.len());
    let started = Instant::now();
    let (mut plain_s, mut traced_s, mut plain_ok, mut traced_ok) = (0.0, 0.0, 0u64, 0u64);
    let mut attempted = 0u64;
    let mut works = PassWork::default();
    let mut qid = 0u64;
    // Start another pair only if one more, as long as the last, still
    // ends within `seconds`.
    let mut pair_s = 0.0;
    while attempted == 0 || started.elapsed().as_secs_f64() + pair_s <= seconds {
        let pair_start = Instant::now();
        let order = orders.next_pass();
        let plain = untraced_pass(queries, &order)?;
        plain_s += plain.wall_s;
        plain_ok += plain.ok;
        works.push(plain.work);
        let t = Instant::now();
        let mut work = Work::default();
        for (&i, &plain_verdict) in order.iter().zip(&plain.verdicts) {
            let q = &queries[i];
            qid += 1;
            tr.enter("query", qid);
            let (verdict, w) = staged_decide(tr, qid, &q.text, q.mode);
            tr.exit();
            traced_ok += u64::from(check(&q.name, q.valid, verdict)?);
            if plain_verdict != verdict {
                return Err(WrongVerdict(format!(
                    "{}: layer-by-layer run answered {verdict:?}, decide answered {plain_verdict:?}",
                    q.name
                )));
            }
            work.add(&w);
        }
        traced_s += t.elapsed().as_secs_f64();
        works.push(work);
        attempted += 2 * order.len() as u64;
        pair_s = pair_start.elapsed().as_secs_f64();
    }
    let queries_traced = (attempted / 2) as f64;
    let mut m = Metrics::default();
    layer_metrics(tr, queries_traced, &mut m);
    works.put_metrics(&mut m);
    m.put("core.decide_ms", plain_s * 1e3 / queries_traced, "ms");
    let plain_qps = plain_ok as f64 / plain_s;
    let traced_qps = traced_ok as f64 / traced_s;
    m.put(
        "trace.overhead_share",
        1.0 - traced_qps / plain_qps,
        "ratio",
    );
    Ok(RunResult {
        attempted,
        failed: attempted - plain_ok - traced_ok,
        metrics: m,
    })
}

/// Mean milliseconds per traced query in each layer's spans.
pub fn layer_metrics(tr: &Tracer, queries: f64, m: &mut Metrics) {
    m.put("trace.query_ms", tr.total_ms("query") / queries, "ms");
    for (span, metric) in [
        ("suf.parse", "suf.parse_ms"),
        ("suf.eliminate", "suf.eliminate_ms"),
        ("seplog.analyze", "seplog.analyze_ms"),
        ("encode.encode", "encode.encode_ms"),
        ("encode.load_cnf", "encode.load_cnf_ms"),
        ("sat.solve", "sat.solve_ms"),
    ] {
        m.put(metric, tr.total_ms(span) / queries, "ms");
    }
}
