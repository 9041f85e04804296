//! bmc-session: bounded model checking driven through an incremental
//! `Session` with push, assert, check and pop, one closed-loop thread.
//!
//! Each query is one depth of one system: unroll the property to that
//! depth, push a scope, assert its negation, check, pop. The session keeps
//! its encodings and learnt clauses across depths, so this workload runs
//! many short solves under assumptions, and the planted counterexamples
//! reach the SAT-model decode path that the all-valid formula suites
//! never reach.

use std::collections::HashMap;
use std::time::Instant;

use sufsat_core::{counterexample_falsifies_original, substitute_state, Outcome};
use sufsat_incremental::Session;
use sufsat_suf::{eliminate, TermId};
use sufsat_workloads::SystemBenchmark;

use crate::batch::{PassOrder, PassWork, Passes};
use crate::inputs::HYBRID;
use crate::pipeline::{decide_options, Verdict, Work, WrongVerdict};
use crate::stats::{Metrics, RunResult};
use crate::trace::Tracer;

/// What one pass over the systems observed.
struct Pass {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    ok: u64,
    /// Per system in pass order: the depth and verdict it stopped at.
    ends: Vec<(usize, Verdict)>,
    planted_reached: u64,
    work: Work,
    reencodes: u64,
    checks: u64,
    reused_roots: u64,
    fresh_roots: u64,
}

/// Runs `op` inside a span when tracing.
fn timed<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    qid: u64,
    op: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => t.span(name, qid, op),
        None => op(),
    }
}

/// Checks one system depth by depth up to its bound or its first
/// counterexample. A counterexample is replayed against the unrolled
/// obligation and must sit exactly at the planted step.
fn check_system(
    sys: &SystemBenchmark,
    pass: &mut Pass,
    mut tr: Option<&mut Tracer>,
    qid: &mut u64,
) -> Result<(), WrongVerdict> {
    let system = &sys.system;
    let mut session = Session::with_term_manager(sys.tm.clone(), decide_options(HYBRID));
    timed(&mut tr, "incremental.assert", *qid, || {
        session.assert(system.init)
    });
    let mut current: HashMap<TermId, TermId> = system.state.iter().map(|&s| (s, s)).collect();
    let mut end = (sys.bound, Verdict::Valid);
    for step in 0..=sys.bound {
        *qid += 1;
        let q = *qid;
        let t = Instant::now();
        if let Some(t) = tr.as_deref_mut() {
            t.enter("query", q);
        }
        let tm = session.term_manager_mut();
        let prop = substitute_state(tm, system.property, system, &current, step);
        let negated = tm.mk_not(prop);
        timed(&mut tr, "incremental.push_pop", q, || session.push());
        timed(&mut tr, "incremental.assert", q, || session.assert(negated));
        let result = timed(&mut tr, "incremental.check", q, || session.check());
        timed(&mut tr, "incremental.push_pop", q, || session.pop());
        if let Some(t) = tr.as_deref_mut() {
            t.exit();
        }
        pass.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.work.trans_clauses += result.stats.trans_clauses as u64;
        pass.work.classes += result.stats.classes as u64;
        pass.work.sd_classes += result.stats.sd_classes as u64;
        pass.work.eij_classes += result.stats.eij_classes as u64;
        pass.work.cnf_clauses = pass.work.cnf_clauses.max(result.stats.cnf_clauses);
        pass.work.solve_s += result.stats.sat_time.as_secs_f64();
        let planted = sys.cex_at == Some(step);
        match result.outcome {
            Outcome::Valid if !planted => pass.ok += 1,
            Outcome::Invalid(cex) if planted => {
                let tm = session.term_manager_mut();
                let obligation = tm.mk_implies(system.init, prop);
                let elim = eliminate(tm, obligation);
                if !counterexample_falsifies_original(tm, obligation, &elim, &cex) {
                    return Err(WrongVerdict(format!(
                        "{} step {step}: counterexample does not falsify the obligation",
                        sys.name
                    )));
                }
                pass.ok += 1;
                pass.planted_reached += 1;
                end = (step, Verdict::Invalid);
                break;
            }
            Outcome::Unknown(_) => {
                end = (step, Verdict::Unknown);
                break;
            }
            other => {
                return Err(WrongVerdict(format!(
                    "{} step {step}: got {:?}, but the first counterexample was planted at {:?}",
                    sys.name,
                    Verdict::of(&other),
                    sys.cex_at
                )));
            }
        }
        let tm = session.term_manager_mut();
        let next: Vec<TermId> = system
            .next
            .iter()
            .map(|&n| substitute_state(tm, n, system, &current, step))
            .collect();
        for (s, n) in system.state.iter().zip(next) {
            current.insert(*s, n);
        }
    }
    let stats = session.stats();
    pass.work.conflicts += stats.conflicts;
    pass.work.decisions += stats.decisions;
    pass.work.propagations += stats.propagations;
    pass.reencodes += stats.reencodes;
    pass.checks += stats.checks;
    pass.reused_roots += stats.reused_roots;
    pass.fresh_roots += stats.fresh_roots;
    pass.ends.push(end);
    Ok(())
}

fn one_pass(
    systems: &[SystemBenchmark],
    order: &[usize],
    mut tr: Option<&mut Tracer>,
    qid: &mut u64,
) -> Result<Pass, WrongVerdict> {
    let start = Instant::now();
    let mut pass = Pass {
        wall_s: 0.0,
        latencies_ms: Vec::new(),
        ok: 0,
        ends: Vec::new(),
        planted_reached: 0,
        work: Work::default(),
        reencodes: 0,
        checks: 0,
        reused_roots: 0,
        fresh_roots: 0,
    };
    for &i in order {
        check_system(&systems[i], &mut pass, tr.as_deref_mut(), qid)?;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    Ok(pass)
}

/// One untimed pass in suite order, run during set-up to warm the
/// process. Its verdicts are checked again by every measured pass.
pub fn warm_up(systems: &[SystemBenchmark]) {
    let order: Vec<usize> = (0..systems.len()).collect();
    let _ = one_pass(systems, &order, None, &mut 0);
}

/// Number of systems with a counterexample planted within their bound.
pub fn planted(systems: &[SystemBenchmark]) -> u64 {
    systems
        .iter()
        .filter(|s| s.cex_at.is_some_and(|c| c <= s.bound))
        .count() as u64
}

/// End-to-end run: whole passes for about `seconds`. Returns the run and
/// the number of planted counterexamples reached per pass.
pub fn run(
    systems: &[SystemBenchmark],
    seed: u64,
    seconds: f64,
) -> Result<(RunResult, u64), WrongVerdict> {
    let mut orders = PassOrder::new(seed, systems.len());
    let mut passes = Passes::default();
    let mut qid = 0;
    let mut planted_reached = u64::MAX;
    while passes.want_more(seconds) {
        let pass = one_pass(systems, &orders.next_pass(), None, &mut qid)?;
        passes.record(pass.wall_s, pass.ok, &pass.latencies_ms);
        planted_reached = planted_reached.min(pass.planted_reached);
    }
    Ok((passes.result(), planted_reached))
}

/// Traced run: pairs of passes in one order, untraced then under spans;
/// each system must stop at the same depth with the same verdict in both.
pub fn run_traced(
    systems: &[SystemBenchmark],
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
) -> Result<(RunResult, u64), WrongVerdict> {
    let mut orders = PassOrder::new(seed, systems.len());
    let started = Instant::now();
    let (mut plain_s, mut traced_s, mut plain_ok, mut traced_ok) = (0.0, 0.0, 0, 0);
    let (mut attempted, mut qid, mut reencodes, mut checks, mut reused, mut fresh) =
        (0, 0, 0, 0, 0, 0);
    let mut planted_reached = u64::MAX;
    let mut works = PassWork::default();
    // Start another pair only if one more, as long as the last, still
    // ends within `seconds`.
    let mut pair_s = 0.0;
    while attempted == 0 || started.elapsed().as_secs_f64() + pair_s <= seconds {
        let pair_start = Instant::now();
        let order = orders.next_pass();
        let plain = one_pass(systems, &order, None, &mut qid)?;
        let traced = one_pass(systems, &order, Some(&mut *tr), &mut qid)?;
        if plain.ends != traced.ends {
            return Err(WrongVerdict(format!(
                "traced pass stopped at {:?}, untraced pass at {:?}",
                traced.ends, plain.ends
            )));
        }
        for p in [&plain, &traced] {
            attempted += p.latencies_ms.len() as u64;
            reencodes += p.reencodes;
            checks += p.checks;
            reused += p.reused_roots;
            fresh += p.fresh_roots;
            planted_reached = planted_reached.min(p.planted_reached);
        }
        plain_s += plain.wall_s;
        traced_s += traced.wall_s;
        plain_ok += plain.ok;
        traced_ok += traced.ok;
        works.push(plain.work);
        works.push(traced.work);
        pair_s = pair_start.elapsed().as_secs_f64();
    }
    let queries = tr.count("query") as f64;
    let mut m = Metrics::default();
    m.put("trace.query_ms", tr.total_ms("query") / queries, "ms");
    for (span, metric) in [
        ("incremental.assert", "incremental.assert_ms"),
        ("incremental.check", "incremental.check_ms"),
        ("incremental.push_pop", "incremental.push_pop_ms"),
    ] {
        m.put(metric, tr.total_ms(span) / queries, "ms");
    }
    m.put(
        "incremental.reencodes",
        reencodes as f64 / checks as f64,
        "ratio",
    );
    m.put(
        "incremental.reused_share",
        reused as f64 / (reused + fresh) as f64,
        "ratio",
    );
    works.put_metrics(&mut m);
    let plain_qps = plain_ok as f64 / plain_s;
    let traced_qps = traced_ok as f64 / traced_s;
    m.put(
        "trace.overhead_share",
        1.0 - traced_qps / plain_qps,
        "ratio",
    );
    Ok((
        RunResult {
            attempted,
            failed: attempted - plain_ok - traced_ok,
            metrics: m,
        },
        planted_reached,
    ))
}
