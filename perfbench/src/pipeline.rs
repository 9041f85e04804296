//! One query through sufsat, either whole (`decide`) or layer by layer
//! with a span around each layer call, and the check of its answer.

use std::time::{Duration, Instant};

use sufsat_core::{
    counterexample_falsifies_original, decide, DecideOptions, DecideStats, EncodingMode, Outcome,
};
use sufsat_encode::{encode, load_into_solver, try_decode_model, CnfMode, EncodeOptions};
use sufsat_sat::{SolveResult, Solver};
use sufsat_seplog::SepAnalysis;
use sufsat_suf::{eliminate, parse_problem, TermId, TermManager};

use crate::trace::Tracer;

/// Per-query limit of the batch workloads: far above the slowest instance,
/// so a query stops early only through a translation budget or a
/// regression.
pub const QUERY_LIMIT: Duration = Duration::from_secs(60);

/// The answer class of one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Valid.
    Valid,
    /// Invalid, with a counterexample that replayed.
    Invalid,
    /// No answer: a budget or deadline stopped the run.
    Unknown,
}

impl Verdict {
    /// The verdict of a `decide` outcome.
    pub fn of(outcome: &Outcome) -> Verdict {
        match outcome {
            Outcome::Valid => Verdict::Valid,
            Outcome::Invalid(_) => Verdict::Invalid,
            Outcome::Unknown(_) => Verdict::Unknown,
        }
    }
}

/// A definitive verdict that contradicts the answer fixed when the input
/// was built. It stops the run; it is never counted as a failure.
#[derive(Debug)]
pub struct WrongVerdict(pub String);

/// Checks `got` against the validity fixed at build time: `Ok(true)` for
/// a correct definitive verdict, `Ok(false)` for no answer.
pub fn check(name: &str, valid: bool, got: Verdict) -> Result<bool, WrongVerdict> {
    match (got, valid) {
        (Verdict::Unknown, _) => Ok(false),
        (Verdict::Valid, true) | (Verdict::Invalid, false) => Ok(true),
        (got, _) => Err(WrongVerdict(format!(
            "{name}: got {got:?}, but the input was built {}",
            if valid { "valid" } else { "invalid" }
        ))),
    }
}

/// Work counters of one query, as the program reports them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    pub classes: u64,
    pub sd_classes: u64,
    pub eij_classes: u64,
    pub trans_clauses: u64,
    pub gates: u64,
    pub cnf_clauses: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub propagations: u64,
    pub solve_s: f64,
}

impl Work {
    /// The counters `decide` returns in its stats.
    pub fn from_stats(s: &DecideStats) -> Work {
        Work {
            classes: s.classes as u64,
            sd_classes: s.sd_classes as u64,
            eij_classes: s.eij_classes as u64,
            trans_clauses: s.trans_clauses as u64,
            gates: 0,
            cnf_clauses: s.cnf_clauses,
            conflicts: s.conflict_clauses,
            decisions: s.decisions,
            propagations: s.propagations,
            solve_s: s.sat_time.as_secs_f64(),
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Work) {
        self.classes += other.classes;
        self.sd_classes += other.sd_classes;
        self.eij_classes += other.eij_classes;
        self.trans_clauses += other.trans_clauses;
        self.gates += other.gates;
        self.cnf_clauses += other.cnf_clauses;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.solve_s += other.solve_s;
    }
}

/// Options `decide` runs a batch query with.
pub fn decide_options(mode: EncodingMode) -> DecideOptions {
    DecideOptions {
        timeout: Some(QUERY_LIMIT),
        ..DecideOptions::with_mode(mode)
    }
}

/// Parses `text` and decides it with `decide`.
pub fn decide_text(text: &str, mode: EncodingMode) -> (Verdict, Work) {
    let mut tm = TermManager::new();
    let phi = parse_problem(&mut tm, text).expect("generated inputs parse");
    decide_parsed(&mut tm, phi, mode)
}

/// Decides the parsed formula `phi` with `decide`.
pub fn decide_parsed(tm: &mut TermManager, phi: TermId, mode: EncodingMode) -> (Verdict, Work) {
    let d = decide(tm, phi, &decide_options(mode));
    (Verdict::of(&d.outcome), Work::from_stats(&d.stats))
}

/// The `decide` pipeline called one layer at a time, in `decide`'s order,
/// with a span around each call: `suf.parse` → `suf.eliminate` →
/// `seplog.analyze` → `encode.encode` → `encode.load_cnf` → `sat.solve`
/// (→ `core.decode` for a model). The caller has opened the query span.
///
/// # Panics
///
/// Panics if a decoded counterexample does not falsify the original
/// formula, which would be a soundness bug.
pub fn staged_decide(tr: &mut Tracer, qid: u64, text: &str, mode: EncodingMode) -> (Verdict, Work) {
    let mut tm = TermManager::new();
    let phi = tr
        .span("suf.parse", qid, || parse_problem(&mut tm, text))
        .expect("generated inputs parse");
    staged_from(tr, qid, &mut tm, phi, mode)
}

/// [`staged_decide`] after parsing: from `suf.eliminate` on.
pub fn staged_from(
    tr: &mut Tracer,
    qid: u64,
    tm: &mut TermManager,
    phi: TermId,
    mode: EncodingMode,
) -> (Verdict, Work) {
    let start = Instant::now();
    let elim = tr.span("suf.eliminate", qid, || eliminate(tm, phi));
    let analysis = tr.span("seplog.analyze", qid, || {
        SepAnalysis::new(tm, elim.formula, &elim.p_vars)
    });
    let mut work = Work {
        classes: analysis.classes.len() as u64,
        ..Work::default()
    };
    let options = EncodeOptions {
        mode,
        cnf: CnfMode::default(),
        trans_budget: DecideOptions::default().trans_budget,
        deadline: Some(start + QUERY_LIMIT),
        cancel: None,
    };
    let encoded = match tr.span("encode.encode", qid, || {
        encode(tm, elim.formula, &analysis, &options)
    }) {
        Ok(encoded) => encoded,
        Err(_) => return (Verdict::Unknown, work),
    };
    work.sd_classes = encoded.stats.sd_classes as u64;
    work.eij_classes = encoded.stats.eij_classes as u64;
    work.trans_clauses = encoded.stats.trans_clauses as u64;
    work.gates = encoded.stats.gates as u64;
    let mut solver = Solver::new();
    let map = tr.span("encode.load_cnf", qid, || {
        load_into_solver(
            &encoded.circuit,
            &[!encoded.formula],
            &encoded.trans_clauses,
            options.cnf,
            &mut solver,
        )
    });
    solver.set_timeout(Some(QUERY_LIMIT.saturating_sub(start.elapsed())));
    let result = tr.span("sat.solve", qid, || solver.solve());
    let stats = solver.stats();
    work.cnf_clauses = stats.original_clauses;
    work.conflicts = stats.conflicts;
    work.decisions = stats.decisions;
    work.propagations = stats.propagations;
    work.solve_s = stats.solve_time.as_secs_f64();
    let verdict = match result {
        SolveResult::Unsat => Verdict::Valid,
        SolveResult::Unknown(_) => Verdict::Unknown,
        SolveResult::Sat => tr.span("core.decode", qid, || {
            let cex = try_decode_model(&encoded, &map, &solver).expect("models decode");
            assert!(
                counterexample_falsifies_original(tm, phi, &elim, &cex),
                "decoded counterexample does not falsify the formula"
            );
            Verdict::Invalid
        }),
    };
    (verdict, work)
}
