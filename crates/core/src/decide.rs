//! The end-to-end decision procedure (paper §2.1 pipeline + §4 hybrid).
//!
//! Validity of an SUF formula `F_suf` is decided by:
//!
//! 1. eliminating uninterpreted function/predicate applications with the
//!    positive-equality-aware nested-ITE method (`sufsat-suf`), yielding
//!    the separation formula `F_sep`;
//! 2. computing equivalence classes, small-model domain sizes and per-class
//!    `SepCnt` (`sufsat-seplog`);
//! 3. encoding each class with SD or EIJ according to the selected
//!    [`EncodingMode`] (`sufsat-encode`), producing `F_bool = F_trans ⇒
//!    F_bvar`;
//! 4. checking `¬F_bool` with the CDCL SAT solver (`sufsat-sat`): UNSAT
//!    means `F_suf` is valid; a model decodes into a counterexample.

use std::time::{Duration, Instant};

use sufsat_encode::{
    encode, load_into_solver, try_decode_model, CnfMode, EncodeOptions, EncodingMode,
};
use sufsat_sat::{CancelToken, Interrupt, ProgressHandle, SolveResult, Solver};
use sufsat_seplog::{SepAnalysis, SepAssignment};
use sufsat_suf::{eliminate, TermId, TermManager};

use crate::certify::{certify_env, counterexample_falsifies_original, Certificate};

/// Options controlling [`decide`].
#[derive(Debug, Clone, PartialEq)]
pub struct DecideOptions {
    /// Per-class encoding selection (the paper's SD / EIJ / HYBRID /
    /// fixed-hybrid modes).
    pub mode: EncodingMode,
    /// CNF conversion style.
    pub cnf: CnfMode,
    /// Budget on generated transitivity constraints; exceeding it stops the
    /// run in the translation stage, like the paper's EIJ timeouts.
    pub trans_budget: usize,
    /// Optional conflict budget for the SAT search.
    pub conflict_budget: Option<u64>,
    /// Optional wall-clock timeout for the SAT search.
    pub timeout: Option<Duration>,
    /// Optional cooperative cancellation token, polled in the translation
    /// and SAT stages. Raising it from another thread stops the run with
    /// [`Outcome::Unknown`]`(`[`StopReason::Cancelled`]`)` — this is how
    /// the portfolio engine retires losing lanes.
    pub cancel: Option<CancelToken>,
    /// Optional live progress heartbeat: a clone of the handle is
    /// installed into the SAT solver ([`Solver::set_progress_handle`]),
    /// so another thread can watch conflicts, trail depth and learnt-DB
    /// growth while the search stage runs. Earlier pipeline stages do not
    /// publish (they are bounded by `trans_budget` instead).
    pub progress: Option<ProgressHandle>,
    /// Certify the answer: SAT models are replayed through the reference
    /// evaluator against both the separation formula and the original
    /// formula, and UNSAT answers log a DRAT proof that is replayed
    /// through the built-in RUP checker. The evidence is reported in
    /// [`Decision::certificate`]; certification failures are *reported*
    /// rather than panicked on, so a fuzzing oracle can shrink them.
    pub certify: bool,
    /// Run SatELite-style CNF preprocessing (subsumption, self-subsuming
    /// resolution, bounded variable elimination) on the loaded clause set
    /// before search. Sound in combination with `certify`: under proof
    /// logging the solver automatically restricts itself to the
    /// RUP-replayable subset, and `Sat` models are extended over
    /// eliminated variables before decoding.
    pub preprocess: bool,
    /// Optional result cache. When set, [`decide`] canonicalizes the
    /// formula, consults the cache before running the pipeline and
    /// stores definitive verdicts afterwards. Non-definitive outcomes
    /// are never cached, and certifying runs (`certify`) bypass the
    /// cache so every certificate attests to a real solve.
    pub cache: Option<crate::CacheHandle>,
}

impl Default for DecideOptions {
    fn default() -> DecideOptions {
        DecideOptions {
            mode: EncodingMode::Hybrid(DEFAULT_SEP_THOLD),
            cnf: CnfMode::default(),
            trans_budget: 2_000_000,
            conflict_budget: None,
            timeout: None,
            cancel: None,
            progress: None,
            certify: false,
            preprocess: false,
            cache: None,
        }
    }
}

impl DecideOptions {
    /// Options for one of the paper's encoding modes with other settings at
    /// their defaults.
    pub fn with_mode(mode: EncodingMode) -> DecideOptions {
        DecideOptions {
            mode,
            ..DecideOptions::default()
        }
    }
}

/// The paper's default `SEP_THOLD`, derived in §4.1 by clustering
/// normalized EIJ runtimes on a 16-benchmark training sample.
pub const DEFAULT_SEP_THOLD: usize = 700;

/// The answer of the decision procedure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The formula is valid (true under every interpretation).
    Valid,
    /// The formula is falsifiable; the assignment falsifies the separation
    /// formula obtained after function elimination (fresh `vf!…`/`vp!…`
    /// constants name the eliminated application instances).
    Invalid(SepAssignment),
    /// A resource budget stopped the run first.
    Unknown(StopReason),
}

impl Outcome {
    /// Whether the outcome is [`Outcome::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, Outcome::Valid)
    }
}

/// Why a run stopped without an answer.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// Transitivity-constraint generation exceeded its budget (the paper's
    /// EIJ translation-stage blow-up).
    TranslationBudget,
    /// The SAT conflict budget ran out.
    ConflictBudget,
    /// The SAT wall-clock timeout elapsed.
    Timeout,
    /// A [`CancelToken`] was raised from another thread (e.g. a portfolio
    /// lane losing the race).
    Cancelled,
}

/// Measurements of one run — the quantities the paper's evaluation reports
/// (Figure 2 columns, Figure 3 features, Figures 4–6 total times).
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct DecideStats {
    /// DAG node count of the input formula (the paper's size measure).
    pub dag_size: usize,
    /// Time spent translating to CNF (elimination + analysis + encoding).
    pub translate_time: Duration,
    /// Time spent in the SAT solver.
    pub sat_time: Duration,
    /// CNF clauses given to the solver (Figure 2, "# of CNF Clauses").
    pub cnf_clauses: u64,
    /// Conflict clauses the solver derived (Figure 2, "# of Conflict
    /// Clauses").
    pub conflict_clauses: u64,
    /// SAT decisions.
    pub decisions: u64,
    /// SAT propagations.
    pub propagations: u64,
    /// Total separation predicates across classes (Figure 3's feature).
    pub sep_predicates: usize,
    /// Number of `V_g` equivalence classes.
    pub classes: usize,
    /// Classes encoded with SD.
    pub sd_classes: usize,
    /// Classes encoded with EIJ.
    pub eij_classes: usize,
    /// Canonical predicate variables allocated by EIJ.
    pub pred_vars: usize,
    /// Transitivity clauses generated.
    pub trans_clauses: usize,
    /// Largest small-model range over classes (a §3 candidate feature).
    pub max_class_range: u64,
    /// Sum of small-model ranges (another §3 candidate feature).
    pub total_class_range: u64,
    /// Fraction of function applications classified as p-functions
    /// (another §3 candidate feature).
    pub p_fun_fraction: f64,
    /// Fresh constants introduced by function elimination.
    pub fresh_constants: usize,
}

impl DecideStats {
    /// Total wall time (translation + SAT).
    pub fn total_time(&self) -> Duration {
        self.translate_time + self.sat_time
    }

    /// Hand-rolled JSON serialization with a stable key set and order,
    /// consistent with the field names the `sufsat-obs` sink emits
    /// (durations as integral microseconds under `_us` keys).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"dag_size\":{},\"translate_us\":{},\"sat_us\":{},\"cnf_clauses\":{},\
             \"conflict_clauses\":{},\"decisions\":{},\"propagations\":{},\
             \"sep_predicates\":{},\"classes\":{},\"sd_classes\":{},\"eij_classes\":{},\
             \"pred_vars\":{},\"trans_clauses\":{},\"max_class_range\":{},\
             \"total_class_range\":{},\"p_fun_fraction\":{},\"fresh_constants\":{}}}",
            self.dag_size,
            self.translate_time.as_micros(),
            self.sat_time.as_micros(),
            self.cnf_clauses,
            self.conflict_clauses,
            self.decisions,
            self.propagations,
            self.sep_predicates,
            self.classes,
            self.sd_classes,
            self.eij_classes,
            self.pred_vars,
            self.trans_clauses,
            self.max_class_range,
            self.total_class_range,
            if self.p_fun_fraction.is_finite() {
                self.p_fun_fraction.to_string()
            } else {
                "null".to_owned()
            },
            self.fresh_constants,
        )
    }

    /// Folds another run's measurements into this one: additive counters
    /// and times are summed, structural quantities (DAG size, ranges,
    /// class counts, p-fraction) are kept at their maximum. Used to
    /// aggregate the total cost of a portfolio race across winner and
    /// cancelled loser lanes.
    pub fn absorb(&mut self, other: &DecideStats) {
        self.translate_time += other.translate_time;
        self.sat_time += other.sat_time;
        self.cnf_clauses += other.cnf_clauses;
        self.conflict_clauses += other.conflict_clauses;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.sd_classes += other.sd_classes;
        self.eij_classes += other.eij_classes;
        self.pred_vars += other.pred_vars;
        self.trans_clauses += other.trans_clauses;
        self.fresh_constants = self.fresh_constants.max(other.fresh_constants);
        self.dag_size = self.dag_size.max(other.dag_size);
        self.sep_predicates = self.sep_predicates.max(other.sep_predicates);
        self.classes = self.classes.max(other.classes);
        self.max_class_range = self.max_class_range.max(other.max_class_range);
        self.total_class_range = self.total_class_range.max(other.total_class_range);
        self.p_fun_fraction = self.p_fun_fraction.max(other.p_fun_fraction);
    }

    /// Total time normalized by formula size, in seconds per thousand DAG
    /// nodes — the y-axis of the paper's Figure 3.
    pub fn normalized_time(&self) -> f64 {
        self.total_time().as_secs_f64() / (self.dag_size.max(1) as f64 / 1000.0)
    }
}

/// Outcome plus measurements of one [`decide`] run.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The verdict.
    pub outcome: Outcome,
    /// The measurements.
    pub stats: DecideStats,
    /// Machine-checked evidence for the verdict, present when
    /// [`DecideOptions::certify`] was set and the run produced a
    /// definitive answer.
    pub certificate: Option<Certificate>,
}

/// Decides validity of the SUF formula `phi`.
///
/// Counterexamples are verified against the reference evaluator before
/// being returned.
///
/// # Examples
///
/// ```
/// use sufsat_core::{decide, DecideOptions};
/// use sufsat_suf::TermManager;
///
/// let mut tm = TermManager::new();
/// let f = tm.declare_fun("f", 1);
/// let x = tm.int_var("x");
/// let y = tm.int_var("y");
/// let fx = tm.mk_app(f, vec![x]);
/// let fy = tm.mk_app(f, vec![y]);
/// let hyp = tm.mk_eq(x, y);
/// let conc = tm.mk_eq(fx, fy);
/// let phi = tm.mk_implies(hyp, conc);
/// let decision = decide(&mut tm, phi, &DecideOptions::default());
/// assert!(decision.outcome.is_valid());
/// ```
///
/// # Panics
///
/// Panics if a counterexample fails verification (an internal soundness
/// bug, exercised heavily by the test suite).
/// Short wire label for an encoding mode (`hybrid` thresholds travel in a
/// separate field).
pub(crate) fn mode_label(mode: EncodingMode) -> &'static str {
    match mode {
        EncodingMode::Sd => "sd",
        EncodingMode::Eij => "eij",
        EncodingMode::Hybrid(_) => "hybrid",
        EncodingMode::FixedHybrid => "fixed-hybrid",
    }
}

/// Short wire label for an outcome.
pub(crate) fn outcome_label(outcome: &Outcome) -> &'static str {
    match outcome {
        Outcome::Valid => "valid",
        Outcome::Invalid(_) => "invalid",
        Outcome::Unknown(StopReason::TranslationBudget) => "unknown:translation_budget",
        Outcome::Unknown(StopReason::ConflictBudget) => "unknown:conflict_budget",
        Outcome::Unknown(StopReason::Timeout) => "unknown:timeout",
        Outcome::Unknown(StopReason::Cancelled) => "unknown:cancelled",
    }
}

fn trace_decision(outcome: &Outcome, stats: &DecideStats) {
    if !sufsat_obs::enabled() {
        return;
    }
    static DECIDES: sufsat_obs::Counter = sufsat_obs::Counter::new("core.decides");
    DECIDES.incr();
    sufsat_obs::event!(
        "core.decide.result",
        outcome = outcome_label(outcome),
        dag_size = stats.dag_size,
        translate_us = stats.translate_time.as_micros() as u64,
        sat_us = stats.sat_time.as_micros() as u64,
        cnf_clauses = stats.cnf_clauses,
        conflict_clauses = stats.conflict_clauses,
        decisions = stats.decisions,
        propagations = stats.propagations,
        sep_predicates = stats.sep_predicates,
        classes = stats.classes,
        sd_classes = stats.sd_classes,
        eij_classes = stats.eij_classes,
        pred_vars = stats.pred_vars,
        trans_clauses = stats.trans_clauses,
        fresh_constants = stats.fresh_constants,
    );
}

/// Decides validity of the SUF formula `phi`.
///
/// Counterexamples are verified against the reference evaluator before
/// being returned.
///
/// # Examples
///
/// ```
/// use sufsat_core::{decide, DecideOptions};
/// use sufsat_suf::TermManager;
///
/// let mut tm = TermManager::new();
/// let f = tm.declare_fun("f", 1);
/// let x = tm.int_var("x");
/// let y = tm.int_var("y");
/// let fx = tm.mk_app(f, vec![x]);
/// let fy = tm.mk_app(f, vec![y]);
/// let hyp = tm.mk_eq(x, y);
/// let conc = tm.mk_eq(fx, fy);
/// let phi = tm.mk_implies(hyp, conc);
/// let decision = decide(&mut tm, phi, &DecideOptions::default());
/// assert!(decision.outcome.is_valid());
/// ```
///
/// # Panics
///
/// Panics if a counterexample fails verification (an internal soundness
/// bug, exercised heavily by the test suite).
pub fn decide(tm: &mut TermManager, phi: TermId, options: &DecideOptions) -> Decision {
    let translate_start = Instant::now();
    let dag_size = tm.dag_size(phi);
    let obs_span = sufsat_obs::span_with!(
        "core.decide",
        mode = mode_label(options.mode),
        threshold = match options.mode {
            EncodingMode::Hybrid(t) => t as i64,
            _ => -1,
        },
        dag = dag_size,
        certify = options.certify,
    );
    let decision = decide_with_cache(tm, phi, options, translate_start, dag_size);
    if obs_span.is_recording() {
        trace_decision(&decision.outcome, &decision.stats);
    }
    decision
}

/// Consults the result cache (when one is attached and the run is not
/// certifying) around [`decide_inner`].
fn decide_with_cache(
    tm: &mut TermManager,
    phi: TermId,
    options: &DecideOptions,
    translate_start: Instant,
    dag_size: usize,
) -> Decision {
    let handle = match &options.cache {
        Some(handle) if !options.certify => handle,
        _ => return decide_inner(tm, phi, options, translate_start, dag_size),
    };
    let canonical = sufsat_cache::canonicalize(tm, phi);
    if let Some(value) = handle.cache().lookup(canonical.fingerprint, &canonical.bytes) {
        return crate::cache::decision_from_value(&canonical, &value);
    }
    let decision = decide_inner(tm, phi, options, translate_start, dag_size);
    if let Some(value) = crate::cache::value_from_decision(&canonical, &decision) {
        handle
            .cache()
            .insert(canonical.fingerprint, &canonical.bytes, value);
    }
    decision
}

fn decide_inner(
    tm: &mut TermManager,
    phi: TermId,
    options: &DecideOptions,
    translate_start: Instant,
    dag_size: usize,
) -> Decision {

    // Step 1: eliminate applications (positive-equality aware).
    let elim = eliminate(tm, phi);

    // Step 2: structural analyses.
    let analysis = SepAnalysis::new(tm, elim.formula, &elim.p_vars);

    let mut stats = DecideStats {
        dag_size,
        sep_predicates: analysis.total_sep_predicates(),
        classes: analysis.classes.len(),
        max_class_range: analysis.classes.iter().map(|c| c.range).max().unwrap_or(0),
        total_class_range: analysis.classes.iter().map(|c| c.range).sum(),
        p_fun_fraction: elim.polarity.p_fun_app_fraction(tm, phi),
        fresh_constants: elim.num_fresh_int + elim.num_fresh_bool,
        ..DecideStats::default()
    };

    // Stage boundary: a lane cancelled during elimination/analysis should
    // not start the (possibly expensive) encoding.
    if cancel_requested(options) {
        stats.translate_time = translate_start.elapsed();
        return Decision {
            outcome: Outcome::Unknown(StopReason::Cancelled),
            stats,
            certificate: None,
        };
    }

    // Step 3: encode.
    let encode_options = EncodeOptions {
        mode: options.mode,
        cnf: options.cnf,
        trans_budget: options.trans_budget,
        deadline: options.timeout.map(|t| translate_start + t),
        cancel: options.cancel.clone(),
    };
    let encoded = match encode(tm, elim.formula, &analysis, &encode_options) {
        Ok(encoded) => encoded,
        Err(err) => {
            stats.translate_time = translate_start.elapsed();
            let reason = if err.cancelled {
                StopReason::Cancelled
            } else if err.timed_out {
                StopReason::Timeout
            } else {
                StopReason::TranslationBudget
            };
            return Decision {
                outcome: Outcome::Unknown(reason),
                stats,
                certificate: None,
            };
        }
    };
    stats.sd_classes = encoded.stats.sd_classes;
    stats.eij_classes = encoded.stats.eij_classes;
    stats.pred_vars = encoded.stats.pred_vars;
    stats.trans_clauses = encoded.stats.trans_clauses;

    // Step 4: check ¬F_bool = F_trans ∧ ¬F_bvar.
    let mut solver = Solver::new();
    if options.certify {
        solver.enable_proof();
    }
    let load_span = sufsat_obs::span_with!("core.load_cnf", gates = encoded.stats.gates);
    let map = load_into_solver(
        &encoded.circuit,
        &[!encoded.formula],
        &encoded.trans_clauses,
        options.cnf,
        &mut solver,
    );
    drop(load_span);
    stats.cnf_clauses = solver.stats().original_clauses;

    if options.preprocess {
        // Preprocess before search; under `certify` the solver restricts
        // itself to proof-compatible simplifications. An inconsistency
        // found here is a final Unsat answer, which `solve` then reports.
        solver.set_cancel_token(options.cancel.clone());
        let _ = solver.preprocess();
    }
    stats.translate_time = translate_start.elapsed();

    solver.set_conflict_budget(options.conflict_budget);
    solver.set_timeout(options.timeout);
    solver.set_cancel_token(options.cancel.clone());
    solver.set_progress_handle(options.progress.clone());
    let result = solver.solve();
    stats.sat_time = solver.stats().solve_time;
    stats.conflict_clauses = solver.stats().conflicts;
    stats.decisions = solver.stats().decisions;
    stats.propagations = solver.stats().propagations;

    let mut certificate = None;
    let outcome = match result {
        SolveResult::Unsat if options.certify => {
            // Proof logging is on, so `None` means the cancel token was
            // raised during the replay: a portfolio lane that lost the
            // race while checking its proof stops there.
            match solver.check_proof() {
                Some(checked) => {
                    certificate = Some(Certificate::Refutation {
                        steps: solver.proof().map_or(0, |p| p.steps().len()),
                        checked,
                    });
                    Outcome::Valid
                }
                None => Outcome::Unknown(StopReason::Cancelled),
            }
        }
        SolveResult::Unsat => Outcome::Valid,
        SolveResult::Sat => match try_decode_model(&encoded, &map, &solver) {
            Ok(cex) => {
                let falsifies_separation = !cex.evaluate(tm, elim.formula);
                if options.certify {
                    certificate = Some(Certificate::Counterexample {
                        decoded: true,
                        falsifies_separation,
                        falsifies_original: counterexample_falsifies_original(
                            tm, phi, &elim, &cex,
                        ),
                    });
                } else {
                    assert!(
                        falsifies_separation,
                        "internal soundness bug: decoded counterexample does not \
                         falsify the separation formula: {cex:?}"
                    );
                    // Debug builds (and SUFSAT_CERTIFY=1 release runs)
                    // additionally replay the model against the original
                    // pre-elimination formula.
                    if cfg!(debug_assertions) || certify_env() {
                        assert!(
                            counterexample_falsifies_original(tm, phi, &elim, &cex),
                            "internal soundness bug: decoded counterexample does not \
                             falsify the original formula: {cex:?}"
                        );
                    }
                }
                Outcome::Invalid(cex)
            }
            Err(err) => {
                if options.certify {
                    certificate = Some(Certificate::Counterexample {
                        decoded: false,
                        falsifies_separation: false,
                        falsifies_original: false,
                    });
                    Outcome::Invalid(SepAssignment::default())
                } else {
                    panic!("{err}");
                }
            }
        },
        SolveResult::Unknown(Interrupt::ConflictBudget) => {
            Outcome::Unknown(StopReason::ConflictBudget)
        }
        SolveResult::Unknown(Interrupt::Timeout) => Outcome::Unknown(StopReason::Timeout),
        SolveResult::Unknown(Interrupt::Cancelled) => Outcome::Unknown(StopReason::Cancelled),
    };
    Decision {
        outcome,
        stats,
        certificate,
    }
}

fn cancel_requested(options: &DecideOptions) -> bool {
    options.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn modes() -> Vec<EncodingMode> {
        vec![
            EncodingMode::Sd,
            EncodingMode::Eij,
            EncodingMode::Hybrid(0),
            EncodingMode::Hybrid(2),
            EncodingMode::Hybrid(DEFAULT_SEP_THOLD),
            EncodingMode::FixedHybrid,
        ]
    }

    #[test]
    fn functional_consistency_is_valid() {
        for mode in modes() {
            let mut tm = TermManager::new();
            let f = tm.declare_fun("f", 2);
            let x = tm.int_var("x");
            let y = tm.int_var("y");
            let z = tm.int_var("z");
            let fxy = tm.mk_app(f, vec![x, y]);
            let fxz = tm.mk_app(f, vec![x, z]);
            let hyp = tm.mk_eq(y, z);
            let conc = tm.mk_eq(fxy, fxz);
            let phi = tm.mk_implies(hyp, conc);
            let d = decide(&mut tm, phi, &DecideOptions::with_mode(mode));
            assert!(d.outcome.is_valid(), "{mode:?}");
            assert!(d.stats.fresh_constants >= 2);
        }
    }

    #[test]
    fn functional_consistency_converse_is_invalid() {
        for mode in modes() {
            let mut tm = TermManager::new();
            let f = tm.declare_fun("f", 1);
            let x = tm.int_var("x");
            let y = tm.int_var("y");
            let fx = tm.mk_app(f, vec![x]);
            let fy = tm.mk_app(f, vec![y]);
            let hyp = tm.mk_eq(fx, fy);
            let conc = tm.mk_eq(x, y);
            let phi = tm.mk_implies(hyp, conc);
            let d = decide(&mut tm, phi, &DecideOptions::with_mode(mode));
            assert!(matches!(d.outcome, Outcome::Invalid(_)), "{mode:?}");
        }
    }

    #[test]
    fn ordering_with_functions_and_arithmetic() {
        // (x < y ∧ f(y) <= z) => ... mixing g-functions and offsets;
        // validity: (x < y && y < z) => x+1 < z+1.
        for mode in modes() {
            let mut tm = TermManager::new();
            let x = tm.int_var("x");
            let y = tm.int_var("y");
            let z = tm.int_var("z");
            let xy = tm.mk_lt(x, y);
            let yz = tm.mk_lt(y, z);
            let hyp = tm.mk_and(xy, yz);
            let sx = tm.mk_succ(x);
            let sz = tm.mk_succ(z);
            let conc = tm.mk_lt(sx, sz);
            let phi = tm.mk_implies(hyp, conc);
            let d = decide(&mut tm, phi, &DecideOptions::with_mode(mode));
            assert!(d.outcome.is_valid(), "{mode:?}");
        }
    }

    #[test]
    fn predicate_consistency() {
        for mode in modes() {
            let mut tm = TermManager::new();
            let p = tm.declare_pred("p", 1);
            let x = tm.int_var("x");
            let y = tm.int_var("y");
            let px = tm.mk_papp(p, vec![x]);
            let py = tm.mk_papp(p, vec![y]);
            let hyp = tm.mk_eq(x, y);
            let conc = tm.mk_iff(px, py);
            let phi = tm.mk_implies(hyp, conc);
            let d = decide(&mut tm, phi, &DecideOptions::with_mode(mode));
            assert!(d.outcome.is_valid(), "{mode:?}");
        }
    }

    #[test]
    fn certified_valid_carries_checked_refutation() {
        for mode in modes() {
            let mut tm = TermManager::new();
            let f = tm.declare_fun("f", 1);
            let x = tm.int_var("x");
            let y = tm.int_var("y");
            let fx = tm.mk_app(f, vec![x]);
            let fy = tm.mk_app(f, vec![y]);
            let hyp = tm.mk_eq(x, y);
            let conc = tm.mk_eq(fx, fy);
            let phi = tm.mk_implies(hyp, conc);
            let mut options = DecideOptions::with_mode(mode);
            options.certify = true;
            let d = decide(&mut tm, phi, &options);
            assert!(d.outcome.is_valid(), "{mode:?}");
            let Some(cert @ Certificate::Refutation { .. }) = d.certificate else {
                panic!("{mode:?}: expected a refutation certificate, got {:?}", d.certificate);
            };
            assert!(cert.holds(), "{mode:?}");
        }
    }

    #[test]
    fn certified_invalid_carries_replayed_counterexample() {
        for mode in modes() {
            let mut tm = TermManager::new();
            let f = tm.declare_fun("f", 1);
            let x = tm.int_var("x");
            let y = tm.int_var("y");
            let fx = tm.mk_app(f, vec![x]);
            let fy = tm.mk_app(f, vec![y]);
            let hyp = tm.mk_eq(fx, fy);
            let conc = tm.mk_eq(x, y);
            let phi = tm.mk_implies(hyp, conc);
            let mut options = DecideOptions::with_mode(mode);
            options.certify = true;
            let d = decide(&mut tm, phi, &options);
            assert!(matches!(d.outcome, Outcome::Invalid(_)), "{mode:?}");
            let Some(cert @ Certificate::Counterexample { .. }) = d.certificate else {
                panic!("{mode:?}: expected a counterexample certificate, got {:?}", d.certificate);
            };
            assert!(cert.holds(), "{mode:?}");
        }
    }

    #[test]
    fn unknown_on_tiny_conflict_budget() {
        // A formula hard enough to need more than one conflict.
        let mut tm = TermManager::new();
        let vars: Vec<_> = (0..8).map(|i| tm.int_var(&format!("v{i}"))).collect();
        let mut atoms = Vec::new();
        for i in 0..vars.len() {
            for j in i + 1..vars.len() {
                atoms.push(tm.mk_lt(vars[i], vars[j]));
            }
        }
        let phi = tm.mk_or_many(&atoms);
        let mut options = DecideOptions::with_mode(EncodingMode::Sd);
        options.conflict_budget = Some(1);
        let d = decide(&mut tm, phi, &options);
        // Either it answers immediately (no conflicts needed) or reports
        // the budget; both must carry stats.
        match d.outcome {
            Outcome::Unknown(StopReason::ConflictBudget) => {}
            Outcome::Invalid(_) | Outcome::Valid => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(d.stats.cnf_clauses > 0);
    }

    #[test]
    fn translation_budget_reports_unknown() {
        // Dense inequality structure with many distinct constants makes
        // EIJ transitivity explode past a tiny budget.
        let mut tm = TermManager::new();
        let vars: Vec<_> = (0..8).map(|i| tm.int_var(&format!("v{i}"))).collect();
        let mut atoms = Vec::new();
        for i in 0..vars.len() {
            for j in 0..vars.len() {
                if i != j {
                    let off = tm.mk_offset(vars[j], (i as i64 % 3) - 1);
                    atoms.push(tm.mk_lt(vars[i], off));
                }
            }
        }
        let phi = tm.mk_or_many(&atoms);
        let mut options = DecideOptions::with_mode(EncodingMode::Eij);
        options.trans_budget = 5;
        let d = decide(&mut tm, phi, &options);
        assert_eq!(d.outcome, Outcome::Unknown(StopReason::TranslationBudget));
    }

    #[test]
    fn stats_report_figure2_columns() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let z = tm.int_var("z");
        let c1 = tm.mk_lt(x, y);
        let c2 = tm.mk_lt(y, z);
        let c3 = tm.mk_lt(z, x);
        let conj = tm.mk_and_many(&[c1, c2, c3]);
        let phi = tm.mk_not(conj);
        let d = decide(&mut tm, phi, &DecideOptions::with_mode(EncodingMode::Eij));
        assert!(d.outcome.is_valid());
        assert!(d.stats.cnf_clauses > 0);
        assert_eq!(d.stats.sep_predicates, 3);
        assert_eq!(d.stats.classes, 1);
        assert_eq!(d.stats.eij_classes, 1);
        assert!(d.stats.pred_vars >= 3);
        assert!(d.stats.normalized_time() >= 0.0);
    }

    #[test]
    fn hybrid_threshold_switches_methods() {
        // A class with 3 predicates: threshold 2 forces SD, threshold 3
        // keeps EIJ.
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let z = tm.int_var("z");
        let c1 = tm.mk_lt(x, y);
        let c2 = tm.mk_lt(y, z);
        let c3 = tm.mk_lt(x, z);
        let conj = tm.mk_and_many(&[c1, c2, c3]);
        let phi = tm.mk_not(conj);

        let d_sd = decide(
            &mut tm,
            phi,
            &DecideOptions::with_mode(EncodingMode::Hybrid(2)),
        );
        assert_eq!(d_sd.stats.sd_classes, 1);
        assert_eq!(d_sd.stats.eij_classes, 0);

        let d_eij = decide(
            &mut tm,
            phi,
            &DecideOptions::with_mode(EncodingMode::Hybrid(3)),
        );
        assert_eq!(d_eij.stats.sd_classes, 0);
        assert_eq!(d_eij.stats.eij_classes, 1);
        // Conjunction of x<y, y<z, x<z is satisfiable, so ¬(...) invalid.
        assert!(matches!(d_sd.outcome, Outcome::Invalid(_)));
        assert!(matches!(d_eij.outcome, Outcome::Invalid(_)));
    }

    #[test]
    fn stats_to_json_parses_and_round_trips_counters() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let sx = tm.mk_succ(x);
        let phi = tm.mk_lt(x, sx); // valid
        let d = decide(&mut tm, phi, &DecideOptions::default());
        let json = sufsat_obs::json::parse(&d.stats.to_json()).expect("to_json is valid JSON");
        assert_eq!(
            json.get("dag_size").and_then(|v| v.as_u64()),
            Some(d.stats.dag_size as u64)
        );
        assert_eq!(
            json.get("cnf_clauses").and_then(|v| v.as_u64()),
            Some(d.stats.cnf_clauses as u64)
        );
        assert_eq!(
            json.get("conflict_clauses").and_then(|v| v.as_u64()),
            Some(d.stats.conflict_clauses as u64)
        );
        assert_eq!(
            json.get("translate_us").and_then(|v| v.as_u64()),
            Some(d.stats.translate_time.as_micros() as u64)
        );
        // Every documented key is present.
        for key in [
            "dag_size",
            "translate_us",
            "sat_us",
            "cnf_clauses",
            "conflict_clauses",
            "decisions",
            "propagations",
            "sep_predicates",
            "classes",
            "sd_classes",
            "eij_classes",
            "pred_vars",
            "trans_clauses",
            "max_class_range",
            "total_class_range",
            "p_fun_fraction",
            "fresh_constants",
        ] {
            assert!(json.get(key).is_some(), "missing key {key}");
        }
    }

    #[test]
    fn stats_to_json_null_for_non_finite_fraction() {
        let mut stats = DecideStats::default();
        stats.p_fun_fraction = f64::NAN;
        let json = sufsat_obs::json::parse(&stats.to_json()).expect("valid JSON");
        assert!(matches!(
            json.get("p_fun_fraction"),
            Some(sufsat_obs::json::Json::Null)
        ));
    }

    #[test]
    fn absorb_sums_additive_and_maxes_structural() {
        let mut a = DecideStats::default();
        a.cnf_clauses = 10;
        a.conflict_clauses = 3;
        a.decisions = 7;
        a.dag_size = 40;
        a.classes = 2;
        a.max_class_range = 5;
        a.translate_time = Duration::from_micros(100);
        let mut b = DecideStats::default();
        b.cnf_clauses = 5;
        b.conflict_clauses = 4;
        b.decisions = 1;
        b.dag_size = 60;
        b.classes = 1;
        b.max_class_range = 9;
        b.translate_time = Duration::from_micros(50);
        a.absorb(&b);
        assert_eq!(a.cnf_clauses, 15);
        assert_eq!(a.conflict_clauses, 7);
        assert_eq!(a.decisions, 8);
        assert_eq!(a.translate_time, Duration::from_micros(150));
        assert_eq!(a.dag_size, 60);
        assert_eq!(a.classes, 2);
        assert_eq!(a.max_class_range, 9);
    }
}
