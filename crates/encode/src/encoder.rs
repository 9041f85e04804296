//! The unified eager encoder: small-domain (SD), per-constraint (EIJ), and
//! the paper's class-wise HYBRID combination (paper §2.1.2 and §4 step 5).
//!
//! Every atom of the separation formula belongs to exactly one equivalence
//! class of `V_g` constants; the class's method decides how the atom is
//! lowered:
//!
//! * **SD** — symbolic constants become bit-vectors sized by the class's
//!   small-model range; `succ`/`pred` become ripple-carry constant adds,
//!   integer ITEs become muxes, atoms become comparators. `V_p` constants
//!   get fixed, well-spaced values above the class's value band (the
//!   maximal-diversity interpretation).
//! * **EIJ** — integer ITEs are eliminated by path enumeration and each
//!   separation predicate becomes one Boolean variable, with transitivity
//!   constraints generated per class (see [`crate::trans`]).
//!
//! This module holds the encoding's public types and [`encode`]; the
//! lowering itself is [`IncrementalEncoder`]'s, shared with sessions.

use std::collections::HashMap;
use std::time::Instant;

use sufsat_sat::CancelToken;
use sufsat_seplog::{Class, PredKey, SepAnalysis};
use sufsat_suf::{BoolSym, TermId, TermManager, VarSym};

use crate::circuit::{Circuit, Signal};
use crate::cnf::CnfMode;
use crate::incremental::IncrementalEncoder;
use crate::trans::TransBudgetExceeded;

/// Which eager encoding drives each class.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum EncodingMode {
    /// Small-domain (finite instantiation) for every class.
    Sd,
    /// Per-constraint for every class.
    Eij,
    /// The paper's hybrid: EIJ unless `SepCnt(Vᵢ) > threshold`, then SD.
    Hybrid(usize),
    /// The earlier fixed rule the paper compares against: EIJ only for
    /// classes whose predicates are pure equalities without arithmetic.
    FixedHybrid,
}

/// The method chosen for one class.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum ClassMethod {
    /// Small-domain bit-vector encoding.
    Sd,
    /// Per-constraint predicate-variable encoding.
    Eij,
}

/// Options controlling the encoder.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodeOptions {
    /// Per-class method selection.
    pub mode: EncodingMode,
    /// CNF conversion style used downstream.
    pub cnf: CnfMode,
    /// Budget on generated transitivity constraints; exceeding it aborts
    /// the translation (the paper's EIJ translation-stage timeout).
    pub trans_budget: usize,
    /// Optional wall-clock deadline for transitivity generation.
    pub deadline: Option<Instant>,
    /// Optional cooperative cancellation token polled during transitivity
    /// generation, so a cancelled portfolio lane can abandon a blowing-up
    /// EIJ translation, not just a running SAT search.
    pub cancel: Option<CancelToken>,
}

impl Default for EncodeOptions {
    fn default() -> EncodeOptions {
        EncodeOptions {
            mode: EncodingMode::Hybrid(700),
            cnf: CnfMode::default(),
            trans_budget: 2_000_000,
            deadline: None,
            cancel: None,
        }
    }
}

/// Statistics of one encoding run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EncodeStats {
    /// Classes encoded with SD.
    pub sd_classes: usize,
    /// Classes encoded with EIJ.
    pub eij_classes: usize,
    /// Transitivity clauses generated.
    pub trans_clauses: usize,
    /// Canonical predicate variables allocated (original + derived).
    pub pred_vars: usize,
    /// Circuit gates built.
    pub gates: usize,
}

/// Decoding metadata mapping circuit inputs back to symbolic constants.
#[derive(Debug, Clone, Default)]
pub struct DecodeInfo {
    /// Little-endian genuine bit inputs per SD-encoded `V_g` constant.
    pub sd_bits: HashMap<VarSym, Vec<u32>>,
    /// Canonical EIJ bounds: `(x, y, c, input)` meaning input true ⇔
    /// `x − y ≤ c`.
    pub eij_bounds: Vec<(VarSym, VarSym, i64, u32)>,
    /// Canonical EIJ equalities (equality-only classes): `(x, y, c, input)`
    /// meaning input true ⇔ `x = y + c`.
    pub eij_eqs: Vec<(VarSym, VarSym, i64, u32)>,
    /// Input index of each Boolean symbolic constant.
    pub bool_inputs: HashMap<BoolSym, u32>,
    /// `V_p` constants, in symbol order.
    pub p_vars: Vec<VarSym>,
    /// Class members (for grouping EIJ bounds at decode time).
    pub class_vars: Vec<Vec<VarSym>>,
    /// Method per class.
    pub class_methods: Vec<ClassMethod>,
    /// Largest absolute leaf offset (for diverse `V_p` spacing).
    pub max_abs_offset: i64,
}

/// The result of encoding a separation formula.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// The circuit both encoders share.
    pub circuit: Circuit,
    /// Signal computing the formula (`F_bvar` in the paper).
    pub formula: Signal,
    /// Transitivity clauses over circuit signals (`F_trans`).
    pub trans_clauses: Vec<Vec<Signal>>,
    /// Decoding metadata.
    pub decode: DecodeInfo,
    /// Statistics.
    pub stats: EncodeStats,
}

/// Encodes an application-free separation formula: a fresh
/// [`IncrementalEncoder`] sized exactly for this formula, extended once.
///
/// # Errors
///
/// Returns [`TransBudgetExceeded`] when EIJ transitivity generation blows
/// past `options.trans_budget`.
///
/// # Panics
///
/// Panics if the formula contains uninterpreted applications, or if a `V_p`
/// constant occurs under an inequality (which the positive-equality
/// classification rules out).
pub fn encode(
    tm: &TermManager,
    root: TermId,
    analysis: &SepAnalysis,
    options: &EncodeOptions,
) -> Result<Encoded, TransBudgetExceeded> {
    let obs_span = sufsat_obs::span_with!(
        "encode",
        mode = match options.mode {
            EncodingMode::Sd => "sd",
            EncodingMode::Eij => "eij",
            EncodingMode::Hybrid(_) => "hybrid",
            EncodingMode::FixedHybrid => "fixed-hybrid",
        },
        classes = analysis.classes.len(),
    );
    let mut enc = IncrementalEncoder::one_shot();
    let delta = enc.lower(tm, analysis, &[root], options, obs_span.is_recording())?;
    let stats = EncodeStats {
        sd_classes: delta.stats.sd_classes,
        eij_classes: delta.stats.eij_classes,
        trans_clauses: delta.trans.len(),
        pred_vars: delta.stats.pred_vars,
        gates: delta.stats.total_gates,
    };
    if obs_span.is_recording() {
        sufsat_obs::event!(
            "encode.done",
            sd_classes = stats.sd_classes,
            eij_classes = stats.eij_classes,
            trans_clauses = stats.trans_clauses,
            pred_vars = stats.pred_vars,
            gates = stats.gates,
        );
    }
    Ok(Encoded {
        circuit: enc.into_circuit(),
        formula: delta.roots[0],
        trans_clauses: delta.trans,
        decode: delta.decode,
        stats,
    })
}

/// The method `mode` chooses for a class (paper §4 step 4 for HYBRID).
pub(crate) fn class_method(mode: EncodingMode, class: &Class) -> ClassMethod {
    match mode {
        EncodingMode::Sd => ClassMethod::Sd,
        EncodingMode::Eij => ClassMethod::Eij,
        EncodingMode::Hybrid(threshold) => {
            if class.sep_cnt > threshold {
                ClassMethod::Sd
            } else {
                ClassMethod::Eij
            }
        }
        EncodingMode::FixedHybrid => {
            let pure_eq = class
                .predicates
                .iter()
                .all(|p| matches!(p, PredKey::Eq(_, _, 0)));
            if pure_eq {
                ClassMethod::Eij
            } else {
                ClassMethod::Sd
            }
        }
    }
}
