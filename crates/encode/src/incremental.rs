//! The lowering of separation formulas into the shared circuit, for
//! one-shot encodings and incremental sessions alike.
//!
//! [`IncrementalEncoder`] keeps the circuit, the predicate-variable tables
//! and the per-constant bit-vectors alive across
//! [`IncrementalEncoder::extend`] calls and encodes only what each call
//! adds, so a session's SAT solver can keep its learnt clauses.
//! [`crate::encode`] is the degenerate case: a fresh encoder with one
//! extension. The two differ only in how the encoder sizes its SD domains
//! and `V_p` value lanes:
//!
//! * a one-shot encoding sizes them exactly from the analysis: the
//!   small-model bits of each class range, the formula's offset band, and
//!   one lane per `V_p` constant;
//! * a session sizes them with headroom ([`VAR_BITS_HEADROOM`] extra bits,
//!   an offset cap of `4·max|offset|+8`, spare `V_p` lanes) so that
//!   growing classes keep fitting. A domain larger than the small-model
//!   bound requires is still sound *and* complete.
//!
//! Encoding decisions are *committed* the first time they are taken and
//! never changed afterwards:
//!
//! * every `V_g` constant is committed to a **domain** (a method — SD or
//!   EIJ — plus SD sizing parameters) the first time it is encoded; later
//!   assertions may only add members to a domain, never move a constant
//!   between domains or change a domain's method;
//! * the global offset shift, the `V_p` value lanes and each constant's
//!   p/g polarity classification are committed the same way.
//!
//! When a new assertion cannot be hosted under the committed decisions
//! (classes straddling two domains, a polarity flip, a range overflow…)
//! [`IncrementalEncoder::check_compatible`] reports a [`ReencodeReason`]
//! and the session falls back to rebuilding encoder + solver from scratch
//! — the sound fallback, never a silent approximation.
//!
//! Every extension regenerates the transitivity constraints of each live
//! EIJ class over its current membership (the generator in
//! [`crate::trans`] produces the same clause set each time, and its tables
//! are idempotent). A session loads each clause once; stale clauses over
//! predicates of retracted assertions remain loaded, which is sound
//! because transitivity clauses are universally valid.

use std::collections::HashMap;
use std::sync::Arc;

use sufsat_seplog::{AtomOp, GroundTerm, PredKey, SepAnalysis};
use sufsat_suf::{BoolSym, Sort, Term, TermId, TermManager, VarSym};

use crate::circuit::{Circuit, Signal};
use crate::encoder::{class_method, ClassMethod, DecodeInfo, EncodeOptions, EncodingMode};
use crate::trans::{generate_transitivity, BoundTable, EqTable, TransBudgetExceeded};

/// Extra genuine bits given to every SD domain beyond its creating class's
/// small-model requirement, so classes can grow (via later assertions)
/// without forcing a re-encode. Oversized domains remain sound and
/// complete; they only cost a few adder gates.
pub const VAR_BITS_HEADROOM: usize = 2;

/// Why a new assertion cannot be hosted by the committed encoder state and
/// the session must rebuild from scratch.
#[derive(Debug, Copy, Clone, PartialEq, Eq)]
pub enum ReencodeReason {
    /// A live equivalence class spans constants committed to two different
    /// domains — the committed methods/parameters cannot represent the
    /// merged class uniformly.
    DomainMerge,
    /// A domain committed with the equality-only predicate representation
    /// (one variable per equality) now sees an inequality, which needs the
    /// two-sided bound representation.
    EqOnlyLost,
    /// A live class's small-model range exceeds the bit-width its SD
    /// domain was committed with (even after headroom).
    RangeOverflow,
    /// A constant's positive-equality classification (p vs. g) changed —
    /// cached atom encodings for it are no longer valid.
    PolarityFlip,
    /// A leaf offset exceeds the committed global offset cap, invalidating
    /// the committed shift and `V_p` lane spacing.
    OffsetOverflow,
    /// More `V_p` constants than the committed value lanes can host.
    PLaneOverflow,
}

impl std::fmt::Display for ReencodeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReencodeReason::DomainMerge => "live class spans two committed domains",
            ReencodeReason::EqOnlyLost => "equality-only domain gained an inequality",
            ReencodeReason::RangeOverflow => "class range exceeds committed SD bit-width",
            ReencodeReason::PolarityFlip => "constant's p/g classification changed",
            ReencodeReason::OffsetOverflow => "leaf offset exceeds committed cap",
            ReencodeReason::PLaneOverflow => "V_p count exceeds committed value lanes",
        };
        f.write_str(s)
    }
}

/// How an encoder sizes its SD domains and `V_p` lanes: the one
/// difference between a one-shot encoding and a session.
#[derive(Debug, Copy, Clone, PartialEq, Eq, Default)]
enum Sizing {
    /// Exactly what the analysis of the single extension needs.
    Exact,
    /// Room for later extensions to grow classes, offsets and `V_p`.
    #[default]
    Headroom,
}

/// SD sizing parameters shared by every domain, committed by the first
/// extension.
#[derive(Debug, Copy, Clone)]
struct Globals {
    /// Largest absolute leaf offset the committed state can host.
    off_cap: i64,
    /// Added to every `V_g` value so that negative offsets stay
    /// representable.
    shift: u64,
    /// Largest offset added on top of a `V_g` value.
    top: u64,
    /// Spacing between consecutive `V_p` values.
    stride: u64,
    /// `V_p` value lanes.
    p_lanes: usize,
    /// Strides above a domain's `p_base` that its width must cover.
    width_strides: u64,
    /// Genuine bits per SD constant beyond the small-model requirement.
    headroom: usize,
}

impl Sizing {
    fn globals(self, analysis: &SepAnalysis) -> Globals {
        let p_vars = analysis.p_vars.len();
        match self {
            Sizing::Exact => {
                let (min_off, max_off) = analysis.ground.offset_bounds();
                Globals {
                    off_cap: analysis.max_abs_offset,
                    shift: (-min_off).max(0) as u64,
                    top: max_off.max(0) as u64,
                    stride: (max_off - min_off + 1) as u64,
                    p_lanes: p_vars,
                    width_strides: p_vars as u64 + 2,
                    headroom: 0,
                }
            }
            Sizing::Headroom => {
                let off_cap = 4 * analysis.max_abs_offset + 8;
                let p_lanes = 2 * p_vars + 8;
                Globals {
                    off_cap,
                    shift: off_cap as u64,
                    top: off_cap as u64,
                    stride: (2 * off_cap + 1) as u64,
                    p_lanes,
                    width_strides: p_lanes as u64 + 3,
                    headroom: VAR_BITS_HEADROOM,
                }
            }
        }
    }
}

impl Globals {
    /// A fresh domain for a class with small-model range `range`. Its
    /// `V_g` values lie below `p_base`; the `V_p` lanes lie above.
    fn domain(&self, method: ClassMethod, eq_only: bool, range: u64) -> Domain {
        let var_bits = bits_for(range.max(1)) + self.headroom;
        let p_base = (1u64 << var_bits) + self.shift + self.top;
        let max_value = p_base + self.width_strides * self.stride + self.shift;
        Domain {
            method,
            eq_only,
            var_bits,
            width: bits_for(max_value + 1),
            p_base,
        }
    }
}

/// One committed encoding domain: a set of `V_g` constants sharing a
/// method and (for SD) sizing parameters.
#[derive(Debug, Clone)]
struct Domain {
    method: ClassMethod,
    /// Equality-only predicate representation (EIJ domains).
    eq_only: bool,
    /// Genuine input bits per constant (SD domains).
    var_bits: usize,
    /// Full arithmetic width (SD domains).
    width: usize,
    /// First value of the `V_p` band, pre-shift (SD domains).
    p_base: u64,
}

/// What one [`IncrementalEncoder::extend`] call produced.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The signal of each requested root, in request order (cached or
    /// freshly encoded).
    pub roots: Vec<Signal>,
    /// The transitivity clauses of every live EIJ class, regenerated in
    /// full. They are universally valid, so the caller loads them
    /// unguarded; clauses handed out by earlier extends recur here.
    pub trans: Vec<Vec<Signal>>,
    /// Decode metadata scoped to the *live* classes of this extension
    /// (predicates of retracted assertions are filtered out so decoding
    /// never trips over dead, unconstrained predicate variables).
    pub decode: DecodeInfo,
    /// Statistics of this extension.
    pub stats: DeltaStats,
}

/// Statistics of one [`IncrementalEncoder::extend`] call.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct DeltaStats {
    /// Gates added by this extension.
    pub new_gates: usize,
    /// Total gates in the shared circuit after it.
    pub total_gates: usize,
    /// Domains created by this extension.
    pub new_domains: usize,
    /// Live classes encoded with SD.
    pub sd_classes: usize,
    /// Live classes encoded with EIJ.
    pub eij_classes: usize,
    /// Canonical predicate variables allocated so far (original + derived).
    pub pred_vars: usize,
}

/// Monotone encoder state shared by every check of an incremental session
/// (and, with exact sizing, by the single extension of [`crate::encode`]).
#[derive(Debug, Default)]
pub struct IncrementalEncoder {
    sizing: Sizing,
    /// Fixed by the first extension.
    globals: Option<Globals>,
    circuit: Circuit,
    table: BoundTable,
    eq_table: EqTable,
    domains: Vec<Domain>,
    /// Committed domain of each `V_g` constant.
    var_domain: HashMap<VarSym, usize>,
    /// Committed p/g classification of every constant ever encoded.
    committed_pg: HashMap<VarSym, bool>,
    /// Committed `V_p` lane of each p-classified constant (grow-only).
    p_index: HashMap<VarSym, usize>,
    /// Cached signal per Boolean term.
    bool_sig: HashMap<TermId, Signal>,
    bool_inputs: HashMap<BoolSym, Signal>,
    /// Genuine (unextended) bits per SD-encoded constant.
    sd_var_bits: HashMap<VarSym, Vec<Signal>>,
    /// Encoded bit-vectors per (term, domain) context.
    sd_term_bits: HashMap<(TermId, usize), Vec<Signal>>,
    /// EIJ path enumerations per integer term.
    paths: HashMap<TermId, Arc<Vec<(Signal, GroundTerm)>>>,
    /// Input indices of SD bits for decoding.
    sd_bit_inputs: HashMap<VarSym, Vec<u32>>,
}

impl IncrementalEncoder {
    /// An empty encoder with nothing committed yet, sized for a session.
    pub fn new() -> IncrementalEncoder {
        IncrementalEncoder::default()
    }

    /// An empty encoder sized exactly for a single extension.
    pub(crate) fn one_shot() -> IncrementalEncoder {
        IncrementalEncoder {
            sizing: Sizing::Exact,
            ..IncrementalEncoder::default()
        }
    }

    /// The shared circuit (for CNF loading and model decoding).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    pub(crate) fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// Whether the cached signal of `root` exists (it was encoded by an
    /// earlier extension and can be re-guarded without new gates).
    pub fn cached_root(&self, root: TermId) -> Option<Signal> {
        self.bool_sig.get(&root).copied()
    }

    /// Checks whether the live conjunction described by `analysis` can be
    /// hosted under the committed encoding decisions.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReencodeReason`] making the committed state
    /// unusable; the caller must then rebuild encoder and solver from
    /// scratch (the sound fallback).
    pub fn check_compatible(&self, analysis: &SepAnalysis) -> Result<(), ReencodeReason> {
        let Some(globals) = self.globals else {
            // Nothing committed yet: the first extension fixes the globals.
            return Ok(());
        };
        if analysis.max_abs_offset > globals.off_cap {
            return Err(ReencodeReason::OffsetOverflow);
        }
        // Polarity commitments: every constant of the live formula must
        // keep the classification it was first encoded under.
        for class in &analysis.classes {
            for &v in &class.vars {
                if self.committed_pg.get(&v).copied() == Some(true) {
                    return Err(ReencodeReason::PolarityFlip);
                }
            }
        }
        let mut p_new = 0usize;
        for &v in &analysis.p_vars {
            match self.committed_pg.get(&v) {
                Some(false) => return Err(ReencodeReason::PolarityFlip),
                Some(true) => {}
                None => p_new += 1,
            }
        }
        if self.p_index.len() + p_new > globals.p_lanes {
            return Err(ReencodeReason::PLaneOverflow);
        }
        for class in &analysis.classes {
            let mut domain: Option<usize> = None;
            for &v in &class.vars {
                let Some(&d) = self.var_domain.get(&v) else {
                    continue;
                };
                match domain {
                    None => domain = Some(d),
                    Some(prev) if prev != d => return Err(ReencodeReason::DomainMerge),
                    Some(_) => {}
                }
            }
            let Some(d) = domain else {
                continue; // all-new class: a fresh domain will host it
            };
            let dom = &self.domains[d];
            match dom.method {
                ClassMethod::Sd => {
                    if class.range > 1u64 << dom.var_bits {
                        return Err(ReencodeReason::RangeOverflow);
                    }
                }
                ClassMethod::Eij => {
                    if dom.eq_only
                        && !class.predicates.iter().all(|p| matches!(p, PredKey::Eq(..)))
                    {
                        return Err(ReencodeReason::EqOnlyLost);
                    }
                }
            }
        }
        Ok(())
    }

    /// Encodes the given roots against the live `analysis`, extending the
    /// committed state monotonically. The caller must have verified
    /// [`Self::check_compatible`] first (violations panic here).
    ///
    /// # Errors
    ///
    /// Returns [`TransBudgetExceeded`] when the regenerated transitivity
    /// clauses of the live classes exceed `options.trans_budget`. The
    /// committed state stays consistent (tables and circuit are
    /// monotone); a later extension with a larger budget can pick up where
    /// this one stopped.
    ///
    /// # Panics
    ///
    /// Panics if a root contains uninterpreted applications, if a `V_p`
    /// constant occurs under an inequality, or if the analysis is
    /// incompatible with the committed state.
    pub fn extend(
        &mut self,
        tm: &TermManager,
        analysis: &SepAnalysis,
        roots: &[TermId],
        options: &EncodeOptions,
    ) -> Result<Delta, TransBudgetExceeded> {
        let obs_span = sufsat_obs::span_with!(
            "encode.extend",
            roots = roots.len(),
            classes = analysis.classes.len(),
            committed_domains = self.domains.len(),
        );
        let delta = self.lower(tm, analysis, roots, options, obs_span.is_recording())?;
        if obs_span.is_recording() {
            sufsat_obs::event!(
                "encode.extend.done",
                new_gates = delta.stats.new_gates,
                total_gates = delta.stats.total_gates,
                trans = delta.trans.len(),
                new_domains = delta.stats.new_domains,
                pred_vars = delta.stats.pred_vars,
            );
        }
        Ok(delta)
    }

    /// [`Self::extend`] without its span: the lowering both `extend` and
    /// [`crate::encode`] run. `trace` enables the per-class
    /// `encode.class` and `encode.trans` events.
    pub(crate) fn lower(
        &mut self,
        tm: &TermManager,
        analysis: &SepAnalysis,
        roots: &[TermId],
        options: &EncodeOptions,
        trace: bool,
    ) -> Result<Delta, TransBudgetExceeded> {
        let gates_before = self.circuit.num_gates();
        if self.globals.is_none() {
            self.globals = Some(self.sizing.globals(analysis));
        }
        let globals = self.globals.expect("committed above");

        // Commit p/g classifications and V_p lanes (sorted for
        // deterministic lane assignment).
        let mut p_fresh: Vec<VarSym> = analysis
            .p_vars
            .iter()
            .copied()
            .filter(|v| !self.p_index.contains_key(v))
            .collect();
        p_fresh.sort_unstable();
        for v in p_fresh {
            let lane = self.p_index.len();
            assert!(lane < globals.p_lanes, "V_p lane overflow not caught");
            self.p_index.insert(v, lane);
            self.committed_pg.insert(v, true);
        }

        // Map live classes to domains, creating domains for all-new
        // classes and absorbing new members into committed ones.
        let mut new_domains = 0usize;
        let mut class_domain: Vec<usize> = Vec::with_capacity(analysis.classes.len());
        for (cid, class) in analysis.classes.iter().enumerate() {
            let mut domain: Option<usize> = None;
            for &v in &class.vars {
                if let Some(&d) = self.var_domain.get(&v) {
                    assert!(
                        domain.is_none() || domain == Some(d),
                        "class spans two committed domains"
                    );
                    domain = Some(d);
                }
            }
            let d = match domain {
                Some(d) => d,
                None => {
                    let method = class_method(options.mode, class);
                    let eq_only = class
                        .predicates
                        .iter()
                        .all(|p| matches!(p, PredKey::Eq(..)));
                    let dom = globals.domain(method, eq_only, class.range);
                    if trace {
                        // The method decision (for HYBRID, the threshold it
                        // was judged against) and the SD bit-widths that
                        // size the small-model domain.
                        sufsat_obs::event!(
                            "encode.class",
                            class = cid,
                            method = match method {
                                ClassMethod::Sd => "sd",
                                ClassMethod::Eij => "eij",
                            },
                            sep_cnt = class.sep_cnt,
                            threshold = match options.mode {
                                EncodingMode::Hybrid(t) => t as i64,
                                _ => -1,
                            },
                            vars = class.vars.len(),
                            range = class.range,
                            var_bits = dom.var_bits,
                            width = dom.width,
                        );
                    }
                    self.domains.push(dom);
                    new_domains += 1;
                    self.domains.len() - 1
                }
            };
            for &v in &class.vars {
                self.var_domain.insert(v, d);
                self.committed_pg.insert(v, false);
            }
            class_domain.push(d);
        }

        // Encode the new roots against the shared caches.
        let mut ctx = Lowering {
            enc: &mut *self,
            tm,
            analysis,
            class_domain: &class_domain,
            shift: globals.shift,
            stride: globals.stride,
        };
        let root_sigs: Vec<Signal> = roots.iter().map(|&r| ctx.encode_root(r)).collect();

        // Regenerate transitivity for every live EIJ class. Regeneration
        // over the *current* full membership covers every historical
        // predicate among the members, so each check's clause set is
        // complete for its live classes.
        let mut trans: Vec<Vec<Signal>> = Vec::new();
        for (cid, class) in analysis.classes.iter().enumerate() {
            let dom = &self.domains[class_domain[cid]];
            if dom.method != ClassMethod::Eij {
                continue;
            }
            let eq_only = dom.eq_only;
            let budget = options.trans_budget.saturating_sub(trans.len());
            let (circuit, vars) = (&mut self.circuit, &class.vars);
            let (deadline, cancel) = (options.deadline, options.cancel.as_ref());
            let result = if eq_only {
                generate_transitivity(circuit, &mut self.eq_table, vars, budget, deadline, cancel)
            } else {
                generate_transitivity(circuit, &mut self.table, vars, budget, deadline, cancel)
            };
            let clauses = match result {
                Ok(clauses) => clauses,
                Err(err) => {
                    sufsat_obs::event!(
                        "encode.abort",
                        class = cid,
                        cancelled = err.cancelled,
                        timed_out = err.timed_out,
                        generated = trans.len(),
                    );
                    return Err(err);
                }
            };
            if trace {
                sufsat_obs::event!(
                    "encode.trans",
                    class = cid,
                    clauses = clauses.len(),
                    equality_only = eq_only,
                );
            }
            trans.extend(clauses);
        }

        let decode = self.live_decode_info(analysis, &class_domain, globals.off_cap);
        let count = |method: ClassMethod| {
            class_domain
                .iter()
                .filter(|&&d| self.domains[d].method == method)
                .count()
        };
        let stats = DeltaStats {
            new_gates: self.circuit.num_gates() - gates_before,
            total_gates: self.circuit.num_gates(),
            new_domains,
            sd_classes: count(ClassMethod::Sd),
            eij_classes: count(ClassMethod::Eij),
            pred_vars: self.table.len() + self.eq_table.len(),
        };
        Ok(Delta {
            roots: root_sigs,
            trans,
            decode,
            stats,
        })
    }

    /// Decode metadata restricted to the live classes: only canonical
    /// predicates whose *both* endpoints sit in the same live EIJ class
    /// are included, so predicates surviving from retracted assertions
    /// (unconstrained in the current model) cannot poison decoding.
    fn live_decode_info(
        &self,
        analysis: &SepAnalysis,
        class_domain: &[usize],
        off_cap: i64,
    ) -> DecodeInfo {
        let mut eij_class_of: HashMap<VarSym, usize> = HashMap::new();
        for (cid, class) in analysis.classes.iter().enumerate() {
            if self.domains[class_domain[cid]].method == ClassMethod::Eij {
                for &v in &class.vars {
                    eij_class_of.insert(v, cid);
                }
            }
        }
        let same_live_class = |x: VarSym, y: VarSym| {
            matches!((eij_class_of.get(&x), eij_class_of.get(&y)), (Some(a), Some(b)) if a == b)
        };
        let mut p_sorted: Vec<VarSym> = analysis.p_vars.iter().copied().collect();
        p_sorted.sort_unstable();
        DecodeInfo {
            sd_bits: self.sd_bit_inputs.clone(),
            eij_bounds: self
                .table
                .iter_original()
                .filter(|&(x, y, _, _)| same_live_class(x, y))
                .map(|(x, y, c, s)| {
                    let input = self
                        .circuit
                        .input_index(s)
                        .expect("canonical bounds are plain inputs");
                    (x, y, c, input)
                })
                .collect(),
            eij_eqs: self
                .eq_table
                .iter_original()
                .filter(|&(x, y, _, _)| same_live_class(x, y))
                .map(|(x, y, c, s)| {
                    let input = self
                        .circuit
                        .input_index(s)
                        .expect("canonical equalities are plain inputs");
                    (x, y, c, input)
                })
                .collect(),
            bool_inputs: self
                .bool_inputs
                .iter()
                .map(|(&b, &s)| {
                    let input = self
                        .circuit
                        .input_index(s)
                        .expect("bool constants are plain inputs");
                    (b, input)
                })
                .collect(),
            p_vars: p_sorted,
            class_vars: analysis.classes.iter().map(|c| c.vars.clone()).collect(),
            class_methods: class_domain
                .iter()
                .map(|&d| self.domains[d].method)
                .collect(),
            max_abs_offset: off_cap,
        }
    }
}

/// One extension's view of the encoder: the live classes' domains and
/// the committed value layout.
struct Lowering<'a> {
    enc: &'a mut IncrementalEncoder,
    tm: &'a TermManager,
    analysis: &'a SepAnalysis,
    class_domain: &'a [usize],
    shift: u64,
    stride: u64,
}

impl Lowering<'_> {
    /// Encodes (or finds cached) the signal of a Boolean root.
    fn encode_root(&mut self, root: TermId) -> Signal {
        // Bottom-up over Boolean nodes; cached nodes short-circuit whole
        // cones, which is where incremental reuse happens.
        for id in self.tm.postorder(root) {
            if self.tm.sort(id) != Sort::Bool || self.enc.bool_sig.contains_key(&id) {
                continue;
            }
            let sig = match self.tm.term(id) {
                Term::True => Signal::TRUE,
                Term::False => Signal::FALSE,
                Term::Not(a) => !self.enc.bool_sig[a],
                Term::And(a, b) => {
                    let (x, y) = (self.enc.bool_sig[a], self.enc.bool_sig[b]);
                    self.enc.circuit.and(x, y)
                }
                Term::Or(a, b) => {
                    let (x, y) = (self.enc.bool_sig[a], self.enc.bool_sig[b]);
                    self.enc.circuit.or(x, y)
                }
                Term::Implies(a, b) => {
                    let (x, y) = (self.enc.bool_sig[a], self.enc.bool_sig[b]);
                    self.enc.circuit.implies(x, y)
                }
                Term::Iff(a, b) => {
                    let (x, y) = (self.enc.bool_sig[a], self.enc.bool_sig[b]);
                    self.enc.circuit.xnor(x, y)
                }
                Term::IteBool(c, t, e) => {
                    let (sc, st, se) = (
                        self.enc.bool_sig[c],
                        self.enc.bool_sig[t],
                        self.enc.bool_sig[e],
                    );
                    self.enc.circuit.mux(sc, st, se)
                }
                Term::BoolVar(b) => self.bool_var(*b),
                Term::Eq(a, b) => self.atom(AtomOp::Eq, *a, *b),
                Term::Lt(a, b) => self.atom(AtomOp::Lt, *a, *b),
                Term::PApp(..) => panic!("encoding requires an application-free formula"),
                _ => unreachable!("integer node filtered above"),
            };
            self.enc.bool_sig.insert(id, sig);
        }
        self.enc.bool_sig[&root]
    }

    fn bool_var(&mut self, b: BoolSym) -> Signal {
        if let Some(&s) = self.enc.bool_inputs.get(&b) {
            return s;
        }
        let s = self.enc.circuit.input();
        self.enc.bool_inputs.insert(b, s);
        s
    }

    /// The domain hosting an atom: the committed domain of any of its
    /// `V_g` leaves.
    fn atom_domain(&self, lhs: TermId, rhs: TermId) -> Option<usize> {
        for side in [lhs, rhs] {
            for g in self.analysis.ground.leaves(side) {
                if let Some(c) = self.analysis.class_of(g.var) {
                    return Some(self.class_domain[c]);
                }
            }
        }
        None
    }

    fn atom(&mut self, op: AtomOp, lhs: TermId, rhs: TermId) -> Signal {
        match self.atom_domain(lhs, rhs) {
            // All-V_p atoms are decided structurally via path enumeration.
            None => self.atom_eij(op, lhs, rhs, false),
            Some(d) => match self.enc.domains[d].method {
                ClassMethod::Sd => self.atom_sd(op, lhs, rhs, d),
                ClassMethod::Eij => self.atom_eij(op, lhs, rhs, self.enc.domains[d].eq_only),
            },
        }
    }

    // ---- SD --------------------------------------------------------------

    fn atom_sd(&mut self, op: AtomOp, lhs: TermId, rhs: TermId, d: usize) -> Signal {
        let a = self.sd_bits(lhs, d);
        let b = self.sd_bits(rhs, d);
        match op {
            AtomOp::Eq => self.enc.circuit.eq_bits(&a, &b),
            AtomOp::Lt => self.enc.circuit.lt_bits(&a, &b),
        }
    }

    fn sd_bits(&mut self, t: TermId, d: usize) -> Vec<Signal> {
        if let Some(bits) = self.enc.sd_term_bits.get(&(t, d)) {
            return bits.clone();
        }
        let dom = self.enc.domains[d].clone();
        let out = match self.tm.term(t).clone() {
            Term::IntVar(v) => {
                if let Some(&pi) = self.enc.p_index.get(&v) {
                    let value = dom.p_base + (pi as u64 + 1) * self.stride + self.shift;
                    self.enc.circuit.const_bits(value, dom.width)
                } else {
                    let genuine = match self.enc.sd_var_bits.get(&v) {
                        Some(bits) => bits.clone(),
                        None => {
                            let bits: Vec<Signal> = (0..dom.var_bits)
                                .map(|_| self.enc.circuit.input())
                                .collect();
                            let idxs: Vec<u32> = bits
                                .iter()
                                .map(|&s| {
                                    self.enc
                                        .circuit
                                        .input_index(s)
                                        .expect("variable bits are inputs")
                                })
                                .collect();
                            self.enc.sd_var_bits.insert(v, bits.clone());
                            self.enc.sd_bit_inputs.insert(v, idxs);
                            bits
                        }
                    };
                    let mut bits = genuine;
                    bits.resize(dom.width, Signal::FALSE);
                    self.enc.circuit.add_const(&bits, self.shift as i64)
                }
            }
            Term::Succ(a) => {
                let bits = self.sd_bits(a, d);
                self.enc.circuit.add_const(&bits, 1)
            }
            Term::Pred(a) => {
                let bits = self.sd_bits(a, d);
                self.enc.circuit.add_const(&bits, -1)
            }
            Term::IteInt(c, th, el) => {
                let sc = self.enc.bool_sig[&c];
                let tb = self.sd_bits(th, d);
                let eb = self.sd_bits(el, d);
                self.enc.circuit.mux_bits(sc, &tb, &eb)
            }
            other => unreachable!("non-integer term in SD context: {other:?}"),
        };
        self.enc.sd_term_bits.insert((t, d), out.clone());
        out
    }

    // ---- EIJ -------------------------------------------------------------

    fn atom_eij(&mut self, op: AtomOp, lhs: TermId, rhs: TermId, eq_class: bool) -> Signal {
        let lp = self.eij_paths(lhs);
        let rp = self.eij_paths(rhs);
        let mut disjuncts = Vec::with_capacity(lp.len() * rp.len());
        for &(c1, g1) in lp.iter() {
            for &(c2, g2) in rp.iter() {
                let e = self.pred_signal(op, g1, g2, eq_class);
                if e == Signal::FALSE {
                    continue;
                }
                let cond = self.enc.circuit.and(c1, c2);
                let term = self.enc.circuit.and(cond, e);
                disjuncts.push(term);
            }
        }
        self.enc.circuit.or_many(&disjuncts)
    }

    fn eij_paths(&mut self, t: TermId) -> Arc<Vec<(Signal, GroundTerm)>> {
        if let Some(p) = self.enc.paths.get(&t) {
            return Arc::clone(p);
        }
        let out: Vec<(Signal, GroundTerm)> = match self.tm.term(t).clone() {
            Term::IntVar(v) => vec![(Signal::TRUE, GroundTerm { var: v, offset: 0 })],
            Term::Succ(a) => self
                .eij_paths(a)
                .iter()
                .map(|&(c, g)| {
                    (
                        c,
                        GroundTerm {
                            var: g.var,
                            offset: g.offset + 1,
                        },
                    )
                })
                .collect(),
            Term::Pred(a) => self
                .eij_paths(a)
                .iter()
                .map(|&(c, g)| {
                    (
                        c,
                        GroundTerm {
                            var: g.var,
                            offset: g.offset - 1,
                        },
                    )
                })
                .collect(),
            Term::IteInt(c, th, el) => {
                let sc = self.enc.bool_sig[&c];
                let tp = self.eij_paths(th);
                let ep = self.eij_paths(el);
                let mut merged: HashMap<GroundTerm, Signal> = HashMap::new();
                for &(pc, g) in tp.iter() {
                    let cond = self.enc.circuit.and(sc, pc);
                    merge_path(&mut self.enc.circuit, &mut merged, g, cond);
                }
                for &(pc, g) in ep.iter() {
                    let cond = self.enc.circuit.and(!sc, pc);
                    merge_path(&mut self.enc.circuit, &mut merged, g, cond);
                }
                let mut v: Vec<(Signal, GroundTerm)> =
                    merged.into_iter().map(|(g, c)| (c, g)).collect();
                v.sort_by_key(|&(_, g)| g);
                v
            }
            other => unreachable!("non-integer term in EIJ context: {other:?}"),
        };
        let paths = Arc::new(out);
        self.enc.paths.insert(t, Arc::clone(&paths));
        paths
    }

    /// The predicate signal for `g1 ⋈ g2` (paper §4 step 5): constants for
    /// same-variable pairs, `false` for `V_p`-involving equalities between
    /// distinct constants, canonical predicate variables otherwise.
    fn pred_signal(&mut self, op: AtomOp, g1: GroundTerm, g2: GroundTerm, eq_class: bool) -> Signal {
        if g1.var == g2.var {
            let truth = match op {
                AtomOp::Eq => g1.offset == g2.offset,
                AtomOp::Lt => g1.offset < g2.offset,
            };
            return if truth { Signal::TRUE } else { Signal::FALSE };
        }
        let p1 = self.enc.p_index.contains_key(&g1.var);
        let p2 = self.enc.p_index.contains_key(&g2.var);
        if p1 || p2 {
            match op {
                AtomOp::Eq => return Signal::FALSE,
                AtomOp::Lt => panic!(
                    "V_p constant under an inequality contradicts the \
                     positive-equality classification"
                ),
            }
        }
        match op {
            AtomOp::Eq if eq_class => self.enc.eq_table.equality(
                &mut self.enc.circuit,
                g1.var,
                g2.var,
                g2.offset - g1.offset,
            ),
            AtomOp::Eq => {
                let d = g2.offset - g1.offset;
                let le1 = self
                    .enc
                    .table
                    .bound(&mut self.enc.circuit, g1.var, g2.var, d);
                let le2 = self
                    .enc
                    .table
                    .bound(&mut self.enc.circuit, g2.var, g1.var, -d);
                self.enc.circuit.and(le1, le2)
            }
            AtomOp::Lt => self.enc.table.bound(
                &mut self.enc.circuit,
                g1.var,
                g2.var,
                g2.offset - g1.offset - 1,
            ),
        }
    }
}

fn merge_path(
    circuit: &mut Circuit,
    merged: &mut HashMap<GroundTerm, Signal>,
    g: GroundTerm,
    cond: Signal,
) {
    match merged.get(&g).copied() {
        Some(prev) => {
            let or = circuit.or(prev, cond);
            merged.insert(g, or);
        }
        None => {
            merged.insert(g, cond);
        }
    }
}

fn bits_for(values: u64) -> usize {
    // Number of bits to represent values in [0, values).
    (64 - (values.saturating_sub(1)).leading_zeros() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_ranges() {
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(5), 3);
        assert_eq!(bits_for(16), 4);
        assert_eq!(bits_for(17), 5);
    }
}
