//! Bounded model checking on top of the decision procedure.
//!
//! The paper situates SUF as the logic "of systems modeled in CLU logic" —
//! the UCLID verifier used exactly this decision procedure for bounded
//! model checking of out-of-order microprocessors. This module provides
//! that flow: a [`TransitionSystem`] with symbolic update terms is unrolled
//! by substitution, and each step's property obligation becomes one
//! validity query.

use std::collections::HashMap;

use sufsat_seplog::SepAssignment;
use sufsat_suf::{substitute, Sort, TermId, TermManager};

use crate::decide::{decide, DecideOptions, DecideStats, Outcome, StopReason};

/// A deterministic symbolic transition system over integer state variables,
/// with fresh-per-step primary inputs.
///
/// `next[i]` is the update term of `state[i]`, written over the state
/// variables and the input variables; inputs are replaced by fresh copies
/// at every unrolling step.
#[derive(Debug, Clone)]
pub struct TransitionSystem {
    /// Current-state variables (integer-sorted terms, typically `IntVar`s).
    pub state: Vec<TermId>,
    /// Update term per state variable, aligned with `state`.
    pub next: Vec<TermId>,
    /// Primary-input variables, freshened at each step.
    pub inputs: Vec<TermId>,
    /// Initial-state predicate over the state variables.
    pub init: TermId,
    /// Safety property over the state variables.
    pub property: TermId,
}

impl TransitionSystem {
    /// Checks the system's shape before unrolling.
    ///
    /// # Panics
    ///
    /// Panics if `state` and `next` lengths differ, a state/input term is
    /// not integer-sorted, or `init`/`property` are not Boolean.
    pub fn assert_well_formed(&self, tm: &TermManager) {
        assert_eq!(
            self.state.len(),
            self.next.len(),
            "state and next must align"
        );
        for &s in self.state.iter().chain(&self.inputs) {
            assert_eq!(tm.sort(s), Sort::Int, "state and inputs must be integers");
        }
        assert_eq!(tm.sort(self.init), Sort::Bool, "init must be Boolean");
        assert_eq!(
            tm.sort(self.property),
            Sort::Bool,
            "property must be Boolean"
        );
    }

    /// The symbolic state at step 0: each state variable is itself.
    pub fn initial_state(&self) -> HashMap<TermId, TermId> {
        self.state.iter().map(|&s| (s, s)).collect()
    }

    /// Advances `current` from `step` to `step + 1`:
    /// `s_{k+1} = next(s_k, fresh inputs)`.
    pub fn advance(
        &self,
        tm: &mut TermManager,
        current: &mut HashMap<TermId, TermId>,
        step: usize,
    ) {
        let next_state: Vec<TermId> = self
            .next
            .iter()
            .map(|&n| substitute_state(tm, n, self, current, step))
            .collect();
        for (s, n) in self.state.iter().zip(next_state) {
            current.insert(*s, n);
        }
    }
}

/// Result of a bounded check.
#[derive(Debug, Clone, PartialEq)]
pub enum BmcResult {
    /// The property holds on every path of length up to the bound.
    Bounded(usize),
    /// The property fails at `step`; the assignment falsifies the unrolled
    /// obligation (it speaks about step-0 state and per-step input copies).
    CounterexampleAt {
        /// First failing step.
        step: usize,
        /// A falsifying assignment.
        assignment: SepAssignment,
    },
    /// A resource budget stopped the check at `step`.
    Unknown {
        /// The step that could not be decided.
        step: usize,
        /// Why it stopped.
        reason: StopReason,
    },
}

/// Checks the safety property for all executions of length `0..=bound`.
///
/// Each step `k` discharges the obligation
/// `init(s₀) ⇒ property(sₖ)` where `sₖ` is the `k`-fold symbolic unrolling
/// of the update terms with fresh inputs per step.
///
/// # Panics
///
/// Panics if `state` and `next` lengths differ, a state/input term is not
/// integer-sorted, or `init`/`property` are not Boolean.
///
/// # Examples
///
/// ```
/// use sufsat_core::{check_bounded, BmcResult, DecideOptions, TransitionSystem};
/// use sufsat_suf::TermManager;
///
/// // A saturating toggle: x' = ITE(x = lo, hi, lo); property: x = lo ∨ x = hi.
/// let mut tm = TermManager::new();
/// let x = tm.int_var("x");
/// let lo = tm.int_var("lo");
/// let hi = tm.int_var("hi");
/// let at_lo = tm.mk_eq(x, lo);
/// let next = tm.mk_ite_int(at_lo, hi, lo);
/// let at_hi = tm.mk_eq(x, hi);
/// let property = tm.mk_or(at_lo, at_hi);
/// let init = at_lo;
/// let system = TransitionSystem {
///     state: vec![x],
///     next: vec![next],
///     inputs: vec![],
///     init,
///     property,
/// };
/// let result = check_bounded(&mut tm, &system, 4, &DecideOptions::default());
/// assert_eq!(result, BmcResult::Bounded(4));
/// ```
pub fn check_bounded(
    tm: &mut TermManager,
    system: &TransitionSystem,
    bound: usize,
    options: &DecideOptions,
) -> BmcResult {
    check_bounded_with_stats(tm, system, bound, options).0
}

/// [`check_bounded`], additionally reporting the accumulated cost of every
/// per-step decision (times and clause/conflict counters summed via
/// [`DecideStats::absorb`]). The incremental-BMC evaluation compares this
/// total against a persistent-session run.
pub fn check_bounded_with_stats(
    tm: &mut TermManager,
    system: &TransitionSystem,
    bound: usize,
    options: &DecideOptions,
) -> (BmcResult, DecideStats) {
    system.assert_well_formed(tm);
    // Current symbolic value of each state variable.
    let mut current = system.initial_state();
    let mut total = DecideStats::default();

    for step in 0..=bound {
        // Obligation: init(s0) => property(s_step).
        let prop_now = substitute_state(tm, system.property, system, &current, step);
        let obligation = tm.mk_implies(system.init, prop_now);
        let decision = decide(tm, obligation, options);
        total.absorb(&decision.stats);
        match decision.outcome {
            Outcome::Valid => {}
            Outcome::Invalid(assignment) => {
                return (BmcResult::CounterexampleAt { step, assignment }, total);
            }
            Outcome::Unknown(reason) => {
                return (BmcResult::Unknown { step, reason }, total);
            }
        }
        if step == bound {
            break;
        }
        system.advance(tm, &mut current, step);
    }
    (BmcResult::Bounded(bound), total)
}

/// Substitutes the current symbolic state into `term` and freshens the
/// inputs for `step`.
///
/// `current` maps each state variable to its symbolic value at the current
/// step; inputs are replaced by fresh `in<step>!…` copies. Public so that
/// alternative unrolling clients (the incremental session's BMC mode)
/// produce the *same* obligations as [`check_bounded`].
pub fn substitute_state(
    tm: &mut TermManager,
    term: TermId,
    system: &TransitionSystem,
    current: &HashMap<TermId, TermId>,
    step: usize,
) -> TermId {
    let mut map: HashMap<TermId, TermId> = current.clone();
    for &input in &system.inputs {
        let fresh = tm.fresh_int_var(&format!("in{step}"));
        map.insert(input, fresh);
    }
    substitute(tm, term, &map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decide::DecideOptions;

    #[test]
    fn counter_stays_above_floor() {
        // x' = ITE(grow, x+1, x) with symbolic input-controlled growth:
        // from x = floor, the property floor <= x holds at every depth.
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let floor = tm.int_var("floor");
        let inp = tm.int_var("inp");
        let grow = tm.mk_lt(floor, inp);
        let inc = tm.mk_succ(x);
        let next = tm.mk_ite_int(grow, inc, x);
        let init = tm.mk_eq(x, floor);
        let property = tm.mk_le(floor, x);
        let system = TransitionSystem {
            state: vec![x],
            next: vec![next],
            inputs: vec![inp],
            init,
            property,
        };
        let result = check_bounded(&mut tm, &system, 5, &DecideOptions::default());
        assert_eq!(result, BmcResult::Bounded(5));
    }

    #[test]
    fn violation_is_found_at_the_right_depth() {
        // x' = x + 1 from x = base; the property x < base + 3 fails exactly
        // at step 3.
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let base = tm.int_var("base");
        let next = tm.mk_succ(x);
        let init = tm.mk_eq(x, base);
        let limit = tm.mk_offset(base, 3);
        let property = tm.mk_lt(x, limit);
        let system = TransitionSystem {
            state: vec![x],
            next: vec![next],
            inputs: vec![],
            init,
            property,
        };
        match check_bounded(&mut tm, &system, 10, &DecideOptions::default()) {
            BmcResult::CounterexampleAt { step, .. } => assert_eq!(step, 3),
            other => panic!("expected a counterexample, got {other:?}"),
        }
    }

    #[test]
    fn two_state_lock_protocol() {
        // The device-driver lock discipline as a transition system: the
        // lock toggles on a symbolic condition and must stay in {u, l}.
        let mut tm = TermManager::new();
        let lock = tm.int_var("lock");
        let unlocked = tm.int_var("u");
        let locked = tm.int_var("l");
        let guard = tm.int_var("guard");
        let inp = tm.int_var("trigger");
        let cond = tm.mk_eq(inp, guard);
        let is_u = tm.mk_eq(lock, unlocked);
        let toggled = tm.mk_ite_int(is_u, locked, unlocked);
        let next = tm.mk_ite_int(cond, toggled, lock);
        let init = is_u;
        let ok_u = tm.mk_eq(lock, unlocked);
        let ok_l = tm.mk_eq(lock, locked);
        let property = tm.mk_or(ok_u, ok_l);
        let system = TransitionSystem {
            state: vec![lock],
            next: vec![next],
            inputs: vec![inp],
            init,
            property,
        };
        let result = check_bounded(&mut tm, &system, 6, &DecideOptions::default());
        assert_eq!(result, BmcResult::Bounded(6));
    }

    #[test]
    fn uf_datapath_in_transition_relation() {
        // State flows through an uninterpreted ALU; the trivial property
        // x = x stays valid, and an unsound property (x stays equal to its
        // seed) is refuted at step 1.
        let mut tm = TermManager::new();
        let alu = tm.declare_fun("alu", 1);
        let x = tm.int_var("x");
        let seed = tm.int_var("seed");
        let next = tm.mk_app(alu, vec![x]);
        let init = tm.mk_eq(x, seed);
        let property = tm.mk_eq(x, seed);
        let system = TransitionSystem {
            state: vec![x],
            next: vec![next],
            inputs: vec![],
            init,
            property,
        };
        match check_bounded(&mut tm, &system, 4, &DecideOptions::default()) {
            BmcResult::CounterexampleAt { step, .. } => assert_eq!(step, 1),
            other => panic!("alu output need not equal the seed: {other:?}"),
        }
    }

    #[test]
    fn budgets_propagate() {
        let mut tm = TermManager::new();
        let x = tm.int_var("x");
        let vars: Vec<_> = (0..9).map(|i| tm.int_var(&format!("v{i}"))).collect();
        // A property that is valid but needs search: the negated
        // pigeonhole-style constraint from the failure-mode tests.
        let zero = tm.int_var("zero");
        let mut conj = Vec::new();
        for &v in &vars {
            conj.push(tm.mk_ge(v, zero));
            let hi = tm.mk_offset(zero, 7);
            conj.push(tm.mk_le(v, hi));
        }
        for i in 0..vars.len() {
            for j in i + 1..vars.len() {
                conj.push(tm.mk_ne(vars[i], vars[j]));
            }
        }
        let all = tm.mk_and_many(&conj);
        let property = tm.mk_not(all);
        let init = tm.mk_eq(x, zero);
        let system = TransitionSystem {
            state: vec![x],
            next: vec![x],
            inputs: vec![],
            init,
            property,
        };
        let mut options = DecideOptions::default();
        options.conflict_budget = Some(1);
        match check_bounded(&mut tm, &system, 2, &options) {
            BmcResult::Unknown { .. } | BmcResult::Bounded(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
