//! Application elimination with persistent instance tables: the one
//! rewrite behind both [`eliminate`](crate::eliminate) and incremental
//! sessions.
//!
//! [`eliminate`](crate::eliminate) runs a fresh [`IncrementalElim`] once
//! and then classifies `V_p` from the polarity of that one formula. A
//! session asserts formulas one at a time and keeps one
//! [`IncrementalElim`] for its whole life, because the instance tables
//! must *persist*:
//!
//! * functional consistency must hold **across** assertions — `f(x)`
//!   asserted in one frame and `f(y)` in a later one must still satisfy
//!   `x = y ⇒ f(x) = f(y)`, which requires the later chain to compare
//!   against the earlier instance;
//! * re-eliminating from scratch would mint different fresh constants for
//!   the same application, invalidating every cached encoding downstream.
//!
//! The rewrite cache keyed by original term id makes re-assertion of a
//! popped formula free. Chains cached from earlier assertions may mention
//! instances whose asserting frames were since popped; that is sound — a
//! chain over a *superset* of the live instances is exactly the
//! elimination of a formula containing those extra applications in dead
//! positions, and the extra fresh constants are unconstrained.
//!
//! The rewrite itself is purely structural. The p-classification depends
//! on the whole asserted conjunction, so a session recomputes it per
//! check (see [`IncrementalElim::p_fresh_vars`]) and falls back to
//! re-encoding when a commitment flips.

use std::collections::{HashMap, HashSet};

use crate::elim::ElimResult;
use crate::polarity::PolarityInfo;
use crate::term::{FunSym, PredSym, Term, TermId, TermManager, VarSym};

/// Monotone elimination state shared by every assertion of a session.
#[derive(Debug, Clone, Default)]
pub struct IncrementalElim {
    /// Rewrite cache: original term → application-free term.
    cache: HashMap<TermId, TermId>,
    /// Per function symbol, every application instance in elimination
    /// order (eliminated argument terms, fresh constant term).
    fun_instances: HashMap<FunSym, Vec<(Vec<TermId>, TermId)>>,
    /// Per predicate symbol, every application instance in elimination
    /// order.
    pred_instances: HashMap<PredSym, Vec<(Vec<TermId>, TermId)>>,
    /// For each fresh integer constant: the application instance it names.
    fresh_int_origin: HashMap<VarSym, (FunSym, usize)>,
    num_fresh_int: usize,
    num_fresh_bool: usize,
}

impl IncrementalElim {
    /// An empty elimination state.
    pub fn new() -> IncrementalElim {
        IncrementalElim::default()
    }

    /// Eliminates all applications from `root`, reusing cached rewrites
    /// and extending the shared instance tables. Purely structural: no
    /// polarity classification happens here.
    pub fn eliminate(&mut self, tm: &mut TermManager, root: TermId) -> TermId {
        if let Some(&cached) = self.cache.get(&root) {
            return cached;
        }
        for id in tm.postorder(root) {
            if self.cache.contains_key(&id) {
                continue;
            }
            let get = |m: &HashMap<TermId, TermId>, c: TermId| -> TermId {
                *m.get(&c).expect("children mapped before parents")
            };
            let new_id = match tm.term(id).clone() {
                Term::True => tm.mk_true(),
                Term::False => tm.mk_false(),
                Term::Not(a) => {
                    let a = get(&self.cache, a);
                    tm.mk_not(a)
                }
                Term::And(a, b) => {
                    let (a, b) = (get(&self.cache, a), get(&self.cache, b));
                    tm.mk_and(a, b)
                }
                Term::Or(a, b) => {
                    let (a, b) = (get(&self.cache, a), get(&self.cache, b));
                    tm.mk_or(a, b)
                }
                Term::Implies(a, b) => {
                    let (a, b) = (get(&self.cache, a), get(&self.cache, b));
                    tm.mk_implies(a, b)
                }
                Term::Iff(a, b) => {
                    let (a, b) = (get(&self.cache, a), get(&self.cache, b));
                    tm.mk_iff(a, b)
                }
                Term::IteBool(c, t, e) => {
                    let (c, t, e) = (
                        get(&self.cache, c),
                        get(&self.cache, t),
                        get(&self.cache, e),
                    );
                    tm.mk_ite_bool(c, t, e)
                }
                Term::Eq(a, b) => {
                    let (a, b) = (get(&self.cache, a), get(&self.cache, b));
                    tm.mk_eq(a, b)
                }
                Term::Lt(a, b) => {
                    let (a, b) = (get(&self.cache, a), get(&self.cache, b));
                    tm.mk_lt(a, b)
                }
                Term::BoolVar(_) | Term::IntVar(_) => id,
                Term::Succ(a) => {
                    let a = get(&self.cache, a);
                    tm.mk_succ(a)
                }
                Term::Pred(a) => {
                    let a = get(&self.cache, a);
                    tm.mk_pred(a)
                }
                Term::IteInt(c, t, e) => {
                    let (c, t, e) = (
                        get(&self.cache, c),
                        get(&self.cache, t),
                        get(&self.cache, e),
                    );
                    tm.mk_ite_int(c, t, e)
                }
                Term::App(f, args) => {
                    let args: Vec<TermId> = args.iter().map(|&a| get(&self.cache, a)).collect();
                    let instances = self.fun_instances.entry(f).or_default();
                    let instance_index = instances.len();
                    let fname = tm.fun_name(f).to_owned();
                    let fresh = tm.fresh_int_var(&format!("vf!{fname}"));
                    self.num_fresh_int += 1;
                    let Term::IntVar(sym) = *tm.term(fresh) else {
                        unreachable!("fresh_int_var returns an IntVar")
                    };
                    self.fresh_int_origin.insert(sym, (f, instance_index));
                    let prior = instances.clone();
                    instances.push((args.clone(), fresh));
                    build_ite_chain(tm, &args, &prior, fresh, true)
                }
                Term::PApp(p, args) => {
                    let args: Vec<TermId> = args.iter().map(|&a| get(&self.cache, a)).collect();
                    let instances = self.pred_instances.entry(p).or_default();
                    let pname = tm.pred_name(p).to_owned();
                    let fresh = tm.fresh_bool_var(&format!("vp!{pname}"));
                    self.num_fresh_bool += 1;
                    let prior = instances.clone();
                    instances.push((args.clone(), fresh));
                    build_ite_chain(tm, &args, &prior, fresh, false)
                }
            };
            self.cache.insert(id, new_id);
        }
        self.cache[&root]
    }

    /// The fresh integer constants whose originating function is a
    /// p-function under the given (per-check) polarity classification.
    /// Together with `polarity.p_vars()` this forms the session's `V_p`.
    pub fn p_fresh_vars(&self, polarity: &PolarityInfo) -> HashSet<VarSym> {
        self.fresh_int_origin
            .iter()
            .filter(|(_, (f, _))| polarity.is_p_fun(*f))
            .map(|(&v, _)| v)
            .collect()
    }

    /// Per function symbol, every application instance in elimination
    /// order (see [`crate::ElimResult::fun_instances`]).
    pub fn fun_instances(&self) -> &HashMap<FunSym, Vec<(Vec<TermId>, TermId)>> {
        &self.fun_instances
    }

    /// Per predicate symbol, every application instance in elimination
    /// order.
    pub fn pred_instances(&self) -> &HashMap<PredSym, Vec<(Vec<TermId>, TermId)>> {
        &self.pred_instances
    }

    /// For each fresh integer constant: the application instance it names.
    pub fn fresh_int_origin(&self) -> &HashMap<VarSym, (FunSym, usize)> {
        &self.fresh_int_origin
    }

    /// Fresh integer constants introduced so far.
    pub fn num_fresh_int(&self) -> usize {
        self.num_fresh_int
    }

    /// Fresh Boolean constants introduced so far.
    pub fn num_fresh_bool(&self) -> usize {
        self.num_fresh_bool
    }

    /// The one-shot result for `formula`, the elimination of a single
    /// root: `V_p` is `polarity`'s p-constants plus the fresh constants of
    /// p-functions.
    pub(crate) fn into_result(self, formula: TermId, polarity: PolarityInfo) -> ElimResult {
        let mut p_vars = polarity.p_vars().clone();
        p_vars.extend(self.p_fresh_vars(&polarity));
        ElimResult {
            formula,
            p_vars,
            fresh_int_origin: self.fresh_int_origin,
            fun_instances: self.fun_instances,
            pred_instances: self.pred_instances,
            num_fresh_int: self.num_fresh_int,
            num_fresh_bool: self.num_fresh_bool,
            polarity,
        }
    }
}

/// Builds `ITE(args = prior₁.args, prior₁.v, ITE(…, fresh))`.
fn build_ite_chain(
    tm: &mut TermManager,
    args: &[TermId],
    prior: &[(Vec<TermId>, TermId)],
    fresh: TermId,
    int_sorted: bool,
) -> TermId {
    let mut result = fresh;
    for (prev_args, prev_val) in prior.iter().rev() {
        let eqs: Vec<TermId> = args
            .iter()
            .zip(prev_args)
            .map(|(&a, &b)| tm.mk_eq(a, b))
            .collect();
        let cond = tm.mk_and_many(&eqs);
        result = if int_sorted {
            tm.mk_ite_int(cond, *prev_val, result)
        } else {
            tm.mk_ite_bool(cond, *prev_val, result)
        };
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::contains_applications;
    use crate::polarity::analyze_polarity;

    #[test]
    fn instances_persist_across_eliminations() {
        let mut tm = TermManager::new();
        let f = tm.declare_fun("f", 1);
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let fx = tm.mk_app(f, vec![x]);
        let fy = tm.mk_app(f, vec![y]);
        let a1 = tm.mk_lt(fx, y);
        let a2 = tm.mk_lt(fy, x);

        let mut elim = IncrementalElim::new();
        let e1 = elim.eliminate(&mut tm, a1);
        assert!(!contains_applications(&tm, e1));
        assert_eq!(elim.num_fresh_int(), 1);

        // The second assertion's f(y) must chain against f(x) from the
        // first, preserving cross-assertion functional consistency.
        let e2 = elim.eliminate(&mut tm, a2);
        assert!(!contains_applications(&tm, e2));
        assert_eq!(elim.num_fresh_int(), 2);
        assert_eq!(elim.fun_instances()[&f].len(), 2);
        let s = crate::print::print_term(&tm, e2);
        assert!(s.contains("ite"), "second instance chains: {s}");
        assert!(s.contains("vf!f!0") && s.contains("vf!f!1"), "{s}");
    }

    #[test]
    fn repeat_elimination_is_cached_and_stable() {
        let mut tm = TermManager::new();
        let f = tm.declare_fun("f", 1);
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let fx = tm.mk_app(f, vec![x]);
        let phi = tm.mk_eq(fx, y);
        let mut elim = IncrementalElim::new();
        let e1 = elim.eliminate(&mut tm, phi);
        let e2 = elim.eliminate(&mut tm, phi);
        assert_eq!(e1, e2, "re-assertion after a pop reuses the rewrite");
        assert_eq!(elim.num_fresh_int(), 1, "no duplicate instance");
    }

    #[test]
    fn p_classification_is_per_conjunction() {
        let mut tm = TermManager::new();
        let f = tm.declare_fun("f", 1);
        let x = tm.int_var("x");
        let y = tm.int_var("y");
        let fx = tm.mk_app(f, vec![x]);
        let fy = tm.mk_app(f, vec![y]);
        let pos = tm.mk_eq(fx, fy); // f positive here
        let neg = tm.mk_lt(fx, y); // f under an inequality here

        let mut elim = IncrementalElim::new();
        elim.eliminate(&mut tm, pos);
        // Under `pos` alone, f is a p-function: both constants in V_p.
        let pol_pos = analyze_polarity(&tm, pos);
        assert_eq!(elim.p_fresh_vars(&pol_pos).len(), 2);
        // Under the conjunction with the inequality, f drops to g.
        elim.eliminate(&mut tm, neg);
        let conj = tm.mk_and(pos, neg);
        let pol_conj = analyze_polarity(&tm, conj);
        assert!(elim.p_fresh_vars(&pol_conj).is_empty());
    }
}
