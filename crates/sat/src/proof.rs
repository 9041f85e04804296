//! DRAT proof logging.
//!
//! When enabled via [`Solver::enable_proof`](crate::Solver::enable_proof),
//! the solver records every derived clause (conflict clauses, simplified
//! input clauses, the final empty clause) and every learnt-clause deletion
//! in DRAT order. UNSAT answers can then be independently validated —
//! either with an external checker via [`Proof::write_drat`], or with the
//! built-in forward RUP checker used by the test suite.

use std::io::Write;

use crate::lit::Lit;

/// One step of a DRAT proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofStep {
    /// A derived clause (reverse-unit-propagation redundant).
    Add(Vec<Lit>),
    /// A clause deletion.
    Delete(Vec<Lit>),
}

/// A recorded DRAT proof.
#[derive(Debug, Clone, Default)]
pub struct Proof {
    steps: Vec<ProofStep>,
}

impl Proof {
    pub(crate) fn new() -> Proof {
        Proof::default()
    }

    pub(crate) fn add(&mut self, clause: &[Lit]) {
        self.steps.push(ProofStep::Add(clause.to_vec()));
    }

    pub(crate) fn delete(&mut self, clause: &[Lit]) {
        self.steps.push(ProofStep::Delete(clause.to_vec()));
    }

    /// The recorded steps, in derivation order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Whether the proof ends in the empty clause (a refutation).
    pub fn is_refutation(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, ProofStep::Add(c) if c.is_empty()))
    }

    /// Writes the proof in the textual DRAT format (`d` lines for
    /// deletions, literals in DIMACS numbering, `0` terminated).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_drat<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        for step in &self.steps {
            let (prefix, clause) = match step {
                ProofStep::Add(c) => ("", c),
                ProofStep::Delete(c) => ("d ", c),
            };
            write!(writer, "{prefix}")?;
            for &l in clause {
                let v = l.var().index() as i64 + 1;
                write!(writer, "{} ", if l.is_positive() { v } else { -v })?;
            }
            writeln!(writer, "0")?;
        }
        Ok(())
    }
}

/// Forward RUP check of `proof` against the original clauses.
///
/// Returns `true` iff every added clause is reverse-unit-propagation
/// redundant with respect to the clauses live at that point, and the proof
/// derives the empty clause. Intended for validation at test scale — the
/// propagation is a simple fixpoint scan, not watched literals.
pub fn check_refutation(original: &[Vec<Lit>], proof: &Proof) -> bool {
    check_refutation_until(original, proof, || false) == Some(true)
}

/// [`check_refutation`] that gives up with `None` once `stop` returns
/// true; `stop` is polled before every proof step.
pub(crate) fn check_refutation_until(
    original: &[Vec<Lit>],
    proof: &Proof,
    stop: impl Fn() -> bool,
) -> Option<bool> {
    let mut db: Vec<Vec<Lit>> = original.iter().map(|c| normalize(c)).collect();
    for step in proof.steps() {
        if stop() {
            return None;
        }
        match step {
            ProofStep::Add(clause) => {
                if !rup(&db, clause) {
                    return Some(false);
                }
                if clause.is_empty() {
                    return Some(true);
                }
                db.push(normalize(clause));
            }
            ProofStep::Delete(clause) => {
                let key = normalize(clause);
                if let Some(pos) = db.iter().position(|c| *c == key) {
                    db.swap_remove(pos);
                }
            }
        }
    }
    Some(false)
}

fn normalize(clause: &[Lit]) -> Vec<Lit> {
    let mut c = clause.to_vec();
    c.sort_unstable();
    c.dedup();
    c
}

/// Reverse unit propagation: asserting the negation of `clause` and unit
/// propagating over `db` must yield a conflict.
fn rup(db: &[Vec<Lit>], clause: &[Lit]) -> bool {
    // Assignment: literal -> bool (true literal set).
    let mut assigned: std::collections::HashMap<Lit, bool> = std::collections::HashMap::new();
    let set_true = |l: Lit, assigned: &mut std::collections::HashMap<Lit, bool>| -> bool {
        if assigned.get(&!l).copied().unwrap_or(false) {
            return false; // conflict
        }
        assigned.insert(l, true);
        true
    };
    for &l in clause {
        if !set_true(!l, &mut assigned) {
            return true; // the negation is itself contradictory
        }
    }
    loop {
        let mut changed = false;
        for c in db {
            let mut unassigned: Option<Lit> = None;
            let mut satisfied = false;
            let mut unit = true;
            for &l in c {
                if assigned.get(&l).copied().unwrap_or(false) {
                    satisfied = true;
                    break;
                }
                if !assigned.get(&!l).copied().unwrap_or(false) {
                    if unassigned.is_some() {
                        unit = false;
                        break;
                    }
                    unassigned = Some(l);
                }
            }
            if satisfied || !unit {
                continue;
            }
            match unassigned {
                None => return true, // conflict: all literals false
                Some(l) => {
                    if !set_true(l, &mut assigned) {
                        return true;
                    }
                    changed = true;
                }
            }
        }
        if !changed {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn l(x: i32) -> Lit {
        Lit::new(Var::from_index(x.unsigned_abs() as usize - 1), x > 0)
    }

    fn cl(xs: &[i32]) -> Vec<Lit> {
        xs.iter().map(|&x| l(x)).collect()
    }

    #[test]
    fn rup_detects_resolvents() {
        // (1 2), (-1 2) |= (2) by RUP.
        let db = vec![cl(&[1, 2]), cl(&[-1, 2])];
        assert!(rup(&db, &cl(&[2])));
        assert!(!rup(&db, &cl(&[1])), "(1) is not implied");
    }

    #[test]
    fn hand_built_refutation_checks() {
        // x1, -x1: the empty clause is directly RUP.
        let original = vec![cl(&[1]), cl(&[-1])];
        let mut proof = Proof::new();
        proof.add(&[]);
        assert!(check_refutation(&original, &proof));
    }

    #[test]
    fn missing_empty_clause_fails() {
        let original = vec![cl(&[1]), cl(&[-1])];
        let proof = Proof::new();
        assert!(!check_refutation(&original, &proof));
    }

    #[test]
    fn bogus_addition_fails() {
        let original = vec![cl(&[1, 2])];
        let mut proof = Proof::new();
        proof.add(&cl(&[-1])); // not RUP from (1 2)
        proof.add(&[]);
        assert!(!check_refutation(&original, &proof));
    }

    #[test]
    fn drat_text_round_trip_shape() {
        let mut proof = Proof::new();
        proof.add(&cl(&[1, -2]));
        proof.delete(&cl(&[1, -2]));
        proof.add(&[]);
        let mut out = Vec::new();
        proof.write_drat(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text, "1 -2 0\nd 1 -2 0\n0\n");
        assert!(proof.is_refutation());
    }
}
