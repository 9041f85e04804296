//! Trajectory gate for the CDCL core: the search counters of fixed
//! instances, recorded in `results/sat_trajectories.csv`.
//!
//! A change that only makes the solver faster must leave every counter of
//! every row as recorded: verdict, conflicts, decisions, propagations,
//! learnt literals, restarts, DB reductions and arena collections, plus
//! the failed-assumption set of the assumption case. These counters follow
//! from the clause order and the search alone, so a moved counter means
//! the search itself changed. A change that means to alter the search
//! deletes the file, runs this test to record it again, and says why.
//!
//! The instances are pigeonhole formulas, planted random 3-SAT (the
//! generator of `crates/bench/benches/sat_solver.rs`), one
//! `solve_with_assumptions` call, and four suite encodings dumped once to
//! `tests/cnf/`. The encoder's CNF still varies from run to run, so the
//! suite rows read the dumped files rather than encoding afresh. They go
//! through `Cnf::to_solver`, the path `sufsat-sat` takes, so the release
//! binary can be held to the same rows (`scripts/ci.sh`).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sufsat::sat::dimacs::Cnf;
use sufsat::sat::{Lit, SolveResult, Solver, Var};

const HEADER: &str = "instance,verdict,conflicts,decisions,propagations,\
                      learnt_literals,restarts,reductions,gc_runs,failed";

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Pigeonhole PHP(holes + 1, holes): unsatisfiable.
fn pigeonhole(solver: &mut Solver, holes: usize, guard: &[Lit]) {
    let pigeons = holes + 1;
    let grid: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    let negated_guard = guard.iter().map(|&g| !g);
    for row in &grid {
        solver.add_clause(negated_guard.clone().chain(row.iter().map(|v| v.positive())));
    }
    for p1 in 0..pigeons {
        for p2 in p1 + 1..pigeons {
            for h in 0..holes {
                solver.add_clause(
                    negated_guard
                        .clone()
                        .chain([grid[p1][h].negative(), grid[p2][h].negative()]),
                );
            }
        }
    }
}

/// A satisfiable random 3-SAT instance at clause ratio 4 with a planted
/// model (the generator of the solver micro-benchmarks).
fn random_3sat(solver: &mut Solver, n_vars: usize, seed: u64) {
    let vars: Vec<Var> = (0..n_vars).map(|_| solver.new_var()).collect();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let planted: Vec<bool> = (0..n_vars).map(|_| next() & 1 == 1).collect();
    for _ in 0..n_vars * 4 {
        let mut lits = Vec::with_capacity(3);
        for _ in 0..3 {
            let v = (next() as usize) % n_vars;
            let pos = next() & 1 == 1;
            lits.push(Lit::new(vars[v], pos));
        }
        if !lits
            .iter()
            .any(|l| planted[l.var().index()] == l.is_positive())
        {
            let v = lits[0].var();
            lits[0] = Lit::new(v, planted[v.index()]);
        }
        solver.add_clause(lits);
    }
}

/// One CSV row: the verdict and counters of a finished solve.
fn row(name: &str, result: &SolveResult, solver: &Solver) -> String {
    let verdict = match result {
        SolveResult::Sat => "sat",
        SolveResult::Unsat => "unsat",
        SolveResult::Unknown(_) => "unknown",
    };
    let mut failed: Vec<i64> = solver
        .failed_assumptions()
        .iter()
        .map(|l| {
            let v = l.var().index() as i64 + 1;
            if l.is_positive() {
                v
            } else {
                -v
            }
        })
        .collect();
    failed.sort_unstable();
    let failed = if failed.is_empty() {
        "-".to_owned()
    } else {
        failed.iter().map(i64::to_string).collect::<Vec<_>>().join(" ")
    };
    let s = solver.stats();
    format!(
        "{name},{verdict},{},{},{},{},{},{},{},{failed}",
        s.conflicts,
        s.decisions,
        s.propagations,
        s.learnt_literals,
        s.restarts,
        s.reductions,
        s.gc_runs
    )
}

/// The dumped suite encodings, in file-name order.
fn cnf_files() -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(repo_path("tests/cnf"))
        .expect("tests/cnf directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "cnf"))
        .collect();
    out.sort();
    out
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for holes in 6..=8 {
        let mut solver = Solver::new();
        pigeonhole(&mut solver, holes, &[]);
        let result = solver.solve();
        out.push(row(&format!("php-{}x{holes}", holes + 1), &result, &solver));
    }
    for n in [100, 200] {
        let mut solver = Solver::new();
        random_3sat(&mut solver, n, 42);
        let result = solver.solve();
        out.push(row(&format!("random3sat-n{n}-s42"), &result, &solver));
    }
    // Two guards on every pigeonhole clause and an unrelated literal
    // between them among the assumptions: the answer is unsat under the
    // assumptions, and the failed set names the guards only.
    let mut solver = Solver::new();
    let guards = [solver.new_var().positive(), solver.new_var().positive()];
    let free = solver.new_var().positive();
    pigeonhole(&mut solver, 6, &guards);
    let result = solver.solve_with_assumptions(&[guards[0], free, guards[1]]);
    out.push(row("assume-guarded-php-7x6", &result, &solver));
    for path in cnf_files() {
        let text = std::fs::read(&path).expect("readable CNF");
        let cnf = Cnf::parse(text.as_slice()).expect("valid DIMACS");
        let mut solver = cnf.to_solver();
        let result = solver.solve();
        let name = path.file_stem().expect("file name").to_string_lossy();
        out.push(row(&format!("cnf/{name}"), &result, &solver));
    }
    out
}

#[test]
fn search_counters_match_recorded_trajectories() {
    let mut csv = String::new();
    writeln!(csv, "{HEADER}").unwrap();
    for row in rows() {
        writeln!(csv, "{row}").unwrap();
    }
    let path = repo_path("results/sat_trajectories.csv");
    match std::fs::read_to_string(&path) {
        Ok(recorded) => {
            for (got, want) in csv.lines().zip(recorded.lines()) {
                assert_eq!(got, want, "search trajectory changed");
            }
            assert_eq!(csv, recorded, "trajectory file differs");
        }
        Err(_) => std::fs::write(&path, csv).expect("write results/sat_trajectories.csv"),
    }
}
