//! Micro-benchmarks of the CDCL SAT solver substrate, including the
//! heuristic ablations called out in DESIGN.md (§8.3).
//!
//! Runs in smoke mode by default; set `SUFSAT_BENCH_FULL=1` for timed
//! statistics (see `sufsat_bench::microbench`).

use sufsat_bench::microbench::Runner;
use sufsat_sat::{Config, Lit, SolveResult, Solver, Var};

/// Pigeonhole PHP(n+1, n) clauses.
#[allow(clippy::needless_range_loop)]
fn pigeonhole(solver: &mut Solver, holes: usize) {
    let pigeons = holes + 1;
    let grid: Vec<Vec<Var>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| solver.new_var()).collect())
        .collect();
    for row in &grid {
        solver.add_clause(row.iter().map(|v| v.positive()));
    }
    for p1 in 0..pigeons {
        for p2 in p1 + 1..pigeons {
            for h in 0..holes {
                solver.add_clause([grid[p1][h].negative(), grid[p2][h].negative()]);
            }
        }
    }
}

/// A satisfiable pseudo-random 3-SAT instance at ratio ~4.0.
fn random_3sat(solver: &mut Solver, n_vars: usize, seed: u64) {
    let vars: Vec<Var> = (0..n_vars).map(|_| solver.new_var()).collect();
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Plant a solution so instances stay satisfiable.
    let planted: Vec<bool> = (0..n_vars).map(|_| next() & 1 == 1).collect();
    let n_clauses = n_vars * 4;
    for _ in 0..n_clauses {
        let mut lits = Vec::with_capacity(3);
        for _ in 0..3 {
            let v = (next() as usize) % n_vars;
            let pos = next() & 1 == 1;
            lits.push(Lit::new(vars[v], pos));
        }
        // Flip one literal to agree with the planted model if needed.
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

fn bench_pigeonhole(r: &Runner) {
    for holes in [6usize, 7] {
        r.bench(&format!("sat/pigeonhole/php{holes}"), || {
            let mut solver = Solver::new();
            pigeonhole(&mut solver, holes);
            assert_eq!(solver.solve(), SolveResult::Unsat);
            solver.stats().conflicts
        });
    }
}

fn bench_random_3sat(r: &Runner) {
    for n in [100usize, 200] {
        r.bench(&format!("sat/random3sat/n{n}"), || {
            let mut solver = Solver::new();
            random_3sat(&mut solver, n, 42);
            assert_eq!(solver.solve(), SolveResult::Sat);
            solver.stats().decisions
        });
    }
}

/// Ablation: phase saving / restarts / DB reduction on-off (DESIGN.md §8.3).
fn bench_sat_ablation(r: &Runner) {
    let variants: Vec<(&str, Config)> = vec![
        ("default", Config::default()),
        (
            "no-restarts",
            Config {
                restarts: false,
                ..Config::default()
            },
        ),
        (
            "no-phase-saving",
            Config {
                phase_saving: false,
                ..Config::default()
            },
        ),
        (
            "no-reduce",
            Config {
                reduce_db: false,
                ..Config::default()
            },
        ),
    ];
    for (name, config) in variants {
        r.bench(&format!("sat/ablation/{name}"), || {
            let mut solver = Solver::with_config(config.clone());
            pigeonhole(&mut solver, 6);
            assert_eq!(solver.solve(), SolveResult::Unsat);
            solver.stats().conflicts
        });
    }
}

fn main() {
    let runner = Runner::from_env();
    bench_pigeonhole(&runner);
    bench_random_3sat(&runner);
    bench_sat_ablation(&runner);
}
