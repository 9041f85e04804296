//! `sufsat-sat` — a standalone DIMACS CNF solver over the workspace's CDCL
//! engine, usable as a drop-in SAT solver for external tooling.
//!
//! ```text
//! sufsat-sat [--conflicts N] [--timeout SECS] [FILE.cnf]
//! ```
//!
//! Prints `s SATISFIABLE` with a `v …` model line, `s UNSATISFIABLE`, or
//! `s UNKNOWN`, following the SAT-competition output conventions.
//! A `c` line follows with the search counters, named as the columns of
//! `results/sat_trajectories.csv`, and the solve time.
//! Exit codes: 10 sat, 20 unsat, 0 unknown, 2 usage/parse error.

use std::io::Read;
use std::time::Duration;

use sufsat_sat::dimacs::Cnf;
use sufsat_sat::{SolveResult, Var};

fn main() {
    let mut conflicts: Option<u64> = None;
    let mut timeout: Option<Duration> = None;
    let mut file: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--conflicts" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--conflicts needs a value"));
                conflicts = Some(v.parse().unwrap_or_else(|_| die("bad --conflicts")));
            }
            "--timeout" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| die("--timeout needs a value"));
                let secs: f64 = v.parse().unwrap_or_else(|_| die("bad --timeout"));
                timeout = Some(Duration::from_secs_f64(secs));
            }
            "--help" | "-h" => {
                println!("usage: sufsat-sat [--conflicts N] [--timeout SECS] [FILE.cnf]");
                return;
            }
            other if !other.starts_with('-') => file = Some(other.to_owned()),
            other => die(&format!("unknown option `{other}`")),
        }
    }

    let text = match &file {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}"))),
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .unwrap_or_else(|e| die(&format!("cannot read stdin: {e}")));
            buf
        }
    };
    let cnf = Cnf::parse(text.as_bytes()).unwrap_or_else(|e| die(&e.to_string()));
    let mut solver = cnf.to_solver();
    solver.set_conflict_budget(conflicts);
    solver.set_timeout(timeout);
    match solver.solve() {
        SolveResult::Sat => {
            println!("s SATISFIABLE");
            let mut line = String::from("v");
            for i in 0..cnf.num_vars {
                let v = Var::from_index(i);
                let value = solver.model_value(v).unwrap_or(false);
                line.push_str(&format!(" {}{}", if value { "" } else { "-" }, i + 1));
            }
            line.push_str(" 0");
            println!("{line}");
            print_stats(&solver);
            std::process::exit(10);
        }
        SolveResult::Unsat => {
            println!("s UNSATISFIABLE");
            print_stats(&solver);
            std::process::exit(20);
        }
        SolveResult::Unknown(_) => {
            println!("s UNKNOWN");
            print_stats(&solver);
        }
    }
}

fn print_stats(solver: &sufsat_sat::Solver) {
    let s = solver.stats();
    println!(
        "c conflicts={} decisions={} propagations={} learnt_literals={} restarts={} \
         reductions={} gc_runs={} time={:.3}s",
        s.conflicts,
        s.decisions,
        s.propagations,
        s.learnt_literals,
        s.restarts,
        s.reductions,
        s.gc_runs,
        s.solve_time.as_secs_f64()
    );
}

fn die(msg: &str) -> ! {
    eprintln!("sufsat-sat: {msg}");
    std::process::exit(2);
}
