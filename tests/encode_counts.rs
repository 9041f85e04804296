//! Equivalence gate for the translation: encode-level work counters of
//! every checked-in benchmark under SD, EIJ and HYBRID(700), recorded in
//! `results/encode_counts.csv`.
//!
//! Each row holds the encode outcome (`ok`, or `budget-exceeded` under
//! the default transitivity budget with no deadline), the class split,
//! the predicate-variable, transitivity-clause and gate counts, and for
//! SD the CNF clause count after loading. These counters do not depend on
//! hash iteration order, so a changed row is a changed encoding. EIJ and
//! HYBRID CNF clause counts are left out because they do.
//!
//! The default test checks the light benchmarks. The ignored test checks
//! all 147 rows; run it in release:
//! `cargo test --release --test encode_counts -- --ignored`. After an
//! intended encoding change, delete the file and run the ignored test to
//! record it again.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use sufsat::encode::{encode, load_into_solver, EncodeOptions, EncodingMode};
use sufsat::sat::Solver;
use sufsat::seplog::SepAnalysis;
use sufsat::suf::{eliminate, parse_problem, TermManager};

const HEADER: &str =
    "benchmark,mode,outcome,sd_classes,eij_classes,pred_vars,trans_clauses,gates,cnf_clauses";

/// The smallest members of every family: quick even in a debug build.
const LIGHT: &[&str] = &[
    "cache-4s4",
    "cache-6s8",
    "dlx-3x2",
    "dlx-4x3",
    "driver-16",
    "driver-28",
    "lsu-3",
    "lsu-5",
    "ooo-6d2",
    "tv-30",
    "tv-50",
];

const MODES: [(&str, EncodingMode); 3] = [
    ("sd", EncodingMode::Sd),
    ("eij", EncodingMode::Eij),
    ("hybrid700", EncodingMode::Hybrid(700)),
];

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// The checked-in benchmarks as `(name, path)`, in name order.
fn benchmarks() -> Vec<(String, PathBuf)> {
    let mut out: Vec<(String, PathBuf)> = std::fs::read_dir(repo_path("benchmarks"))
        .expect("benchmarks directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "suf"))
        .map(|p| {
            let name = p
                .file_stem()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, p)
        })
        .collect();
    out.sort();
    out
}

/// The CSV rows of one benchmark, one per mode.
fn rows(name: &str, path: &Path) -> Vec<String> {
    let src = std::fs::read_to_string(path).expect("readable benchmark");
    let mut tm = TermManager::new();
    let phi = parse_problem(&mut tm, &src).expect("benchmark parses");
    let elim = eliminate(&mut tm, phi);
    let analysis = SepAnalysis::new(&tm, elim.formula, &elim.p_vars);
    MODES
        .iter()
        .map(|&(label, mode)| {
            let options = EncodeOptions {
                mode,
                ..EncodeOptions::default()
            };
            match encode(&tm, elim.formula, &analysis, &options) {
                Err(_) => format!("{name},{label},budget-exceeded,-,-,-,-,-,-"),
                Ok(encoded) => {
                    let cnf = if mode == EncodingMode::Sd {
                        let mut solver = Solver::new();
                        load_into_solver(
                            &encoded.circuit,
                            &[!encoded.formula],
                            &encoded.trans_clauses,
                            options.cnf,
                            &mut solver,
                        );
                        solver.stats().original_clauses.to_string()
                    } else {
                        "-".to_owned()
                    };
                    let s = &encoded.stats;
                    format!(
                        "{name},{label},ok,{},{},{},{},{},{cnf}",
                        s.sd_classes, s.eij_classes, s.pred_vars, s.trans_clauses, s.gates
                    )
                }
            }
        })
        .collect()
}

fn recorded() -> Option<String> {
    std::fs::read_to_string(repo_path("results/encode_counts.csv")).ok()
}

#[test]
fn light_benchmarks_match_recorded_counts() {
    let recorded = recorded().expect("results/encode_counts.csv is checked in");
    let mut checked = 0usize;
    for (name, path) in benchmarks() {
        if !LIGHT.contains(&name.as_str()) {
            continue;
        }
        for row in rows(&name, &path) {
            let key = row.split(',').take(2).collect::<Vec<_>>().join(",") + ",";
            let want = recorded
                .lines()
                .find(|l| l.starts_with(&key))
                .unwrap_or_else(|| panic!("no recorded row for {key}"));
            assert_eq!(row, want, "encode counts changed");
            checked += 1;
        }
    }
    assert_eq!(checked, LIGHT.len() * MODES.len());
}

#[test]
#[ignore = "all 147 rows; run in release (scripts/ci.sh does)"]
fn all_benchmarks_match_recorded_counts() {
    let mut csv = String::new();
    writeln!(csv, "{HEADER}").unwrap();
    for (name, path) in benchmarks() {
        for row in rows(&name, &path) {
            writeln!(csv, "{row}").unwrap();
        }
    }
    assert_eq!(csv.lines().count(), 1 + 49 * MODES.len());
    match recorded() {
        Some(recorded) => {
            for (got, want) in csv.lines().zip(recorded.lines()) {
                assert_eq!(got, want, "encode counts changed");
            }
            assert_eq!(csv, recorded, "encode counts file differs");
        }
        None => std::fs::write(repo_path("results/encode_counts.csv"), csv)
            .expect("write results/encode_counts.csv"),
    }
}
