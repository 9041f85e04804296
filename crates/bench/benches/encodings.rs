//! Micro-benchmarks of the encoding pipeline: SD vs EIJ vs HYBRID per
//! benchmark family (the per-figure wall-clock measurements live in the
//! `paper-eval` binary; these benches track the encoder itself), plus the
//! ablations called out in DESIGN.md §8: Tseitin vs Plaisted–Greenbaum and
//! positive-equality exploitation on/off.
//!
//! Runs in smoke mode by default; set `SUFSAT_BENCH_FULL=1` for timed
//! statistics (see `sufsat_bench::microbench`).

use std::collections::HashSet;
use std::time::Duration;

use sufsat_bench::microbench::Runner;
use sufsat_bench::{run, Method};
use sufsat_core::{decide, CnfMode, DecideOptions, EncodingMode};
use sufsat_encode::{encode, EncodeOptions};
use sufsat_seplog::SepAnalysis;
use sufsat_suf::eliminate;
use sufsat_workloads::{ooo_invariant, pipeline, translation_validation};

fn bench_encode_modes(r: &Runner) {
    for mode in [
        EncodingMode::Sd,
        EncodingMode::Eij,
        EncodingMode::Hybrid(50),
    ] {
        // Pre-eliminate once; measure encoding alone.
        let mut bench = ooo_invariant(8, 2);
        let elim = eliminate(&mut bench.tm, bench.formula);
        let analysis = SepAnalysis::new(&bench.tm, elim.formula, &elim.p_vars);
        let opts = EncodeOptions {
            mode,
            ..EncodeOptions::default()
        };
        r.bench(&format!("encode/modes/{mode:?}"), || {
            let encoded = encode(&bench.tm, elim.formula, &analysis, &opts).expect("budget");
            encoded.stats.gates
        });
    }
}

fn bench_end_to_end(r: &Runner) {
    type MakeBench = fn() -> sufsat_workloads::Benchmark;
    let cases: Vec<(&str, MakeBench)> = vec![
        ("pipeline", || pipeline(4, 3, 7)),
        ("ooo", || ooo_invariant(8, 2)),
        ("tv", || translation_validation(30, 2, 7)),
    ];
    for (name, make) in cases {
        for method in [Method::Sd, Method::Eij, Method::Hybrid(50)] {
            r.bench(&format!("decide/end-to-end/{name}/{}", method.label()), || {
                let mut bench = make();
                let result = run(&mut bench, method, Duration::from_secs(60));
                result.completed
            });
        }
    }
}

/// Ablation: Tseitin vs Plaisted–Greenbaum CNF conversion (DESIGN.md §8.1).
fn bench_cnf_ablation(r: &Runner) {
    for cnf in [CnfMode::Tseitin, CnfMode::PlaistedGreenbaum] {
        r.bench(&format!("decide/cnf-ablation/{cnf:?}"), || {
            let mut bench = pipeline(6, 3, 7);
            let mut options = DecideOptions::with_mode(EncodingMode::Sd);
            options.cnf = cnf;
            let d = decide(&mut bench.tm, bench.formula, &options);
            assert!(d.outcome.is_valid());
            d.stats.cnf_clauses
        });
    }
}

/// Ablation: positive equality on/off — treating every constant as `V_g`
/// (DESIGN.md §8.2). "Off" forces the analysis to drop `V_p`.
fn bench_peq_ablation(r: &Runner) {
    for keep_p in [true, false] {
        let label = if keep_p {
            "positive-equality"
        } else {
            "all-general"
        };
        let mut bench = pipeline(6, 3, 9);
        let elim = eliminate(&mut bench.tm, bench.formula);
        let p_vars = if keep_p {
            elim.p_vars.clone()
        } else {
            HashSet::new()
        };
        let analysis = SepAnalysis::new(&bench.tm, elim.formula, &p_vars);
        let opts = EncodeOptions {
            mode: EncodingMode::Sd,
            ..EncodeOptions::default()
        };
        r.bench(&format!("encode/peq-ablation/{label}"), || {
            let encoded = encode(&bench.tm, elim.formula, &analysis, &opts).expect("budget");
            encoded.stats.gates
        });
    }
}

fn main() {
    let runner = Runner::from_env();
    bench_encode_modes(&runner);
    bench_end_to_end(&runner);
    bench_cnf_ablation(&runner);
    bench_peq_ablation(&runner);
}
