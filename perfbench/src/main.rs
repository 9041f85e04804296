//! sufsat benchmark: four seeded workloads, three of them listed in
//! `BENCHMARK.json`, driven through the public API of sufsat's crates,
//! every verdict checked against the answer fixed when its input was
//! built.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sat-search|serve-zipf|bmc-session|eij-translate> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` measures the
//! per-layer metrics, recording a span around each layer call and writing
//! the spans to `perfbench/out/`. The last line of standard output is the
//! result object; the line before it records the seed, a hash of the
//! generated inputs and the build's provenance.

mod batch;
mod bmc;
mod inputs;
mod pipeline;
mod serve;
mod stats;
mod trace;

use std::time::Instant;

use pipeline::WrongVerdict;
use stats::{median, peak_rss_mb, result_line, InputHash, Metrics, Provenance, RunResult};
use trace::Tracer;

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 3] = ["sat-search", "serve-zipf", "bmc-session"];

/// Workloads the program also runs but `BENCHMARK.json` does not list:
/// eij-translate's wall-clock figures swing with the host's memory
/// latency beyond any bound a gate can hold (see the README).
pub const UNLISTED_WORKLOADS: [&str; 1] = ["eij-translate"];

/// End-to-end metrics every untraced run prints.
pub const END_TO_END: [&str; 7] = [
    "throughput_qps",
    "latency_p50_ms",
    "latency_p90_ms",
    "ok_share",
    "capacity_rps",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run prints, with their units. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("suf.parse_ms", "ms"),
    ("suf.eliminate_ms", "ms"),
    ("seplog.analyze_ms", "ms"),
    ("seplog.classes", "count"),
    ("seplog.eij_classes", "count"),
    ("seplog.sd_classes", "count"),
    ("encode.encode_ms", "ms"),
    ("encode.load_cnf_ms", "ms"),
    ("encode.gates", "count"),
    ("encode.trans_clauses", "count"),
    ("encode.trans_clauses.min", "count"),
    ("encode.trans_clauses.max", "count"),
    ("encode.cnf_clauses", "count"),
    ("encode.cnf_clauses.min", "count"),
    ("encode.cnf_clauses.max", "count"),
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.conflicts.min", "count"),
    ("sat.conflicts.max", "count"),
    ("sat.decisions", "count"),
    ("sat.decisions.min", "count"),
    ("sat.decisions.max", "count"),
    ("sat.propagations", "count"),
    ("sat.propagations.min", "count"),
    ("sat.propagations.max", "count"),
    ("sat.propagations_per_s", "1/s"),
    ("core.decide_ms", "ms"),
    ("cache.canonicalize_ms", "ms"),
    ("cache.hit_share", "ratio"),
    ("cache.coalesced_share", "ratio"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.overloaded_share", "ratio"),
    ("serve.late_share", "ratio"),
    ("serve.send_lag_ms_p90", "ms"),
    ("incremental.assert_ms", "ms"),
    ("incremental.check_ms", "ms"),
    ("incremental.push_pop_ms", "ms"),
    ("incremental.reencodes", "ratio"),
    ("incremental.reused_share", "ratio"),
    ("trace.query_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Times each workload sets up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload"
                if WORKLOADS.contains(&value.as_str())
                    || UNLISTED_WORKLOADS.contains(&value.as_str()) =>
            {
                workload = Some(value)
            }
            "--workload" => {
                return Err(format!(
                    "unknown workload {value}; one of {WORKLOADS:?} or {UNLISTED_WORKLOADS:?}"
                ))
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs `setup` [`SETUP_REPS`] times and keeps the last result; returns it
/// with the median duration in seconds. `discard` releases the results
/// that are not kept.
fn timed_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(value) {
            discard(old);
        }
    }
    (kept.expect("at least one setup"), median(&times))
}

/// Generates the queries, parses each once, and answers the three
/// shortest with `decide` to warm the process.
fn batch_setup(make: fn() -> Vec<inputs::Query>) -> Vec<inputs::Query> {
    let queries = make();
    for q in &queries {
        let mut tm = sufsat_suf::TermManager::new();
        sufsat_suf::parse_problem(&mut tm, &q.text).expect("generated inputs parse");
    }
    let mut by_len: Vec<&inputs::Query> = queries.iter().collect();
    by_len.sort_by_key(|q| q.text.len());
    for q in by_len.iter().take(3) {
        pipeline::decide_text(&q.text, q.mode);
    }
    queries
}

struct Measured {
    run: RunResult,
    setup_s: f64,
    input_hash: String,
    notes: Vec<String>,
}

fn measure(args: &Args, tr: &mut Tracer) -> Result<Measured, WrongVerdict> {
    let mut hash = InputHash::default();
    hash.add(args.workload.as_bytes());
    let mut notes = Vec::new();
    let (run, setup_s) = match args.workload.as_str() {
        "sat-search" | "eij-translate" => {
            let make = if args.workload == "sat-search" {
                inputs::sat_search
            } else {
                inputs::eij_translate
            };
            let (queries, setup_s) = timed_setup(|| batch_setup(make), drop);
            inputs::hash_queries(&mut hash, &queries);
            let run = if args.trace {
                batch::run_traced(&queries, args.seed, args.seconds, tr)?
            } else {
                batch::run(&queries, args.seed, args.seconds)?
            };
            notes.push(format!("\"queries_per_pass\": {}", queries.len()));
            (run, setup_s)
        }
        "serve-zipf" if !args.trace => {
            let (suite, setup_s) = timed_setup(
                || {
                    let suite = batch_setup(inputs::sat_search);
                    serve::warm_up(&suite);
                    suite
                },
                drop,
            );
            inputs::hash_queries(&mut hash, &suite);
            (serve::run(&suite, args.seed, args.seconds)?, setup_s)
        }
        "serve-zipf" => {
            let ((suite, pool, schedule, daemon), setup_s) = timed_setup(
                || {
                    let suite = inputs::sat_search();
                    let (schedule, pool) = serve::Schedule::new(args.seed, args.seconds);
                    let daemon = serve::Daemon::start(&pool);
                    (suite, pool, schedule, daemon)
                },
                |(_, _, _, daemon)| daemon.stop(),
            );
            inputs::hash_queries(&mut hash, &suite);
            inputs::hash_queries(&mut hash, &pool);
            schedule.hash_into(&mut hash);
            let run = serve::run_traced(
                &daemon,
                &suite,
                &pool,
                &schedule,
                args.seed,
                args.seconds,
                tr,
            );
            daemon.stop();
            notes.push(format!("\"pool\": {}", pool.len()));
            (run?, setup_s)
        }
        _ => {
            let (systems, setup_s) = timed_setup(
                || {
                    let systems = inputs::bmc_systems();
                    bmc::warm_up(&systems);
                    systems
                },
                drop,
            );
            inputs::hash_systems(&mut hash, &systems);
            let (run, reached) = if args.trace {
                bmc::run_traced(&systems, args.seed, args.seconds, tr)?
            } else {
                bmc::run(&systems, args.seed, args.seconds)?
            };
            notes.push(format!(
                "\"planted_counterexamples\": {}, \"reached_every_pass\": {reached}",
                bmc::planted(&systems)
            ));
            (run, setup_s)
        }
    };
    Ok(Measured {
        run,
        setup_s,
        input_hash: hash.hex(),
        notes,
    })
}

/// Orders the traced run's metrics as [`PER_LAYER`] lists them, reading 0
/// for layers the workload does not exercise.
fn per_layer(measured: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in PER_LAYER {
        out.put(name, measured.get(name).unwrap_or(0.0), unit);
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let provenance = Provenance::collect();
    let mut tr = Tracer::new();
    let result = measure(&args, &mut tr);
    let info = |hash: &str, notes: &[String]| {
        let mut fields = vec![
            format!("\"workload\": \"{}\"", args.workload),
            format!("\"seed\": {}", args.seed),
            format!("\"trace\": {}", u8::from(args.trace)),
            format!("\"input_hash\": \"{hash}\""),
            provenance.json_fields(),
        ];
        fields.extend(notes.iter().cloned());
        format!("{{{}}}", fields.join(", "))
    };
    match result {
        Ok(mut m) => {
            let metrics = if args.trace {
                let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("out")
                    .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
                if let Err(e) = tr.write_jsonl(&path, &info(&m.input_hash, &m.notes)) {
                    eprintln!("perfbench: writing {}: {e}", path.display());
                }
                m.notes.push(format!("\"spans\": \"{}\"", path.display()));
                per_layer(&m.run.metrics)
            } else {
                m.run.metrics.put("setup_s", m.setup_s, "s");
                m.run.metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
                m.run.metrics
            };
            println!("{}", info(&m.input_hash, &m.notes));
            println!(
                "{}",
                result_line(true, m.run.attempted, m.run.failed, &metrics)
            );
        }
        Err(WrongVerdict(msg)) => {
            eprintln!("perfbench: wrong verdict: {msg}");
            println!("{}", result_line(false, 1, 0, &Metrics::default()));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_obs::json::{self, Json};

    fn names(list: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = list.get(key) else {
            panic!("BENCHMARK.json has no `{key}` list");
        };
        items
            .iter()
            .map(|item| {
                let field = |k| item.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_program_prints() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let workloads: Vec<String> = names(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<String> = names(&doc, "end_to_end")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(e2e, END_TO_END);
        let layers = names(&doc, "per_layer");
        let expected: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(layers, expected);
    }

    #[test]
    fn a_flipped_expected_answer_stops_the_run() {
        let mut queries: Vec<inputs::Query> = inputs::sat_search()
            .into_iter()
            .filter(|q| q.name == "lsu-3")
            .collect();
        assert!(batch::run(&queries, 1, 0.0).is_ok());
        queries[0].valid = false;
        let err = batch::run(&queries, 1, 0.0)
            .err()
            .expect("a valid formula built as invalid is caught");
        assert!(err.0.contains("lsu-3"), "{}", err.0);
    }

    #[test]
    fn a_moved_planted_counterexample_stops_the_run() {
        let mut systems = vec![sufsat_workloads::counter_system(3)];
        assert!(bmc::run(&systems, 1, 0.0).is_ok());
        systems[0].cex_at = Some(2);
        let err = bmc::run(&systems, 1, 0.0)
            .err()
            .expect("a counterexample at the wrong step is caught");
        assert!(err.0.contains("counter-03"), "{}", err.0);
    }
}
