//! Sample summaries, the result line and the provenance line.

use std::fmt::Write as _;

/// Linear-interpolation quantile of `samples` (`q` in `[0, 1]`), the
/// definition of numpy's default and of `statistics.quantiles(...,
/// method="inclusive")`. `NaN` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if sorted[lo] == sorted[hi] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The value of metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Adds the median, minimum and maximum of a per-pass work counter as
    /// `name`, `name.min` and `name.max`.
    pub fn put_spread(&mut self, name: &str, per_pass: &[f64]) {
        let min = per_pass.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_pass.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.put(name, median(per_pass), "count");
        self.put(format!("{name}.min"), min, "count");
        self.put(format!("{name}.max"), max, "count");
    }
}

/// What one run measured.
pub struct RunResult {
    /// Queries sent to the program.
    pub attempted: u64,
    /// Queries without a correct definitive answer in time: unknown
    /// verdicts, errors, `overloaded` replies and late replies.
    pub failed: u64,
    /// Metrics for the selected mode (end-to-end or per-layer).
    pub metrics: Metrics,
}

/// Renders the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. Values keep every digit they were measured with.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_owned()
        };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Build and host facts every output carries.
pub struct Provenance {
    /// Available parallelism of the host.
    pub nproc: usize,
    /// `git rev-parse HEAD` of the working directory, or `unknown` when it
    /// is not the root or inside of a git checkout.
    pub commit: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile of the build.
    pub profile: &'static str,
}

impl Provenance {
    /// Collects the facts for this process.
    pub fn collect() -> Provenance {
        // The ceiling keeps git from searching above the working directory.
        let ceiling = std::env::current_dir()
            .ok()
            .and_then(|d| d.parent().map(|p| p.as_os_str().to_owned()))
            .unwrap_or_default();
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
        }
    }

    /// The provenance fields as a JSON object body (no braces).
    pub fn json_fields(&self) -> String {
        format!(
            "\"nproc\": {}, \"commit\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\"",
            self.nproc, self.commit, self.rustc, self.profile
        )
    }
}

/// 64-bit FNV-1a, used to fingerprint generated inputs.
#[derive(Clone, Copy)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> InputHash {
        InputHash(0xcbf2_9ce4_8422_2325)
    }
}

impl InputHash {
    /// Mixes `bytes` into the hash, followed by a separator byte.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The hash as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
        let failed = [1.0, f64::INFINITY, f64::INFINITY];
        assert_eq!(quantile(&failed, 0.9), f64::INFINITY);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("latency_p50_ms", 1.25, "ms");
        let line = result_line(true, 3, 0, &m);
        let parsed = sufsat_obs::json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_u64()), Some(3));
        let metric = parsed.get("metrics").and_then(|m| m.get("latency_p50_ms"));
        assert_eq!(
            metric.and_then(|v| v.get("value")).and_then(|v| v.as_f64()),
            Some(1.25)
        );
    }
}
