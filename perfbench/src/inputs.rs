//! Seeded inputs for the four workloads.
//!
//! Every input carries the answer fixed when it was built: a formula
//! family's construction fixes its validity, and a transition system's
//! construction fixes the step of its first counterexample.

use std::collections::HashMap;

use sufsat_core::{substitute_state, EncodingMode, DEFAULT_SEP_THOLD};
use sufsat_prng::Prng;
use sufsat_suf::print_problem;
use sufsat_workloads::{self as wl, Benchmark, SystemBenchmark};

use crate::stats::InputHash;

/// HYBRID at the paper's threshold.
pub const HYBRID: EncodingMode = EncodingMode::Hybrid(DEFAULT_SEP_THOLD);

/// One formula query with the validity its family construction fixes.
#[derive(Clone)]
pub struct Query {
    /// Instance name, e.g. `tv-220`.
    pub name: String,
    /// Problem text in the SUF surface syntax.
    pub text: String,
    /// Encoding mode the query is decided with.
    pub mode: EncodingMode,
    /// Whether the formula is valid.
    pub valid: bool,
}

impl Query {
    fn new(b: &Benchmark, mode: EncodingMode) -> Query {
        Query {
            name: b.name.clone(),
            text: print_problem(&b.tm, b.formula),
            mode,
            valid: b.expected.expect("every family fixes validity"),
        }
    }
}

/// Mixes the queries of one pass into `hash`.
pub fn hash_queries(hash: &mut InputHash, queries: &[Query]) {
    for q in queries {
        hash.add(q.name.as_bytes());
        hash.add(format!("{:?}", q.mode).as_bytes());
        hash.add(q.text.as_bytes());
    }
}

/// sat-search: HYBRID over the 39 non-invariant members of the checked-in
/// suite `benchmarks/*.suf`, plus SD over `ooo-6d2` … `ooo-12d1`.
///
/// The files are read as checked in: the dlx, tv, driver and lsu families
/// have drawn different formulas from the same family seeds since the
/// in-tree PRNG replaced the external one, and the files are what every
/// recorded measurement of the suite used. The instance set does not
/// depend on the seed, which orders each pass: search time is
/// heavy-tailed in the family seeds (`tv-220` generated from family seed
/// 1207 instead of 207 takes 60 s instead of 0.8 s), so re-seeding the
/// families would make the seed-to-seed spread a measure of instance
/// luck.
pub fn sat_search() -> Vec<Query> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../benchmarks");
    let sd = [
        "ooo-6d2", "ooo-7d2", "ooo-8d2", "ooo-9d2", "ooo-10d2", "ooo-10d1", "ooo-11d1", "ooo-12d1",
    ];
    let suite = wl::suite();
    let hybrid = suite
        .iter()
        .filter(|b| !b.invariant_checking)
        .map(|b| (b, HYBRID));
    let sd = suite
        .iter()
        .filter(|b| sd.contains(&b.name.as_str()))
        .map(|b| (b, EncodingMode::Sd));
    hybrid
        .chain(sd)
        .map(|(b, mode)| {
            let path = dir.join(format!("{}.suf", b.name));
            Query {
                name: b.name.clone(),
                text: std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("reading {}: {e}", path.display())),
                mode,
                valid: b.expected.expect("every family fixes validity"),
            }
        })
        .collect()
}

/// eij-translate: the ooo family under HYBRID, which picks EIJ for it.
///
/// Tags 6–10 at densities 1–3 all complete with almost no search; each
/// extra tag multiplies transitivity work by about five. The 8-tag members
/// repeat twelve times in a pass of 49 queries, so the median falls in the
/// middle of their group and the 90th percentile in the middle of the
/// 9-tag group, away from the group boundaries where a percentile would
/// jump. `ooo-11d3` stops at the translation budget after about 2.5 s:
/// that budget-bound work is what HYBRID users pay on such inputs, and it
/// counts as failed.
pub fn eij_translate() -> Vec<Query> {
    let reps = [(6, 1), (7, 1), (8, 12), (9, 1), (10, 1)];
    let mut out = Vec::new();
    for (tags, rep) in reps {
        for density in 1..=3 {
            let q = Query::new(&wl::ooo_invariant(tags, density), HYBRID);
            out.extend(std::iter::repeat_n(q, rep));
        }
    }
    out.push(Query::new(&wl::ooo_invariant(11, 3), HYBRID));
    out
}

/// bmc-session: the `system_suite` families at larger sizes and deeper
/// bounds. Toggle, ring and uf-datapath are safe at every depth; each
/// counter system has its first counterexample planted at `cex_at`.
pub fn bmc_systems() -> Vec<SystemBenchmark> {
    let with_bound = |mut s: SystemBenchmark, bound: usize| {
        s.bound = bound;
        s
    };
    vec![
        with_bound(wl::toggle_system(30), 10),
        with_bound(wl::toggle_system(60), 8),
        wl::counter_system(12),
        wl::counter_system(40),
        with_bound(wl::uf_datapath_system(2), 6),
        with_bound(wl::uf_datapath_system(3), 6),
        wl::ring_system(10),
        wl::ring_system(16),
    ]
}

/// Mixes a system suite into `hash`.
pub fn hash_systems(hash: &mut InputHash, systems: &[SystemBenchmark]) {
    for s in systems {
        hash.add(s.name.as_bytes());
        hash.add(&(s.bound as u64).to_le_bytes());
        hash.add(&s.cex_at.map_or(u64::MAX, |c| c as u64).to_le_bytes());
        hash.add(print_problem(&s.tm, s.system.property).as_bytes());
        hash.add(print_problem(&s.tm, s.system.init).as_bytes());
    }
}

/// Families of the serve-zipf pool, in the order popularity ranks cycle
/// through them: the six formula families and the BMC obligations of the
/// counter systems, which add invalid queries.
pub const SERVE_FAMILIES: usize = 7;

/// The serve-zipf instance at popularity rank `rank` (0 is the most
/// popular) for `seed`.
///
/// Rank `r` belongs to family `r % 7`, so the family mix of every
/// popularity band is the same for every seed, and is that family's
/// `r / 7`-th member. The member's size is a function of its rank alone:
/// hits cost a parse and a canonicalization of the text, so a seed that
/// made a large instance popular would shift every latency percentile.
/// The seed draws the family seed of each member of the seeded families
/// (dlx, tv, driver, lsu); the unseeded families walk a fixed
/// permutation of their parameter grid.
///
/// Sizes stay small: a miss costs up to about 100 ms. Larger
/// translation-validation members have a heavy tail in their family
/// seed (about one `tv-30` in 1,500 takes 2 s instead of 20 ms), and one
/// such miss holds a worker for the whole deadline, so whether a run drew
/// one would decide its capacity result. sat-search measures search on
/// the fixed suite instead.
pub fn serve_instance(seed: u64, rank: usize) -> Query {
    let family = rank % SERVE_FAMILIES;
    let k = rank / SERVE_FAMILIES;
    let mut rng =
        Prng::seed_from_u64(seed ^ ((family as u64) << 56) ^ (k as u64).wrapping_mul(0x9e37_79b9));
    let family_seed = rng.next_u64() % 1_000_000;
    let grid_pick = |len: usize| {
        let mut grid: Vec<usize> = (0..len).collect();
        shuffle(&mut grid, &mut Prng::seed_from_u64(family as u64));
        grid[k % len]
    };
    let b = match family {
        0 => {
            let (blocks, depth) = [(3, 2), (4, 3), (6, 3), (8, 4)][k % 4];
            wl::pipeline(blocks, depth, family_seed)
        }
        1 => wl::translation_validation([16, 20, 25][k % 3], 2, family_seed),
        2 => wl::device_driver([16, 28, 44, 64][k % 4], family_seed),
        3 => wl::load_store_unit([3, 5, 7, 9, 12][k % 5], family_seed),
        4 => {
            let i = grid_pick(100);
            wl::cache_coherence(2 + i / 10, 2 + i % 10)
        }
        5 => {
            let i = grid_pick(36);
            wl::ooo_invariant(3 + i / 6, 1 + i % 6)
        }
        _ => {
            let i = grid_pick(58);
            return counter_obligation(2 + i / 2, i % 2 == 0);
        }
    };
    Query::new(&b, HYBRID)
}

/// The BMC obligation `init ⇒ property` of `counter_system(limit)` at
/// step `limit` (invalid: the planted counterexample) or `limit - 1`
/// (valid).
fn counter_obligation(limit: usize, at_counterexample: bool) -> Query {
    let mut sys = wl::counter_system(limit);
    let step = if at_counterexample { limit } else { limit - 1 };
    let mut current: HashMap<_, _> = sys.system.state.iter().map(|&s| (s, s)).collect();
    for k in 0..step {
        let next: Vec<_> = sys
            .system
            .next
            .iter()
            .map(|&n| substitute_state(&mut sys.tm, n, &sys.system, &current, k))
            .collect();
        for (s, n) in sys.system.state.iter().zip(next) {
            current.insert(*s, n);
        }
    }
    let prop = substitute_state(
        &mut sys.tm,
        sys.system.property,
        &sys.system,
        &current,
        step,
    );
    let obligation = sys.tm.mk_implies(sys.system.init, prop);
    Query {
        name: format!("{}-step{step}", sys.name),
        text: print_problem(&sys.tm, obligation),
        mode: HYBRID,
        valid: !at_counterexample,
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut Prng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Rewrites `text` with every declared symbol (variables, Boolean
/// variables, functions and predicates) renamed consistently under `key`.
/// The result is alpha-equivalent to the input, so only the canonicalizer
/// can recognize a repeat.
pub fn alpha_rename(text: &str, key: u64) -> String {
    let tokens = atoms(text);
    let mut declared: HashMap<&str, usize> = HashMap::new();
    // Heads of the lists enclosing each atom, tracked by a second walk.
    let mut heads: Vec<Option<&str>> = Vec::new();
    let mut pos = 0;
    for &(start, end) in &tokens {
        for c in text[pos..start].chars() {
            match c {
                '(' => heads.push(None),
                ')' => {
                    heads.pop();
                }
                _ => {}
            }
        }
        pos = end;
        let atom = &text[start..end];
        let depth = heads.len();
        let outer = heads.first().copied().flatten();
        match heads.last_mut() {
            Some(head @ None) => {
                *head = Some(atom);
                if depth == 2 && matches!(outer, Some("funs" | "preds")) {
                    let n = declared.len();
                    declared.entry(atom).or_insert(n);
                }
            }
            Some(Some(_)) if depth == 1 && matches!(outer, Some("vars" | "bvars")) => {
                let n = declared.len();
                declared.entry(atom).or_insert(n);
            }
            _ => {}
        }
    }
    let tag = key & 0xffff_ffff;
    let mut out = String::with_capacity(text.len() + text.len() / 4);
    let mut pos = 0;
    for &(start, end) in &tokens {
        out.push_str(&text[pos..start]);
        let atom = &text[start..end];
        match declared.get(atom) {
            Some(i) => {
                use std::fmt::Write as _;
                let _ = write!(out, "r{tag:x}_{i}");
            }
            None => out.push_str(atom),
        }
        pos = end;
    }
    out.push_str(&text[pos..]);
    out
}

/// Byte ranges of the atoms of an s-expression text.
fn atoms(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        let boundary = c == '(' || c == ')' || c.is_whitespace();
        match (boundary, start) {
            (true, Some(s)) => {
                out.push((s, i));
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, text.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_suf::{parse_problem, TermManager};

    #[test]
    fn sat_search_is_the_checked_in_suite_plus_sd_on_ooo() {
        let queries = sat_search();
        let hybrid = queries.iter().filter(|q| q.mode == HYBRID).count();
        assert_eq!((hybrid, queries.len() - hybrid), (39, 8));
        let names: std::collections::HashSet<(&str, bool)> = queries
            .iter()
            .map(|q| (q.name.as_str(), q.mode == HYBRID))
            .collect();
        assert_eq!(names.len(), queries.len());
    }

    #[test]
    fn eij_translate_matches_the_checked_in_ooo_files() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../benchmarks");
        for q in eij_translate()
            .iter()
            .filter(|q| q.name.ends_with("10d2") || q.name.ends_with("9d2"))
        {
            let file = std::fs::read_to_string(dir.join(format!("{}.suf", q.name)))
                .expect("checked-in file");
            assert_eq!(file, q.text, "{}", q.name);
        }
    }

    #[test]
    fn renaming_preserves_the_canonical_form() {
        for q in (0..70).map(|rank| serve_instance(3, rank)) {
            let renamed = alpha_rename(&q.text, 0xabc);
            assert_ne!(renamed, q.text, "{}", q.name);
            let mut a = TermManager::new();
            let mut b = TermManager::new();
            let fa = parse_problem(&mut a, &q.text).expect("original parses");
            let fb = parse_problem(&mut b, &renamed).expect("renamed parses");
            let ca = sufsat_cache::canonicalize(&a, fa);
            let cb = sufsat_cache::canonicalize(&b, fb);
            assert_eq!(ca.fingerprint, cb.fingerprint, "{}", q.name);
        }
    }

    #[test]
    fn pool_is_a_function_of_the_seed() {
        let pool =
            |seed| -> Vec<String> { (0..70).map(|r| serve_instance(seed, r).text).collect() };
        assert_eq!(pool(11), pool(11));
        assert_ne!(pool(11), pool(12));
    }

    #[test]
    fn counter_obligations_carry_their_planted_verdicts() {
        for (limit, at_cex) in [(3, true), (3, false), (7, true), (7, false)] {
            let q = counter_obligation(limit, at_cex);
            let (verdict, _) = crate::pipeline::decide_text(&q.text, q.mode);
            let expected = if at_cex {
                crate::pipeline::Verdict::Invalid
            } else {
                crate::pipeline::Verdict::Valid
            };
            assert_eq!(verdict, expected, "{}", q.name);
        }
    }
}
