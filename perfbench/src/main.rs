//! The repository benchmark: three workloads (`review`, `pipeline`, `serve`)
//! measured from outside the program, with a traced mode that attributes
//! each workload's time to the layers (the `ec-*` crates).
//!
//! ```text
//! perfbench --workload review|pipeline|serve --seed N --seconds S --trace 0|1 \
//!           --ec path/to/ec --out dir
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). `perfbench/run.py`
//! builds the program and this package and forwards the arguments.

mod pipeline;
mod prom;
mod review;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Worker threads every workload runs with, in process and in the server.
pub const THREADS: usize = 2;

/// Generator seed of the fixed datasets every workload draws from. The
/// workload seed reorders records and clusters (and picks the order of
/// jobs), not which datasets are generated: the program's cost varies
/// several-fold between generated datasets (pivot-search work is heavy
/// tailed), which made per-seed datasets too unsteady to compare builds.
pub const CORPUS_SEED: u64 = 0;

/// How many times set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// Every metric the traced run reports, with its unit. Layers that a
/// workload does not exercise report 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("grouping.next_group_ms", "ms"),
    ("grouping.pivot_searches", "count"),
    ("grouping.search_steps", "count"),
    ("grouping.searches_per_question", "ratio"),
    ("grouping.budget_exhausted", "count"),
    ("grouping.prepare_ms", "ms"),
    ("grouping.graphs", "count"),
    ("grouping.partitions", "count"),
    ("replace.candidates_ms", "ms"),
    ("replace.candidates", "count"),
    ("replace.apply_ms", "ms"),
    ("replace.cells_updated", "count"),
    ("resolution.block_ms", "ms"),
    ("resolution.score_ms", "ms"),
    ("resolution.union_ms", "ms"),
    ("resolution.candidate_pairs", "count"),
    ("resolution.pairs_matched", "count"),
    ("resolution.match_ratio", "ratio"),
    ("resolution.pairs_abandoned", "count"),
    ("resolution.clusters", "count"),
    ("resolution.max_cluster_rows", "count"),
    ("core.review_ms", "ms"),
    ("core.approval_ratio", "ratio"),
    ("core.ingest_batch_ms", "ms"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.replayed_columns", "count"),
    ("core.library_hit_ratio", "ratio"),
    ("core.library_apply_ms", "ms"),
    ("truth.discover_ms", "ms"),
    ("data.parse_ms", "ms"),
    ("data.write_ms", "ms"),
    ("data.bytes_in", "bytes"),
    ("data.bytes_out", "bytes"),
    ("serve.requests", "count"),
    ("serve.failed", "count"),
    ("serve.http_ms", "ms"),
    ("serve.pool_queue_ms", "ms"),
    ("layer.core_self_ms", "ms"),
    ("layer.data_self_ms", "ms"),
    ("layer.grouping_self_ms", "ms"),
    ("layer.replace_self_ms", "ms"),
    ("layer.resolution_self_ms", "ms"),
    ("layer.serve_self_ms", "ms"),
    ("layer.truth_self_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_ratio", "ratio"),
];

/// Every metric the untraced run reports, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("records_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("wait_ms.p50", "ms"),
    ("wait_ms.p90", "ms"),
    ("precision", "ratio"),
    ("recall", "ratio"),
];

/// The layers of the rollup, one per program crate the benchmark calls.
pub const LAYERS: [&str; 7] = [
    "core",
    "data",
    "grouping",
    "replace",
    "resolution",
    "serve",
    "truth",
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time; sets the amount of work (see each
    /// workload's `units`).
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `ec` binary (needed by `serve`).
    pub ec: Option<PathBuf>,
    /// Directory for traces and output digests.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        ec: None,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got '{v}'"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => args.trace = number(&value)? != 0,
            "--ec" => args.ec = Some(PathBuf::from(value)),
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (jobs, requests, output checks).
    pub attempted: u64,
    /// Operations that failed: errors, non-2xx responses, timeouts and
    /// failed checks.
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Report {
    /// Counts one operation; a failure is kept with its reason.
    pub fn operation(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {reason}");
            self.problems.push(reason);
        }
    }

    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.operation(if ok { Ok(()) } else { Err(what()) });
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records the rollup's per-layer self times, its unattributed time and
    /// the tracing overhead against the untraced section.
    pub fn rollup(&mut self, rollup: &trace::Rollup, untraced_ms: f64) {
        for layer in LAYERS {
            self.metric(&format!("layer.{layer}_self_ms"), rollup.self_ms(layer));
        }
        self.metric("unattributed_ms", rollup.unattributed_ms);
        self.metric(
            "trace_overhead_ratio",
            rollup.wall_ms / untraced_ms.max(f64::MIN_POSITIVE) - 1.0,
        );
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The final JSON line: every end-to-end metric, or with `trace` every
    /// per-layer metric (0 for layers the workload does not exercise). A
    /// missing end-to-end metric makes the run incorrect.
    fn to_json(&self, trace: bool) -> String {
        let mut correct = self.problems.is_empty() && self.failed == 0 && self.attempted > 0;
        let declared = if trace { LAYER_METRICS } else { END_TO_END };
        let mut metrics = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match self.value(name) {
                Some(value) => value,
                None if trace => 0.0,
                None => {
                    correct = false;
                    continue;
                }
            };
            // An empty float sum is -0.0; report it as 0.
            let mut value = value + 0.0;
            if !value.is_finite() {
                eprintln!("perfbench: metric {name} is not finite");
                value = 0.0;
                correct = false;
            }
            metrics.push((name, value, unit));
        }
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result with
/// the median set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("set-up ran"), stats::median(&times)))
}

/// A sub-seed derived from the workload seed (SplitMix64).
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shuffles `items` in place with a Fisher–Yates pass driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (sub_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// FNV-1a over a sequence of byte strings (length-prefixed, so the split
/// between parts matters).
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for part in parts {
        feed(&(part.len() as u64).to_le_bytes());
        feed(part);
    }
    hash
}

/// A digest of this executable, which links the program under test: runs
/// of the same code share it.
pub fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    format!("{:016x}", digest([bytes.as_slice()]))
}

/// Checks `digest` against the one recorded for `key` by an earlier run of
/// the same build in the same output directory (the first run records it).
pub fn check_repeatable(report: &mut Report, out: &std::path::Path, key: &str, digest: u64) {
    let path = out.join("digests.txt");
    let known = std::fs::read_to_string(&path).unwrap_or_default();
    let recorded = known
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(k, _)| *k == key)
        .map(|(_, d)| d.to_string());
    let digest = format!("{digest:016x}");
    match recorded {
        Some(previous) => report.check(previous == digest, || {
            format!("output digest for {key} changed between runs: {previous} then {digest}")
        }),
        None => {
            let line = format!("{key} {digest}\n");
            let written = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
            if let Err(e) = written {
                eprintln!("perfbench: cannot record digest in {}: {e}", path.display());
            }
        }
    }
}

/// Peak resident set size of a process in MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// Writes the traced run's spans and prints its rollup table.
pub fn emit_trace(args: &Args, tracer: &trace::Tracer, rollup: &trace::Rollup) {
    let path = args
        .out
        .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, tracer.to_jsonl()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!(
        "trace rollup ({} spans, {}):",
        tracer.spans().len(),
        path.display()
    );
    print!("{}", rollup.table());
}

fn main() -> ExitCode {
    // End-to-end numbers are measured with the program's own tracing off.
    std::env::remove_var("EC_TRACE");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(1);
    }
    let result = match args.workload.as_str() {
        "review" => review::run(&args),
        "pipeline" => pipeline::run(&args),
        "serve" => serve::run(&args),
        other => Err(format!(
            "unknown workload '{other}'; expected review, pipeline or serve"
        )),
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 9);
        shuffle(&mut b, 9);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 10);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let declared = include_str!("../../BENCHMARK.json");
        let section = |key: &str| {
            let start = declared
                .find(&format!("\"{key}\""))
                .expect("section present");
            let end = declared[start..].find(']').expect("section closes") + start;
            declared[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| rest.split('"').next().expect("quoted name").to_string())
                .collect::<Vec<_>>()
        };
        let names =
            |table: &[(&str, &str)]| table.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(section("per_layer"), names(LAYER_METRICS));
        assert_eq!(section("end_to_end"), names(END_TO_END));
    }

    #[test]
    fn digest_depends_on_content_and_split() {
        let a = digest([b"ab".as_slice(), b"c".as_slice()]);
        assert_eq!(a, digest([b"ab".as_slice(), b"c".as_slice()]));
        assert_ne!(a, digest([b"a".as_slice(), b"bc".as_slice()]));
        assert_ne!(a, digest([b"ab".as_slice(), b"d".as_slice()]));
    }

    #[test]
    fn a_changed_output_digest_fails_the_run() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-digest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut report = Report::default();
        check_repeatable(&mut report, &dir, "review-1", 42);
        check_repeatable(&mut report, &dir, "review-1", 42);
        assert!(report.problems.is_empty());
        check_repeatable(&mut report, &dir, "review-1", 43);
        assert_eq!(report.failed, 1);
        assert!(report.to_json(false).starts_with("{\"correct\": false"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_json_lists_every_layer_metric() {
        let mut report = Report::default();
        report.operation(Ok(()));
        report.metric("grouping.pivot_searches", 12.0);
        report.metric("wall_s", 1.5);
        report.metric("replace.apply_ms", -0.0);
        let traced = report.to_json(true);
        assert!(
            traced.contains("\"grouping.pivot_searches\": {\"value\": 12, \"unit\": \"count\"}")
        );
        assert!(traced.contains("\"serve.http_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(traced.contains("\"replace.apply_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(!traced.contains("wall_s"));
        let partial = report.to_json(false);
        assert!(
            partial.starts_with("{\"correct\": false"),
            "missing end-to-end metrics"
        );
        assert!(partial.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        for (name, _) in END_TO_END.iter().filter(|(n, _)| *n != "wall_s") {
            report.metric(name, 1.0);
        }
        let plain = report.to_json(false);
        assert!(plain.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(!plain.contains("grouping"));
    }
}
