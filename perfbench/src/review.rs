//! `review`: clustered paper data with ground truth, consolidated column by
//! column exactly as `ec consolidate --mode auto --budget 100` does it — the
//! human review loop, with the simulated expert as the human.
//!
//! Each round consolidates one AuthorList dataset (many cheap pivot
//! searches) and one Address dataset (few expensive ones), so their pooled
//! question waits show a change that helps one and hurts the other: at p50
//! on one side, at p90 on the other. Datasets are kept small and numerous
//! because search cost varies strongly between generated datasets; many
//! independent datasets per run keep the per-run medians steady across
//! seeds.

use crate::prom::Snapshot;
use crate::stats::Latency;
use crate::trace::{Rollup, Tracer};
use crate::{
    check_repeatable, digest, emit_trace, repeated_setup, shuffle, sub_seed, Args, Report,
    CORPUS_SEED, THREADS,
};
use ec_core::{
    write_golden_records_csv, ConsolidationConfig, Group, Oracle, Pipeline, SimulatedOracle,
    StructuredGrouper, TruthMethod, Verdict,
};
use ec_data::stream::DatasetSink;
use ec_data::{
    ClusteredCsvReader, ClusteredCsvWriter, Dataset, GeneratorConfig, LabeledPair, PaperDataset,
};
use ec_graph::Replacement;
use ec_grouping::partition_replacements;
use ec_metrics::{evaluate_standardization, ConfusionCounts};
use ec_replace::ReplacementEngine;
use std::time::Instant;

/// The human budget: groups presented per column.
pub const BUDGET: usize = 100;

/// The two datasets of one round, with their cluster counts.
const ROUND: [(PaperDataset, usize); 2] =
    [(PaperDataset::AuthorList, 10), (PaperDataset::Address, 6)];

/// Rounds per requested second, calibrated so the measured section takes
/// about `--seconds` on a 2-core machine. The work is a function of the
/// arguments only, so two builds measured with the same arguments do the
/// same work and `wall_s` compares.
const ROUNDS_PER_SECOND: f64 = 0.8;

/// Floors on standardization quality against the generator's truth, well
/// below what the program reaches on this corpus (about 0.89 precision and
/// 0.92 recall; the paper reports 99.5% precision at this budget). A run
/// below them produced broken output.
const MIN_PRECISION: f64 = 0.75;
const MIN_RECALL: f64 = 0.5;

/// One generated dataset, rendered as clustered CSV with `__truth` columns.
pub struct Input {
    name: String,
    csv: Vec<u8>,
    records: usize,
}

/// What consolidating one input produced.
struct Output {
    bytes: Vec<u8>,
    dataset: Dataset,
    questions: usize,
}

fn make_inputs(seed: u64, rounds: usize) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::with_capacity(rounds * ROUND.len());
    for round in 0..rounds {
        for (k, &(kind, clusters)) in ROUND.iter().enumerate() {
            let slot = (round * ROUND.len() + k) as u64;
            let config = GeneratorConfig {
                num_clusters: clusters,
                seed: sub_seed(CORPUS_SEED, slot),
                num_sources: kind.default_config().num_sources,
            };
            let mut dataset = kind.generate(&config);
            shuffle(&mut dataset.clusters, sub_seed(seed, slot));
            for (c, cluster) in dataset.clusters.iter_mut().enumerate() {
                shuffle(&mut cluster.rows, sub_seed(seed ^ slot, c as u64));
            }
            inputs.push(Input {
                name: format!("{}-{round}", kind.name()),
                csv: clustered_csv(&dataset)?,
                records: dataset.num_records(),
            });
        }
    }
    Ok(inputs)
}

/// A dataset as clustered CSV, the way `ec generate` and `ec consolidate
/// --output` stream it.
fn clustered_csv(dataset: &Dataset) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let mut csv = ClusteredCsvWriter::new(&mut out, &dataset.columns).map_err(|e| e.to_string())?;
    for cluster in &dataset.clusters {
        csv.write_cluster(cluster).map_err(|e| e.to_string())?;
    }
    csv.finish().map_err(|e| e.to_string())?;
    drop(csv);
    Ok(out)
}

/// The `--output` and `--golden` files of `ec consolidate`, concatenated.
pub fn render(dataset: &Dataset, golden: &[Vec<Option<String>>]) -> Result<Vec<u8>, String> {
    let mut out = clustered_csv(dataset)?;
    write_golden_records_csv(&dataset.columns, golden, &mut out).map_err(|e| e.to_string())?;
    Ok(out)
}

fn parse(input: &Input) -> Result<Dataset, String> {
    let reader = ClusteredCsvReader::new(&input.csv[..]).map_err(|e| e.to_string())?;
    if !reader.has_truth_columns() {
        return Err(format!(
            "{}: generated input lost its truth columns",
            input.name
        ));
    }
    reader.into_dataset("input").map_err(|e| e.to_string())
}

/// The simulated expert `ec consolidate --mode auto` uses for a column of
/// ground-truthed input.
pub fn expert(dataset: &Dataset, col: usize) -> SimulatedOracle {
    SimulatedOracle::for_column(dataset, col, 7 + col as u64)
}

/// Wraps an oracle and timestamps each review: the wait is the time from
/// the previous answer (or the start of the column) to the next group being
/// presented; the oracle's own time is excluded.
struct TimedOracle<O> {
    inner: O,
    mark: Instant,
    waits_ms: Vec<f64>,
}

impl<O: Oracle> Oracle for TimedOracle<O> {
    fn review(&mut self, group: &Group) -> Verdict {
        self.waits_ms.push(self.mark.elapsed().as_secs_f64() * 1e3);
        let verdict = self.inner.review(group);
        self.mark = Instant::now();
        verdict
    }
}

/// The untraced consolidation: the calls `ec consolidate` makes, with the
/// expert wrapped to time the question waits.
fn consolidate(
    pipeline: &Pipeline,
    input: &Input,
    waits_ms: &mut Vec<f64>,
) -> Result<Output, String> {
    let mut dataset = parse(input)?;
    let mut questions = 0;
    for col in 0..dataset.columns.len() {
        let inner = expert(&dataset, col);
        let mut oracle = TimedOracle {
            inner,
            mark: Instant::now(),
            waits_ms: Vec::new(),
        };
        pipeline.standardize_column_traced(&mut dataset, col, &mut oracle);
        questions += oracle.waits_ms.len();
        waits_ms.extend(oracle.waits_ms);
    }
    let golden = pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus);
    let bytes = render(&dataset, &golden)?;
    Ok(Output {
        bytes,
        dataset,
        questions,
    })
}

/// Counts gathered by the traced standardization.
#[derive(Debug, Default)]
pub struct ReviewCounts {
    /// Questions asked.
    pub questions: usize,
    /// Groups approved.
    pub approved: usize,
    /// Cells rewritten.
    pub cells_updated: usize,
    /// The candidate list of every standardized column.
    pub candidates: Vec<Vec<Replacement>>,
}

/// The body of `Pipeline::standardize_column_traced`, with one span per
/// call into a layer.
pub fn standardize_traced(
    config: &ConsolidationConfig,
    dataset: &mut Dataset,
    col: usize,
    oracle: &mut dyn Oracle,
    tracer: &mut Tracer,
    counts: &mut ReviewCounts,
) {
    let values = dataset.column_values(col);
    let (mut engine, candidates) = tracer.span("replace.candidates", |_| {
        let engine = ReplacementEngine::new(values, &config.candidates);
        let candidates = engine.candidates();
        (engine, candidates)
    });
    let mut grouper = tracer.span("grouping.partition", |_| {
        StructuredGrouper::new(&candidates, config.grouping.clone())
    });
    let mut reviewed = 0;
    while reviewed < config.budget {
        let Some(group) = tracer.span("grouping.next_group", |_| grouper.next_group()) else {
            break;
        };
        reviewed += 1;
        if let Verdict::Approve(direction) = tracer.span("core.review", |_| oracle.review(&group)) {
            tracer.span("replace.apply_group", |_| {
                engine.apply_group(group.members(), direction)
            });
            counts.approved += 1;
        }
    }
    counts.questions += reviewed;
    counts.cells_updated += engine.cells_updated();
    counts.candidates.push(candidates);
    dataset.set_column_values(col, engine.into_values());
}

/// The traced consolidation: the same calls as [`consolidate`], split into
/// one span per call into a layer.
fn consolidate_traced(
    pipeline: &Pipeline,
    input: &Input,
    tracer: &mut Tracer,
    counts: &mut ReviewCounts,
) -> Result<Vec<u8>, String> {
    let mut dataset = tracer.span("data.parse", |_| parse(input))?;
    for col in 0..dataset.columns.len() {
        let mut oracle = tracer.span("core.expert", |_| expert(&dataset, col));
        tracer.span("core.standardize_column", |t| {
            standardize_traced(pipeline.config(), &mut dataset, col, &mut oracle, t, counts)
        });
    }
    let golden = tracer.span("truth.discover", |_| {
        pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus)
    });
    tracer.span("data.write", |_| render(&dataset, &golden))
}

/// Every pair of cells in a cluster with different observed values,
/// labelled variant when the generator gave them the same truth.
fn labelled_pairs(dataset: &Dataset, col: usize) -> Vec<LabeledPair> {
    let mut pairs = Vec::new();
    for (c, cluster) in dataset.clusters.iter().enumerate() {
        for (i, a) in cluster.rows.iter().enumerate() {
            for (j, b) in cluster.rows.iter().enumerate().skip(i + 1) {
                let (a, b) = (&a.cells[col], &b.cells[col]);
                if a.observed != b.observed {
                    pairs.push(LabeledPair {
                        cluster: c,
                        row_a: i,
                        row_b: j,
                        is_variant: a.truth == b.truth,
                    });
                }
            }
        }
    }
    pairs
}

/// The grouping counters the program's registry keeps, as deltas.
pub fn grouping_counters(
    report: &mut Report,
    before: &Snapshot,
    after: &Snapshot,
    questions: usize,
) {
    let searches = after.delta(before, "ec_pivot_search_steps_count");
    report.metric("grouping.pivot_searches", searches);
    report.metric(
        "grouping.search_steps",
        after.delta(before, "ec_pivot_search_steps_sum"),
    );
    report.metric(
        "grouping.searches_per_question",
        searches / questions.max(1) as f64,
    );
    report.metric(
        "grouping.budget_exhausted",
        after.delta(before, "ec_pivot_budget_exhausted_total"),
    );
    report.metric(
        "grouping.prepare_ms",
        after.stage_ms(before, "grouping.prepared_build")
            + after.stage_ms(before, "grouping.prepared_append"),
    );
    report.metric(
        "grouping.graphs",
        after.get("ec_stage_seconds_count{stage=\"grouping.prepared_build\"}")
            - before.get("ec_stage_seconds_count{stage=\"grouping.prepared_build\"}"),
    );
}

/// The per-layer metrics of a traced standardization.
pub fn review_layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    counts: &ReviewCounts,
    config: &ConsolidationConfig,
) {
    let partitions: usize = counts
        .candidates
        .iter()
        .map(|c| partition_replacements(c, &config.grouping).len())
        .sum();
    report.metric(
        "grouping.next_group_ms",
        tracer.total_ms("grouping.next_group"),
    );
    report.metric("grouping.partitions", partitions as f64);
    report.metric(
        "replace.candidates_ms",
        tracer.total_ms("replace.candidates"),
    );
    let candidates: usize = counts.candidates.iter().map(Vec::len).sum();
    report.metric("replace.candidates", candidates as f64);
    report.metric("replace.apply_ms", tracer.total_ms("replace.apply_group"));
    report.metric("replace.cells_updated", counts.cells_updated as f64);
    report.metric("core.review_ms", tracer.total_ms("core.review"));
    report.metric(
        "core.approval_ratio",
        counts.approved as f64 / counts.questions.max(1) as f64,
    );
    report.metric("truth.discover_ms", tracer.total_ms("truth.discover"));
    report.metric("data.parse_ms", tracer.total_ms("data.parse"));
    report.metric("data.write_ms", tracer.total_ms("data.write"));
}

/// Byte-compares each traced output with the untraced one.
pub fn compare_outputs(
    report: &mut Report,
    workload: &str,
    untraced: &[Vec<u8>],
    traced: &[Vec<u8>],
) {
    report.check(untraced.len() == traced.len(), || {
        format!(
            "{workload}: traced run produced {} outputs, untraced {}",
            traced.len(),
            untraced.len()
        )
    });
    for (i, (u, t)) in untraced.iter().zip(traced).enumerate() {
        report.check(u == t, || {
            format!("{workload}: traced output {i} differs from the untraced output")
        });
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let rounds = ((args.seconds as f64 * ROUNDS_PER_SECOND).round() as usize).max(1);
    let (inputs, setup_s) = repeated_setup(|| make_inputs(args.seed, rounds))?;
    let pipeline = Pipeline::new(
        ConsolidationConfig {
            budget: BUDGET,
            ..ConsolidationConfig::default()
        }
        .with_threads(THREADS),
    );
    let mut report = Report::default();

    let mut waits_ms = Vec::new();
    let start = Instant::now();
    let results: Vec<Result<Output, String>> = inputs
        .iter()
        .map(|input| consolidate(&pipeline, input, &mut waits_ms))
        .collect();
    let wall = start.elapsed().as_secs_f64();

    let mut outputs = Vec::new();
    let mut quality = ConfusionCounts::default();
    for (input, result) in inputs.iter().zip(results) {
        let output = match result {
            Ok(output) => output,
            Err(e) => {
                report.operation(Err(format!("{}: {e}", input.name)));
                continue;
            }
        };
        report.operation(Ok(()));
        let original = parse(input)?;
        for col in 0..original.columns.len() {
            let pairs = labelled_pairs(&original, col);
            quality = quality.merge(&evaluate_standardization(
                &pairs,
                &output.dataset.column_values(col),
            ));
        }
        outputs.push(output);
    }
    let (precision, recall) = (quality.precision(), quality.recall());
    report.check(precision >= MIN_PRECISION, || {
        format!("standardization precision {precision:.4} is below {MIN_PRECISION}")
    });
    report.check(recall >= MIN_RECALL, || {
        format!("standardization recall {recall:.4} is below {MIN_RECALL}")
    });
    let bytes: Vec<Vec<u8>> = outputs.iter().map(|o| o.bytes.clone()).collect();
    let output_digest = digest(bytes.iter().map(Vec::as_slice));
    check_repeatable(
        &mut report,
        &args.out,
        &format!(
            "review-{}-{}-{}",
            args.seed,
            args.seconds,
            crate::build_id()
        ),
        output_digest,
    );
    println!(
        "review: {} datasets, output digest {output_digest:016x}",
        inputs.len()
    );

    if args.trace {
        let before = Snapshot::in_process();
        let traced_start = Instant::now();
        let mut tracer = Tracer::new();
        let mut counts = ReviewCounts::default();
        let mut traced = Vec::new();
        for input in &inputs {
            match consolidate_traced(&pipeline, input, &mut tracer, &mut counts) {
                Ok(bytes) => traced.push(bytes),
                Err(e) => report.operation(Err(format!("{} (traced): {e}", input.name))),
            }
        }
        let traced_ms = traced_start.elapsed().as_secs_f64() * 1e3;
        let after = Snapshot::in_process();
        compare_outputs(&mut report, "review", &bytes, &traced);
        let rollup = Rollup::of(tracer.spans(), traced_ms);
        emit_trace(args, &tracer, &rollup);
        grouping_counters(&mut report, &before, &after, counts.questions);
        let bytes_in: usize = inputs.iter().map(|i| i.csv.len()).sum();
        let bytes_out: usize = bytes.iter().map(Vec::len).sum();
        report.metric("data.bytes_in", bytes_in as f64);
        report.metric("data.bytes_out", bytes_out as f64);
        review_layer_metrics(&mut report, &tracer, &counts, pipeline.config());
        report.rollup(&rollup, wall * 1e3);
        return Ok(report);
    }

    let questions: usize = outputs.iter().map(|o| o.questions).sum();
    let records: usize = inputs.iter().map(|i| i.records).sum();
    let waits = Latency::new(waits_ms);
    println!("{}", waits.describe("question_wait_ms"));
    println!("std_precision: {precision:.6} ratio, std_recall: {recall:.6} ratio");
    let (Some(p50), Some(p90)) = (waits.at(50.0), waits.at(90.0)) else {
        report.check(false, || {
            format!("{} question waits are too few for p90", waits.count())
        });
        return Ok(report);
    };
    report.metric("setup_s", setup_s);
    report.metric("wall_s", wall);
    report.metric("peak_rss_mb", crate::peak_rss_mb("self")?);
    report.metric("records_per_s", records as f64 / wall);
    report.metric("ops_per_s", questions as f64 / wall);
    report.metric("wait_ms.p50", p50);
    report.metric("wait_ms.p90", p90);
    report.metric("precision", precision);
    report.metric("recall", recall);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_output_check_catches_an_altered_output() {
        let untraced = vec![b"cluster,source\n0,1\n".to_vec(), b"x".to_vec()];
        let mut report = Report::default();
        compare_outputs(&mut report, "t", &untraced, &untraced.clone());
        assert_eq!((report.attempted, report.failed), (3, 0));
        let mut altered = untraced.clone();
        altered[0][16] = b'2';
        compare_outputs(&mut report, "t", &untraced, &altered);
        assert_eq!(report.failed, 1);
        compare_outputs(&mut report, "t", &untraced, &altered[..1]);
        assert_eq!(report.failed, 3, "a missing output fails too");
    }

    #[test]
    fn timed_oracle_excludes_its_own_time_and_counts_every_question() {
        struct Slow;
        impl Oracle for Slow {
            fn review(&mut self, _: &Group) -> Verdict {
                std::thread::sleep(std::time::Duration::from_millis(20));
                Verdict::Reject
            }
        }
        let group = Group::new(None, vec![ec_graph::Replacement::new("a", "b")]);
        let mut oracle = TimedOracle {
            inner: Slow,
            mark: Instant::now(),
            waits_ms: Vec::new(),
        };
        oracle.review(&group);
        oracle.review(&group);
        assert_eq!(oracle.waits_ms.len(), 2);
        assert!(
            oracle.waits_ms[1] < 10.0,
            "the 20 ms answer is not a wait: {:?}",
            oracle.waits_ms
        );
    }
}
