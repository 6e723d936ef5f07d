//! `pipeline`: repeated one-shot fused jobs, flat CSV in and golden CSV out —
//! `ec pipeline --threshold 0.95 --budget 100` run in process through the
//! CLI's own entry point.
//!
//! Inputs alternate between flat AuthorList and JournalTitle sets of a few
//! thousand rows. Resolution (CSV parse, blocking, scoring, union-find) does
//! most of the work here and grouping is light, so a resolution or parse
//! change shows and a grouping change should not. The threshold is 0.95
//! because at 0.9 and below pivot search blows up on AuthorList; Address is
//! left out because it blows up even at 0.95.

use crate::prom::Snapshot;
use crate::review::{
    compare_outputs, expert, grouping_counters, render, review_layer_metrics, standardize_traced,
    ReviewCounts,
};
use crate::stats::{Latency, PairCounts};
use crate::trace::{Rollup, Tracer};
use crate::{emit_trace, repeated_setup, shuffle, sub_seed, Args, Report, CORPUS_SEED, THREADS};
use ec_cli::memio::MemFiles;
use ec_core::{ConsolidationConfig, FusedPipeline, TruthMethod};
use ec_data::csv::CsvWriter;
use ec_data::{
    ClusteredCsvReader, FlatCsvReader, GeneratorConfig, PaperDataset, RecordStream, VecRecordStream,
};
use ec_resolution::{RawRecord, Resolver, ResolverConfig, UnionFind};
use std::time::Instant;

const THRESHOLD: f64 = 0.95;
const BUDGET: usize = 100;

/// The repeating pattern of inputs, with their cluster counts (about 2300
/// and 4900 rows), so AuthorList and JournalTitle jobs alternate.
/// JournalTitle jobs take about half as long, and the 3:2 mix keeps the
/// job-latency median inside the AuthorList mode instead of on the gap
/// between the two.
const PATTERN: [(PaperDataset, usize); 5] = [
    (PaperDataset::AuthorList, 150),
    (PaperDataset::JournalTitle, 2500),
    (PaperDataset::AuthorList, 150),
    (PaperDataset::JournalTitle, 2500),
    (PaperDataset::AuthorList, 150),
];

/// Distinct inputs (the pattern repeated); jobs cycle through them. Job cost
/// depends on the input and its record order, so many distinct shuffled
/// inputs per run keep the per-run figures steady across seeds.
const DISTINCT_INPUTS: usize = 4 * PATTERN.len();

/// Jobs per requested second, calibrated so the measured section takes
/// about `--seconds` on a 2-core machine (the work depends on the arguments
/// only, so `wall_s` compares between builds).
const JOBS_PER_SECOND: f64 = 9.0;

/// Floor on pairwise F1 against the generator's clusters. Generated author
/// lists and journal titles repeat across entities, so F1 at this threshold
/// is low (about 0.15); the floor catches a resolver that merges everything
/// or nothing.
const MIN_PAIR_F1: f64 = 0.05;

/// One flat input, kept with the generator's cluster id of every record.
struct Input {
    name: String,
    files: MemFiles,
    csv: Vec<u8>,
    truth: Vec<usize>,
}

fn make_inputs(seed: u64) -> Result<Vec<Input>, String> {
    (0..DISTINCT_INPUTS)
        .map(|i| {
            let (kind, clusters) = PATTERN[i % PATTERN.len()];
            let dataset = kind.generate(&GeneratorConfig {
                num_clusters: clusters,
                seed: sub_seed(CORPUS_SEED, i as u64),
                num_sources: kind.default_config().num_sources,
            });
            // Flattened like `ec generate --flat`, cluster by cluster, in a
            // cluster order the workload seed shuffles; each record keeps
            // its cluster.
            let mut clusters: Vec<(usize, &ec_data::Cluster)> =
                dataset.clusters.iter().enumerate().collect();
            shuffle(&mut clusters, sub_seed(seed, i as u64));
            let rows: Vec<(usize, &ec_data::Row)> = clusters
                .iter()
                .flat_map(|&(c, cluster)| cluster.rows.iter().map(move |row| (c, row)))
                .collect();
            let mut csv = Vec::new();
            let mut writer = CsvWriter::new(&mut csv);
            let header =
                std::iter::once("source").chain(dataset.columns.iter().map(String::as_str));
            writer.write_record(header).map_err(|e| e.to_string())?;
            for (_, row) in &rows {
                let fields = std::iter::once(row.source.to_string())
                    .chain(row.cells.iter().map(|cell| cell.observed.clone()));
                writer.write_record(fields).map_err(|e| e.to_string())?;
            }
            let truth = rows.iter().map(|(c, _)| *c).collect();
            writer.flush().map_err(|e| e.to_string())?;
            drop(writer);
            let files = MemFiles::new();
            files.insert(
                "in.csv",
                std::str::from_utf8(&csv).map_err(|e| e.to_string())?,
            );
            Ok(Input {
                name: format!("{}-{i}", kind.name()),
                files,
                csv,
                truth,
            })
        })
        .collect()
}

/// One `ec pipeline` job through the CLI's entry point; returns the
/// `--output` file followed by the `--golden` file, and where the first
/// ends.
fn job(input: &Input) -> Result<(Vec<u8>, usize), String> {
    let argv: Vec<String> = [
        "pipeline",
        "--input",
        "in.csv",
        "--threshold",
        "0.95",
        "--budget",
        "100",
        "--threads",
        "2",
        "--output",
        "std.csv",
        "--golden",
        "gold.csv",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let parsed = ec_cli::parse(&argv).map_err(|e| e.to_string())?;
    ec_cli::run(
        &parsed,
        &input.files.input_opener(),
        &input.files.output_opener(),
        &mut std::io::empty(),
        &mut std::io::sink(),
    )
    .map_err(|e| format!("{}: {e}", input.name))?;
    let mut out = input.files.get_bytes("std.csv").ok_or("no --output file")?;
    let standardized = out.len();
    out.extend(
        input
            .files
            .get_bytes("gold.csv")
            .ok_or("no --golden file")?,
    );
    Ok((out, standardized))
}

fn fused() -> FusedPipeline {
    FusedPipeline::new(
        ResolverConfig {
            threshold: THRESHOLD,
            ..ResolverConfig::default()
        },
        ConsolidationConfig {
            budget: BUDGET,
            ..ConsolidationConfig::default()
        }
        .with_threads(THREADS),
    )
}

fn parse_flat(csv: &[u8]) -> Result<(Vec<String>, Vec<ec_data::FlatRecord>), String> {
    let mut reader = FlatCsvReader::new(csv).map_err(|e| e.to_string())?;
    let columns = reader.columns().to_vec();
    let mut records = Vec::new();
    while let Some(record) = reader.next_record() {
        records.push(record.map_err(|e| e.to_string())?);
    }
    Ok((columns, records))
}

/// The traced job: the calls `ec pipeline` makes, one span per call into a
/// layer. The CSV is parsed up front rather than interleaved with the
/// resolver's pushes; the records reach the resolver in the same order.
fn job_traced(
    input: &Input,
    tracer: &mut Tracer,
    counts: &mut ReviewCounts,
) -> Result<Vec<u8>, String> {
    let fused = fused();
    let (columns, records) = tracer.span("data.parse", |_| parse_flat(&input.csv))?;
    let mut dataset = tracer
        .span("resolution.resolve_stream", |_| {
            fused.resolve_stream("resolved", &mut VecRecordStream::new(columns, records))
        })
        .map_err(|e| e.to_string())?;
    for col in 0..dataset.columns.len() {
        let mut oracle = tracer.span("core.expert", |_| expert(&dataset, col));
        tracer.span("core.standardize_column", |t| {
            standardize_traced(
                fused.pipeline().config(),
                &mut dataset,
                col,
                &mut oracle,
                t,
                counts,
            )
        });
    }
    let golden = tracer.span("truth.discover", |_| {
        fused
            .pipeline()
            .discover_golden_records(&dataset, TruthMethod::MajorityConsensus)
    });
    tracer.span("data.write", |_| render(&dataset, &golden))
}

fn raw_records(csv: &[u8]) -> Result<Vec<RawRecord>, String> {
    let (_, records) = parse_flat(csv)?;
    Ok(records
        .into_iter()
        .map(|r| RawRecord::new(r.source, r.fields))
        .collect())
}

/// Cluster sizes of a clustered CSV, sorted.
fn output_cluster_sizes(output: &[u8]) -> Result<Vec<usize>, String> {
    let dataset = ClusteredCsvReader::new(output)
        .and_then(|r| r.into_dataset("out"))
        .map_err(|e| e.to_string())?;
    let mut sizes: Vec<usize> = dataset.clusters.iter().map(|c| c.rows.len()).collect();
    sizes.sort_unstable();
    Ok(sizes)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let jobs = ((args.seconds as f64 * JOBS_PER_SECOND).round() as usize).max(DISTINCT_INPUTS);
    let (inputs, setup_s) = repeated_setup(|| make_inputs(args.seed))?;
    let mut report = Report::default();

    let mut latencies_ms = Vec::with_capacity(jobs);
    let mut outputs: Vec<Option<(Vec<u8>, usize)>> = vec![None; inputs.len()];
    let mut records = 0usize;
    let start = Instant::now();
    for j in 0..jobs {
        let input = &inputs[j % inputs.len()];
        let job_start = Instant::now();
        let result = job(input);
        let elapsed_ms = job_start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(output) => {
                latencies_ms.push(elapsed_ms);
                records += input.truth.len();
                let first = &mut outputs[j % inputs.len()];
                match first {
                    None => {
                        *first = Some(output);
                        report.operation(Ok(()));
                    }
                    Some(previous) => report.check(previous.0 == output.0, || {
                        format!(
                            "{}: job {j} output differs from an earlier job on the same input",
                            input.name
                        )
                    }),
                }
            }
            Err(e) => report.operation(Err(e)),
        }
    }
    let wall = start.elapsed().as_secs_f64();

    // Quality against the generator's clusters, from the batch resolver,
    // whose clusters must match the ones in the job's output.
    let resolver = fused().resolver().clone();
    let mut pairs = PairCounts::default();
    for (input, output) in inputs.iter().zip(&outputs) {
        let Some((output, standardized)) = output else {
            continue;
        };
        let groups = resolver.resolve(&raw_records(&input.csv)?);
        let mut predicted = vec![0; input.truth.len()];
        for (g, members) in groups.iter().enumerate() {
            for &m in members {
                predicted[m] = g;
            }
        }
        let mut sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        report.check(
            output_cluster_sizes(&output[..*standardized])? == sizes,
            || format!("{}: output clusters differ from the resolver's", input.name),
        );
        pairs = pairs.add(PairCounts::of(&predicted, &input.truth));
    }
    let f1 = pairs.f1();
    report.check(f1 >= MIN_PAIR_F1, || {
        format!("pairwise F1 {f1:.4} is below {MIN_PAIR_F1}")
    });
    println!(
        "pipeline: {} jobs over {} inputs; pair_f1: {f1:.6} ratio (precision {:.6}, recall {:.6})",
        latencies_ms.len(),
        inputs.len(),
        pairs.precision(),
        pairs.recall()
    );

    if args.trace {
        let untraced: Vec<Vec<u8>> = outputs
            .iter()
            .flatten()
            .map(|(bytes, _)| bytes.clone())
            .collect();
        let before = Snapshot::in_process();
        let traced_start = Instant::now();
        let mut tracer = Tracer::new();
        let mut counts = ReviewCounts::default();
        let mut traced = Vec::new();
        for j in 0..jobs {
            let input = &inputs[j % inputs.len()];
            match job_traced(input, &mut tracer, &mut counts) {
                Ok(bytes) if j < inputs.len() => traced.push(bytes),
                Ok(_) => {}
                Err(e) => report.operation(Err(format!("{} (traced): {e}", input.name))),
            }
        }
        let traced_ms = traced_start.elapsed().as_secs_f64() * 1e3;
        let after = Snapshot::in_process();
        compare_outputs(&mut report, "pipeline", &untraced, &traced);
        let rollup = Rollup::of(tracer.spans(), traced_ms);
        emit_trace(args, &tracer, &rollup);
        grouping_counters(&mut report, &before, &after, counts.questions);
        review_layer_metrics(&mut report, &tracer, &counts, fused().pipeline().config());
        resolution_metrics(&mut report, &inputs, &resolver, &before, &after, jobs)?;
        let bytes_in: usize = (0..jobs).map(|j| inputs[j % inputs.len()].csv.len()).sum();
        let bytes_out: usize = (0..jobs).map(|j| untraced[j % untraced.len()].len()).sum();
        report.metric("data.bytes_in", bytes_in as f64);
        report.metric("data.bytes_out", bytes_out as f64);
        report.rollup(&rollup, wall * 1e3);
        return Ok(report);
    }

    let latency = Latency::new(latencies_ms);
    println!("{}", latency.describe("job_ms"));
    let (Some(p50), Some(p90)) = (latency.at(50.0), latency.at(90.0)) else {
        report.check(false, || {
            format!("{} jobs are too few for p90", latency.count())
        });
        return Ok(report);
    };
    report.metric("setup_s", setup_s);
    report.metric("wall_s", wall);
    report.metric("peak_rss_mb", crate::peak_rss_mb("self")?);
    report.metric("records_per_s", records as f64 / wall);
    report.metric("ops_per_s", latency.count() as f64 / wall);
    report.metric("wait_ms.p50", p50);
    report.metric("wait_ms.p90", p90);
    report.metric("precision", pairs.precision());
    report.metric("recall", pairs.recall());
    Ok(report)
}

/// Resolution counts: stage times and abandoned pairs from the program's
/// registry (scaled per job), pair and cluster counts from
/// `Resolver::match_pairs` on each distinct input, and the union-find time
/// over those decisions measured here.
fn resolution_metrics(
    report: &mut Report,
    inputs: &[Input],
    resolver: &Resolver,
    before: &Snapshot,
    after: &Snapshot,
    jobs: usize,
) -> Result<(), String> {
    report.metric(
        "resolution.block_ms",
        after.stage_ms(before, "resolution.blocking"),
    );
    report.metric(
        "resolution.score_ms",
        after.stage_ms(before, "resolution.scoring"),
    );
    report.metric(
        "resolution.pairs_abandoned",
        after.delta(before, "ec_resolution_pairs_abandoned_total"),
    );
    let (mut candidates, mut matched, mut clusters, mut union_ms) = (0.0, 0.0, 0.0, 0.0);
    let mut largest = 0;
    for (i, input) in inputs.iter().enumerate() {
        // Jobs cycle through the inputs: weigh each by how often it ran
        // instead of re-scoring the repeats.
        let runs = (jobs / inputs.len() + usize::from(i < jobs % inputs.len())) as f64;
        let records = raw_records(&input.csv)?;
        let decisions = resolver.match_pairs(&records);
        let start = Instant::now();
        let mut uf = UnionFind::new(records.len());
        for d in decisions.iter().filter(|d| d.is_match) {
            uf.union(d.a, d.b);
        }
        let groups = uf.into_groups();
        union_ms += start.elapsed().as_secs_f64() * 1e3 * runs;
        candidates += decisions.len() as f64 * runs;
        matched += decisions.iter().filter(|d| d.is_match).count() as f64 * runs;
        clusters += groups.len() as f64 * runs;
        largest = largest.max(groups.iter().map(Vec::len).max().unwrap_or(0));
    }
    report.metric("resolution.union_ms", union_ms);
    report.metric("resolution.candidate_pairs", candidates);
    report.metric("resolution.pairs_matched", matched);
    report.metric("resolution.clusters", clusters);
    report.metric("resolution.match_ratio", matched / candidates.max(1.0));
    report.metric("resolution.max_cluster_rows", largest as f64);
    Ok(())
}
