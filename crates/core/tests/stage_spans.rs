//! Every standardization path — fresh, replayed from a compiled state, and
//! delta ingest — runs through the one review loop, so each records exactly
//! one `core.standardize_column` stage observation per column.
//!
//! This binary holds a single test on purpose: the metrics registry is
//! process-global, and a test running alongside would move the count.

use ec_core::{
    compile_dataset, standardize_columns, AutoMode, ConsolidationConfig, DeltaPipeline, Pipeline,
    TruthMethod,
};
use ec_resolution::{RawRecord, Resolver, ResolverConfig};

/// Observations of the `core.standardize_column` stage so far.
fn standardized_columns() -> u64 {
    ec_obs::stage_histogram("core.standardize_column")
        .snapshot()
        .count()
}

fn records() -> Vec<RawRecord> {
    [
        (0, ["Mary Lee", "9 St, 02141 Wisconsin"]),
        (1, ["M. Lee", "9th St, 02141 WI"]),
        (2, ["Lee, Mary", "9 St, 02141 Wisconsin"]),
        (0, ["James Smith", "3rd E Ave, 33990 Wisconsin"]),
        (1, ["Smith, James", "3rd E Ave, 33990 WI"]),
        (2, ["J. Smith", "3rd E Ave, 33990 Wisconsin"]),
    ]
    .into_iter()
    .map(|(source, fields)| RawRecord::new(source, fields))
    .collect()
}

#[test]
fn every_path_records_one_standardize_column_stage_per_column() {
    let names = vec!["Name".to_string(), "Address".to_string()];
    let config = ConsolidationConfig {
        budget: 10,
        ..ConsolidationConfig::default()
    };
    let pipeline = Pipeline::new(config.clone());
    let dataset = Resolver::new(ResolverConfig::default()).resolve_to_dataset(
        "spans",
        names.clone(),
        &records(),
        None,
    );
    let columns: Vec<usize> = (0..names.len()).collect();
    let expected = names.len() as u64;

    let before = standardized_columns();
    let mut fresh = dataset.clone();
    standardize_columns(
        &pipeline,
        &mut fresh,
        &columns,
        AutoMode::Auto,
        true,
        None,
        None,
    );
    assert_eq!(standardized_columns() - before, expected, "fresh path");

    let compiled = compile_dataset(dataset, 0.75, true, &config);
    let before = standardized_columns();
    let mut replayed = compiled.dataset.clone();
    standardize_columns(
        &pipeline,
        &mut replayed,
        &columns,
        AutoMode::Auto,
        compiled.has_truth,
        Some(&compiled.columns),
        None,
    );
    assert_eq!(standardized_columns() - before, expected, "compiled path");
    assert_eq!(
        replayed, fresh,
        "the compiled replay standardizes identically"
    );

    let mut delta = DeltaPipeline::new(
        "spans",
        names,
        ResolverConfig::default(),
        config,
        AutoMode::Auto,
        TruthMethod::MajorityConsensus,
    );
    let before = standardized_columns();
    delta.ingest_batch(records());
    assert_eq!(standardized_columns() - before, expected, "delta path");
}
