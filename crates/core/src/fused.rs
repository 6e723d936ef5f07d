//! The fused resolve → standardize → truth-discovery stage.
//!
//! `ec resolve` and `ec consolidate` historically ran as two passes that
//! round-tripped through a full clustered CSV on disk. [`FusedPipeline`]
//! removes the intermediate file: it pairs the streaming resolver
//! ([`ec_resolution::Resolver::resolve_stream`]) with the consolidation
//! [`Pipeline`], so flat records go in one end and the resolved dataset goes
//! straight to [`crate::standardize_columns`] and truth discovery, while only
//! the resolved dataset (never the input document) is held in memory.
//!
//! The output is bit-identical to the two-pass flow on the same input: the
//! streaming resolver reproduces the batch resolver exactly, and the
//! clustered-CSV round trip between the passes is order-preserving.

use crate::pipeline::{ConsolidationConfig, Pipeline};
use ec_data::{Dataset, DatasetIoError, RecordStream};
use ec_resolution::{Resolver, ResolverConfig};

/// The fused pipeline: entity resolution feeding entity consolidation
/// without an intermediate file.
#[derive(Debug, Clone)]
pub struct FusedPipeline {
    resolver: Resolver,
    pipeline: Pipeline,
}

impl FusedPipeline {
    /// Creates a fused pipeline from the two stages' configurations.
    pub fn new(resolver: ResolverConfig, consolidation: ConsolidationConfig) -> Self {
        // Pair scoring shards over the same thread budget as the
        // consolidation stages; output is bit-identical for every setting.
        let parallelism = consolidation.candidates.parallelism;
        FusedPipeline {
            resolver: Resolver::new(resolver).with_parallelism(parallelism),
            pipeline: Pipeline::new(consolidation),
        }
    }

    /// The resolution stage.
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// The consolidation stage.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Resolves the stream into clusters (streaming; the input document is
    /// never materialized).
    pub fn resolve_stream<S: RecordStream + ?Sized>(
        &self,
        name: &str,
        stream: &mut S,
    ) -> Result<Dataset, DatasetIoError> {
        self.resolver.resolve_stream(name, stream)
    }
}

impl Default for FusedPipeline {
    fn default() -> Self {
        FusedPipeline::new(ResolverConfig::default(), ConsolidationConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidate::{standardize_columns, AutoMode};
    use crate::oracle::{ApproveAllOracle, SimulatedOracle};
    use crate::pipeline::TruthMethod;
    use ec_data::{dataset_from_csv, dataset_to_csv, FlatCsvReader, FlatRecord, VecRecordStream};

    /// Flat records with name variants that resolve into two clusters.
    fn flat_records() -> (Vec<String>, Vec<FlatRecord>) {
        let columns = vec!["Name".to_string(), "Address".to_string()];
        let rows = [
            (0, ["Mary Lee", "9 St, 02141 Wisconsin"]),
            (1, ["M. Lee", "9th St, 02141 WI"]),
            (2, ["Lee, Mary", "9 Street, 02141 WI"]),
            (0, ["Smith, James", "5th St, 22701 California"]),
            (1, ["James Smith", "3rd E Ave, 33990 California"]),
            (2, ["J. Smith", "3 E Avenue, 33990 CA"]),
        ];
        let records = rows
            .into_iter()
            .map(|(source, fields)| FlatRecord {
                source,
                fields: fields.into_iter().map(str::to_string).collect(),
            })
            .collect();
        (columns, records)
    }

    #[test]
    fn fused_run_produces_golden_records_without_an_intermediate_file() {
        let (columns, records) = flat_records();
        let fused = FusedPipeline::new(
            ec_resolution::ResolverConfig {
                threshold: 0.5,
                ..Default::default()
            },
            ConsolidationConfig {
                budget: 20,
                ..Default::default()
            },
        );
        let mut stream = VecRecordStream::new(columns, records);
        let mut dataset = fused.resolve_stream("fused", &mut stream).unwrap();
        let report = fused.pipeline().golden_records(
            &mut dataset,
            &mut ApproveAllOracle,
            TruthMethod::MajorityConsensus,
        );
        assert_eq!(report.columns.len(), 2);
        assert_eq!(report.golden_records.len(), dataset.clusters.len());
        assert!(dataset.clusters.len() < 6, "similar records merged");
    }

    #[test]
    fn fused_run_matches_the_two_pass_flow() {
        // Two-pass: resolve → clustered CSV → parse → standardize per column.
        let (columns, records) = flat_records();
        let resolver_config = ec_resolution::ResolverConfig {
            threshold: 0.5,
            ..Default::default()
        };
        let consolidation = ConsolidationConfig {
            budget: 15,
            ..Default::default()
        };

        let resolver = ec_resolution::Resolver::new(resolver_config.clone());
        let raw: Vec<ec_resolution::RawRecord> = records
            .iter()
            .map(|r| ec_resolution::RawRecord {
                source: r.source,
                fields: r.fields.clone(),
            })
            .collect();
        let resolved = resolver.resolve_to_dataset("resolved", columns.clone(), &raw, None);
        let csv = dataset_to_csv(&resolved);
        let mut two_pass = dataset_from_csv("input", &csv).unwrap();
        let pipeline = Pipeline::new(consolidation.clone());
        let mut reports = Vec::new();
        for col in 0..two_pass.columns.len() {
            let mut oracle = SimulatedOracle::for_column(&two_pass, col, 7 + col as u64);
            reports.push(pipeline.standardize_column(&mut two_pass, col, &mut oracle));
        }
        let two_pass_golden =
            pipeline.discover_golden_records(&two_pass, TruthMethod::MajorityConsensus);

        // Fused: same records, no intermediate CSV — the resolved stream goes
        // straight into the shared consolidation driver, as `ec pipeline`
        // runs it.
        let fused = FusedPipeline::new(resolver_config, consolidation);
        let mut stream = VecRecordStream::new(columns, records);
        let mut dataset = fused.resolve_stream("input", &mut stream).unwrap();
        let all: Vec<usize> = (0..dataset.columns.len()).collect();
        let fused_reports = standardize_columns(
            fused.pipeline(),
            &mut dataset,
            &all,
            AutoMode::Auto,
            true,
            None,
            None,
        );
        let fused_golden = fused
            .pipeline()
            .discover_golden_records(&dataset, TruthMethod::MajorityConsensus);

        assert_eq!(dataset.clusters, two_pass.clusters);
        assert_eq!(fused_reports, reports);
        assert_eq!(fused_golden, two_pass_golden);
        assert_eq!(dataset_to_csv(&dataset), dataset_to_csv(&two_pass));
    }

    #[test]
    fn stream_errors_abort_the_run() {
        let text = "source,Name\n0,ok\nnope,bad\n";
        let mut stream = FlatCsvReader::new(text.as_bytes()).unwrap();
        let result = FusedPipeline::default().resolve_stream("x", &mut stream);
        assert!(result.is_err());
    }
}
