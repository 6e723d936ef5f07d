//! The golden-record creation pipeline (Algorithm 1).

use crate::compiled::CompiledColumn;
use crate::library::ApprovedGroup;
use crate::oracle::{Oracle, Verdict};
use ec_data::Dataset;
use ec_grouping::{Group, GroupingConfig, StructuredGrouper};
use ec_replace::{CandidateConfig, ReplacementEngine};
use ec_truth::{majority_consensus, reliability_truth_discovery, Claim, ReliabilityConfig};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;

/// Which truth-discovery method closes the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TruthMethod {
    /// Majority consensus (the method evaluated in the paper's Table 8).
    MajorityConsensus,
    /// Iterative source-reliability weighting.
    SourceReliability,
}

/// Configuration of the consolidation pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationConfig {
    /// Grouping configuration (DSL/graph/search settings).
    pub grouping: GroupingConfig,
    /// Candidate-generation configuration.
    pub candidates: CandidateConfig,
    /// Human budget: the maximum number of groups presented per column.
    pub budget: usize,
}

impl Default for ConsolidationConfig {
    fn default() -> Self {
        ConsolidationConfig {
            grouping: GroupingConfig::default(),
            candidates: CandidateConfig::default(),
            budget: 100,
        }
    }
}

impl ConsolidationConfig {
    /// Sets one [`Parallelism`](ec_grouping::Parallelism) on both sharded stages — candidate generation
    /// and pivot-path grouping. The pipeline's output is bit-identical for
    /// every setting; only the wall-clock time changes.
    pub fn with_parallelism(mut self, parallelism: ec_grouping::Parallelism) -> Self {
        self.grouping.parallelism = parallelism;
        self.candidates.parallelism = parallelism;
        self
    }

    /// [`ConsolidationConfig::with_parallelism`] with a raw thread count
    /// (`0` means auto — `EC_THREADS` or the machine).
    pub fn with_threads(self, threads: usize) -> Self {
        self.with_parallelism(ec_grouping::Parallelism::from(threads))
    }
}

/// What happened while standardizing one column.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnReport {
    /// The column index.
    pub column: usize,
    /// Number of candidate replacements generated.
    pub candidates: usize,
    /// Number of groups presented to the oracle.
    pub groups_reviewed: usize,
    /// Number of groups the oracle approved.
    pub groups_approved: usize,
    /// Number of cells rewritten.
    pub cells_updated: usize,
}

/// The outcome of a full golden-record creation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldenRecordReport {
    /// One report per column.
    pub columns: Vec<ColumnReport>,
    /// `golden_records[cluster][column]` — the produced golden value, or
    /// `None` when truth discovery could not decide.
    pub golden_records: Vec<Vec<Option<String>>>,
}

/// The entity-consolidation pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: ConsolidationConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: ConsolidationConfig) -> Self {
        Pipeline { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ConsolidationConfig {
        &self.config
    }

    /// Standardizes one column in place (Algorithm 1, lines 2–9): generates
    /// candidates, groups them, asks the oracle about the largest groups until
    /// the budget is exhausted, and applies every approved group.
    pub fn standardize_column(
        &self,
        dataset: &mut Dataset,
        col: usize,
        oracle: &mut dyn Oracle,
    ) -> ColumnReport {
        self.standardize_column_traced(dataset, col, oracle).0
    }

    /// [`Pipeline::standardize_column`], additionally returning the groups
    /// the oracle approved (with the chosen directions) in review order —
    /// the raw material a [`crate::ProgramLibrary`] is built from, so the
    /// human's verification work survives the batch that produced it.
    pub fn standardize_column_traced(
        &self,
        dataset: &mut Dataset,
        col: usize,
        oracle: &mut dyn Oracle,
    ) -> (ColumnReport, Vec<ApprovedGroup>) {
        self.standardize_column_from(dataset, col, None, oracle)
    }

    /// [`Pipeline::standardize_column_traced`], replaying `compiled` when it
    /// is given: the engine is reassembled from the stored candidate sets and
    /// the grouper from the stored partitions, skipping candidate generation,
    /// graph construction and indexing. The output is identical either way.
    pub fn standardize_column_from(
        &self,
        dataset: &mut Dataset,
        col: usize,
        compiled: Option<&CompiledColumn>,
        oracle: &mut dyn Oracle,
    ) -> (ColumnReport, Vec<ApprovedGroup>) {
        let grouping = self.config.grouping.clone();
        review_column(dataset, col, self.config.budget, oracle, |values| {
            let engine = match compiled {
                Some(compiled) => {
                    ReplacementEngine::from_parts(values, compiled.candidates.clone())
                }
                None => ReplacementEngine::new(values, &self.config.candidates),
            };
            let candidates = engine.candidates();
            let mut grouper = match compiled {
                Some(compiled) => {
                    let parts = compiled
                        .partitions
                        .iter()
                        .map(|p| (p.members.clone(), Arc::clone(&p.prepared)))
                        .collect();
                    StructuredGrouper::from_compiled(parts, grouping)
                }
                None => StructuredGrouper::new(&candidates, grouping),
            };
            let groups = std::iter::from_fn(move || grouper.next_group()).map(Cow::Owned);
            (engine, candidates.len(), groups)
        })
    }

    /// Runs truth discovery over the (already standardized) dataset and
    /// returns one golden value per cluster and column.
    pub fn discover_golden_records(
        &self,
        dataset: &Dataset,
        method: TruthMethod,
    ) -> Vec<Vec<Option<String>>> {
        let _span = ec_obs::span!("core.truth_discovery");
        match method {
            TruthMethod::MajorityConsensus => dataset
                .clusters
                .iter()
                .map(|cluster| {
                    (0..dataset.columns.len())
                        .map(|col| {
                            let values: Vec<&str> = cluster
                                .rows
                                .iter()
                                .map(|r| r.cells[col].observed.as_str())
                                .collect();
                            majority_consensus(&values).value
                        })
                        .collect()
                })
                .collect(),
            TruthMethod::SourceReliability => {
                // Reliability estimation works one column at a time; transpose
                // the per-column resolutions back into per-cluster rows.
                let per_column: Vec<Vec<Option<String>>> = (0..dataset.columns.len())
                    .map(|col| {
                        let claims: Vec<Vec<Claim>> = dataset
                            .clusters
                            .iter()
                            .map(|cluster| {
                                cluster
                                    .rows
                                    .iter()
                                    .map(|r| Claim {
                                        value: r.cells[col].observed.clone(),
                                        source: r.source,
                                    })
                                    .collect()
                            })
                            .collect();
                        reliability_truth_discovery(&claims, &ReliabilityConfig::default())
                            .into_iter()
                            .map(|res| res.value)
                            .collect()
                    })
                    .collect();
                (0..dataset.clusters.len())
                    .map(|c| per_column.iter().map(|column| column[c].clone()).collect())
                    .collect()
            }
        }
    }

    /// The full Algorithm 1: standardizes every column with the given oracle,
    /// then runs truth discovery and returns the golden records.
    pub fn golden_records(
        &self,
        dataset: &mut Dataset,
        oracle: &mut dyn Oracle,
        method: TruthMethod,
    ) -> GoldenRecordReport {
        let columns = (0..dataset.columns.len())
            .map(|col| self.standardize_column(dataset, col, oracle))
            .collect();
        let golden_records = self.discover_golden_records(dataset, method);
        GoldenRecordReport {
            columns,
            golden_records,
        }
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new(ConsolidationConfig::default())
    }
}

/// Standardizes one column in place (Algorithm 1, lines 2–9) — the one review
/// loop behind the fresh, compiled and delta paths. `prepare` turns the
/// column's cluster values into the replacement engine, its candidate count
/// and the groups to review, largest first; the oracle then reviews groups
/// until the budget is exhausted, and every approved group is applied.
/// Returns the report and the approved groups in review order.
pub(crate) fn review_column<'g, G>(
    dataset: &mut Dataset,
    col: usize,
    budget: usize,
    oracle: &mut dyn Oracle,
    prepare: impl FnOnce(Vec<Vec<String>>) -> (ReplacementEngine, usize, G),
) -> (ColumnReport, Vec<ApprovedGroup>)
where
    G: Iterator<Item = Cow<'g, Group>>,
{
    let _span = ec_obs::span!("core.standardize_column", col);
    let (mut engine, candidates, groups) = prepare(dataset.column_values(col));
    let mut reviewed = 0usize;
    let mut approved = Vec::new();
    for group in groups.take(budget) {
        reviewed += 1;
        if let Verdict::Approve(direction) = oracle.review(&group) {
            engine.apply_group(group.members(), direction);
            approved.push(ApprovedGroup {
                group: group.into_owned(),
                direction,
            });
        }
    }
    let report = ColumnReport {
        column: col,
        candidates,
        groups_reviewed: reviewed,
        groups_approved: approved.len(),
        cells_updated: engine.cells_updated(),
    };
    dataset.set_column_values(col, engine.into_values());
    (report, approved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{ApproveAllOracle, RejectAllOracle, SimulatedOracle};
    use ec_data::{Cell, Cluster, GeneratorConfig, PaperDataset, Row};
    use ec_metrics::{evaluate_standardization, golden_record_precision};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Table 1 of the paper, with ground truth.
    fn table1() -> Dataset {
        let mk = |observed: &str, truth: &str| Cell {
            observed: observed.to_string(),
            truth: truth.to_string(),
        };
        let mut d = Dataset::new("table1", vec!["Name".to_string()]);
        d.clusters.push(Cluster {
            rows: vec![
                Row {
                    source: 0,
                    cells: vec![mk("Mary Lee", "Mary Lee")],
                },
                Row {
                    source: 1,
                    cells: vec![mk("M. Lee", "Mary Lee")],
                },
                Row {
                    source: 2,
                    cells: vec![mk("Lee, Mary", "Mary Lee")],
                },
            ],
            golden: vec!["Mary Lee".to_string()],
        });
        d.clusters.push(Cluster {
            rows: vec![
                Row {
                    source: 0,
                    cells: vec![mk("Smith, James", "James Smith")],
                },
                Row {
                    source: 1,
                    cells: vec![mk("James Smith", "James Smith")],
                },
                Row {
                    source: 2,
                    cells: vec![mk("J. Smith", "James Smith")],
                },
            ],
            golden: vec!["James Smith".to_string()],
        });
        d
    }

    #[test]
    fn standardizing_table1_consolidates_the_name_column() {
        let mut dataset = table1();
        let pipeline = Pipeline::new(ConsolidationConfig {
            budget: 20,
            candidates: ec_replace::CandidateConfig::full_value_only(),
            ..ConsolidationConfig::default()
        });
        let mut oracle = SimulatedOracle::for_column(&dataset, 0, 9);
        let report = pipeline.standardize_column(&mut dataset, 0, &mut oracle);
        assert!(report.groups_approved > 0);
        assert!(report.cells_updated > 0);
        // Every record of cluster 0 should now agree on a single name format,
        // and that format must be a rendering of Mary Lee (not of James Smith).
        let values = dataset.column_values(0);
        assert!(values[0].iter().all(|v| v == &values[0][0]), "{values:?}");
        assert!(values[0][0].contains("Lee"));
        // Truth discovery after standardization produces the right goldens up
        // to formatting: majority consensus now has a clear winner.
        let goldens = pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus);
        assert!(goldens[0][0].is_some());
        assert!(goldens[1][0].is_some());
    }

    #[test]
    fn rejecting_everything_changes_nothing() {
        let mut dataset = table1();
        let before = dataset.clone();
        let pipeline = Pipeline::default();
        let report = pipeline.standardize_column(&mut dataset, 0, &mut RejectAllOracle);
        assert_eq!(report.groups_approved, 0);
        assert_eq!(report.cells_updated, 0);
        assert_eq!(dataset, before);
    }

    #[test]
    fn budget_limits_the_number_of_reviews() {
        let mut dataset = table1();
        let pipeline = Pipeline::new(ConsolidationConfig {
            budget: 2,
            candidates: ec_replace::CandidateConfig::full_value_only(),
            ..ConsolidationConfig::default()
        });
        let report = pipeline.standardize_column(&mut dataset, 0, &mut ApproveAllOracle);
        assert_eq!(report.groups_reviewed, 2);
    }

    #[test]
    fn standardization_improves_recall_and_keeps_precision_high() {
        let mut dataset = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 60,
            seed: 5,
            num_sources: 4,
        });
        let mut rng = StdRng::seed_from_u64(17);
        let sample = dataset.sample_labeled_pairs(0, 400, &mut rng);
        let before = evaluate_standardization(&sample, &dataset.column_values(0));
        assert_eq!(before.tp, 0, "nothing is standardized yet");

        let pipeline = Pipeline::new(ConsolidationConfig {
            budget: 60,
            ..Default::default()
        });
        let mut oracle = SimulatedOracle::for_column(&dataset, 0, 3);
        pipeline.standardize_column(&mut dataset, 0, &mut oracle);
        let after = evaluate_standardization(&sample, &dataset.column_values(0));
        assert!(
            after.recall() > 0.3,
            "recall should improve substantially: {after:?}"
        );
        assert!(
            after.precision() > 0.9,
            "precision should stay high: {after:?}"
        );
        assert!(after.mcc() > before.mcc());
    }

    #[test]
    fn golden_record_precision_improves_after_standardization() {
        // The Table 8 effect: majority consensus does much better on the
        // standardized clusters.
        let dataset = PaperDataset::JournalTitle.generate(&GeneratorConfig {
            num_clusters: 150,
            seed: 8,
            num_sources: 6,
        });
        let truth: Vec<String> = dataset
            .clusters
            .iter()
            .map(|c| c.golden[0].clone())
            .collect();
        let pipeline = Pipeline::new(ConsolidationConfig {
            budget: 80,
            ..Default::default()
        });

        let before_goldens =
            pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus);
        let before: Vec<Option<String>> = before_goldens.iter().map(|g| g[0].clone()).collect();
        let before_precision = golden_record_precision(&before, &truth);

        let mut standardized = dataset.clone();
        let mut oracle = SimulatedOracle::for_column(&standardized, 0, 4);
        pipeline.standardize_column(&mut standardized, 0, &mut oracle);
        let after_goldens =
            pipeline.discover_golden_records(&standardized, TruthMethod::MajorityConsensus);
        let after: Vec<Option<String>> = after_goldens.iter().map(|g| g[0].clone()).collect();
        let after_precision = golden_record_precision(&after, &truth);
        assert!(
            after_precision > before_precision,
            "standardization must help MC: before {before_precision:.3}, after {after_precision:.3}"
        );
    }

    #[test]
    fn parallelism_does_not_change_pipeline_output() {
        let dataset = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 25,
            seed: 3,
            num_sources: 4,
        });
        let mut outcomes = Vec::new();
        for threads in [1usize, 4] {
            let mut ds = dataset.clone();
            let pipeline = Pipeline::new(
                ConsolidationConfig {
                    budget: 25,
                    ..ConsolidationConfig::default()
                }
                .with_threads(threads),
            );
            let mut oracle = SimulatedOracle::for_column(&ds, 0, 7);
            let report = pipeline.standardize_column(&mut ds, 0, &mut oracle);
            outcomes.push((ds, report));
        }
        assert_eq!(
            outcomes[0], outcomes[1],
            "thread count must not change the standardized dataset or report"
        );
    }

    #[test]
    fn source_reliability_truth_discovery_runs_end_to_end() {
        let mut dataset = table1();
        let pipeline = Pipeline::new(ConsolidationConfig {
            budget: 10,
            candidates: ec_replace::CandidateConfig::full_value_only(),
            ..ConsolidationConfig::default()
        });
        let mut oracle = SimulatedOracle::for_column(&dataset, 0, 2);
        let report =
            pipeline.golden_records(&mut dataset, &mut oracle, TruthMethod::SourceReliability);
        assert_eq!(report.columns.len(), 1);
        assert_eq!(report.golden_records.len(), 2);
        assert!(report.golden_records.iter().all(|g| g[0].is_some()));
    }

    #[test]
    fn doc_example_compiles_and_runs() {
        let mut dataset = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 20,
            seed: 7,
            num_sources: 4,
        });
        let config = ConsolidationConfig {
            budget: 20,
            ..ConsolidationConfig::default()
        };
        let mut oracle = SimulatedOracle::for_column(&dataset, 0, 1234);
        let report = Pipeline::new(config).golden_records(
            &mut dataset,
            &mut oracle,
            TruthMethod::MajorityConsensus,
        );
        assert_eq!(report.golden_records.len(), dataset.clusters.len());
    }
}
