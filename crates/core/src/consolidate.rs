//! The shared, automated consolidation driver.
//!
//! `ec consolidate`, `ec pipeline` and the `ec serve` endpoints all run the
//! same sequence — pick an oracle per column, standardize the requested
//! columns in order, run truth discovery — and their outputs must be
//! **byte-identical** across entry points (the serve tests `cmp` a
//! `POST /pipeline` response against the CLI's `--output` file). Keeping the
//! column selection, oracle seeding and golden-record serialization in one
//! place makes that identity true by construction instead of by parallel
//! maintenance.

use crate::compiled::CompiledColumn;
use crate::library::ProgramLibrary;
use crate::oracle::{ApproveAllOracle, Oracle, SimulatedOracle};
use crate::pipeline::{ColumnReport, Pipeline};
use ec_data::csv::CsvWriter;
use ec_data::Dataset;
use std::io::Write;

/// The non-interactive oracle modes (the CLI additionally offers
/// `interactive`, which needs a terminal and stays CLI-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoMode {
    /// Use the simulated expert when the input carries ground truth,
    /// otherwise approve everything.
    Auto,
    /// Approve every group in the forward direction.
    ApproveAll,
}

impl AutoMode {
    /// Parses the mode names shared by the CLI flag and the serve query
    /// parameter.
    pub fn parse(name: &str) -> Option<AutoMode> {
        match name {
            "auto" => Some(AutoMode::Auto),
            "approve-all" => Some(AutoMode::ApproveAll),
            _ => None,
        }
    }

    /// The oracle that reviews column `col` of `dataset` (as standardized so
    /// far): [`SimulatedOracle::for_column`] seeded `7 + col` when the mode is
    /// [`AutoMode::Auto`] and the dataset carries ground truth,
    /// [`ApproveAllOracle`] otherwise.
    pub(crate) fn oracle(self, dataset: &Dataset, col: usize, has_truth: bool) -> Box<dyn Oracle> {
        if self == AutoMode::Auto && has_truth {
            Box::new(SimulatedOracle::for_column(dataset, col, 7 + col as u64))
        } else {
            Box::new(ApproveAllOracle)
        }
    }
}

/// Resolves a column specification — a column name, or a 0-based index — the
/// way every entry point does.
pub fn resolve_column_spec(columns: &[String], spec: &str) -> Option<usize> {
    if let Some(idx) = columns.iter().position(|c| c == spec) {
        return Some(idx);
    }
    match spec.parse::<usize>() {
        Ok(idx) if idx < columns.len() => Some(idx),
        _ => None,
    }
}

/// Standardizes `columns` (in the given order) with the automated oracle
/// selection: per column, [`SimulatedOracle::for_column`] seeded `7 + column`
/// when `mode` is [`AutoMode::Auto`] and the dataset carries ground truth,
/// [`ApproveAllOracle`] otherwise. With `compiled` (one state per dataset
/// column, e.g. [`crate::CompiledDataset::columns`]) each column replays its
/// prepared state instead of rebuilding it; the output is identical. Approved
/// groups are recorded into `library` (keyed by column name) when one is
/// supplied, so the verification work performed during the run becomes a
/// reusable asset.
pub fn standardize_columns(
    pipeline: &Pipeline,
    dataset: &mut Dataset,
    columns: &[usize],
    mode: AutoMode,
    has_truth: bool,
    compiled: Option<&[CompiledColumn]>,
    mut library: Option<&mut ProgramLibrary>,
) -> Vec<ColumnReport> {
    let mut reports = Vec::with_capacity(columns.len());
    for &col in columns {
        let mut oracle = mode.oracle(dataset, col, has_truth);
        let compiled = compiled.map(|columns| &columns[col]);
        let (report, approved) =
            pipeline.standardize_column_from(dataset, col, compiled, oracle.as_mut());
        if let Some(library) = library.as_deref_mut() {
            let column_name = &dataset.columns[col];
            for group in &approved {
                library.record(column_name, group);
            }
        }
        reports.push(report);
    }
    reports
}

/// Streams golden records as CSV (one row per cluster, `cluster` id first),
/// writing record-at-a-time so the output never has to fit in memory. The
/// bytes match the whole-document serialization every entry point used
/// before streaming existed.
pub fn write_golden_records_csv(
    columns: &[String],
    golden: &[Vec<Option<String>>],
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let mut writer = CsvWriter::new(out);
    let header = std::iter::once("cluster").chain(columns.iter().map(String::as_str));
    writer.write_record(header)?;
    for (i, record) in golden.iter().enumerate() {
        let fields = std::iter::once(i.to_string())
            .chain(record.iter().map(|v| v.clone().unwrap_or_default()));
        writer.write_record(fields)?;
    }
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ConsolidationConfig, TruthMethod};
    use ec_data::{GeneratorConfig, PaperDataset};

    #[test]
    fn mode_and_column_parsing() {
        assert_eq!(AutoMode::parse("auto"), Some(AutoMode::Auto));
        assert_eq!(AutoMode::parse("approve-all"), Some(AutoMode::ApproveAll));
        assert_eq!(AutoMode::parse("interactive"), None);
        let columns = vec!["Name".to_string(), "Address".to_string()];
        assert_eq!(resolve_column_spec(&columns, "Address"), Some(1));
        assert_eq!(resolve_column_spec(&columns, "0"), Some(0));
        assert_eq!(resolve_column_spec(&columns, "2"), None);
        assert_eq!(resolve_column_spec(&columns, "Phone"), None);
    }

    #[test]
    fn standardize_columns_matches_the_manual_loop_and_fills_the_library() {
        let dataset = PaperDataset::Address.generate(&GeneratorConfig {
            num_clusters: 12,
            seed: 21,
            num_sources: 3,
        });
        let pipeline = Pipeline::new(ConsolidationConfig {
            budget: 10,
            ..ConsolidationConfig::default()
        });
        let mut manual = dataset.clone();
        let manual_reports: Vec<ColumnReport> = (0..manual.columns.len())
            .map(|col| {
                let mut oracle = SimulatedOracle::for_column(&manual, col, 7 + col as u64);
                pipeline.standardize_column(&mut manual, col, &mut oracle)
            })
            .collect();

        let mut shared = dataset.clone();
        let columns: Vec<usize> = (0..shared.columns.len()).collect();
        let mut library = ProgramLibrary::new();
        let reports = standardize_columns(
            &pipeline,
            &mut shared,
            &columns,
            AutoMode::Auto,
            true,
            None,
            Some(&mut library),
        );
        assert_eq!(shared, manual, "shared driver reproduces the manual loop");
        assert_eq!(reports, manual_reports);
        let approved: usize = reports.iter().map(|r| r.groups_approved).sum();
        if approved > 0 {
            assert!(!library.is_empty(), "approved groups land in the library");
        }
    }

    #[test]
    fn golden_csv_streaming_matches_whole_document_serialization() {
        let dataset = PaperDataset::JournalTitle.generate(&GeneratorConfig {
            num_clusters: 6,
            seed: 2,
            num_sources: 3,
        });
        let pipeline = Pipeline::default();
        let golden = pipeline.discover_golden_records(&dataset, TruthMethod::MajorityConsensus);
        let mut streamed = Vec::new();
        write_golden_records_csv(&dataset.columns, &golden, &mut streamed).unwrap();
        // The whole-document shape the CLI historically produced.
        let mut records = Vec::with_capacity(golden.len() + 1);
        let mut header = vec!["cluster".to_string()];
        header.extend(dataset.columns.iter().cloned());
        records.push(header);
        for (i, record) in golden.iter().enumerate() {
            let mut row = vec![i.to_string()];
            row.extend(record.iter().map(|v| v.clone().unwrap_or_default()));
            records.push(row);
        }
        assert_eq!(
            String::from_utf8(streamed).unwrap(),
            ec_data::csv::write(&records)
        );
    }
}
