//! Round-trip and corruption tests for the artifact format, plus the
//! differential property test required by the cold-start work: a compiled
//! dataset that goes through encode → (mmap-style aligned) decode must
//! behave *identically* to the freshly built state — same candidate sets,
//! same partitions, and an inverted index whose every probe (`list`,
//! `list_graph_count`, chained `extend_into` walks) matches the fresh one.

use ec_artifact::{encode_artifact, read_artifact, read_artifact_bytes, write_artifact};
use ec_artifact::{ArtifactError, MAGIC, VERSION};
use ec_core::{
    compile_dataset, standardize_columns, AutoMode, CompiledDataset, ConsolidationConfig, Pipeline,
    ProgramLibrary,
};
use ec_data::{Cell, Cluster, Dataset, GeneratorConfig, PaperDataset, Row};
use ec_graph::LabelId;
use ec_index::{GraphId, PathOccurrence};
use proptest::prelude::*;

fn compiled_address(clusters: usize, seed: u64) -> CompiledDataset {
    let dataset = PaperDataset::Address.generate(&GeneratorConfig {
        num_clusters: clusters,
        seed,
        num_sources: 3,
    });
    compile_dataset(dataset, 0.75, true, &ConsolidationConfig::default())
}

/// Asserts every observable of two compiled datasets matches: metadata, the
/// resolved dataset, candidate sets, partition membership, prepared graphs
/// and full index probes.
fn assert_compiled_eq(fresh: &CompiledDataset, loaded: &CompiledDataset) {
    assert_eq!(fresh.name, loaded.name);
    assert_eq!(fresh.threshold, loaded.threshold);
    assert_eq!(fresh.has_truth, loaded.has_truth);
    assert_eq!(fresh.dataset, loaded.dataset);
    assert_eq!(fresh.columns.len(), loaded.columns.len());
    for (fc, lc) in fresh.columns.iter().zip(&loaded.columns) {
        assert_eq!(fc.candidates.replacements, lc.candidates.replacements);
        for r in &fc.candidates.replacements {
            assert_eq!(fc.candidates.set(r), lc.candidates.set(r));
        }
        assert_eq!(fc.partitions.len(), lc.partitions.len());
        for (fp, lp) in fc.partitions.iter().zip(&lc.partitions) {
            assert_eq!(fp.members, lp.members);
            assert_eq!(fp.prepared.replacements(), lp.prepared.replacements());
            assert_eq!(fp.prepared.skipped(), lp.prepared.skipped());
            assert_eq!(fp.prepared.interner().len(), lp.prepared.interner().len());
            for (f, l) in fp.prepared.graphs().iter().zip(lp.prepared.graphs()) {
                assert_eq!(f.replacement(), l.replacement());
                assert_eq!(f.t_len(), l.t_len());
                assert_eq!(f.edges(), l.edges());
            }
            let (fi, li) = (fp.prepared.index(), lp.prepared.index());
            assert_eq!(fi.num_labels(), li.num_labels());
            for raw in 0..fi.num_labels() as u32 + 2 {
                let label = LabelId(raw);
                assert_eq!(fi.list(label), li.list(label));
                assert_eq!(fi.list_graph_count(label), li.list_graph_count(label));
            }
        }
    }
}

#[test]
fn encode_decode_round_trip_preserves_every_observable() {
    let fresh = compiled_address(12, 21);
    let bytes = encode_artifact(&fresh);
    let loaded = read_artifact_bytes(&bytes).expect("round trip decodes");
    assert_compiled_eq(&fresh, &loaded);
}

#[test]
fn loaded_artifact_standardizes_byte_identically_to_the_fresh_state() {
    let fresh = compiled_address(10, 5);
    let loaded = read_artifact_bytes(&encode_artifact(&fresh)).unwrap();
    let pipeline = Pipeline::new(ConsolidationConfig {
        budget: 12,
        ..ConsolidationConfig::default()
    });
    let columns: Vec<usize> = (0..fresh.dataset.columns.len()).collect();

    let mut from_fresh = fresh.dataset.clone();
    let mut fresh_library = ProgramLibrary::new();
    let fresh_reports = standardize_columns(
        &pipeline,
        &mut from_fresh,
        &columns,
        AutoMode::Auto,
        fresh.has_truth,
        Some(&fresh.columns),
        Some(&mut fresh_library),
    );

    let mut from_loaded = loaded.dataset.clone();
    let mut loaded_library = ProgramLibrary::new();
    let loaded_reports = standardize_columns(
        &pipeline,
        &mut from_loaded,
        &columns,
        AutoMode::Auto,
        loaded.has_truth,
        Some(&loaded.columns),
        Some(&mut loaded_library),
    );

    assert_eq!(from_fresh, from_loaded, "standardized datasets agree");
    assert_eq!(fresh_reports, loaded_reports, "reports agree");
    assert_eq!(
        fresh_library.to_snapshot(),
        loaded_library.to_snapshot(),
        "learned programs agree"
    );
}

#[test]
fn file_round_trip_maps_and_matches() {
    let fresh = compiled_address(6, 9);
    let path = std::env::temp_dir().join(format!("ec-artifact-rt-{}.eca", std::process::id()));
    write_artifact(&fresh, &path).unwrap();
    let (loaded, mapped) = read_artifact(&path).unwrap();
    if cfg!(all(unix, target_endian = "little")) {
        assert!(mapped, "unix little-endian loads should memory-map");
    }
    assert_compiled_eq(&fresh, &loaded);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn bad_magic_and_wrong_version_are_rejected_by_name() {
    let bytes = encode_artifact(&compiled_address(4, 2));

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0x20;
    assert!(matches!(
        read_artifact_bytes(&bad_magic),
        Err(ArtifactError::BadMagic)
    ));

    let mut wrong_version = bytes.clone();
    wrong_version[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    assert!(matches!(
        read_artifact_bytes(&wrong_version),
        Err(ArtifactError::UnsupportedVersion { found }) if found == VERSION + 1
    ));

    assert_eq!(&bytes[..8], &MAGIC);
}

#[test]
fn corrupt_payload_bytes_fail_the_section_checksum() {
    let bytes = encode_artifact(&compiled_address(4, 2));
    // Flip one byte in the last section's payload (the file tail is always
    // payload, never table).
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    assert!(matches!(
        read_artifact_bytes(&corrupt),
        Err(ArtifactError::ChecksumMismatch { .. })
    ));
}

#[test]
fn every_truncation_point_is_a_named_error_never_a_panic() {
    let bytes = encode_artifact(&compiled_address(3, 4));
    // Sweep truncation lengths (every prefix for the header/table region,
    // then strided through the payloads) — each must decode to Err, and the
    // error must be one of the structural variants.
    let mut lengths: Vec<usize> = (0..bytes.len().min(256)).collect();
    lengths.extend((256..bytes.len()).step_by(97));
    for n in lengths {
        match read_artifact_bytes(&bytes[..n]) {
            Err(
                ArtifactError::Truncated { .. }
                | ArtifactError::SectionOutOfBounds { .. }
                | ArtifactError::ChecksumMismatch { .. }
                | ArtifactError::Malformed { .. }
                | ArtifactError::BadMagic
                | ArtifactError::UnsupportedVersion { .. },
            ) => {}
            Ok(_) => panic!("truncated artifact ({n} bytes) decoded successfully"),
            Err(other) => panic!("unexpected error class for {n}-byte prefix: {other}"),
        }
    }
}

/// Random single-column datasets in the style of the CSR differential tests:
/// small alphabet so replacement structures repeat and partitions are
/// non-trivial.
fn arb_cluster_values() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(
        proptest::collection::vec("[ABab 0-9.,]{1,8}", 1..4usize),
        1..5usize,
    )
}

fn dataset_from_values(values: &[Vec<String>]) -> Dataset {
    let mut dataset = Dataset::new("prop", vec!["value".to_string()]);
    dataset.clusters = values
        .iter()
        .map(|cluster| Cluster {
            rows: cluster
                .iter()
                .enumerate()
                .map(|(i, v)| Row {
                    source: i,
                    cells: vec![Cell {
                        observed: v.clone(),
                        truth: String::new(),
                    }],
                })
                .collect(),
            golden: Vec::new(),
        })
        .collect();
    dataset
}

proptest! {
    /// compile → encode → decode round trip: the loaded index answers every
    /// probe and `extend_into` walk identically to the freshly built one, on
    /// arbitrary datasets.
    #[test]
    fn round_tripped_index_probes_match_the_fresh_build(
        values in arb_cluster_values(),
        picks in proptest::collection::vec(0usize..64, 1..8usize),
    ) {
        let dataset = dataset_from_values(&values);
        let fresh = compile_dataset(dataset, 0.75, false, &ConsolidationConfig::default());
        let loaded = read_artifact_bytes(&encode_artifact(&fresh)).unwrap();

        prop_assert_eq!(fresh.columns.len(), loaded.columns.len());
        for (fc, lc) in fresh.columns.iter().zip(&loaded.columns) {
            prop_assert_eq!(&fc.candidates.replacements, &lc.candidates.replacements);
            prop_assert_eq!(fc.partitions.len(), lc.partitions.len());
            for (fp, lp) in fc.partitions.iter().zip(&lc.partitions) {
                prop_assert_eq!(&fp.members, &lp.members);
                let (fi, li) = (fp.prepared.index(), lp.prepared.index());
                prop_assert_eq!(fi.num_labels(), li.num_labels());
                for raw in 0..fi.num_labels() as u32 + 2 {
                    let label = LabelId(raw);
                    prop_assert_eq!(fi.list(label), li.list(label));
                    prop_assert_eq!(fi.list_graph_count(label), li.list_graph_count(label));
                }
                let graphs = fp.prepared.graphs().len();
                if fp.prepared.interner().is_empty() {
                    continue;
                }
                let mut fast: Vec<PathOccurrence> = (0..graphs)
                    .map(|g| PathOccurrence { graph: GraphId(g as u32), end: 0 })
                    .collect();
                let mut slow = fast.clone();
                let mut buf = Vec::new();
                for &pick in &picks {
                    let label = LabelId((pick % fp.prepared.interner().len()) as u32);
                    fi.extend_into(&fast, label, &mut buf);
                    std::mem::swap(&mut fast, &mut buf);
                    li.extend_into(&slow, label, &mut buf);
                    std::mem::swap(&mut slow, &mut buf);
                    prop_assert_eq!(&fast, &slow);
                    if fast.is_empty() {
                        break;
                    }
                }
            }
        }
    }

    /// Decoding never panics on arbitrary byte-level corruption of a valid
    /// artifact — every mutation either round-trips (checksum collision is
    /// practically impossible) or yields a named error.
    #[test]
    fn single_byte_corruption_never_panics(
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let bytes = encode_artifact(&compiled_address(3, 8));
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= xor;
        let _ = read_artifact_bytes(&corrupt);
    }
}
