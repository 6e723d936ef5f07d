//! Pins the pivot search's budget-bound output across implementation
//! changes.
//!
//! The determinism suites compare thread counts of one build, and the
//! arena-vs-`PathList` DFS oracle compares two kernels of one build, so
//! neither would notice a rewrite that moved where the default 50k-step
//! budget cuts a search off. This suite drains a [`StructuredGrouper`] at the
//! default [`GroupingConfig`] over seeded Address and AuthorList candidates —
//! the budget binds on Address — and asserts constants recorded from the
//! plain one-DFS-per-search kernel: a digest of every emitted group and the
//! step histogram's count/sum deltas over the drain. A change to step
//! accounting or extension order moves them; re-record them deliberately.
//!
//! The metrics registry is process-global, so this binary holds exactly one
//! test: no other search may run while the deltas are measured.

use entity_consolidation::prelude::*;

/// FNV-1a, 64-bit.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn candidates(dataset: PaperDataset, clusters: usize, seed: u64) -> Vec<Replacement> {
    let data = dataset.generate(&GeneratorConfig {
        num_clusters: clusters,
        seed,
        num_sources: 4,
    });
    generate_candidates(
        &data.column_values(0),
        &CandidateConfig {
            parallelism: Parallelism::SEQUENTIAL,
            ..CandidateConfig::default()
        },
    )
    .replacements
}

fn steps_histogram() -> entity_consolidation::obs::Histogram {
    entity_consolidation::obs::histogram(
        "ec_pivot_search_steps",
        "Path-extension steps spent per pivot search.",
        entity_consolidation::obs::Unit::Count,
        entity_consolidation::obs::COUNT_BUCKETS,
    )
}

fn budget_exhausted() -> entity_consolidation::obs::Counter {
    entity_consolidation::obs::counter(
        "ec_pivot_budget_exhausted_total",
        "Pivot searches that ran out of their step budget.",
    )
}

#[test]
fn default_budget_groups_and_step_counts_are_pinned() {
    let workloads = [
        (PaperDataset::Address, 6, 5),
        (PaperDataset::AuthorList, 10, 5),
    ];
    let steps = steps_histogram();
    let exhausted = budget_exhausted();
    let before = steps.snapshot();
    let exhausted_before = exhausted.get();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut groups = 0usize;
    for (dataset, clusters, seed) in workloads {
        let replacements = candidates(dataset, clusters, seed);
        let drained_before = exhausted.get();
        for group in StructuredGrouper::new(&replacements, GroupingConfig::default()).all_groups() {
            digest = fnv1a(digest, group.to_string().as_bytes());
            groups += 1;
        }
        eprintln!(
            "{dataset:?}: {} candidates, {} budget-exhausted searches",
            replacements.len(),
            exhausted.get() - drained_before
        );
    }
    let after = steps.snapshot();
    let searches = after.count() - before.count();
    let total_steps = after.sum - before.sum;
    let exhausted_searches = exhausted.get() - exhausted_before;
    eprintln!(
        "groups={groups} digest={digest:016x} searches={searches} steps={total_steps} \
         exhausted={exhausted_searches}"
    );
    assert!(
        exhausted_searches > 0,
        "the workload must make the default step budget bind"
    );
    // Recorded from the one-DFS-per-search kernel (a single sequential step
    // budget per search, extending the root's candidates in DFS order).
    assert_eq!(
        format!("{digest:016x}"),
        "c51b8eb4f320356e",
        "{groups} groups"
    );
    assert_eq!(groups, 609);
    assert_eq!((searches, total_steps), (1_747, 4_880_578));
    assert_eq!(exhausted_searches, 87);
}
