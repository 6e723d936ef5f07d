//! Differential property tests for the CSR index: the galloping
//! [`InvertedIndex::extend_into`] (and every probe the pivot search relies
//! on) must be observationally identical to the straightforward per-label
//! linear-scan index it replaced — which is kept below as the reference
//! implementation, exactly like the old char-based CSV parser kept in
//! `ec-data`'s stream property tests. Occurrence lists on both sides are
//! sorted, deduplicated `Vec<PathOccurrence>`s.

use ec_graph::{GraphBuilder, GraphConfig, LabelId, LabelInterner, Replacement};
use ec_index::{GraphId, InvertedIndex, PathOccurrence, Posting};
use proptest::prelude::*;

/// The pre-CSR inverted index: one `Vec<Posting>` per label, `extend` by
/// linear merge walk.
struct ReferenceIndex {
    lists: Vec<Vec<Posting>>,
}

impl ReferenceIndex {
    fn build(graphs: &[ec_graph::TransformationGraph], num_labels: usize) -> Self {
        let mut lists: Vec<Vec<Posting>> = vec![Vec::new(); num_labels];
        for (gid, graph) in graphs.iter().enumerate() {
            for (from, to, label) in graph.label_triples() {
                let idx = label.index();
                if idx >= lists.len() {
                    lists.resize(idx + 1, Vec::new());
                }
                lists[idx].push(Posting {
                    graph: GraphId(gid as u32),
                    from,
                    to,
                });
            }
        }
        for list in &mut lists {
            list.sort();
        }
        ReferenceIndex { lists }
    }

    fn list(&self, label: LabelId) -> &[Posting] {
        self.lists
            .get(label.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    fn list_graph_count(&self, label: LabelId) -> usize {
        let list = self.list(label);
        let mut count = 0;
        let mut last = None;
        for p in list {
            if last != Some(p.graph) {
                count += 1;
                last = Some(p.graph);
            }
        }
        count
    }

    fn extend(&self, occs: &[PathOccurrence], label: LabelId) -> Vec<PathOccurrence> {
        let postings = self.list(label);
        let mut out = Vec::new();
        let mut pi = 0usize;
        for occ in occs {
            while pi < postings.len() && postings[pi].graph < occ.graph {
                pi += 1;
            }
            let mut j = pi;
            while j < postings.len() && postings[j].graph == occ.graph {
                if postings[j].from == occ.end {
                    out.push(PathOccurrence {
                        graph: occ.graph,
                        end: postings[j].to,
                    });
                }
                j += 1;
            }
        }
        sorted(out)
    }
}

/// A sorted, deduplicated occurrence list from raw occurrences.
fn sorted(mut occs: Vec<PathOccurrence>) -> Vec<PathOccurrence> {
    occs.sort();
    occs.dedup();
    occs
}

/// `occs` extended by `label` through the CSR index, into a fresh buffer.
fn csr_extend(csr: &InvertedIndex, occs: &[PathOccurrence], label: LabelId) -> Vec<PathOccurrence> {
    let mut out = Vec::new();
    csr.extend_into(occs, label, &mut out);
    out
}

/// Random replacement pairs over a small alphabet so labels repeat across
/// graphs (shared labels are where the merge walks get interesting).
fn arb_replacements() -> impl Strategy<Value = Vec<Replacement>> {
    proptest::collection::vec(("[ABab 0-9.,]{1,10}", "[ABab 0-9.,]{1,8}"), 1..8usize).prop_map(
        |pairs| {
            pairs
                .into_iter()
                // A replacement must relate two *different* strings.
                .filter(|(lhs, rhs)| lhs != rhs)
                .map(|(lhs, rhs)| Replacement::new(lhs, rhs))
                .collect()
        },
    )
}

/// Builds graphs (dropping replacements the builder rejects) plus both
/// indexes over them.
fn build_both(
    replacements: &[Replacement],
) -> (
    Vec<ec_graph::TransformationGraph>,
    LabelInterner,
    InvertedIndex,
    ReferenceIndex,
) {
    let builder = GraphBuilder::new(GraphConfig::default());
    let mut interner = LabelInterner::new();
    let graphs: Vec<ec_graph::TransformationGraph> = replacements
        .iter()
        .filter_map(|r| builder.build(r, &mut interner))
        .collect();
    let csr = InvertedIndex::build(&graphs, interner.len());
    let reference = ReferenceIndex::build(&graphs, interner.len());
    (graphs, interner, csr, reference)
}

proptest! {
    /// Every per-label probe of the CSR index matches the reference: the
    /// posting lists themselves, their lengths and the precomputed
    /// distinct-graph counts (including labels past the interned range).
    #[test]
    fn csr_lists_match_the_linear_index(replacements in arb_replacements()) {
        let (_, interner, csr, reference) = build_both(&replacements);
        prop_assert_eq!(csr.num_labels(), interner.len());
        for raw in 0..interner.len() as u32 + 3 {
            let label = LabelId(raw);
            prop_assert_eq!(csr.list(label), reference.list(label));
            prop_assert_eq!(csr.list_len(label), reference.list(label).len());
            prop_assert_eq!(
                csr.list_graph_count(label),
                reference.list_graph_count(label)
            );
        }
    }

    /// Galloping `extend_into` ≡ linear-scan `extend`, chained along random
    /// label walks from the universe list (the exact access pattern of the
    /// pivot search).
    #[test]
    fn csr_extend_matches_the_linear_extend_on_label_walks(
        replacements in arb_replacements(),
        picks in proptest::collection::vec(0usize..64, 1..10usize),
    ) {
        let (graphs, interner, csr, reference) = build_both(&replacements);
        if interner.is_empty() {
            return Ok(());
        }
        let universe: Vec<PathOccurrence> = (0..graphs.len())
            .map(|g| PathOccurrence { graph: GraphId(g as u32), end: 0 })
            .collect();
        let mut fast = universe.clone();
        let mut slow = universe;
        for pick in picks {
            let label = LabelId((pick % interner.len()) as u32);
            fast = csr_extend(&csr, &fast, label);
            slow = reference.extend(&slow, label);
            prop_assert_eq!(&fast, &slow);
            if fast.is_empty() {
                break;
            }
        }
    }

    /// The two agree on arbitrary (not just reachable) occurrence lists,
    /// including ends that match no posting and graphs past the collection.
    #[test]
    fn csr_extend_matches_on_arbitrary_occurrence_lists(
        replacements in arb_replacements(),
        raw_occs in proptest::collection::vec((0u32..10, 0u32..24), 0..20usize),
        pick in 0usize..64,
    ) {
        let (_, interner, csr, reference) = build_both(&replacements);
        if interner.is_empty() {
            return Ok(());
        }
        let label = LabelId((pick % interner.len()) as u32);
        let list = sorted(
            raw_occs
                .into_iter()
                .map(|(graph, end)| PathOccurrence {
                    graph: GraphId(graph),
                    end,
                })
                .collect(),
        );
        prop_assert_eq!(csr_extend(&csr, &list, label), reference.extend(&list, label));
    }
}
