//! # ec-index — the edge-label inverted index
//!
//! Pivot-path search (Section 5.1 of the paper) needs to answer one question
//! very quickly: *given a path — a sequence of string-function labels — which
//! transformation graphs contain it, starting at their first node?* The paper
//! answers it with an inverted index keyed by edge labels whose postings carry
//! the edge endpoints, so that intersecting two lists can require the edges to
//! be **adjacent** (the end node of one is the start node of the next).
//!
//! This crate provides that index ([`InvertedIndex`]). A path's occurrence
//! list (the paper's `ℓ`) is a sorted, deduplicated slice of
//! [`PathOccurrence`]s: for every graph that contains the path anchored at
//! its first node, the node the path has reached. Extending the path by a
//! label is one [`InvertedIndex::extend_into`] call, which writes the
//! extended list into a caller-owned buffer without allocating.
//!
//! ## Layout
//!
//! The index stores all postings in one flat **CSR** (compressed sparse row)
//! arena: `label_offsets[l]..label_offsets[l + 1]` delimits the postings of
//! label `l`, sorted by `(graph, from, to)`. [`InvertedIndex::extend_into`]
//! walks an occurrence list and a posting list graph-by-graph, **galloping**
//! over whichever side is ahead, so intersecting a short list against a long
//! one costs `O(short × log(long))` instead of a linear scan of both.
//! Per-label distinct-graph counts are precomputed, making the search's
//! hottest pruning probe ([`InvertedIndex::list_graph_count`]) O(1).
//!
//! There is one way to fill the arena: [`InvertedIndex::append`] adds the
//! postings of graphs whose ids continue the existing numbering, and
//! [`InvertedIndex::build`] is an append onto the empty index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ec_graph::{LabelId, TransformationGraph};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifier of a transformation graph inside one grouping problem: the index
/// of the graph in the slice the [`InvertedIndex`] was built from.
///
/// `repr(transparent)`: a `GraphId` is exactly a `u32`, so arrays of postings
/// have a defined layout an on-disk artifact can reproduce byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(transparent)]
pub struct GraphId(pub u32);

impl GraphId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One posting of the inverted index: graph `graph` has an edge `(from, to)`
/// carrying the label the posting is filed under (the paper's `⟨G, i, j⟩`).
///
/// `repr(C)`: three `u32` fields in declaration order, 12 bytes, align 4 —
/// the layout the compiled-artifact format stores and maps back in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(C)]
pub struct Posting {
    /// The graph containing the edge.
    pub graph: GraphId,
    /// Source node of the edge.
    pub from: u32,
    /// Target node of the edge.
    pub to: u32,
}

/// An occurrence of the current path in one graph: the path starts at the
/// graph's first node and has reached node `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(C)]
pub struct PathOccurrence {
    /// The graph containing the occurrence.
    pub graph: GraphId,
    /// The node reached by the path (the `j` of the last edge).
    pub end: u32,
}

/// External storage a [`SharedSlice`] can borrow its elements from — e.g. a
/// memory-mapped compiled artifact. The implementor owns whatever keeps the
/// bytes alive (a mapping guard, an aligned buffer) and hands out a typed
/// view; this crate stays `forbid(unsafe_code)` while the artifact crate does
/// the reinterpretation behind this object-safe seam.
pub trait SliceBacking<T>: Send + Sync + std::fmt::Debug {
    /// The backed elements.
    fn as_slice(&self) -> &[T];
}

/// A cheaply clonable, shared, immutable slice: either an owned `Arc<[T]>`
/// arena (the build path) or a borrowed view into external backing such as a
/// memory-mapped artifact section (the zero-copy load path). Consumers see
/// `&[T]` either way.
#[derive(Clone)]
pub struct SharedSlice<T> {
    repr: SliceRepr<T>,
}

#[derive(Clone)]
enum SliceRepr<T> {
    Owned(Arc<[T]>),
    External(Arc<dyn SliceBacking<T>>),
}

impl<T> SharedSlice<T> {
    /// Wraps external backing (a mapped artifact section).
    pub fn external(backing: Arc<dyn SliceBacking<T>>) -> Self {
        SharedSlice {
            repr: SliceRepr::External(backing),
        }
    }

    /// The elements.
    pub fn as_slice(&self) -> &[T] {
        match &self.repr {
            SliceRepr::Owned(arc) => arc,
            SliceRepr::External(backing) => backing.as_slice(),
        }
    }

    /// True when both views share one arena (same base pointer and length) —
    /// the zero-copy invariant the tests pin.
    pub fn ptr_eq(&self, other: &SharedSlice<T>) -> bool {
        let (a, b) = (self.as_slice(), other.as_slice());
        std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()
    }
}

impl<T> std::ops::Deref for SharedSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T> Default for SharedSlice<T> {
    fn default() -> Self {
        // A shared static empty arena — no allocation.
        SharedSlice {
            repr: SliceRepr::Owned(Arc::from([] as [T; 0])),
        }
    }
}

impl<T> From<Vec<T>> for SharedSlice<T> {
    fn from(v: Vec<T>) -> Self {
        SharedSlice {
            repr: SliceRepr::Owned(v.into()),
        }
    }
}

impl<T> From<Arc<[T]>> for SharedSlice<T> {
    fn from(arc: Arc<[T]>) -> Self {
        SharedSlice {
            repr: SliceRepr::Owned(arc),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// The inverted index over edge labels of a set of transformation graphs.
///
/// Postings live in one flat CSR arena: the postings of label `l` occupy
/// `postings[label_offsets[l]..label_offsets[l + 1]]`, sorted by
/// `(graph, from, to)`; per-label distinct-graph counts are precomputed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InvertedIndex {
    /// All postings, grouped by label, each label's range sorted.
    postings: SharedSlice<Posting>,
    /// `label_offsets[l]..label_offsets[l + 1]` delimits label `l`'s range
    /// (length `num_labels + 1`).
    label_offsets: SharedSlice<u32>,
    /// `graph_counts[l]` — distinct graphs in label `l`'s posting range.
    graph_counts: SharedSlice<u32>,
}

/// Why [`InvertedIndex::from_parts`] rejected a CSR layout. Every variant
/// names the offending label so a corrupt artifact fails loudly and
/// precisely, never as a silent misread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexLayoutError {
    /// `label_offsets` must hold at least the terminating offset.
    OffsetsEmpty,
    /// `label_offsets` must start at 0.
    OffsetsStart,
    /// `label_offsets` must be non-decreasing.
    OffsetsNotMonotone {
        /// The first label whose offset decreases.
        label: usize,
    },
    /// The final offset must equal the postings arena length.
    OffsetsOutOfBounds {
        /// The final offset.
        last: u64,
        /// The postings arena length.
        postings: u64,
    },
    /// `graph_counts` must hold one count per label.
    GraphCountsLength {
        /// `label_offsets.len() - 1`.
        expected: usize,
        /// `graph_counts.len()`.
        actual: usize,
    },
    /// A label's posting range must be sorted by `(graph, from, to)`.
    RangeNotSorted {
        /// The unsorted label.
        label: usize,
    },
    /// A label's precomputed distinct-graph count must match its range.
    GraphCountMismatch {
        /// The label with the wrong count.
        label: usize,
        /// The count recomputed from the range.
        expected: u32,
        /// The stored count.
        actual: u32,
    },
}

impl std::fmt::Display for IndexLayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexLayoutError::OffsetsEmpty => write!(f, "label offsets are empty"),
            IndexLayoutError::OffsetsStart => write!(f, "label offsets do not start at 0"),
            IndexLayoutError::OffsetsNotMonotone { label } => {
                write!(f, "label offsets decrease at label {label}")
            }
            IndexLayoutError::OffsetsOutOfBounds { last, postings } => write!(
                f,
                "final label offset {last} does not match the postings arena length {postings}"
            ),
            IndexLayoutError::GraphCountsLength { expected, actual } => write!(
                f,
                "graph-count table holds {actual} entries, expected {expected}"
            ),
            IndexLayoutError::RangeNotSorted { label } => {
                write!(f, "posting range of label {label} is not sorted")
            }
            IndexLayoutError::GraphCountMismatch {
                label,
                expected,
                actual,
            } => write!(
                f,
                "graph count of label {label} is {actual}, recomputed {expected}"
            ),
        }
    }
}

impl std::error::Error for IndexLayoutError {}

impl Default for InvertedIndex {
    /// The index over no graphs and no labels: `label_offsets` holds just the
    /// terminating 0, the layout [`InvertedIndex::from_parts`] accepts.
    fn default() -> Self {
        InvertedIndex {
            postings: SharedSlice::default(),
            label_offsets: vec![0].into(),
            graph_counts: SharedSlice::default(),
        }
    }
}

impl InvertedIndex {
    /// Builds the index for `graphs`. `num_labels` must be at least the number
    /// of labels in the interner the graphs were built with (label ids index
    /// directly into the posting-list table).
    pub fn build(graphs: &[TransformationGraph], num_labels: usize) -> Self {
        InvertedIndex::default().append(graphs, 0, num_labels)
    }

    /// Extends the index with the postings of `new_graphs`, whose ids continue
    /// the existing numbering: the `i`-th new graph is graph
    /// `base_graphs + i`. `num_labels` is the label count after interning the
    /// new graphs (at least the current count — new graphs may only *add*
    /// labels).
    ///
    /// Because every new graph id exceeds every existing id, a touched label's
    /// range stays sorted as soon as its appended tail is: only the tails are
    /// sorted and only the touched labels' distinct-graph counts recomputed,
    /// while untouched ranges and counts are copied verbatim. Appending in
    /// batches is array-for-array identical to one [`InvertedIndex::build`]
    /// over the concatenated graph slice (pinned by a property test), so the
    /// delta ingest path can grow an index without ever rebuilding it.
    pub fn append(
        &self,
        new_graphs: &[TransformationGraph],
        base_graphs: usize,
        num_labels: usize,
    ) -> InvertedIndex {
        let old_offsets = self.label_offsets.as_slice();
        let old_postings = self.postings.as_slice();
        let old_counts = self.graph_counts.as_slice();
        let old_labels = self.num_labels();
        // Pass 1: appended postings per label.
        let mut added: Vec<u32> = vec![0; num_labels.max(old_labels)];
        for graph in new_graphs {
            for (_, _, label) in graph.label_triples() {
                let idx = label.index();
                if idx >= added.len() {
                    added.resize(idx + 1, 0);
                }
                added[idx] += 1;
            }
        }
        let num_labels = added.len();
        let old_len = |l: usize| -> u32 {
            if l < old_labels {
                old_offsets[l + 1] - old_offsets[l]
            } else {
                0
            }
        };
        // Offsets by prefix sum over (old range length + appended count);
        // copy each old range into place and park the scatter cursor after it.
        let mut label_offsets: Vec<u32> = Vec::with_capacity(num_labels + 1);
        let mut total = 0u32;
        for (l, &extra) in added.iter().enumerate() {
            label_offsets.push(total);
            total += old_len(l) + extra;
        }
        label_offsets.push(total);
        let mut postings = vec![
            Posting {
                graph: GraphId(0),
                from: 0,
                to: 0,
            };
            total as usize
        ];
        let mut cursors: Vec<u32> = Vec::with_capacity(num_labels);
        for l in 0..num_labels {
            let start = label_offsets[l] as usize;
            let len = old_len(l) as usize;
            if len > 0 {
                let src = old_offsets[l] as usize..old_offsets[l + 1] as usize;
                postings[start..start + len].copy_from_slice(&old_postings[src]);
            }
            cursors.push(label_offsets[l] + len as u32);
        }
        for (i, graph) in new_graphs.iter().enumerate() {
            let gid = GraphId((base_graphs + i) as u32);
            for (from, to, label) in graph.label_triples() {
                let cursor = &mut cursors[label.index()];
                postings[*cursor as usize] = Posting {
                    graph: gid,
                    from,
                    to,
                };
                *cursor += 1;
            }
        }
        // New graphs were scattered in ascending id order, so each tail is
        // grouped by graph; sorting it settles `(from, to)` within groups,
        // and the whole range is sorted because new ids exceed old ones.
        let mut graph_counts: Vec<u32> = Vec::with_capacity(num_labels);
        for (l, &extra) in added.iter().enumerate() {
            let old = if l < old_labels { old_counts[l] } else { 0 };
            if extra == 0 {
                graph_counts.push(old);
                continue;
            }
            let tail =
                label_offsets[l] as usize + old_len(l) as usize..label_offsets[l + 1] as usize;
            postings[tail.clone()].sort_unstable();
            let mut distinct = 0u32;
            let mut last = None;
            for p in &postings[tail] {
                if last != Some(p.graph) {
                    distinct += 1;
                    last = Some(p.graph);
                }
            }
            graph_counts.push(old + distinct);
        }
        InvertedIndex {
            postings: postings.into(),
            label_offsets: label_offsets.into(),
            graph_counts: graph_counts.into(),
        }
    }

    /// Reassembles an index from its three CSR arrays — the zero-copy load
    /// path of the compiled-artifact format, where the slices borrow a
    /// memory-mapped file. The full layout invariant is verified in one O(n)
    /// pass (monotone offsets closing the arena, per-range `(graph, from,
    /// to)` sortedness, per-label distinct-graph counts), so an accepted
    /// index is indistinguishable from a freshly built one.
    pub fn from_parts(
        postings: SharedSlice<Posting>,
        label_offsets: SharedSlice<u32>,
        graph_counts: SharedSlice<u32>,
    ) -> Result<Self, IndexLayoutError> {
        let offsets = label_offsets.as_slice();
        if offsets.is_empty() {
            return Err(IndexLayoutError::OffsetsEmpty);
        }
        if offsets[0] != 0 {
            return Err(IndexLayoutError::OffsetsStart);
        }
        let num_labels = offsets.len() - 1;
        if graph_counts.len() != num_labels {
            return Err(IndexLayoutError::GraphCountsLength {
                expected: num_labels,
                actual: graph_counts.len(),
            });
        }
        if let Some(label) = (0..num_labels).find(|&l| offsets[l] > offsets[l + 1]) {
            return Err(IndexLayoutError::OffsetsNotMonotone { label });
        }
        if offsets[num_labels] as usize != postings.len() {
            return Err(IndexLayoutError::OffsetsOutOfBounds {
                last: offsets[num_labels] as u64,
                postings: postings.len() as u64,
            });
        }
        let arena = postings.as_slice();
        for label in 0..num_labels {
            // One fused pass per list: sortedness and the distinct-graph
            // count together. The arena is tens of MB on real datasets and
            // this loop runs on the artifact cold-start path.
            let range = &arena[offsets[label] as usize..offsets[label + 1] as usize];
            let mut distinct = 0u32;
            let mut last: Option<&Posting> = None;
            for p in range {
                match last {
                    Some(prev) if prev > p => {
                        return Err(IndexLayoutError::RangeNotSorted { label });
                    }
                    Some(prev) if prev.graph == p.graph => {}
                    _ => distinct += 1,
                }
                last = Some(p);
            }
            if distinct != graph_counts[label] {
                return Err(IndexLayoutError::GraphCountMismatch {
                    label,
                    expected: distinct,
                    actual: graph_counts[label],
                });
            }
        }
        Ok(InvertedIndex {
            postings,
            label_offsets,
            graph_counts,
        })
    }

    /// The three CSR arrays `(postings, label_offsets, graph_counts)` — what
    /// the compiled-artifact writer serializes.
    pub fn raw_parts(&self) -> (&[Posting], &[u32], &[u32]) {
        (
            self.postings.as_slice(),
            self.label_offsets.as_slice(),
            self.graph_counts.as_slice(),
        )
    }

    /// The posting list of a label (empty when the label never occurs).
    pub fn list(&self, label: LabelId) -> &[Posting] {
        let idx = label.index();
        if idx >= self.num_labels() {
            return &[];
        }
        &self.postings[self.label_offsets[idx] as usize..self.label_offsets[idx + 1] as usize]
    }

    /// Length of the posting list of a label.
    pub fn list_len(&self, label: LabelId) -> usize {
        self.list(label).len()
    }

    /// Number of *distinct graphs* in the posting list of a label (an upper
    /// bound on how many graphs can share any path through that label).
    /// Precomputed at build time — this is the pivot search's hottest pruning
    /// probe, consulted once per candidate extension.
    pub fn list_graph_count(&self, label: LabelId) -> usize {
        self.graph_counts.get(label.index()).copied().unwrap_or(0) as usize
    }

    /// Number of labels the index knows about.
    pub fn num_labels(&self) -> usize {
        self.label_offsets.len().saturating_sub(1)
    }

    /// Extends a path's occurrence list by one label: the adjacency-aware
    /// intersection `ℓ ∩ I[label]` of Section 5.1. An occurrence `⟨G, end⟩`
    /// joins with a posting `⟨G, from, to⟩` iff `from == end`, producing
    /// `⟨G, to⟩`.
    ///
    /// Clears `out` and writes the intersection of `occs` (sorted by
    /// `(graph, end)` and deduplicated) with the postings of `label` into it,
    /// sorted and deduplicated. Reusing one buffer across calls makes the
    /// step allocation-free once the buffer has grown to the largest list.
    ///
    /// The join is graph-scoped and galloping: both sides advance to each
    /// other's next graph by exponential + binary search instead of a linear
    /// scan, so a short occurrence list against a mega posting list (or vice
    /// versa) costs `O(short × log(long))`.
    pub fn extend_into(
        &self,
        occs: &[PathOccurrence],
        label: LabelId,
        out: &mut Vec<PathOccurrence>,
    ) {
        out.clear();
        let postings = self.list(label);
        if postings.is_empty() || occs.is_empty() {
            return;
        }
        let mut oi = 0usize;
        let mut pi = 0usize;
        while oi < occs.len() && pi < postings.len() {
            let graph = occs[oi].graph;
            // Gallop the postings to this graph's block.
            pi += gallop(&postings[pi..], |p| p.graph < graph);
            if pi == postings.len() {
                break;
            }
            if postings[pi].graph > graph {
                // The postings skipped ahead; gallop the occurrences to catch
                // up.
                let ahead = postings[pi].graph;
                oi += gallop(&occs[oi..], |occ| occ.graph < ahead);
                continue;
            }
            let block_end = pi + gallop(&postings[pi..], |p| p.graph == graph);
            let occs_end = oi + gallop(&occs[oi..], |occ| occ.graph == graph);
            // Intersect this graph's occurrence ends (ascending) against the
            // block's `from` fields (ascending): one forward sweep with a
            // binary jump per occurrence.
            let out_start = out.len();
            let mut pj = pi;
            for occ in &occs[oi..occs_end] {
                pj += gallop(&postings[pj..block_end], |p| p.from < occ.end);
                let mut pk = pj;
                while pk < block_end && postings[pk].from == occ.end {
                    out.push(PathOccurrence {
                        graph,
                        end: postings[pk].to,
                    });
                    pk += 1;
                }
            }
            // Postings are sorted by `(from, to)`, not by `to`, so this
            // graph's outputs need a local sort; duplicates (several postings
            // reaching the same node) are settled by the final dedup.
            out[out_start..].sort_unstable();
            oi = occs_end;
            pi = block_end;
        }
        out.dedup();
    }

    /// Postings stored across all labels (the CSR arena's length).
    pub fn num_postings(&self) -> usize {
        self.postings.len()
    }
}

/// The first index of `slice` at which `pred` stops holding (the partition
/// point), found by exponential search from the front followed by a binary
/// search of the bracketed range — `O(log distance)` when the answer is near
/// the front, which is the common case for the graph-by-graph merge walks in
/// [`InvertedIndex::extend_into`]. `pred` must be monotone (true-prefix).
fn gallop<T>(slice: &[T], pred: impl Fn(&T) -> bool) -> usize {
    match slice.first() {
        Some(first) if pred(first) => {}
        _ => return 0,
    }
    let mut bound = 1usize;
    while bound < slice.len() && pred(&slice[bound]) {
        bound <<= 1;
    }
    // `pred` holds at `bound >> 1` and fails at `bound` (when in range).
    let lo = (bound >> 1) + 1;
    let hi = bound.min(slice.len());
    lo + slice[lo..hi].partition_point(pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_dsl::{Dir, PositionFn, StringFn, Term};
    use ec_graph::{GraphBuilder, GraphConfig, LabelInterner, Replacement};
    use proptest::prelude::*;

    /// Builds the three-replacement example of Example 5.1.
    fn example_5_1() -> (Vec<TransformationGraph>, LabelInterner, InvertedIndex) {
        let mut interner = LabelInterner::new();
        let builder = GraphBuilder::new(GraphConfig::default());
        let reps = [
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            Replacement::new("Lee, Mary", "Mary Lee"),
        ];
        let graphs: Vec<TransformationGraph> = reps
            .iter()
            .map(|r| builder.build(r, &mut interner).unwrap())
            .collect();
        let index = InvertedIndex::build(&graphs, interner.len());
        (graphs, interner, index)
    }

    /// A sorted, deduplicated occurrence list from raw occurrences.
    fn sorted(mut occs: Vec<PathOccurrence>) -> Vec<PathOccurrence> {
        occs.sort();
        occs.dedup();
        occs
    }

    /// The empty path's list over `num_graphs` graphs: every graph, anchored
    /// at its first node.
    fn universe(num_graphs: usize) -> Vec<PathOccurrence> {
        (0..num_graphs)
            .map(|g| PathOccurrence {
                graph: GraphId(g as u32),
                end: 0,
            })
            .collect()
    }

    /// `occs` extended by `label` into a fresh buffer.
    fn extend(
        index: &InvertedIndex,
        occs: &[PathOccurrence],
        label: LabelId,
    ) -> Vec<PathOccurrence> {
        let mut out = Vec::new();
        index.extend_into(occs, label, &mut out);
        out
    }

    /// The list of a whole path, walked label by label from the universe.
    fn walk(index: &InvertedIndex, num_graphs: usize, path: &[LabelId]) -> Vec<PathOccurrence> {
        path.iter().fold(universe(num_graphs), |occs, &label| {
            extend(index, &occs, label)
        })
    }

    /// The distinct graphs of a list (the paper's `|ℓ|` is their number).
    fn distinct_graphs(occs: &[PathOccurrence]) -> Vec<GraphId> {
        let mut graphs: Vec<GraphId> = occs.iter().map(|occ| occ.graph).collect();
        graphs.dedup();
        graphs
    }

    /// The distinct graphs whose occurrence ends at their last node: those
    /// for which the path is a complete transformation path.
    fn completed(occs: &[PathOccurrence], graphs: &[TransformationGraph]) -> Vec<GraphId> {
        let ends = occs
            .iter()
            .filter(|occ| occ.end == graphs[occ.graph.index()].last_node());
        distinct_graphs(&ends.copied().collect::<Vec<_>>())
    }

    fn f1() -> StringFn {
        StringFn::sub_str(
            PositionFn::match_pos(Term::Upper, 1, Dir::Begin),
            PositionFn::match_pos(Term::Lower, 1, Dir::End),
        )
    }
    fn f2() -> StringFn {
        StringFn::sub_str(
            PositionFn::match_pos(Term::Whitespace, 1, Dir::End),
            PositionFn::match_pos(Term::Upper, -1, Dir::End),
        )
    }
    fn f3() -> StringFn {
        StringFn::constant(". ")
    }

    // Paper Example 5.1: the inverted lists of f1, f2, f3 and the intersection
    // of the path f2 ⊕ f3 ⊕ f1.
    #[test]
    fn paper_example_5_1_inverted_lists() {
        let (_, interner, index) = example_5_1();
        let id1 = interner.get(&f1()).expect("f1 interned");
        let id2 = interner.get(&f2()).expect("f2 interned");
        let id3 = interner.get(&f3()).expect("f3 interned");

        // I[f1] = (⟨G1,4,7⟩, ⟨G2,4,9⟩, ⟨G3,6,9⟩) in the paper's 1-based node
        // numbering = (⟨0,3,6⟩, ⟨1,3,8⟩, ⟨2,5,8⟩) here.
        let l1 = index.list(id1);
        assert!(l1.contains(&Posting {
            graph: GraphId(0),
            from: 3,
            to: 6
        }));
        assert!(l1.contains(&Posting {
            graph: GraphId(1),
            from: 3,
            to: 8
        }));
        assert!(l1.contains(&Posting {
            graph: GraphId(2),
            from: 5,
            to: 8
        }));

        // I[f2] = (⟨G1,1,2⟩, ⟨G2,1,2⟩, ⟨G3,1,2⟩) -> (⟨·,0,1⟩) here.
        let l2 = index.list(id2);
        for g in 0..3 {
            assert!(
                l2.contains(&Posting {
                    graph: GraphId(g),
                    from: 0,
                    to: 1
                }),
                "graph {g}"
            );
        }

        // I[f3] = (⟨G1,2,4⟩, ⟨G2,2,4⟩) -> (⟨·,1,3⟩); G3 ("Mary Lee") has no ". ".
        let l3 = index.list(id3);
        assert!(l3.contains(&Posting {
            graph: GraphId(0),
            from: 1,
            to: 3
        }));
        assert!(l3.contains(&Posting {
            graph: GraphId(1),
            from: 1,
            to: 3
        }));
        assert!(!l3.iter().any(|p| p.graph == GraphId(2)));
    }

    #[test]
    fn paper_example_5_1_path_intersection() {
        let (graphs, interner, index) = example_5_1();
        let path = vec![
            interner.get(&f2()).unwrap(),
            interner.get(&f3()).unwrap(),
            interner.get(&f1()).unwrap(),
        ];
        let list = walk(&index, graphs.len(), &path);
        // I[f2] ∩ I[f3] ∩ I[f1] = (⟨G1,1,7⟩, ⟨G2,1,9⟩): graphs 0 and 1, both
        // reaching their last node.
        assert_eq!(distinct_graphs(&list).len(), 2);
        assert_eq!(completed(&list, &graphs), vec![GraphId(0), GraphId(1)]);
        assert_eq!(
            list,
            [
                PathOccurrence {
                    graph: GraphId(0),
                    end: 6
                },
                PathOccurrence {
                    graph: GraphId(1),
                    end: 8
                }
            ]
        );
    }

    #[test]
    fn adjacency_is_enforced() {
        let (graphs, interner, index) = example_5_1();
        // f1 directly after f2 is NOT adjacent (f2 ends at node 1, f1 starts at 3).
        let path = vec![interner.get(&f2()).unwrap(), interner.get(&f1()).unwrap()];
        assert!(walk(&index, graphs.len(), &path).is_empty());
    }

    #[test]
    fn universe_and_empty_path() {
        let (graphs, _, index) = example_5_1();
        let list = walk(&index, graphs.len(), &[]);
        assert_eq!(list, universe(3));
        assert_eq!(
            distinct_graphs(&list),
            vec![GraphId(0), GraphId(1), GraphId(2)]
        );
        // Unknown label -> empty.
        let unknown = LabelId(u32::MAX - 1);
        assert!(extend(&index, &list, unknown).is_empty());
    }

    #[test]
    fn graph_count_counts_distinct_graphs() {
        let list = sorted(vec![
            PathOccurrence {
                graph: GraphId(1),
                end: 3,
            },
            PathOccurrence {
                graph: GraphId(1),
                end: 5,
            },
            PathOccurrence {
                graph: GraphId(0),
                end: 2,
            },
        ]);
        assert_eq!(distinct_graphs(&list), vec![GraphId(0), GraphId(1)]);
        assert_eq!(list.len(), 3);
    }

    #[test]
    fn list_graph_count_vs_list_len() {
        let (_, interner, index) = example_5_1();
        // The constant label "e" occurs on several edges of the same graph.
        if let Some(id) = interner.get(&StringFn::constant("e")) {
            assert!(index.list_len(id) >= index.list_graph_count(id));
        }
        let id1 = interner.get(&f1()).unwrap();
        assert_eq!(index.list_graph_count(id1), 3);
    }

    #[test]
    fn constant_full_string_is_singleton_list() {
        let (graphs, interner, index) = example_5_1();
        let id = interner.get(&StringFn::constant("M. Lee")).unwrap();
        let list = walk(&index, graphs.len(), &[id]);
        assert_eq!(distinct_graphs(&list).len(), 1);
        assert_eq!(completed(&list, &graphs), vec![GraphId(0)]);
    }

    #[test]
    fn from_parts_accepts_a_built_layout_and_rejects_corrupt_ones() {
        let (graphs, interner, index) = example_5_1();
        let (p, o, c) = index.raw_parts();
        let (p, o, c) = (p.to_vec(), o.to_vec(), c.to_vec());
        let rebuilt =
            InvertedIndex::from_parts(p.clone().into(), o.clone().into(), c.clone().into())
                .expect("a freshly built layout validates");
        assert_eq!(rebuilt.num_labels(), index.num_labels());
        assert_eq!(rebuilt.num_postings(), index.num_postings());
        for l in 0..interner.len() {
            let label = LabelId(l as u32);
            assert_eq!(rebuilt.list(label), index.list(label));
            assert_eq!(
                rebuilt.list_graph_count(label),
                index.list_graph_count(label)
            );
        }
        let path = vec![
            interner.get(&f2()).unwrap(),
            interner.get(&f3()).unwrap(),
            interner.get(&f1()).unwrap(),
        ];
        assert_eq!(
            walk(&rebuilt, graphs.len(), &path),
            walk(&index, graphs.len(), &path)
        );

        assert_eq!(
            InvertedIndex::from_parts(p.clone().into(), Vec::new().into(), c.clone().into())
                .unwrap_err(),
            IndexLayoutError::OffsetsEmpty
        );
        let mut bad_start = o.clone();
        bad_start[0] = 1;
        assert_eq!(
            InvertedIndex::from_parts(p.clone().into(), bad_start.into(), c.clone().into())
                .unwrap_err(),
            IndexLayoutError::OffsetsStart
        );
        let mut truncated = o.clone();
        *truncated.last_mut().unwrap() -= 1;
        assert!(matches!(
            InvertedIndex::from_parts(p.clone().into(), truncated.into(), c.clone().into())
                .unwrap_err(),
            IndexLayoutError::OffsetsOutOfBounds { .. }
        ));
        assert!(matches!(
            InvertedIndex::from_parts(p.clone().into(), o.clone().into(), c[1..].to_vec().into())
                .unwrap_err(),
            IndexLayoutError::GraphCountsLength { .. }
        ));
        // Swap two postings inside the first non-trivial range: unsorted.
        let wide = (0..c.len())
            .find(|&l| o[l + 1] - o[l] >= 2)
            .expect("some label has two postings");
        let mut shuffled = p.clone();
        shuffled.swap(o[wide] as usize, o[wide] as usize + 1);
        assert!(matches!(
            InvertedIndex::from_parts(shuffled.into(), o.clone().into(), c.clone().into())
                .unwrap_err(),
            IndexLayoutError::RangeNotSorted { .. }
        ));
        let mut wrong_counts = c.clone();
        wrong_counts[0] += 1;
        assert!(matches!(
            InvertedIndex::from_parts(p.into(), o.into(), wrong_counts.into()).unwrap_err(),
            IndexLayoutError::GraphCountMismatch { .. }
        ));
    }

    /// Builds graphs for `pairs` with one shared interner, recording the
    /// interner size after the first `split` pairs — the state an incremental
    /// ingest sees at the batch boundary.
    fn graphs_with_split(
        pairs: &[(String, String)],
        split: usize,
    ) -> (Vec<TransformationGraph>, usize, usize) {
        let mut interner = LabelInterner::new();
        let builder = GraphBuilder::new(GraphConfig::default());
        let mut graphs = Vec::new();
        let mut labels_at_split = 0;
        for (i, (lhs, rhs)) in pairs.iter().enumerate() {
            if i == split {
                labels_at_split = interner.len();
            }
            if let Some(g) = builder.build(&Replacement::new(lhs, rhs), &mut interner) {
                graphs.push(g);
            }
        }
        if split >= pairs.len() {
            labels_at_split = interner.len();
        }
        (graphs, labels_at_split, interner.len())
    }

    #[test]
    fn append_matches_full_rebuild_on_the_example() {
        let pairs: Vec<(String, String)> = [
            ("Lee, Mary", "M. Lee"),
            ("Smith, James", "J. Smith"),
            ("Lee, Mary", "Mary Lee"),
            ("Ng, Ada", "A. Ng"),
        ]
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
        for split in 0..=pairs.len() {
            let (graphs, labels_at_split, labels_total) = graphs_with_split(&pairs, split);
            // All example pairs build, so the graph split equals the pair split.
            assert_eq!(graphs.len(), pairs.len());
            let prefix = InvertedIndex::build(&graphs[..split], labels_at_split);
            let appended = prefix.append(&graphs[split..], split, labels_total);
            let full = InvertedIndex::build(&graphs, labels_total);
            assert_eq!(appended.raw_parts(), full.raw_parts(), "split={split}");
        }
    }

    #[test]
    fn append_nothing_preserves_the_layout() {
        let (_, _, index) = example_5_1();
        let appended = index.append(&[], 3, index.num_labels());
        assert_eq!(appended.raw_parts(), index.raw_parts());
        // Also on the empty index, whose offsets hold the terminating 0.
        let empty = InvertedIndex::default();
        assert_eq!(empty.raw_parts().1, &[0]);
        assert_eq!(empty.append(&[], 0, 0).raw_parts(), empty.raw_parts());
    }

    proptest! {
        /// The delta invariant the ingest path rides on: appending a suffix of
        /// graphs to the prefix's index is array-for-array identical to a full
        /// rebuild over all graphs.
        #[test]
        fn prop_append_equals_full_rebuild(
            pairs in proptest::collection::vec(("[a-c, ]{1,8}", "[a-c,. ]{1,8}"), 1..14),
            cut in 0usize..15,
        ) {
            let split = cut.min(pairs.len());
            // The builder may skip degenerate pairs; graphs built from the
            // first `split` pairs form the prefix regardless.
            let mut interner = LabelInterner::new();
            let builder = GraphBuilder::new(GraphConfig::default());
            let mut prefix_graphs = Vec::new();
            for (lhs, rhs) in &pairs[..split] {
                if lhs == rhs {
                    continue; // not a replacement
                }
                if let Some(g) = builder.build(&Replacement::new(lhs, rhs), &mut interner) {
                    prefix_graphs.push(g);
                }
            }
            let labels_at_split = interner.len();
            let mut all_graphs = prefix_graphs.clone();
            for (lhs, rhs) in &pairs[split..] {
                if lhs == rhs {
                    continue;
                }
                if let Some(g) = builder.build(&Replacement::new(lhs, rhs), &mut interner) {
                    all_graphs.push(g);
                }
            }
            let prefix = InvertedIndex::build(&prefix_graphs, labels_at_split);
            let appended = prefix.append(
                &all_graphs[prefix_graphs.len()..],
                prefix_graphs.len(),
                interner.len(),
            );
            let full = InvertedIndex::build(&all_graphs, interner.len());
            prop_assert_eq!(appended.raw_parts(), full.raw_parts());
        }

        /// Whatever a reused buffer held before (the pivot search reuses one
        /// across steps), `extend_into` leaves in it exactly the list it
        /// writes into a fresh buffer — for the universe list, the empty
        /// list, one-label lists and random sorted lists, against every
        /// known label plus an unknown one.
        #[test]
        fn prop_extend_into_a_dirty_buffer_equals_a_fresh_one(
            pairs in proptest::collection::vec(("[a-c, ]{1,8}", "[a-c,. ]{1,8}"), 1..8),
            raw in proptest::collection::vec((0u32..10, 0u32..10), 0..24),
            dirt in proptest::collection::vec((0u32..4, 0u32..12), 0..10),
            first_label in 0usize..64,
        ) {
            let mut interner = LabelInterner::new();
            let builder = GraphBuilder::new(GraphConfig::default());
            let graphs: Vec<TransformationGraph> = pairs
                .iter()
                .filter(|(lhs, rhs)| lhs != rhs)
                .filter_map(|(lhs, rhs)| builder.build(&Replacement::new(lhs, rhs), &mut interner))
                .collect();
            let index = InvertedIndex::build(&graphs, interner.len());
            let universe = universe(graphs.len());
            let random = sorted(
                raw.iter()
                    .filter(|(g, _)| (*g as usize) < graphs.len())
                    .map(|&(g, end)| PathOccurrence { graph: GraphId(g), end })
                    .collect(),
            );
            let one_label = extend(
                &index,
                &universe,
                LabelId((first_label % index.num_labels().max(1)) as u32),
            );
            let mut buf: Vec<PathOccurrence> = dirt
                .iter()
                .map(|&(g, end)| PathOccurrence { graph: GraphId(g), end })
                .collect();
            for list in [&universe, &Vec::new(), &one_label, &random] {
                for l in 0..=index.num_labels() {
                    let label = LabelId(l as u32);
                    index.extend_into(list, label, &mut buf);
                    prop_assert_eq!(&buf, &extend(&index, list, label));
                }
            }
        }
    }

    #[test]
    fn shared_slice_external_backing_is_transparent() {
        #[derive(Debug)]
        struct VecBacking(Vec<u32>);
        impl SliceBacking<u32> for VecBacking {
            fn as_slice(&self) -> &[u32] {
                &self.0
            }
        }
        let external = SharedSlice::external(Arc::new(VecBacking(vec![1, 2, 3])));
        assert_eq!(external.as_slice(), &[1, 2, 3]);
        assert!(external.ptr_eq(&external.clone()));
        let owned: SharedSlice<u32> = vec![1, 2, 3].into();
        assert!(!external.ptr_eq(&owned));
        assert!(SharedSlice::<u32>::default().as_slice().is_empty());
    }

    #[test]
    fn gallop_finds_every_partition_point() {
        for len in 0..20usize {
            let slice: Vec<usize> = (0..len).collect();
            for cut in 0..=len {
                assert_eq!(gallop(&slice, |&x| x < cut), cut, "len={len} cut={cut}");
            }
        }
    }

    #[test]
    fn extend_from_manual_list_respects_start_nodes() {
        let (_, interner, index) = example_5_1();
        let id1 = interner.get(&f1()).unwrap();
        // Start "mid-path" at node 3 of graph 0 and node 0 of graph 1: only the
        // graph-0 occurrence can extend through f1 (which starts at 3 there).
        let current = sorted(vec![
            PathOccurrence {
                graph: GraphId(0),
                end: 3,
            },
            PathOccurrence {
                graph: GraphId(1),
                end: 0,
            },
        ]);
        assert_eq!(
            extend(&index, &current, id1),
            [PathOccurrence {
                graph: GraphId(0),
                end: 6
            }]
        );
    }
}
