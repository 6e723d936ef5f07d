//! Pivot-path search (Algorithm 3 `SearchPivot`, with the early-termination
//! optimizations of Algorithm 4).
//!
//! For a graph `G`, the *pivot path* is the transformation path of `G` (a path
//! from the first to the last node, one label per edge) shared by the largest
//! number of graphs in the collection. The search is a depth-first enumeration
//! of paths starting at the first node, maintaining the list `ℓ` of graphs
//! containing the current prefix via the inverted index; two optimizations
//! prune the enumeration:
//!
//! * **local threshold** — extending a path can only shrink `ℓ`, so branches
//!   whose list is not strictly larger than the best complete path found so
//!   far (or the caller-provided threshold) are cut;
//! * **global threshold** — every time a complete transformation path shared
//!   by `n` graphs is found, those graphs' pivot paths are known to be shared
//!   by at least `n` graphs, so their own searches can start from that bound.
//!
//! Ties between equally-shared paths are broken by the static function order
//! of Appendix E: paths using fewer `ConstantStr` labels are preferred, since
//! constants are the least general functions (two replacements with identical
//! right-hand sides trivially share an all-constants path that conveys no
//! transformation at all).
//!
//! ## One DFS per search
//!
//! Every search is one sequential DFS from the root, spending a single step
//! budget ([`GroupingConfig::max_search_steps`]). Parallelism lives one level
//! up: [`PivotSearcher::search_many`] shards the graphs to search across the
//! shared worker pool, and its snapshot-bound semantics keep each search's
//! pruning inputs independent of the sharding, so the output is identical at
//! every thread count even when the budget truncates a search.
//!
//! ## The allocation-free kernel
//!
//! The DFS runs on one [`Arena`] per search: a `Vec` of occurrences used as
//! a stack, plus a candidate stack beside it. A node intersects its list with
//! each label's postings into a reused scratch buffer
//! ([`InvertedIndex::extend_into`]), appends every viable candidate's list to
//! the arena's tail as a `Range`, and truncates the arena back to its base on
//! return. Once the buffers have grown, a step allocates nothing; a list
//! becomes a [`PathList`] only when it is accepted as a new best. Most steps
//! are spent in budget-exhausted searches over small partitions whose lists
//! hold a few dozen occurrences, where an allocation per step would cost more
//! than the intersection itself. The former `PathList`-per-step DFS is kept
//! under `#[cfg(test)]` as the kernel's oracle: same steps, same results, at
//! every budget.

use crate::config::GroupingConfig;
use crate::prepared::PreparedGraphs;
use ec_dsl::StringFn;
use ec_graph::{LabelId, PoolTask};
use ec_index::{GraphId, InvertedIndex, PathList, PathOccurrence};
use std::ops::Range;
use std::sync::Arc;

/// Registry handles for the search's two budget signals: how many steps each
/// pivot search actually spends, and how often the budget runs dry (a search
/// that keeps exhausting its budget is the first thing to look at when group
/// quality drops on label-rich data).
struct SearchMetrics {
    steps: ec_obs::Histogram,
    budget_exhausted: ec_obs::Counter,
}

fn search_metrics() -> &'static SearchMetrics {
    static METRICS: std::sync::OnceLock<SearchMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SearchMetrics {
        steps: ec_obs::histogram(
            "ec_pivot_search_steps",
            "Path-extension steps spent per pivot search.",
            ec_obs::Unit::Count,
            ec_obs::COUNT_BUCKETS,
        ),
        budget_exhausted: ec_obs::counter(
            "ec_pivot_budget_exhausted_total",
            "Pivot searches that ran out of their step budget.",
        ),
    })
}

/// The result of a pivot-path search.
#[derive(Debug, Clone)]
pub struct PivotResult {
    /// The pivot path (sequence of labels).
    pub path: Vec<LabelId>,
    /// Graphs containing the path anchored at their first node.
    pub list: PathList,
    /// Graphs for which the path is a *complete* transformation path (reaches
    /// their last node) and which are still active; these are the graphs that
    /// may join the group keyed by this path.
    pub complete: Vec<GraphId>,
    /// The number of active graphs containing the path (the score the search
    /// maximises, the paper's `|ℓ|`).
    pub share_count: usize,
}

/// Searches pivot paths over one [`PreparedGraphs`] collection.
///
/// The searcher is cheap to construct (two passes over the graphs and the
/// interner) and immutable afterwards, so one instance can serve the searches
/// of many graphs — including concurrently via [`PivotSearcher::search_many`].
/// All state is held behind [`Arc`]s, so cloning a searcher is cheap and a
/// clone can be moved into a `'static` task on the shared worker pool.
#[derive(Debug, Clone)]
pub struct PivotSearcher {
    prepared: Arc<PreparedGraphs>,
    config: Arc<GroupingConfig>,
    /// `last_nodes[g]` — the last node of graph `g`, precomputed once instead
    /// of per search.
    last_nodes: Arc<Vec<u32>>,
    /// `constant_chars[label]` — constant output characters per label,
    /// precomputed once instead of per search.
    constant_chars: Arc<Vec<usize>>,
}

struct SearchState<'a> {
    index: &'a InvertedIndex,
    active: &'a [bool],
    last_nodes: &'a [u32],
    max_path_len: usize,
    early_termination: bool,
    /// `dist_to_end[i]` — minimum number of edges needed to reach the last
    /// node of the searched graph from node `i` (`u32::MAX` if unreachable).
    /// Branches that cannot complete within the path-length cap are pruned.
    dist_to_end: &'a [u32],
    /// Remaining budget of path extensions (list intersections); when it runs
    /// out the search keeps whatever best complete path it has found so far.
    steps_left: usize,
    /// `constant_chars[label]` — number of output characters the label emits
    /// as a constant (0 for non-constant labels), used for the static-order
    /// tie-break: among equally shared paths the one whose output depends the
    /// least on constants (and then the shorter one) is preferred.
    constant_chars: &'a [usize],
    /// The searched graph's own global lower bound (the paper's `G_lo[g]`) —
    /// the only bound the DFS ever *reads*. Starts from the caller-provided
    /// value and is raised when a complete path of the graph itself is found,
    /// so a search's pruning inputs never depend on the bounds raised by
    /// sibling searches running in the same [`PivotSearcher::search_many`]
    /// call.
    own_bound: u32,
    /// Write-only update list of bound raises; the caller merges it into the
    /// shared bounds afterwards by element-wise maximum.
    raised: &'a mut BoundRaises,
    /// Best complete path found so far: `(path, list, share count,
    /// quality)`. Its `(share count, quality)` is the acceptance bar every
    /// new complete path must beat.
    best: Option<(Vec<LabelId>, PathList, usize, Quality)>,
    threshold: usize,
}

impl SearchState<'_> {
    /// Accepts `(path, list, count, quality)` as the new best if it clears the
    /// local threshold and beats the bar.
    fn offer(
        &mut self,
        count: usize,
        quality: Quality,
        make: impl FnOnce() -> (Vec<LabelId>, PathList),
    ) {
        if count <= self.threshold || !self.beats_best(count, quality) {
            return;
        }
        let (path, list) = make();
        self.best = Some((path, list, count, quality));
    }

    /// Does a candidate `(count, quality)` beat the best path so far? Quality
    /// only degrades as a path grows, so a partial path's quality is a valid
    /// lower bound for this comparison (the pruning sites rely on that).
    fn beats_best(&self, count: usize, quality: Quality) -> bool {
        match &self.best {
            None => true,
            Some((_, _, best_count, best_quality)) => {
                count > *best_count || (count == *best_count && quality < *best_quality)
            }
        }
    }

    /// Whether an extension with share count `count` and partial quality
    /// `(const_chars, len)` can still lead somewhere. Under early termination
    /// it must clear the local threshold, not fall below the searched graph's
    /// own global lower bound (Algorithm 4, line 5), and still be able to beat
    /// the bar — a strictly larger share count, or an equal count with
    /// strictly better quality (the partial quality only degrades as the path
    /// grows, so it lower bounds any completion).
    fn still_viable(&self, count: usize, const_chars: usize, len: usize) -> bool {
        if !self.early_termination {
            return true;
        }
        if count <= self.threshold || (count as u32) < self.own_bound {
            return false;
        }
        let partial = Quality {
            constant_chars: const_chars,
            len,
        };
        self.beats_best(count, partial)
    }

    /// Global threshold update (Algorithm 4): every active graph for which a
    /// complete path of `g` with list `occs` is complete has a pivot path
    /// shared by at least `count` graphs.
    fn raise_bounds(&mut self, g: GraphId, occs: &[PathOccurrence], count: usize) {
        for occ in occs {
            let gi = occ.graph.index();
            if self.active[gi] && occ.end == self.last_nodes[gi] {
                self.raised.push(gi, count as u32);
                if gi == g.index() && self.own_bound < count as u32 {
                    self.own_bound = count as u32;
                }
            }
        }
    }
}

/// Tie-break quality of a path: total characters produced by constant labels,
/// then path length. Smaller is better; both components only grow as a path is
/// extended, so a partial path's quality is a valid lower bound on the quality
/// of any of its completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Quality {
    constant_chars: usize,
    len: usize,
}

/// A sparse, write-only accumulator of global-threshold raises
/// (`graph → bound`, merged by maximum).
///
/// Workers used to carry a dense `vec![0u32; graphs]` each — O(threads ×
/// graphs) allocation and merge traffic per batch even when a batch raises a
/// handful of bounds. The update list stores only the raises that actually
/// happened; duplicates are compacted away (keeping the maximum per graph)
/// whenever the list doubles past its watermark, so its memory is
/// proportional to the number of *distinct* graphs raised, not to the
/// collection size.
#[derive(Debug, Default)]
pub struct BoundRaises {
    entries: Vec<(u32, u32)>,
    /// Compact when the list grows past this length.
    watermark: usize,
}

impl BoundRaises {
    /// Records `bound` as a lower bound for `graph`.
    fn push(&mut self, graph: usize, bound: u32) {
        self.entries.push((graph as u32, bound));
        if self.entries.len() > self.watermark.max(64) {
            self.compact();
            // Keep amortized-O(1) pushes: only re-compact after the list
            // doubles past the distinct-entry count.
            self.watermark = self.entries.len() * 2;
        }
    }

    /// Sorts and deduplicates the list, keeping the maximum bound per graph.
    fn compact(&mut self) {
        self.entries.sort_unstable();
        self.entries.dedup_by(|next, kept| {
            if kept.0 == next.0 {
                kept.1 = kept.1.max(next.1);
                true
            } else {
                false
            }
        });
    }

    /// Merges the recorded raises into `lower_bounds` by element-wise
    /// maximum.
    fn merge_into(&self, lower_bounds: &mut [u32]) {
        for &(graph, bound) in &self.entries {
            let slot = &mut lower_bounds[graph as usize];
            if *slot < bound {
                *slot = bound;
            }
        }
    }
}

/// How one search explores below the root.
#[derive(Clone, Copy)]
enum Explore {
    /// The production kernel: one recursive DFS over the [`Arena`].
    ArenaDfs,
    /// One recursive DFS over [`PathList`]s, one allocated list per step:
    /// the arena kernel's oracle.
    #[cfg(test)]
    PlainDfs,
}

/// One viable extension of a DFS node. Its occurrence list lives in the
/// [`Arena`] at `start..end`.
#[derive(Clone, Copy)]
struct Candidate {
    label: LabelId,
    /// The node the extension reaches in the searched graph.
    to: u32,
    start: usize,
    end: usize,
    /// Active share count of the extended list.
    count: usize,
    /// Constant output characters of the extended path.
    const_chars: usize,
}

/// The per-search working memory of the DFS, used as two stacks. Each DFS
/// node appends its viable candidates (and their occurrence lists) at the
/// tails and truncates both back to their bases on return, so a parent's
/// candidates stay valid while its children run. Once the buffers have grown
/// to the deepest path's needs, a step allocates nothing: a list only becomes
/// a [`PathList`] when [`SearchState::offer`] accepts a new best.
#[derive(Default)]
struct Arena {
    /// Occurrence lists of the candidates on the current DFS path.
    occs: Vec<PathOccurrence>,
    /// Target of the current intersection; copied to the tail of `occs` only
    /// when the extension survives pruning.
    scratch: Vec<PathOccurrence>,
    /// Candidates of the nodes on the current DFS path.
    candidates: Vec<Candidate>,
}

impl PivotSearcher {
    /// Creates a searcher over `prepared` using `config`'s path-length cap and
    /// early-termination setting.
    pub fn new(prepared: Arc<PreparedGraphs>, config: &GroupingConfig) -> Self {
        let last_nodes: Vec<u32> = prepared.graphs().iter().map(|g| g.last_node()).collect();
        let constant_chars: Vec<usize> = prepared
            .interner()
            .iter()
            .map(|(_, f)| match f {
                StringFn::ConstantStr(c) => c.chars().count(),
                _ => 0,
            })
            .collect();
        PivotSearcher {
            prepared,
            config: Arc::new(config.clone()),
            last_nodes: Arc::new(last_nodes),
            constant_chars: Arc::new(constant_chars),
        }
    }

    /// The graphs this searcher searches.
    pub(crate) fn prepared(&self) -> &PreparedGraphs {
        &self.prepared
    }

    /// Searches the pivot path of graph `g`.
    ///
    /// * `threshold` — only paths shared by **more than** `threshold` active
    ///   graphs are acceptable (the incremental algorithm passes `τ - 1`; the
    ///   one-shot algorithm passes 0).
    /// * `active` — graphs still participating (inactive graphs are invisible
    ///   to share counts and group membership).
    /// * `lower_bounds` — the per-graph global thresholds, updated in place
    ///   whenever a complete path is found (only when early termination is
    ///   enabled, mirroring Algorithm 4).
    ///
    /// Returns `None` when no transformation path of `g` is shared by more
    /// than `threshold` active graphs (within the path-length cap).
    pub fn search(
        &self,
        g: GraphId,
        threshold: usize,
        active: &[bool],
        lower_bounds: &mut [u32],
    ) -> Option<PivotResult> {
        // Raises are merged into `lower_bounds` after the search, which keeps
        // the cumulative-bounds behavior of Algorithm 4 for a lone `search`
        // call (the DFS itself only ever reads the searched graph's own
        // bound, tracked separately).
        let own_bound = lower_bounds[g.index()];
        let mut raised = BoundRaises::default();
        let explore = Explore::ArenaDfs;
        let (result, _) =
            self.search_with_bounds(g, threshold, active, own_bound, &mut raised, explore);
        raised.merge_into(lower_bounds);
        result
    }

    /// The core search: reads only `own_bound` (the searched graph's own
    /// global threshold) and records every bound raise into the write-only
    /// `raised` list, without ever reading other graphs' entries. Returns the
    /// result and the steps the search consumed.
    fn search_with_bounds(
        &self,
        g: GraphId,
        threshold: usize,
        active: &[bool],
        own_bound: u32,
        raised: &mut BoundRaises,
        explore: Explore,
    ) -> (Option<PivotResult>, usize) {
        let graph = self.prepared.graph(g);
        // Minimum number of edges from each node of `graph` to its last node;
        // paths that cannot complete within the length cap are never
        // explored.
        let dist_to_end = distance_to_end(graph);
        let budget = self.config.max_search_steps.max(1);
        let mut state = SearchState {
            index: self.prepared.index(),
            active,
            last_nodes: &self.last_nodes,
            max_path_len: self.config.max_path_len,
            early_termination: self.config.early_termination,
            dist_to_end: &dist_to_end,
            steps_left: budget,
            constant_chars: &self.constant_chars,
            own_bound,
            raised,
            best: None,
            threshold,
        };
        // The empty path's list: every graph, anchored at its first node.
        let mut arena = Arena {
            occs: (0..self.prepared.len())
                .map(|i| PathOccurrence {
                    graph: GraphId(i as u32),
                    end: 0,
                })
                .collect(),
            ..Arena::default()
        };

        // Seed the best path with the single-edge paths over the full-output
        // edge (which always includes the `ConstantStr(t)` label): this both
        // guarantees that a complete path is known before the search budget
        // can run out and gives the local threshold an immediate baseline.
        if let Some(full_edge) = graph.edge(0, graph.last_node()) {
            for &label in &full_edge.labels {
                state
                    .index
                    .extend_into(&arena.occs, label, &mut arena.scratch);
                let count = active_count(&arena.scratch, state.active);
                let quality = Quality {
                    constant_chars: state.constant_chars[label.index()],
                    len: 1,
                };
                state.offer(count, quality, || (vec![label], path_list(&arena.scratch)));
            }
        }

        let reachable =
            state.dist_to_end.first().copied().unwrap_or(u32::MAX) as usize <= state.max_path_len;
        if reachable {
            match explore {
                Explore::ArenaDfs => {
                    let (path, list) = (&mut Vec::new(), 0..arena.occs.len());
                    dfs(graph, g, 0, path, list, 0, &mut state, &mut arena);
                }
                #[cfg(test)]
                Explore::PlainDfs => {
                    let universe = PathList::universe(self.prepared.len());
                    tests::list_dfs(graph, g, 0, &mut Vec::new(), &universe, 0, &mut state);
                }
            }
        }
        let metrics = search_metrics();
        let steps_used = budget - state.steps_left;
        metrics.steps.observe(steps_used as u64);
        if state.steps_left == 0 {
            metrics.budget_exhausted.inc();
        }
        let Some((path, list, count, _)) = state.best.take() else {
            return (None, steps_used);
        };
        let mut complete: Vec<GraphId> = list
            .occurrences()
            .iter()
            .filter(|occ| {
                active[occ.graph.index()] && occ.end == self.last_nodes[occ.graph.index()]
            })
            .map(|occ| occ.graph)
            .collect();
        complete.dedup();
        let result = PivotResult {
            path,
            list,
            complete,
            share_count: count,
        };
        (Some(result), steps_used)
    }

    /// Searches the pivot paths of `gids`, sharded across the shared worker
    /// pool, and returns the results in `gids` order.
    ///
    /// The output is **bit-identical for every thread count, by
    /// construction**: every search in the call reads only its searched
    /// graph's bound as snapshotted at entry (plus the raises produced by its
    /// own complete paths), and all raises are collected into write-only
    /// [`BoundRaises`] update lists merged into `lower_bounds` by
    /// element-wise maximum after the searches finish. A search's pruning
    /// inputs therefore never depend on how the graphs are chunked across
    /// workers — which also keeps results identical when
    /// [`GroupingConfig::max_search_steps`] truncates a search, since the
    /// number of steps a search consumes depends only on chunk-independent
    /// state. (Every raise is a sound lower bound, so deferring the merge
    /// only weakens pruning within one call, never correctness.)
    ///
    /// Each worker is handed only its own chunk's graph bounds plus a sparse
    /// update list, so the per-batch memory traffic is O(graphs searched +
    /// raises recorded) instead of the former O(threads × graphs) full-vector
    /// copies. Sharded batches run as `'static` tasks on the process-wide
    /// work-stealing pool (`ec_graph::pool`) — no scoped threads are spawned
    /// per call, which is what makes the incremental grouper's speculative
    /// batch loop cheap inside long-lived processes like `ec serve`.
    pub fn search_many(
        &self,
        gids: &[GraphId],
        threshold: usize,
        active: &[bool],
        lower_bounds: &mut [u32],
        parallelism: ec_graph::Parallelism,
    ) -> Vec<Option<PivotResult>> {
        let _span = ec_obs::span!("grouping.pivot_search", gids.len());
        let shards = parallelism.shards(gids.len());
        let chunk_size = gids.len().div_ceil(shards.max(1)).max(1);
        let explore = Explore::ArenaDfs;
        type ShardOutput = (Vec<Option<PivotResult>>, BoundRaises);
        let shard_outputs: Vec<ShardOutput> = if shards <= 1 {
            let mut raised = BoundRaises::default();
            let results = gids
                .iter()
                // Snapshot each graph's own bound before any search runs, so
                // the sequential path reads exactly what the sharded path
                // would (raises merge only after the whole call).
                .map(|&g| (g, lower_bounds[g.index()]))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|(g, own_bound)| {
                    self.search_with_bounds(g, threshold, active, own_bound, &mut raised, explore)
                        .0
                })
                .collect();
            vec![(results, raised)]
        } else {
            // Snapshot only the searched graphs' own bounds, chunk by chunk,
            // before any search runs — the values every search reads are
            // fixed at entry no matter how chunks are scheduled.
            let active: Arc<[bool]> = active.into();
            let tasks: Vec<PoolTask<ShardOutput>> = gids
                .chunks(chunk_size)
                .map(|chunk| {
                    let searcher = self.clone();
                    let chunk: Vec<GraphId> = chunk.to_vec();
                    let bounds: Vec<u32> = chunk.iter().map(|&g| lower_bounds[g.index()]).collect();
                    let active = Arc::clone(&active);
                    Box::new(move || {
                        let mut raised = BoundRaises::default();
                        let results = chunk
                            .iter()
                            .zip(&bounds)
                            .map(|(&g, &own_bound)| {
                                searcher
                                    .search_with_bounds(
                                        g,
                                        threshold,
                                        &active,
                                        own_bound,
                                        &mut raised,
                                        explore,
                                    )
                                    .0
                            })
                            .collect();
                        (results, raised)
                    }) as PoolTask<ShardOutput>
                })
                .collect();
            parallelism.run_tasks(tasks)
        };
        let mut out = Vec::with_capacity(gids.len());
        for (results, raised) in shard_outputs {
            out.extend(results);
            raised.merge_into(lower_bounds);
        }
        out
    }
}

/// `dist[i]` — the minimum number of edges needed to go from node `i` to the
/// last node of `graph`, or `u32::MAX` when the last node is unreachable from
/// `i`. Computed by a reverse DP over the DAG (edges always point forward).
fn distance_to_end(graph: &ec_graph::TransformationGraph) -> Vec<u32> {
    let last = graph.last_node();
    let mut dist = vec![u32::MAX; last as usize + 1];
    dist[last as usize] = 0;
    for i in (0..last).rev() {
        let mut best = u32::MAX;
        for edge in graph.out_edges(i) {
            let d = dist[edge.to as usize];
            if d != u32::MAX {
                best = best.min(d + 1);
            }
        }
        dist[i as usize] = best;
    }
    dist
}

/// Number of distinct *active* graphs in an occurrence list.
fn active_count(occs: &[PathOccurrence], active: &[bool]) -> usize {
    let mut count = 0;
    let mut last = None;
    for occ in occs {
        if active[occ.graph.index()] && last != Some(occ.graph) {
            count += 1;
            last = Some(occ.graph);
        }
    }
    count
}

/// An owned [`PathList`] copy of an arena list.
fn path_list(occs: &[PathOccurrence]) -> PathList {
    PathList::from_occurrences(occs.to_vec())
}

/// The DFS's candidate step: appends the viable extensions of `node` (whose
/// path so far has the arena list `list`) to the arena's candidate stack,
/// sorted into exploration order — decreasing share count (ties: longer
/// edges, then fewer constant characters). Finding a high-share complete
/// path early makes the local threshold bite on all remaining branches, which
/// is where essentially all of the search time goes on real data.
///
/// Consumes one step per examined label; returns `false` when the budget ran
/// out mid-collection (the caller must stop, keeping its best so far).
#[allow(clippy::too_many_arguments)]
fn collect_candidates(
    graph: &ec_graph::TransformationGraph,
    node: u32,
    list: Range<usize>,
    path_len: usize,
    const_chars: usize,
    state: &mut SearchState<'_>,
    arena: &mut Arena,
) -> bool {
    // Only one more label fits: the next edge must reach the last node.
    let last_step = path_len + 1 == state.max_path_len;
    // Remaining length budget for the rest of the path.
    let remaining = state.max_path_len - path_len;
    let first = arena.candidates.len();
    for edge in graph.out_edges(node) {
        if last_step && edge.to != graph.last_node() {
            continue;
        }
        // Feasibility: after taking this edge there must still be enough path
        // length left to reach the last node.
        let to_end = state.dist_to_end[edge.to as usize];
        if to_end == u32::MAX || 1 + to_end as usize > remaining {
            continue;
        }
        for &label in &edge.labels {
            // Cheap upper bound: a label occurring in at most `threshold`
            // graphs can never lead to an acceptable path.
            if state.index.list_graph_count(label) <= state.threshold {
                continue;
            }
            if state.steps_left == 0 {
                return false;
            }
            state.steps_left -= 1;
            state
                .index
                .extend_into(&arena.occs[list.clone()], label, &mut arena.scratch);
            if arena.scratch.is_empty() {
                continue;
            }
            let count = active_count(&arena.scratch, state.active);
            if count == 0 {
                continue;
            }
            let next_chars = const_chars + state.constant_chars[label.index()];
            // Local threshold and the graph's own global lower bound
            // (Algorithm 4, line 5).
            if !state.still_viable(count, next_chars, path_len + 1) {
                continue;
            }
            let start = arena.occs.len();
            arena.occs.extend_from_slice(&arena.scratch);
            arena.candidates.push(Candidate {
                label,
                to: edge.to,
                start,
                end: arena.occs.len(),
                count,
                const_chars: next_chars,
            });
        }
    }
    // Lists are appended in collection order, so `start` makes this
    // in-place unstable sort order ties exactly as a stable sort would.
    arena.candidates[first..].sort_unstable_by(|a, b| {
        b.count
            .cmp(&a.count) // larger share count first
            .then_with(|| b.to.cmp(&a.to)) // longer jumps first (completes sooner)
            .then_with(|| a.const_chars.cmp(&b.const_chars)) // fewer constant characters first
            .then_with(|| a.start.cmp(&b.start))
    });
    true
}

/// The production DFS below `node`, whose path so far has the arena list
/// `list`. Every step runs in `arena`; nothing is allocated once its buffers
/// have grown, except the [`PathList`] of an accepted best path.
#[allow(clippy::too_many_arguments)]
fn dfs(
    graph: &ec_graph::TransformationGraph,
    g: GraphId,
    node: u32,
    path: &mut Vec<LabelId>,
    list: Range<usize>,
    const_chars: usize,
    state: &mut SearchState<'_>,
    arena: &mut Arena,
) {
    if node == graph.last_node() {
        // The maintained path is a transformation path of `graph`.
        let occs = &arena.occs[list];
        let count = active_count(occs, state.active);
        let quality = Quality {
            constant_chars: const_chars,
            len: path.len(),
        };
        state.offer(count, quality, || (path.clone(), path_list(occs)));
        if state.early_termination {
            state.raise_bounds(g, occs, count);
        }
        return;
    }
    if path.len() >= state.max_path_len {
        return;
    }
    let occs_base = arena.occs.len();
    let first = arena.candidates.len();
    if collect_candidates(graph, node, list, path.len(), const_chars, state, arena) {
        // Children push above `last` and truncate back before returning.
        let last = arena.candidates.len();
        for i in first..last {
            if state.steps_left == 0 {
                break;
            }
            let c = arena.candidates[i];
            // Re-check against the (possibly improved) bar before descending.
            if !state.still_viable(c.count, c.const_chars, path.len() + 1) {
                continue;
            }
            path.push(c.label);
            dfs(
                graph,
                g,
                c.to,
                path,
                c.start..c.end,
                c.const_chars,
                state,
                arena,
            );
            path.pop();
        }
    }
    arena.candidates.truncate(first);
    arena.occs.truncate(occs_base);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_dsl::{Dir, PositionFn, StringFn, Term};
    use ec_graph::Replacement;

    fn prepared(reps: &[Replacement], config: &GroupingConfig) -> Arc<PreparedGraphs> {
        Arc::new(PreparedGraphs::build(reps, config))
    }

    fn example_5_1() -> Vec<Replacement> {
        vec![
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            Replacement::new("Lee, Mary", "Mary Lee"),
        ]
    }

    // Paper Example 5.2 / Table 5: the pivot path of G1 is f2 ⊕ f3 ⊕ f1,
    // shared by G1 and G2.
    #[test]
    fn paper_example_5_2_pivot_of_g1() {
        let config = GroupingConfig::default();
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        let result = searcher
            .search(GraphId(0), 0, &active, &mut lower)
            .expect("pivot path exists");
        assert_eq!(result.share_count, 2, "pivot of G1 is shared by G1 and G2");
        assert_eq!(result.complete, vec![GraphId(0), GraphId(1)]);
        // The shared program must actually transform both replacements.
        let program = prep.resolve_program(&result.path);
        for gid in &result.complete {
            let r = prep.replacement(*gid);
            let ctx = ec_dsl::StrCtx::new(r.lhs());
            assert!(
                program.consistent_with(&ctx, r.rhs()),
                "{program} must be consistent with {r}"
            );
        }
    }

    // Paper Example 5.3: after searching G1, the global threshold of G2 is 2,
    // so G2's own search can prune aggressively and still finds a pivot shared
    // by 2 graphs.
    #[test]
    fn paper_example_5_3_global_threshold_propagates() {
        let config = GroupingConfig::default();
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        let _ = searcher.search(GraphId(0), 0, &active, &mut lower).unwrap();
        assert_eq!(lower[1], 2, "G2's lower bound is raised to 2");
        let result = searcher.search(GraphId(1), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 2);
    }

    #[test]
    fn pivot_of_g3_is_the_name_transposition() {
        // G3 = "Lee, Mary" -> "Mary Lee" shares its transposition program with
        // no other graph in this tiny example, so its pivot is shared by 1.
        let config = GroupingConfig::default();
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        let result = searcher.search(GraphId(2), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 1);
        assert_eq!(result.complete, vec![GraphId(2)]);
    }

    #[test]
    fn adding_the_fourth_replacement_grows_the_transposition_group() {
        let mut reps = example_5_1();
        reps.push(Replacement::new("Smith, James", "James Smith"));
        let config = GroupingConfig::default();
        let prep = prepared(&reps, &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        let result = searcher.search(GraphId(2), 0, &active, &mut lower).unwrap();
        assert_eq!(
            result.share_count, 2,
            "Lee/Mary and Smith/James transpositions share a program"
        );
        assert!(result.complete.contains(&GraphId(2)));
        assert!(result.complete.contains(&GraphId(3)));
    }

    #[test]
    fn early_termination_does_not_change_the_result() {
        let mut reps = example_5_1();
        reps.push(Replacement::new("Smith, James", "James Smith"));
        reps.push(Replacement::new("Doe, John", "J. Doe"));
        reps.push(Replacement::new("Roe, Jane", "Jane Roe"));
        let with = GroupingConfig::default();
        let without = GroupingConfig::one_shot();
        let prep_with = prepared(&reps, &with);
        let prep_without = prepared(&reps, &without);
        for g in 0..reps.len() {
            let mut lower_a = vec![1u32; reps.len()];
            let mut lower_b = vec![1u32; reps.len()];
            let active = vec![true; reps.len()];
            let a = PivotSearcher::new(Arc::clone(&prep_with), &with)
                .search(GraphId(g as u32), 0, &active, &mut lower_a)
                .unwrap();
            let b = PivotSearcher::new(Arc::clone(&prep_without), &without)
                .search(GraphId(g as u32), 0, &active, &mut lower_b)
                .unwrap();
            assert_eq!(a.share_count, b.share_count, "graph {g}");
            assert_eq!(a.complete.len(), b.complete.len(), "graph {g}");
        }
    }

    #[test]
    fn threshold_filters_small_pivots() {
        let config = GroupingConfig::default();
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        // G3's pivot is shared by only 1 graph, so a threshold of 1 rejects it.
        assert!(searcher
            .search(GraphId(2), 1, &active, &mut lower)
            .is_none());
        // G1's pivot is shared by 2 graphs, so a threshold of 1 accepts it…
        assert!(searcher
            .search(GraphId(0), 1, &active, &mut lower)
            .is_some());
        // …and a threshold of 2 rejects it.
        let mut lower = vec![1u32; prep.len()];
        assert!(searcher
            .search(GraphId(0), 2, &active, &mut lower)
            .is_none());
    }

    #[test]
    fn inactive_graphs_are_not_counted_or_grouped() {
        let config = GroupingConfig::default();
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let mut active = vec![true; prep.len()];
        active[1] = false; // deactivate "Smith, James" -> "J. Smith"
        let result = searcher.search(GraphId(0), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 1);
        assert_eq!(result.complete, vec![GraphId(0)]);
    }

    #[test]
    fn max_path_len_limits_the_search() {
        // With a path cap of 1 the only complete paths are single labels such
        // as the full-string constant, so the pivot is shared by 1 graph.
        let config = GroupingConfig {
            max_path_len: 1,
            ..GroupingConfig::default()
        };
        let prep = prepared(&example_5_1(), &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; prep.len()];
        let active = vec![true; prep.len()];
        let result = searcher.search(GraphId(0), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 1);
        assert_eq!(result.path.len(), 1);
    }

    #[test]
    fn search_many_is_bit_identical_to_sequential_searches() {
        // Several transformation families, so the searches interact through
        // the shared lower bounds. The unbound budget lets every search
        // finish; 25 steps truncates most of them.
        const UNBOUND: usize = 100_000_000;
        let reps = family_replacements();
        for budget in [UNBOUND, 25] {
            let config = GroupingConfig {
                max_search_steps: budget,
                ..GroupingConfig::default()
            };
            let prep = prepared(&reps, &config);
            let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
            let active = vec![true; prep.len()];
            let gids: Vec<GraphId> = (0..prep.len()).map(|g| GraphId(g as u32)).collect();

            // The reference: one `search` per graph, each reading the bounds
            // as they stood at entry (as every search in one `search_many`
            // call does), with the raises max-merged afterwards.
            let mut seq_bounds = vec![1u32; prep.len()];
            let sequential: Vec<Option<PivotResult>> = gids
                .iter()
                .map(|&g| {
                    let mut bounds = vec![1u32; prep.len()];
                    let result = searcher.search(g, 0, &active, &mut bounds);
                    for (merged, raised) in seq_bounds.iter_mut().zip(bounds) {
                        *merged = (*merged).max(raised);
                    }
                    result
                })
                .collect();
            for threads in [1, 2, 4, 7] {
                let ctx = format!("budget={budget} threads={threads}");
                let mut par_bounds = vec![1u32; prep.len()];
                let parallel = searcher.search_many(
                    &gids,
                    0,
                    &active,
                    &mut par_bounds,
                    ec_graph::Parallelism::fixed(threads),
                );
                assert_eq!(par_bounds, seq_bounds, "{ctx}");
                assert_eq!(parallel.len(), sequential.len());
                for (a, b) in sequential.iter().zip(&parallel) {
                    let a = a.as_ref().unwrap();
                    let b = b.as_ref().unwrap();
                    assert_eq!(a.path, b.path, "{ctx}");
                    assert_eq!(a.list, b.list, "{ctx}");
                    assert_eq!(a.share_count, b.share_count, "{ctx}");
                    assert_eq!(a.complete, b.complete, "{ctx}");
                }
            }
            if budget != UNBOUND {
                continue;
            }
            // Finished searches find the true pivots, so cumulative bounds
            // (stronger pruning) change no result, and no bound exceeds its
            // graph's true pivot share count.
            let mut cumulative = vec![1u32; prep.len()];
            for (g, expected) in gids.iter().zip(&sequential) {
                let expected = expected.as_ref().unwrap();
                let result = searcher.search(*g, 0, &active, &mut cumulative).unwrap();
                assert_eq!(result.path, expected.path, "graph {g:?}");
                assert_eq!(result.share_count, expected.share_count, "graph {g:?}");
            }
            for bounds in [&seq_bounds, &cumulative] {
                for (g, (bound, result)) in bounds.iter().zip(&sequential).enumerate() {
                    let share = result.as_ref().unwrap().share_count;
                    assert!(
                        *bound as usize <= share,
                        "bound {bound} exceeds true share {share} of graph {g}"
                    );
                }
            }
        }
    }

    /// A workload with several interacting transformation families.
    fn family_replacements() -> Vec<Replacement> {
        let mut reps = Vec::new();
        for (last, first) in [
            ("Lee", "Mary"),
            ("Smith", "James"),
            ("Brown", "Anna"),
            ("Jones", "Paul"),
            ("Davis", "Emma"),
            ("Moore", "Lucy"),
        ] {
            reps.push(Replacement::new(
                format!("{last}, {first}"),
                format!("{first} {last}"),
            ));
            let initial = first.chars().next().unwrap();
            reps.push(Replacement::new(
                format!("{last}, {first}"),
                format!("{initial}. {last}"),
            ));
        }
        reps
    }

    /// One viable extension for the [`PathList`] oracle: `(label, target
    /// node, extended list, active share count, constant chars including the
    /// label)`.
    type ListCandidate = (LabelId, u32, PathList, usize, usize);

    /// The oracle's candidate step: [`collect_candidates`] with one allocated
    /// [`PathList`] per intersection, returned as an owned vector (`None`
    /// when the budget ran out mid-collection).
    fn list_candidates(
        graph: &ec_graph::TransformationGraph,
        node: u32,
        list: &PathList,
        path_len: usize,
        const_chars: usize,
        state: &mut SearchState<'_>,
    ) -> Option<Vec<ListCandidate>> {
        let last_step = path_len + 1 == state.max_path_len;
        let remaining = state.max_path_len - path_len;
        let mut candidates: Vec<ListCandidate> = Vec::new();
        for edge in graph.out_edges(node) {
            if last_step && edge.to != graph.last_node() {
                continue;
            }
            let to_end = state.dist_to_end[edge.to as usize];
            if to_end == u32::MAX || 1 + to_end as usize > remaining {
                continue;
            }
            for &label in &edge.labels {
                if state.index.list_graph_count(label) <= state.threshold {
                    continue;
                }
                if state.steps_left == 0 {
                    return None;
                }
                state.steps_left -= 1;
                let extended = state.index.extend(list, label);
                if extended.is_empty() {
                    continue;
                }
                let count = active_count(extended.occurrences(), state.active);
                if count == 0 {
                    continue;
                }
                let next_chars = const_chars + state.constant_chars[label.index()];
                if !state.still_viable(count, next_chars, path_len + 1) {
                    continue;
                }
                candidates.push((label, edge.to, extended, count, next_chars));
            }
        }
        candidates.sort_by(|a, b| {
            b.3.cmp(&a.3)
                .then_with(|| b.1.cmp(&a.1))
                .then_with(|| a.4.cmp(&b.4))
        });
        Some(candidates)
    }

    /// The oracle DFS: [`dfs`] over owned [`PathList`]s, the search kernel
    /// as it was before the arena. Run through [`Explore::PlainDfs`].
    pub(super) fn list_dfs(
        graph: &ec_graph::TransformationGraph,
        g: GraphId,
        node: u32,
        path: &mut Vec<LabelId>,
        list: &PathList,
        const_chars: usize,
        state: &mut SearchState<'_>,
    ) {
        if node == graph.last_node() {
            let count = active_count(list.occurrences(), state.active);
            let quality = Quality {
                constant_chars: const_chars,
                len: path.len(),
            };
            state.offer(count, quality, || (path.clone(), list.clone()));
            if state.early_termination {
                state.raise_bounds(g, list.occurrences(), count);
            }
            return;
        }
        if path.len() >= state.max_path_len {
            return;
        }
        let Some(candidates) = list_candidates(graph, node, list, path.len(), const_chars, state)
        else {
            return;
        };
        for (label, to, extended, count, next_chars) in candidates {
            if state.steps_left == 0 {
                return;
            }
            if !state.still_viable(count, next_chars, path.len() + 1) {
                continue;
            }
            path.push(label);
            list_dfs(graph, g, to, path, &extended, next_chars, state);
            path.pop();
        }
    }

    /// [`PivotSearcher::search`] explored by `explore`, also returning the
    /// steps the search consumed.
    fn search_explored(
        searcher: &PivotSearcher,
        g: GraphId,
        threshold: usize,
        active: &[bool],
        lower_bounds: &mut [u32],
        explore: Explore,
    ) -> (Option<PivotResult>, usize) {
        let mut raised = BoundRaises::default();
        let own_bound = lower_bounds[g.index()];
        let searched =
            searcher.search_with_bounds(g, threshold, active, own_bound, &mut raised, explore);
        raised.merge_into(lower_bounds);
        searched
    }

    /// One cluster, many variants: every ordered pair of distinct spellings
    /// of one journal title becomes a replacement — the mega-group shape,
    /// where all graphs share long inverted lists. (Kept short enough for
    /// the unbounded budget to finish; long titles make it explode.)
    fn mega_group_replacements() -> Vec<Replacement> {
        let values = [
            "Journal Data",
            "J. Data",
            "Journal D.",
            "J. D.",
            "Jnl Data",
            "Jnl. Data",
        ];
        let mut reps = Vec::new();
        for a in &values {
            for b in &values {
                if a != b {
                    reps.push(Replacement::new(*a, *b));
                }
            }
        }
        reps
    }

    /// Searches every graph of `reps` through the arena DFS and through the
    /// [`PathList`] oracle DFS, each with its own cumulative lower bounds,
    /// and asserts equal results, equal steps and equal merged bounds after
    /// every search.
    fn assert_arena_dfs_matches_the_list_dfs(reps: &[Replacement], budget: usize) {
        let config = GroupingConfig {
            max_search_steps: budget,
            ..GroupingConfig::default()
        };
        let prep = prepared(reps, &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        // All graphs active, then every third one retired as if emitted.
        let all = vec![true; prep.len()];
        let thinned: Vec<bool> = (0..prep.len()).map(|g| g % 3 != 1).collect();
        for (active, threshold) in [(&all, 0), (&all, 1), (&thinned, 1)] {
            let mut bounds_arena = vec![1u32; prep.len()];
            let mut bounds_list = vec![1u32; prep.len()];
            for g in (0..prep.len()).map(|g| GraphId(g as u32)) {
                let ctx = format!("budget={budget} threshold={threshold} graph={g:?}");
                let (a, steps_a) = search_explored(
                    &searcher,
                    g,
                    threshold,
                    active,
                    &mut bounds_arena,
                    Explore::ArenaDfs,
                );
                let (b, steps_b) = search_explored(
                    &searcher,
                    g,
                    threshold,
                    active,
                    &mut bounds_list,
                    Explore::PlainDfs,
                );
                assert_eq!(steps_a, steps_b, "{ctx}");
                assert_eq!(bounds_arena, bounds_list, "{ctx}");
                match (a, b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.path, b.path, "{ctx}");
                        assert_eq!(a.list, b.list, "{ctx}");
                        assert_eq!(a.complete, b.complete, "{ctx}");
                        assert_eq!(a.share_count, b.share_count, "{ctx}");
                    }
                    (a, b) => panic!("{ctx}: {:?} vs {:?}", a.is_some(), b.is_some()),
                }
            }
        }
    }

    #[test]
    fn arena_dfs_matches_the_list_dfs_on_the_family_workload_at_any_budget() {
        for budget in [25, 200, 5_000, 100_000_000] {
            assert_arena_dfs_matches_the_list_dfs(&family_replacements(), budget);
        }
    }

    #[test]
    fn arena_dfs_matches_the_list_dfs_on_the_mega_group_at_any_budget() {
        for budget in [25, 200, 5_000, 100_000_000] {
            assert_arena_dfs_matches_the_list_dfs(&mega_group_replacements(), budget);
        }
    }

    #[test]
    fn search_many_on_one_graph_is_thread_independent_when_the_budget_binds() {
        // A starved budget truncates most searches; searching one graph per
        // call with more workers than graphs must not move the truncation
        // points.
        let reps = family_replacements();
        let config = GroupingConfig {
            max_search_steps: 25,
            ..GroupingConfig::default()
        };
        let prep = prepared(&reps, &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let active = vec![true; prep.len()];
        let run = |threads: usize| {
            let mut bounds = vec![1u32; prep.len()];
            let results: Vec<Option<PivotResult>> = (0..prep.len())
                .flat_map(|g| {
                    // One graph per call, so threads > gids.len().
                    searcher.search_many(
                        &[GraphId(g as u32)],
                        0,
                        &active,
                        &mut bounds,
                        ec_graph::Parallelism::fixed(threads),
                    )
                })
                .collect();
            (results, bounds)
        };
        let (base_results, base_bounds) = run(1);
        for threads in [2usize, 4, 7] {
            let (results, bounds) = run(threads);
            assert_eq!(bounds, base_bounds, "threads={threads}");
            assert_eq!(results.len(), base_results.len());
            for (a, b) in base_results.iter().zip(&results) {
                match (a, b) {
                    (None, None) => {}
                    (Some(a), Some(b)) => {
                        assert_eq!(a.path, b.path, "threads={threads}");
                        assert_eq!(a.share_count, b.share_count, "threads={threads}");
                        assert_eq!(a.complete, b.complete, "threads={threads}");
                        assert_eq!(a.list, b.list, "threads={threads}");
                    }
                    _ => panic!("presence differs at {threads} threads"),
                }
            }
        }
    }

    #[test]
    fn affix_pivot_groups_street_and_avenue() {
        // Street->St and Avenue->Ave share a pivot only thanks to the affix
        // extension (Appendix D / Example D.1).
        let reps = vec![
            Replacement::new("Street", "St"),
            Replacement::new("Avenue", "Ave"),
        ];
        let with_affix = GroupingConfig::default();
        let prep = prepared(&reps, &with_affix);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &with_affix);
        let mut lower = vec![1u32; 2];
        let active = vec![true; 2];
        let result = searcher.search(GraphId(0), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 2);
        let program = prep.resolve_program(&result.path);
        assert!(program.fns().iter().any(StringFn::is_affix));

        let without = GroupingConfig::without_affix();
        let prep2 = prepared(&reps, &without);
        let searcher2 = PivotSearcher::new(Arc::clone(&prep2), &without);
        let mut lower2 = vec![1u32; 2];
        let result2 = searcher2
            .search(GraphId(0), 0, &active, &mut lower2)
            .unwrap();
        assert_eq!(
            result2.share_count, 1,
            "without affix labels the two graphs share no program"
        );
    }

    #[test]
    fn pivot_program_reproduces_figure_3() {
        // The pivot program of the initials transformation must contain the
        // f2/f3/f1 shape of Figure 3 (a substring, a constant ". ", a substring).
        let reps = vec![
            Replacement::new("Lee, Mary", "M. Lee"),
            Replacement::new("Smith, James", "J. Smith"),
            Replacement::new("Brown, Anna", "A. Brown"),
        ];
        let config = GroupingConfig::default();
        let prep = prepared(&reps, &config);
        let searcher = PivotSearcher::new(Arc::clone(&prep), &config);
        let mut lower = vec![1u32; 3];
        let active = vec![true; 3];
        let result = searcher.search(GraphId(0), 0, &active, &mut lower).unwrap();
        assert_eq!(result.share_count, 3);
        let program = prep.resolve_program(&result.path);
        // The program must be consistent with a fresh, unseen name pair too —
        // that is what "learning a transformation" means.
        let ctx = ec_dsl::StrCtx::new("Stone, Olivia");
        assert!(program.consistent_with(&ctx, "O. Stone"), "{program}");
        // And it must include the constant ". " somewhere (or an equivalent),
        // since ". " never appears in the inputs.
        assert!(program
            .fns()
            .iter()
            .any(|f| matches!(f, StringFn::ConstantStr(c) if c.contains('.'))));
        let _ = PositionFn::const_pos(1);
        let _ = Dir::Begin;
        let _ = Term::Upper;
    }
}
