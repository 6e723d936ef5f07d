//! Cross-batch incremental resolution: the [`DeltaResolver`].
//!
//! The one-shot entry points ([`Resolver::resolve`],
//! [`Resolver::resolve_stream`]) resolve a complete record collection. The
//! delta ingest path instead pushes records batch by batch and asks for the
//! clustering of everything so far after each batch; the [`DeltaResolver`]
//! keeps the records, the blocking index and a pair-score cache alive between
//! batches so that each snapshot only pays for what is new.

use crate::blocking::BlockingIndex;
use crate::matcher::{
    clusters_to_dataset, score_pairs, RawRecord, Records, Resolver, ResolverConfig,
};
use crate::unionfind::UnionFind;
use ec_data::Dataset;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A fast, deterministic hasher for the delta resolver's small fixed-width
/// keys (FxHash-style multiply-fold). The std SipHash default is measurable
/// overhead when a snapshot performs one lookup per candidate pair; scores
/// are values, not untrusted input, so HashDoS hardening buys nothing here.
#[derive(Default)]
struct PairHasher(u64);

impl std::hash::Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// [`std::hash::BuildHasher`] for [`PairHasher`] (stateless, deterministic).
#[derive(Clone, Default)]
struct PairHashBuilder;

impl std::hash::BuildHasher for PairHashBuilder {
    type Hasher = PairHasher;

    fn build_hasher(&self) -> PairHasher {
        PairHasher(0xcbf2_9ce4_8422_2325)
    }
}

/// Cross-batch incremental resolution: the delta ingest path's resolver.
///
/// A [`DeltaResolver`] owns its [`Resolver`] and keeps the records and the
/// blocking index alive *between* batches, so each batch only pays for
/// indexing its own records. [`DeltaResolver::snapshot`] then produces the
/// clustering of everything pushed so far, **bit-identical** to
/// [`Resolver::resolve_stream`] over the concatenated input:
///
/// * the candidate-pair set is regenerated from the live index on every
///   snapshot — it is *non-monotone* (a token block can outgrow the cap and
///   tombstone pairs away; a sorted-neighborhood window shifts as records
///   insert between old neighbors), so pairs unioned in an earlier snapshot
///   may legitimately vanish, and the union-find for a snapshot is rebuilt
///   from the current pair set rather than carried over;
/// * what *is* carried over is the expensive part: pair **scores**, cached by
///   the two records' value contents ([`Resolver::score_pair`] is a pure,
///   exactly symmetric function of the field strings — record ids would never
///   hit, since new records get new ids; the cache key is order-canonicalized
///   so both argument orders share one entry). At fraction-novel = 0 every
///   regenerated pair hits the cache and a snapshot performs no
///   string-similarity work at all.
pub struct DeltaResolver {
    resolver: Resolver,
    /// The records live behind an `Arc` so that scoring can shard `'static`
    /// tasks over them without copying; while a single owner is pushing,
    /// `Arc::make_mut` mutates in place with no clone.
    records: Arc<Vec<RawRecord>>,
    /// Indexes the records lazily: each snapshot catches up on the records
    /// pushed since the previous one.
    index: BlockingIndex,
    /// Distinct field vectors, interned: the content key of a record.
    value_ids: HashMap<Vec<String>, u32>,
    /// The value id of each pushed record.
    record_values: Vec<u32>,
    /// `(min(value_id[a], value_id[b]), max(…))` → score. The key is
    /// canonicalized because every [`crate::similarity::SimilarityMeasure`]
    /// is exactly symmetric (integer edit distances; Jaro match and
    /// transposition counts are order-independent and the combining formulas
    /// only rely on commutativity of `+`), so one cached score serves both
    /// argument orders bit-identically — without this, re-ingesting seen
    /// values in a new interleaving re-scores every reversed pair.
    pair_cache: HashMap<(u32, u32), f64, PairHashBuilder>,
    scored_pairs: u64,
}

impl DeltaResolver {
    /// Creates empty state for `config`.
    pub fn new(config: ResolverConfig) -> Self {
        DeltaResolver {
            resolver: Resolver::new(config),
            records: Arc::new(Vec::new()),
            index: BlockingIndex::default(),
            value_ids: HashMap::new(),
            record_values: Vec::new(),
            pair_cache: HashMap::default(),
            scored_pairs: 0,
        }
    }

    /// Sets the pair-scoring parallelism (see
    /// [`Resolver::with_parallelism`]). Snapshots are bit-identical at any
    /// setting; only wall-clock time changes.
    pub fn with_parallelism(mut self, parallelism: ec_graph::Parallelism) -> Self {
        self.resolver = self.resolver.with_parallelism(parallelism);
        self
    }

    /// The underlying resolver.
    pub fn resolver(&self) -> &Resolver {
        &self.resolver
    }

    /// Number of records ingested so far (across all batches).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no record has been ingested.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Pair scores computed so far (cache misses); the complement of the
    /// fast-path ratio the delta pipeline reports.
    pub fn scored_pairs(&self) -> u64 {
        self.scored_pairs
    }

    /// Ingests one record.
    pub fn push(&mut self, record: RawRecord) {
        let next = self.value_ids.len() as u32;
        let vid = *self.value_ids.entry(record.fields.clone()).or_insert(next);
        self.record_values.push(vid);
        Arc::make_mut(&mut self.records).push(record);
    }

    /// The clustering of everything pushed so far, packaged as a [`Dataset`]
    /// — bit-identical to [`Resolver::resolve_stream`] over the same records.
    ///
    /// The cache stores **exact** scores (they are observable across
    /// snapshots), so misses are never early-abandoned; they are, however,
    /// scored in parallel: a sequential pass collects the first-occurrence
    /// cache misses in pair order, the misses are exact-scored sharded over
    /// the pool, and the results are inserted back in the same order —
    /// cache contents, `scored_pairs`, and the clustering all end up
    /// identical to the old one-pass loop.
    pub fn snapshot(&mut self, name: &str, columns: Vec<String>) -> Dataset {
        let config = self.resolver.config();
        let unindexed = &self.records[self.index.len()..];
        let pairs = self.index.candidate_pairs(config, unindexed);
        let threshold = config.threshold;
        let record_values = &self.record_values;
        // Phase 1: the distinct missing value-pair keys, first occurrence
        // wins (exactly the pair `or_insert_with` would have scored).
        let mut miss_keys: Vec<(u32, u32)> = Vec::new();
        let mut miss_pairs: Vec<(u32, u32)> = Vec::new();
        let mut miss_seen: HashSet<(u32, u32), PairHashBuilder> = HashSet::default();
        for &(a, b) in &pairs {
            let (va, vb) = (record_values[a as usize], record_values[b as usize]);
            let key = (va.min(vb), va.max(vb));
            if !self.pair_cache.contains_key(&key) && miss_seen.insert(key) {
                miss_keys.push(key);
                miss_pairs.push((a, b));
            }
        }
        // Phase 2: exact scores for the misses, sharded over the pool.
        let scores = score_pairs(
            config,
            self.resolver.parallelism(),
            Records::Shared(&self.records),
            &miss_pairs,
            None,
        );
        // Phase 3: fill the cache in order, then union every pair from it.
        self.scored_pairs += miss_keys.len() as u64;
        for (key, score) in miss_keys.into_iter().zip(scores) {
            self.pair_cache.insert(key, score);
        }
        let mut uf = UnionFind::new(self.records.len());
        for &(a, b) in &pairs {
            let (va, vb) = (record_values[a as usize], record_values[b as usize]);
            let key = (va.min(vb), va.max(vb));
            if self.pair_cache[&key] >= threshold {
                uf.union(a as usize, b as usize);
            }
        }
        let clusters = uf.into_groups();
        clusters_to_dataset(name, columns, &self.records, clusters, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{sorted_neighborhood_pairs, token_blocking_pairs, BlockingConfig};
    use crate::matcher::BlockingScheme;
    use ec_data::{FlatRecord, RecordStream, VecRecordStream};

    fn sample_records() -> Vec<RawRecord> {
        vec![
            RawRecord::new(0, ["Mary Lee", "9 St, 02141 Wisconsin"]),
            RawRecord::new(1, ["M. Lee", "9th St, 02141 WI"]),
            RawRecord::new(2, ["Lee, Mary", "9 Street, 02141 WI"]),
            RawRecord::new(0, ["Smith, James", "5th St, 22701 California"]),
            RawRecord::new(1, ["James Smith", "3rd E Ave, 33990 California"]),
            RawRecord::new(2, ["J. Smith", "3 E Avenue, 33990 CA"]),
            RawRecord::new(0, ["Alice Wonder", "42 Rabbit Hole Ln"]),
        ]
    }

    fn stream_of(records: &[RawRecord]) -> VecRecordStream {
        VecRecordStream::new(
            vec!["Name".to_string(), "Address".to_string()],
            records
                .iter()
                .map(|r| FlatRecord {
                    source: r.source,
                    fields: r.fields.clone(),
                })
                .collect(),
        )
    }

    const SCHEMES: [BlockingScheme; 3] = [
        BlockingScheme::Token,
        BlockingScheme::SortedNeighborhood,
        BlockingScheme::Both,
    ];

    /// A small deterministic generator (xorshift64*), so the random cases
    /// are reproducible from their seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
        }
    }

    /// Up to 24 two-column records over a small vocabulary, so tokens are
    /// shared often enough to overflow small block caps and to tie
    /// sorted-neighborhood keys.
    fn random_records(rng: &mut Rng) -> Vec<RawRecord> {
        const WORDS: [&str; 10] = [
            "mary", "lee", "Lee,", "smith", "st", "ave", "9", "02141", "WI", "ca",
        ];
        (0..rng.below(25))
            .map(|_| {
                let field = |rng: &mut Rng| {
                    (0..1 + rng.below(3))
                        .map(|_| WORDS[rng.below(WORDS.len())])
                        .collect::<Vec<_>>()
                        .join(" ")
                };
                RawRecord::new(rng.below(3), [field(rng), field(rng)])
            })
            .collect()
    }

    /// The batch oracle's candidate pairs for `scheme`.
    fn oracle_pairs(
        records: &[RawRecord],
        scheme: BlockingScheme,
        blocking: &BlockingConfig,
    ) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        if scheme != BlockingScheme::SortedNeighborhood {
            pairs.extend(token_blocking_pairs(records, blocking));
        }
        if scheme != BlockingScheme::Token {
            pairs.extend(sorted_neighborhood_pairs(records, blocking));
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
            .into_iter()
            .map(|(a, b)| (a as u32, b as u32))
            .collect()
    }

    #[test]
    fn streaming_matches_batch_for_every_scheme() {
        // The sample records and random ones, under every blocking config:
        // the index, fed in random chunks the way a delta resolver catches
        // up, must produce the batch oracle's pairs over every prefix, and
        // the streaming and batch entry points must agree.
        let mut rng = Rng(0x5eed);
        let mut inputs = vec![sample_records()];
        inputs.extend((0..12).map(|_| random_records(&mut rng)));
        let columns = vec!["Name".to_string(), "Address".to_string()];
        for (case, records) in inputs.iter().enumerate() {
            for scheme in SCHEMES {
                for max_block_size in [0, 1, 2, 3, 200] {
                    for window in [0, 1, 2, 8] {
                        let config = ResolverConfig {
                            scheme,
                            threshold: 0.5,
                            blocking: BlockingConfig {
                                max_block_size,
                                window,
                                ..BlockingConfig::default()
                            },
                            ..ResolverConfig::default()
                        };
                        let label = format!(
                            "case {case}, {scheme:?}, cap {max_block_size}, window {window}"
                        );
                        let mut index = BlockingIndex::default();
                        while index.len() < records.len() {
                            let end = index.len() + 1 + rng.below(records.len() - index.len());
                            let pairs = index.candidate_pairs(&config, &records[index.len()..end]);
                            let expected = oracle_pairs(&records[..end], scheme, &config.blocking);
                            assert_eq!(pairs, expected, "{label}, prefix {end}");
                        }
                        let resolver = Resolver::new(config);
                        let batch =
                            resolver.resolve_to_dataset("r", columns.clone(), records, None);
                        let streamed = resolver
                            .resolve_stream("r", &mut stream_of(records))
                            .unwrap();
                        assert_eq!(batch, streamed, "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_matches_batch_when_blocks_overflow() {
        // Every record shares the "common" token; with a tiny cap that block
        // is dropped in both paths, leaving only the distinctive tokens.
        let records: Vec<RawRecord> = (0..12)
            .map(|i| RawRecord::new(i % 3, [format!("common name{}", i / 2)]))
            .collect();
        let resolver = Resolver::new(ResolverConfig {
            scheme: BlockingScheme::Token,
            blocking: BlockingConfig {
                max_block_size: 4,
                ..BlockingConfig::default()
            },
            ..ResolverConfig::default()
        });
        let mut stream = VecRecordStream::new(
            vec!["Name".to_string()],
            records
                .iter()
                .map(|r| FlatRecord {
                    source: r.source,
                    fields: r.fields.clone(),
                })
                .collect(),
        );
        let streamed = resolver.resolve_stream("r", &mut stream).unwrap();
        let batch = resolver.resolve_to_dataset("r", vec!["Name".to_string()], &records, None);
        assert_eq!(batch, streamed);
        assert!(streamed.clusters.len() > 1, "the common token was dropped");
    }

    #[test]
    fn empty_and_singleton_streams() {
        let resolver = Resolver::default();
        let mut empty = VecRecordStream::new(vec!["x".to_string()], Vec::new());
        let dataset = resolver.resolve_stream("e", &mut empty).unwrap();
        assert!(dataset.clusters.is_empty());
        assert_eq!(dataset.columns, vec!["x"]);

        let mut one = VecRecordStream::new(
            vec!["x".to_string()],
            vec![FlatRecord {
                source: 3,
                fields: vec!["only".to_string()],
            }],
        );
        let dataset = resolver.resolve_stream("s", &mut one).unwrap();
        assert_eq!(dataset.clusters.len(), 1);
        assert_eq!(dataset.clusters[0].rows[0].source, 3);
    }

    #[test]
    fn delta_snapshots_match_one_shot_resolution_at_every_batch_boundary() {
        // The sample records at fixed splits, then random records at random
        // splits: every snapshot equals `Resolver::resolve` over the prefix.
        let columns = vec!["Name".to_string(), "Address".to_string()];
        let mut rng = Rng(0xde17a);
        let mut inputs = vec![(sample_records(), vec![2usize, 5])];
        for _ in 0..8 {
            let records = random_records(&mut rng);
            let mut splits: Vec<usize> = (0..3).map(|_| rng.below(records.len() + 1)).collect();
            splits.sort_unstable();
            inputs.push((records, splits));
        }
        let blockings = [
            BlockingConfig::default(),
            BlockingConfig {
                max_block_size: 3,
                window: 2,
                ..BlockingConfig::default()
            },
        ];
        for (records, splits) in &inputs {
            for scheme in SCHEMES {
                for blocking in &blockings {
                    let config = ResolverConfig {
                        scheme,
                        threshold: 0.5,
                        blocking: blocking.clone(),
                        ..ResolverConfig::default()
                    };
                    let resolver = Resolver::new(config.clone());
                    let mut delta = DeltaResolver::new(config);
                    for &split in splits.iter().chain([records.len()].iter()) {
                        while delta.len() < split {
                            delta.push(records[delta.len()].clone());
                        }
                        let snapshot = delta.snapshot("r", columns.clone());
                        let one_shot = resolver.resolve_to_dataset(
                            "r",
                            columns.clone(),
                            &records[..split],
                            None,
                        );
                        assert_eq!(snapshot, one_shot, "{scheme:?} {blocking:?} split={split}");
                    }
                }
            }
        }
    }

    #[test]
    fn delta_snapshots_survive_block_overflow_between_batches() {
        // The "common" block is healthy after the first batch (pairs unioned)
        // and tombstoned after the second: the snapshot must forget those
        // pairs exactly as a one-shot run over the union would.
        let records: Vec<RawRecord> = (0..12)
            .map(|i| RawRecord::new(i % 3, [format!("common name{}", i / 2)]))
            .collect();
        let config = ResolverConfig {
            scheme: BlockingScheme::Token,
            blocking: BlockingConfig {
                max_block_size: 4,
                ..BlockingConfig::default()
            },
            ..ResolverConfig::default()
        };
        let name_stream = |records: &[RawRecord]| {
            VecRecordStream::new(
                vec!["Name".to_string()],
                records
                    .iter()
                    .map(|r| FlatRecord {
                        source: r.source,
                        fields: r.fields.clone(),
                    })
                    .collect(),
            )
        };
        let resolver = Resolver::new(config.clone());
        let mut delta = DeltaResolver::new(config);
        for r in &records[..4] {
            delta.push(r.clone());
        }
        let early = delta.snapshot("r", vec!["Name".to_string()]);
        assert_eq!(
            early,
            resolver
                .resolve_stream("r", &mut name_stream(&records[..4]))
                .unwrap()
        );
        for r in &records[4..] {
            delta.push(r.clone());
        }
        let late = delta.snapshot("r", vec!["Name".to_string()]);
        assert_eq!(
            late,
            resolver
                .resolve_stream("r", &mut name_stream(&records))
                .unwrap()
        );
        assert!(late.clusters.len() > 1, "the common token was dropped");
    }

    #[test]
    fn delta_pair_cache_hits_on_repeated_values() {
        let records = sample_records();
        let mut delta = DeltaResolver::new(ResolverConfig {
            threshold: 0.5,
            ..ResolverConfig::default()
        });
        for r in &records {
            delta.push(r.clone());
        }
        let first = delta.snapshot("r", vec!["Name".to_string(), "Address".to_string()]);
        let scored_once = delta.scored_pairs();
        assert!(scored_once > 0);
        // Re-pushing the same values: the first repetition only scores the
        // genuinely new value pairings (each value against its own duplicate
        // — the cache key is order-canonicalized, so reversed interleavings
        // of *distinct* values all hit). By the second repetition every
        // candidate pair is between warm value contents and the snapshot
        // performs no similarity work at all.
        for r in &records {
            delta.push(r.clone());
        }
        let second = delta.snapshot("r", vec!["Name".to_string(), "Address".to_string()]);
        let scored_twice = delta.scored_pairs();
        assert!(
            scored_twice <= scored_once + records.len() as u64,
            "only self-value pairs may still be cold"
        );
        for r in &records {
            delta.push(r.clone());
        }
        let third = delta.snapshot("r", vec!["Name".to_string(), "Address".to_string()]);
        assert_eq!(
            delta.scored_pairs(),
            scored_twice,
            "all pairs hit the cache"
        );
        assert_eq!(second.stats(0).num_records, 2 * first.stats(0).num_records);
        assert_eq!(third.stats(0).num_records, 3 * first.stats(0).num_records);
    }

    #[test]
    fn stream_errors_propagate() {
        // A flat CSV with a bad source value: the error reaches the caller.
        let text = "source,Name\n0,ok\nbogus,nope\n";
        let mut stream = ec_data::FlatCsvReader::new(text.as_bytes()).unwrap();
        let err = Resolver::default().resolve_stream("r", &mut stream);
        assert!(err.is_err());
        let _ = stream.next_record(); // stream is exhausted after the error
    }
}
