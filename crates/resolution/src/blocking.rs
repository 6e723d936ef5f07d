//! Candidate-pair generation (blocking).
//!
//! Comparing every pair of records is quadratic and dominates resolution cost
//! on anything beyond toy inputs. Blocking cheaply produces a superset of the
//! truly matching pairs; only those candidates are scored by the matcher.
//! Two standard schemes are provided:
//!
//! * **token blocking** — records sharing at least one word token in the
//!   blocking column(s) become a candidate pair;
//! * **sorted neighborhood** — records are sorted by a blocking key and every
//!   pair within a sliding window becomes a candidate.
//!
//! Both live in one incremental `BlockingIndex`, which every resolver entry
//! point (batch, streaming and delta) uses to generate its candidates.

use crate::matcher::{BlockingScheme, ResolverConfig};
use crate::tokenize::{normalize_into, words_into, TokenBuf};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of candidate-pair generation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockingConfig {
    /// Which columns contribute blocking tokens / keys. Empty means all.
    pub columns: Vec<usize>,
    /// Blocks larger than this are skipped by token blocking (they would
    /// generate a quadratic number of mostly-useless candidates; very frequent
    /// tokens such as "the" carry little signal).
    pub max_block_size: usize,
    /// Window size for sorted-neighborhood blocking.
    pub window: usize,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        BlockingConfig {
            columns: Vec::new(),
            max_block_size: 200,
            window: 8,
        }
    }
}

fn blocking_columns(config: &BlockingConfig, num_columns: usize) -> Vec<usize> {
    if config.columns.is_empty() {
        (0..num_columns).collect()
    } else {
        config
            .columns
            .iter()
            .copied()
            .filter(|&c| c < num_columns)
            .collect()
    }
}

/// One token block: the ids of the records containing the token, or a
/// tombstone once the block outgrew the configured cap.
enum TokenBlock {
    Ids(Vec<u32>),
    Oversized,
}

/// The token-block and sorted-neighborhood index — the one candidate-pair
/// generator behind every resolver entry point.
///
/// The index holds no records: record `i` of the slices handed to
/// [`BlockingIndex::candidate_pairs`] (counted across calls) gets id `i`.
/// Callers that grow their records between calls pass only the new tail, so
/// blocks and keys are built once per record. Token blocks have *bounded
/// memory*: a block that outgrows `max_block_size` becomes an `Oversized`
/// tombstone and its id list is dropped.
#[derive(Default)]
pub(crate) struct BlockingIndex {
    /// Records indexed so far.
    len: usize,
    /// Which columns contribute blocking tokens/keys; locked in by the first
    /// record's column count.
    cols: Vec<usize>,
    token_blocks: HashMap<String, TokenBlock>,
    sn_keys: Vec<(String, u32)>,
    /// Reusable tokenization scratch.
    token_buf: TokenBuf,
    key_scratch: String,
}

impl BlockingIndex {
    /// Records indexed so far.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Indexes one record's fields under the next id.
    fn push(&mut self, config: &ResolverConfig, fields: &[String]) {
        let id = u32::try_from(self.len).expect("record ids fit in u32");
        if self.len == 0 {
            self.cols = blocking_columns(&config.blocking, fields.len());
        }
        self.len += 1;
        let max_block_size = config.blocking.max_block_size;
        if matches!(config.scheme, BlockingScheme::Token | BlockingScheme::Both) {
            let buf = &mut self.token_buf;
            buf.clear();
            for &col in &self.cols {
                words_into(&fields[col], buf);
            }
            let distinct = buf.sort_dedup_tokens();
            for t in 0..distinct {
                let token = buf.token(t);
                if let Some(block) = self.token_blocks.get_mut(token) {
                    if let TokenBlock::Ids(ids) = block {
                        ids.push(id);
                        if ids.len() > max_block_size {
                            *block = TokenBlock::Oversized;
                        }
                    }
                } else {
                    // A brand-new block only outlives its first record when
                    // the cap allows a block of one.
                    let block = if max_block_size < 1 {
                        TokenBlock::Oversized
                    } else {
                        TokenBlock::Ids(vec![id])
                    };
                    self.token_blocks.insert(token.to_string(), block);
                }
            }
        }
        if matches!(
            config.scheme,
            BlockingScheme::SortedNeighborhood | BlockingScheme::Both
        ) {
            let mut key = String::new();
            for (i, &c) in self.cols.iter().enumerate() {
                if i > 0 {
                    key.push('\u{1}');
                }
                normalize_into(&fields[c], &mut self.key_scratch);
                key.push_str(&self.key_scratch);
            }
            self.sn_keys.push((key, id));
        }
    }

    /// Indexes `new_records` after the records already indexed, then returns
    /// the candidate pairs of every indexed record: token blocking (records
    /// sharing a word token in a blocking column, blocks above
    /// `max_block_size` skipped) and/or sorted neighborhood (every pair within
    /// a sliding `window` over the sorted keys), deduplicated, ordered, and
    /// with `a < b`.
    ///
    /// The pair set is regenerated on every call and is *non-monotone*: a
    /// block can outgrow the cap and a window shifts as keys insert between
    /// old neighbors. `sn_keys` is sorted in place (sorting is idempotent,
    /// and keys appended later are re-sorted by the next call), so no
    /// O(records) copy is made at the peak-memory moment.
    pub(crate) fn candidate_pairs<R: AsRef<[String]>>(
        &mut self,
        config: &ResolverConfig,
        new_records: &[R],
    ) -> Vec<(u32, u32)> {
        let _span = ec_obs::span!("resolution.blocking", new_records.len());
        for record in new_records {
            self.push(config, record.as_ref());
        }
        if self.len < 2 {
            return Vec::new();
        }
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for block in self.token_blocks.values() {
            let TokenBlock::Ids(ids) = block else {
                continue;
            };
            // Ids within a block are appended in push order, so they are
            // already ascending — `(a, b)` is canonical without min/max.
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    pairs.push((a, b));
                }
            }
        }
        let window = config.blocking.window;
        if window >= 2 {
            self.sn_keys.sort();
            for (i, (_, a)) in self.sn_keys.iter().enumerate() {
                for (_, b) in self.sn_keys.iter().skip(i + 1).take(window - 1) {
                    pairs.push(((*a).min(*b), (*a).max(*b)));
                }
            }
        }
        // Sort-and-dedup beats a hash set here: most blocks emit runs of
        // nearly-sorted pairs.
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

/// Batch token blocking, kept as [`BlockingIndex`]'s test oracle: every pair
/// of records that share at least one word token in a blocking column becomes
/// a candidate. Pairs are returned deduplicated, ordered, and with `a < b`.
#[cfg(test)]
pub(crate) fn token_blocking_pairs<R: AsRef<[String]>>(
    records: &[R],
    config: &BlockingConfig,
) -> Vec<(usize, usize)> {
    if records.is_empty() {
        return Vec::new();
    }
    let cols = blocking_columns(config, records[0].as_ref().len());
    let mut blocks: HashMap<String, Vec<usize>> = HashMap::new();
    let mut buf = TokenBuf::new();
    for (id, record) in records.iter().enumerate() {
        let fields = record.as_ref();
        buf.clear();
        for &col in &cols {
            words_into(&fields[col], &mut buf);
        }
        let distinct = buf.sort_dedup_tokens();
        for i in 0..distinct {
            let token = buf.token(i);
            if let Some(ids) = blocks.get_mut(token) {
                ids.push(id);
            } else {
                blocks.insert(token.to_string(), vec![id]);
            }
        }
    }
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for ids in blocks.values() {
        if ids.len() < 2 || ids.len() > config.max_block_size {
            continue;
        }
        for (i, &a) in ids.iter().enumerate() {
            for &b in ids.iter().skip(i + 1) {
                pairs.push((a.min(b), a.max(b)));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Batch sorted-neighborhood blocking, kept as [`BlockingIndex`]'s test
/// oracle: records are sorted by the concatenation of their normalized
/// blocking-column values, and every pair within a sliding window of size
/// `config.window` becomes a candidate. Pairs are returned deduplicated,
/// ordered, and with `a < b`.
#[cfg(test)]
pub(crate) fn sorted_neighborhood_pairs<R: AsRef<[String]>>(
    records: &[R],
    config: &BlockingConfig,
) -> Vec<(usize, usize)> {
    if records.len() < 2 || config.window < 2 {
        return Vec::new();
    }
    let cols = blocking_columns(config, records[0].as_ref().len());
    let mut scratch = String::new();
    let mut keyed: Vec<(String, usize)> = records
        .iter()
        .enumerate()
        .map(|(id, record)| {
            let fields = record.as_ref();
            let mut key = String::new();
            for (i, &c) in cols.iter().enumerate() {
                if i > 0 {
                    key.push('\u{1}');
                }
                normalize_into(&fields[c], &mut scratch);
                key.push_str(&scratch);
            }
            (key, id)
        })
        .collect();
    keyed.sort();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (i, (_, a)) in keyed.iter().enumerate() {
        for (_, b) in keyed.iter().skip(i + 1).take(config.window - 1) {
            pairs.push((*a.min(b), *a.max(b)));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<Vec<String>> {
        vec![
            vec!["Mary Lee".into(), "9 St, 02141 Wisconsin".into()],
            vec!["M. Lee".into(), "9th St, 02141 WI".into()],
            vec!["Lee, Mary".into(), "9 Street, 02141 WI".into()],
            vec!["James Smith".into(), "3rd E Ave, 33990 California".into()],
            vec!["Smith, James".into(), "5th St, 22701 California".into()],
            vec!["Unrelated Person".into(), "1 Nowhere Rd".into()],
        ]
    }

    #[test]
    fn token_blocking_links_records_sharing_tokens() {
        let pairs = token_blocking_pairs(&records(), &BlockingConfig::default());
        // The three Lee records all share the "lee" token.
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(0, 2)));
        assert!(pairs.contains(&(1, 2)));
        // The Smith records share "smith" and "california".
        assert!(pairs.contains(&(3, 4)));
        // The unrelated record shares no token with the Lees.
        assert!(!pairs.contains(&(0, 5)));
        // Output is sorted and deduplicated.
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn token_blocking_respects_column_selection() {
        let config = BlockingConfig {
            columns: vec![0],
            ..BlockingConfig::default()
        };
        let pairs = token_blocking_pairs(&records(), &config);
        // Columns restricted to the name: the Lee/Smith cross pairs that only
        // share address tokens ("st", "02141") disappear for record 4 vs 0.
        assert!(pairs.contains(&(0, 2)));
        assert!(
            !pairs.contains(&(1, 4)),
            "only shares 'st' in the address column"
        );
    }

    #[test]
    fn oversized_blocks_are_skipped() {
        let many: Vec<Vec<String>> = (0..50).map(|i| vec![format!("common token {i}")]).collect();
        let config = BlockingConfig {
            max_block_size: 10,
            ..BlockingConfig::default()
        };
        let pairs = token_blocking_pairs(&many, &config);
        // "common" and "token" appear in all 50 records and are skipped; the
        // only remaining shared tokens are the unique numbers, so no pairs.
        assert!(pairs.is_empty());
    }

    #[test]
    fn token_blocking_empty_input() {
        assert!(token_blocking_pairs::<Vec<String>>(&[], &BlockingConfig::default()).is_empty());
    }

    #[test]
    fn sorted_neighborhood_links_nearby_keys() {
        let pairs = sorted_neighborhood_pairs(&records(), &BlockingConfig::default());
        assert!(!pairs.is_empty());
        for &(a, b) in &pairs {
            assert!(a < b);
        }
    }

    #[test]
    fn sorted_neighborhood_window_bounds_candidates() {
        let recs = records();
        let narrow = sorted_neighborhood_pairs(
            &recs,
            &BlockingConfig {
                window: 2,
                ..Default::default()
            },
        );
        let wide = sorted_neighborhood_pairs(
            &recs,
            &BlockingConfig {
                window: 6,
                ..Default::default()
            },
        );
        assert!(narrow.len() <= wide.len());
        // With a window covering all records every pair is a candidate.
        assert_eq!(wide.len(), recs.len() * (recs.len() - 1) / 2);
    }

    #[test]
    fn oversized_blocks_hold_bounded_state() {
        let config = ResolverConfig {
            scheme: BlockingScheme::Token,
            blocking: BlockingConfig {
                max_block_size: 3,
                ..BlockingConfig::default()
            },
            ..ResolverConfig::default()
        };
        let records: Vec<Vec<String>> = (0..100)
            .map(|i| vec![format!("shared unique{i}")])
            .collect();
        let mut index = BlockingIndex::default();
        assert!(index.candidate_pairs(&config, &records).is_empty());
        let oversized = index
            .token_blocks
            .values()
            .filter(|b| matches!(b, TokenBlock::Oversized))
            .count();
        assert_eq!(oversized, 1, "the 'shared' block was tombstoned");
        for block in index.token_blocks.values() {
            if let TokenBlock::Ids(ids) = block {
                assert!(ids.len() <= 3);
            }
        }
        assert_eq!(index.len(), 100);
    }

    #[test]
    fn sorted_neighborhood_degenerate_inputs() {
        assert!(
            sorted_neighborhood_pairs::<Vec<String>>(&[], &BlockingConfig::default()).is_empty()
        );
        let one = vec![vec!["a".to_string()]];
        assert!(sorted_neighborhood_pairs(&one, &BlockingConfig::default()).is_empty());
        let cfg = BlockingConfig {
            window: 1,
            ..Default::default()
        };
        assert!(sorted_neighborhood_pairs(&records(), &cfg).is_empty());
    }
}
