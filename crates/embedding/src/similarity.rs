//! Cross-query similarity-row index.
//!
//! The query engine needs, per query edge, the full Eq. 5 similarity row of
//! the query predicate against every knowledge-graph predicate, plus the
//! element-wise max over the rows of the *remaining* segments (which drives
//! the `m(u)` bound of Lemma 1). Before this index existed each
//! `SubQueryPlan` materialised those rows as fresh `Vec<Vec<f64>>` per
//! query — `O(segments · |predicates|)` work and allocation repeated for
//! every query over the engine's lifetime, even though the rows depend only
//! on the predicate and the (fixed) space.
//!
//! [`SimilarityIndex`] computes each transformed row **once** and hands out
//! cheap `Arc<[f64]>` clones; combined (element-wise max) rows are cached by
//! the *set* of participating rows, so every suffix a plan needs after the
//! first query of a given shape is a cache hit. Hits and misses are counted
//! (exposed via [`SimilarityIndex::stats`]) so callers — and the
//! concurrency tests — can observe the sharing.
//!
//! The index is `Sync`: the caches sit behind `RwLock`s, so the hot path
//! (row already cached) is a shared read lock + `Arc` bumps — concurrent
//! clients hitting the same rows no longer serialize on a mutex; only a
//! miss (computed once per row per generation) takes the write lock.
//!
//! ## Derived row forms
//!
//! Every cached row is a [`RowBundle`] carrying, besides the exact
//! `Arc<[f64]>` row, two forms computed once alongside it:
//!
//! * a **precomputed `ln` row** — `ln` of the same `f64` is deterministic
//!   (libm's `ln` is a pure function of the input bits), so replacing a
//!   per-edge `w.ln()` with a table lookup is bit-identical;
//! * the row's **maximum element**, which lets adjacency scans stop early
//!   once the running max provably cannot grow (`max` is insensitive to
//!   scan order, so the early exit is exact).
//!
//! ## Vocabulary generations
//!
//! A live graph can grow its predicate vocabulary past the (offline-trained)
//! space's: the search indexes rows by *graph* predicate id, so cached rows
//! must always span the largest vocabulary any attached engine has seen.
//! [`SimilarityIndex::ensure_vocab`] grows that watermark; growing it
//! **invalidates** the caches (rows are re-issued at the new length, padded
//! with `transform(0.0)` for predicates the space has never seen) and bumps
//! a generation counter. Rows already handed out to plans keep their old
//! length — a plan only ever indexes with the predicate ids of the epoch it
//! was built against, so pinned queries stay bit-identical while new plans
//! see the wider vocabulary.

use crate::space::PredicateSpace;
use kgraph::PredicateId;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Key of one cacheable row: a concrete predicate, or an out-of-vocabulary
/// constant row (query predicates the space has never seen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RowKey {
    /// The transformed similarity row of this predicate.
    Predicate(PredicateId),
    /// A constant row of explicit length. The value is kept as its bit
    /// pattern (hashable and `Eq` without touching NaN semantics); the
    /// length is part of the key because the caller's predicate vocabulary
    /// may exceed the space's (e.g. graph predicates added after training),
    /// and search indexes rows by *graph* predicate id.
    Constant {
        /// `f64::to_bits` of the constant.
        bits: u64,
        /// Number of row elements.
        len: u32,
    },
}

impl RowKey {
    /// Key for a constant row of `value` with `len` elements.
    pub fn constant(value: f64, len: usize) -> Self {
        RowKey::Constant {
            bits: value.to_bits(),
            len: u32::try_from(len).expect("constant row length fits u32"),
        }
    }
}

/// Cache counters (cumulative since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimilarityIndexStats {
    /// Row requests answered from the cache.
    pub row_hits: u64,
    /// Row requests that had to compute the row.
    pub row_misses: u64,
    /// Combined-max row requests answered from the cache.
    pub max_row_hits: u64,
    /// Combined-max row requests that had to compute the row.
    pub max_row_misses: u64,
    /// Cache invalidations caused by predicate-vocabulary growth
    /// ([`SimilarityIndex::ensure_vocab`]).
    pub invalidations: u64,
}

impl SimilarityIndexStats {
    /// Total row requests of both kinds.
    pub fn requests(&self) -> u64 {
        self.row_hits + self.row_misses + self.max_row_hits + self.max_row_misses
    }

    /// Fraction of row requests (both kinds) served from the cache, in
    /// `[0, 1]`; `0.0` when nothing has been requested. Under batched
    /// scheduling this approaches 1: one prepared plan per batch touches
    /// the index once, every coalesced request rides the same rows.
    pub fn hit_rate(&self) -> f64 {
        let total = self.requests();
        if total == 0 {
            0.0
        } else {
            (self.row_hits + self.max_row_hits) as f64 / total as f64
        }
    }
}

/// Upper bound on cached combined-max rows. Per-predicate rows are bounded
/// by the vocabulary, but `max_rows` is keyed by key *sets* — unbounded
/// under adversarially diverse multi-segment queries. Past the cap,
/// combined rows are computed per request (correct, just uncached) so a
/// long-running service cannot grow without limit. At a 10k-predicate
/// vocabulary a bundle (exact f64 + ln f64 = 16 B/element) caps the
/// combined-row cache near 4096 × 160 KB ≈ 655 MB worst case; typical
/// workloads stay far below both factors.
const MAX_CACHED_COMBINED_ROWS: usize = 4096;

/// One cached similarity row with its derived scan forms, all issued
/// together: the exact row, the precomputed `ln` row and the maximum
/// element (see the module docs for why each form is safe under the
/// bit-identical-answers contract). Cloning is two refcount bumps.
#[derive(Debug, Clone)]
pub struct RowBundle {
    /// The exact transformed row — what [`SimilarityIndex::row`] returns.
    pub exact: Arc<[f64]>,
    /// `ln[i] == exact[i].ln()`, bitwise.
    pub ln: Arc<[f64]>,
    /// Maximum element of `exact` (`-inf` for an empty row): the stop
    /// value for early-exit adjacency scans.
    pub max: f64,
}

impl RowBundle {
    /// Derives the ln/max forms from an exact row.
    fn derive(exact: Arc<[f64]>) -> Self {
        let ln: Arc<[f64]> = exact.iter().map(|&w| w.ln()).collect();
        let mut max = f64::NEG_INFINITY;
        for &w in exact.iter() {
            max = if w > max { w } else { max };
        }
        Self { exact, ln, max }
    }
}

/// Shared, engine-lifetime cache of transformed similarity rows.
///
/// `transform` maps a raw cosine similarity to the row's stored value —
/// the query engine passes its weight clamp so rows land directly in the
/// weight domain and the search never touches the space again.
pub struct SimilarityIndex<'s> {
    space: &'s PredicateSpace,
    transform: fn(f32) -> f64,
    rows: RwLock<RowCache>,
    /// Combined rows keyed by generation + the sorted, deduplicated set of
    /// inputs (max is idempotent, so the multiset collapses to a set). The
    /// generation tag keeps pre-invalidation rows from leaking into
    /// post-growth lookups.
    max_rows: RwLock<FxHashMap<MaxRowKey, RowBundle>>,
    row_hits: AtomicU64,
    row_misses: AtomicU64,
    max_row_hits: AtomicU64,
    max_row_misses: AtomicU64,
    invalidations: AtomicU64,
}

/// Key of one cached combined-max row: `(generation, sorted key set)`.
type MaxRowKey = (u64, Vec<RowKey>);

/// Per-predicate rows plus the vocabulary watermark they were sized for.
struct RowCache {
    /// Minimum row length: `max(space.len(), largest ensure_vocab seen)`.
    vocab: usize,
    /// Bumped on every invalidation; tags combined-row cache keys.
    generation: u64,
    rows: FxHashMap<RowKey, RowBundle>,
}

impl std::fmt::Debug for SimilarityIndex<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimilarityIndex")
            .field("predicates", &self.space.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<'s> SimilarityIndex<'s> {
    /// An index storing raw cosine similarities.
    pub fn new(space: &'s PredicateSpace) -> Self {
        Self::with_transform(space, f64::from)
    }

    /// An index storing `transform(similarity)` per row element.
    pub fn with_transform(space: &'s PredicateSpace, transform: fn(f32) -> f64) -> Self {
        Self {
            space,
            transform,
            rows: RwLock::new(RowCache {
                vocab: space.len(),
                generation: 0,
                rows: FxHashMap::default(),
            }),
            max_rows: RwLock::new(FxHashMap::default()),
            row_hits: AtomicU64::new(0),
            row_misses: AtomicU64::new(0),
            max_row_hits: AtomicU64::new(0),
            max_row_misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// The underlying predicate space.
    pub fn space(&self) -> &'s PredicateSpace {
        self.space
    }

    /// Current row length: the number of predicates in the space or the
    /// largest vocabulary registered via [`SimilarityIndex::ensure_vocab`],
    /// whichever is greater.
    pub fn row_len(&self) -> usize {
        self.rows.read().unwrap().vocab
    }

    /// Registers that an attached graph's predicate vocabulary has `len`
    /// entries. Growth beyond the current watermark invalidates the caches
    /// (rows are re-issued padded to the new length) and bumps the
    /// generation; shrinking never happens (the watermark is monotonic).
    /// Engines call this at construction, so a snapshot whose delta added
    /// predicates gets full-length rows before any plan is built.
    pub fn ensure_vocab(&self, len: usize) {
        let mut cache = self.rows.write().unwrap();
        if len > cache.vocab {
            cache.vocab = len;
            cache.generation += 1;
            cache.rows.clear();
            self.max_rows.write().unwrap().clear();
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The transformed similarity row for `key`, computed at most once per
    /// generation and padded to the current vocabulary watermark.
    pub fn row(&self, key: RowKey) -> Arc<[f64]> {
        self.bundle(key).exact
    }

    /// The row for `key` together with its derived scan forms
    /// ([`RowBundle`]). Hits take only the shared read lock.
    pub fn bundle(&self, key: RowKey) -> RowBundle {
        {
            let cache = self.rows.read().unwrap();
            if let Some(bundle) = cache.rows.get(&key) {
                self.row_hits.fetch_add(1, Ordering::Relaxed);
                return bundle.clone();
            }
        }
        let mut cache = self.rows.write().unwrap();
        // Re-check under the write lock: another thread may have computed
        // the row between our read and write acquisitions.
        if let Some(bundle) = cache.rows.get(&key) {
            self.row_hits.fetch_add(1, Ordering::Relaxed);
            return bundle.clone();
        }
        self.row_misses.fetch_add(1, Ordering::Relaxed);
        // Computed under the write lock: an invalidation racing a
        // drop-and-reacquire could otherwise publish a row shorter than the
        // new vocabulary.
        let computed = RowBundle::derive(self.compute_row(key, cache.vocab));
        cache.rows.insert(key, computed.clone());
        computed
    }

    /// Builds one row at vocabulary length `vocab`. Predicates beyond the
    /// space's training vocabulary (added to a live graph after training)
    /// know only their identity similarity: `transform(1.0)` at their own
    /// index, `transform(0.0)` elsewhere — τ-pruning treats such edges like
    /// any other semantically-unknown predicate.
    fn compute_row(&self, key: RowKey, vocab: usize) -> Arc<[f64]> {
        let pad = (self.transform)(0.0);
        match key {
            RowKey::Predicate(p) if p.index() < self.space.len() => {
                let mut row: Vec<f64> = self
                    .space
                    .sim_row(p)
                    .into_iter()
                    .map(self.transform)
                    .collect();
                if row.len() < vocab {
                    row.resize(vocab, pad);
                }
                row.into()
            }
            RowKey::Predicate(p) => {
                let mut row = vec![pad; vocab.max(p.index() + 1)];
                row[p.index()] = (self.transform)(1.0);
                row.into()
            }
            RowKey::Constant { bits, len } => {
                std::iter::repeat_n(f64::from_bits(bits), len as usize).collect()
            }
        }
    }

    /// The element-wise maximum over the rows of `keys`, computed at most
    /// once per distinct key set, with the scan forms derived from the
    /// *combined* exact row. Used for the suffix (remaining-segment) rows
    /// behind Lemma 1's `m(u)` bound.
    pub fn max_bundle(&self, keys: &[RowKey]) -> RowBundle {
        assert!(!keys.is_empty(), "max_bundle needs at least one row key");
        if keys.len() == 1 {
            return self.bundle(keys[0]);
        }
        let mut set: Vec<RowKey> = keys.to_vec();
        set.sort_unstable();
        set.dedup();
        if set.len() == 1 {
            return self.bundle(set[0]);
        }
        let generation = self.rows.read().unwrap().generation;
        let cache_key = (generation, set);
        if let Some(bundle) = self.max_rows.read().unwrap().get(&cache_key) {
            self.max_row_hits.fetch_add(1, Ordering::Relaxed);
            return bundle.clone();
        }
        self.max_row_misses.fetch_add(1, Ordering::Relaxed);
        let set = &cache_key.1;
        let mut acc: Vec<f64> = self.row(set[0]).to_vec();
        for key in &set[1..] {
            let row = self.row(*key);
            // Rows may differ in length (a constant row spans the caller's
            // full vocabulary, predicate rows span the space's); the
            // combined row must keep the longest tail.
            if row.len() > acc.len() {
                acc.extend_from_slice(&row[acc.len()..]);
            }
            for (a, &r) in acc.iter_mut().zip(row.iter()) {
                if r > *a {
                    *a = r;
                }
            }
        }
        let computed = RowBundle::derive(acc.into());
        let mut cache = self.max_rows.write().unwrap();
        if cache.len() >= MAX_CACHED_COMBINED_ROWS && !cache.contains_key(&cache_key) {
            // Cache full: serve the computed row uncached rather than grow.
            return computed;
        }
        cache.entry(cache_key).or_insert(computed).clone()
    }

    /// Per-segment rows plus the suffix-max rows a path-shaped plan needs:
    /// `suffix[s] = max(rows[s..])` element-wise, each with its derived
    /// scan forms — what `SubQueryPlan` consumes.
    pub fn plan_bundles(&self, keys: &[RowKey]) -> (Vec<RowBundle>, Vec<RowBundle>) {
        let seg_rows: Vec<RowBundle> = keys.iter().map(|&k| self.bundle(k)).collect();
        let suffix_rows: Vec<RowBundle> = (0..keys.len())
            .map(|s| self.max_bundle(&keys[s..]))
            .collect();
        (seg_rows, suffix_rows)
    }

    /// Cumulative cache counters.
    pub fn stats(&self) -> SimilarityIndexStats {
        SimilarityIndexStats {
            row_hits: self.row_hits.load(Ordering::Relaxed),
            row_misses: self.row_misses.load(Ordering::Relaxed),
            max_row_hits: self.max_row_hits.load(Ordering::Relaxed),
            max_row_misses: self.max_row_misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> PredicateSpace {
        PredicateSpace::from_raw(
            vec![
                vec![1.0, 0.0],
                vec![0.9, (1.0f32 - 0.81).sqrt()],
                vec![0.0, 1.0],
            ],
            vec!["product".into(), "assembly".into(), "language".into()],
        )
    }

    #[test]
    fn rows_match_space_and_are_shared() {
        let s = space();
        let idx = SimilarityIndex::new(&s);
        let p = PredicateId::new(0);
        let a = idx.row(RowKey::Predicate(p));
        let b = idx.row(RowKey::Predicate(p));
        assert!(Arc::ptr_eq(&a, &b), "second request must share the row");
        for (q, &v) in a.iter().enumerate() {
            let expected = f64::from(s.sim(p, PredicateId::new(q as u32)));
            assert!((v - expected).abs() < 1e-12);
        }
        let stats = idx.stats();
        assert_eq!(stats.row_hits, 1);
        assert_eq!(stats.row_misses, 1);
    }

    #[test]
    fn transform_is_applied() {
        let s = space();
        let idx = SimilarityIndex::with_transform(&s, |sim| f64::from(sim).clamp(0.5, 1.0));
        let row = idx.row(RowKey::Predicate(PredicateId::new(0)));
        assert!(row.iter().all(|&v| (0.5..=1.0).contains(&v)));
    }

    #[test]
    fn constant_rows_are_constant_and_sized_by_caller() {
        let s = space();
        let idx = SimilarityIndex::new(&s);
        // A caller whose vocabulary (5) exceeds the space's (3) still gets
        // a full-length row — the OOV fallback must cover every graph
        // predicate id the search can index with.
        let row = idx.row(RowKey::constant(1e-6, 5));
        assert_eq!(row.len(), 5);
        assert!(row.iter().all(|&v| v == 1e-6));
    }

    #[test]
    fn max_bundle_keeps_the_longest_tail() {
        let s = space();
        let idx = SimilarityIndex::new(&s);
        let keys = [
            RowKey::Predicate(PredicateId::new(0)), // 3 elements
            RowKey::constant(0.5, 5),               // 5 elements
        ];
        let m = idx.max_bundle(&keys).exact;
        assert_eq!(m.len(), 5);
        assert_eq!(m[3], 0.5);
        assert_eq!(m[4], 0.5);
        let r0 = idx.row(keys[0]);
        for i in 0..3 {
            assert_eq!(m[i], r0[i].max(0.5));
        }
    }

    #[test]
    fn max_bundle_is_elementwise_max_and_cached() {
        let s = space();
        let idx = SimilarityIndex::new(&s);
        let keys = [
            RowKey::Predicate(PredicateId::new(0)),
            RowKey::Predicate(PredicateId::new(2)),
        ];
        let m1 = idx.max_bundle(&keys).exact;
        let r0 = idx.row(keys[0]);
        let r2 = idx.row(keys[1]);
        for i in 0..3 {
            assert_eq!(m1[i], r0[i].max(r2[i]));
        }
        // Order must not matter, and the reordered request must hit.
        let m2 = idx.max_bundle(&[keys[1], keys[0]]).exact;
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(idx.stats().max_row_hits, 1);
    }

    #[test]
    fn plan_bundles_form_suffix_maxes() {
        let s = space();
        let idx = SimilarityIndex::new(&s);
        let keys = [
            RowKey::Predicate(PredicateId::new(0)),
            RowKey::Predicate(PredicateId::new(1)),
            RowKey::Predicate(PredicateId::new(2)),
        ];
        let (rows, suffix) = idx.plan_bundles(&keys);
        assert_eq!(rows.len(), 3);
        assert_eq!(suffix.len(), 3);
        for i in 0..3 {
            let expected = rows[0].exact[i].max(rows[1].exact[i]).max(rows[2].exact[i]);
            assert!((suffix[0].exact[i] - expected).abs() < 1e-12);
            assert_eq!(suffix[2].exact[i], rows[2].exact[i]);
        }
    }

    #[test]
    fn vocab_growth_invalidates_and_pads_rows() {
        let s = space();
        let idx = SimilarityIndex::new(&s);
        let p = PredicateId::new(0);
        let short = idx.row(RowKey::Predicate(p));
        assert_eq!(short.len(), 3);
        assert_eq!(idx.row_len(), 3);

        // A live graph grew two predicates past the space's vocabulary.
        idx.ensure_vocab(5);
        assert_eq!(idx.row_len(), 5);
        assert_eq!(idx.stats().invalidations, 1);
        let long = idx.row(RowKey::Predicate(p));
        assert_eq!(long.len(), 5, "re-issued row spans the new vocabulary");
        assert_eq!(long[3], 0.0, "padding is transform(0.0)");
        assert_eq!(&long[..3], &short[..], "known similarities unchanged");
        // The pre-growth handle is untouched (pinned plans keep working).
        assert_eq!(short.len(), 3);

        // Shrinking is a no-op; equal size too.
        idx.ensure_vocab(4);
        idx.ensure_vocab(5);
        assert_eq!(idx.stats().invalidations, 1);
    }

    #[test]
    fn out_of_space_predicate_knows_only_itself() {
        let s = space();
        let idx = SimilarityIndex::new(&s);
        idx.ensure_vocab(5);
        // Predicate 4 was added to the graph after training.
        let row = idx.row(RowKey::Predicate(PredicateId::new(4)));
        assert_eq!(row.len(), 5);
        assert_eq!(row[4], 1.0, "identity similarity");
        for (i, &v) in row.iter().enumerate() {
            if i != 4 {
                assert_eq!(v, 0.0, "unknown similarity at {i}");
            }
        }
    }

    #[test]
    fn max_rows_are_invalidated_by_vocab_growth() {
        let s = space();
        let idx = SimilarityIndex::new(&s);
        let keys = [
            RowKey::Predicate(PredicateId::new(0)),
            RowKey::Predicate(PredicateId::new(2)),
        ];
        let before = idx.max_bundle(&keys).exact;
        assert_eq!(before.len(), 3);
        idx.ensure_vocab(6);
        let after = idx.max_bundle(&keys).exact;
        assert_eq!(after.len(), 6, "combined row re-issued at new vocab");
        assert_eq!(&after[..3], &before[..]);
        assert_eq!(
            idx.stats().max_row_misses,
            2,
            "post-growth request recomputes instead of serving the stale row"
        );
    }

    #[test]
    fn hit_rate_tracks_cache_effectiveness() {
        let s = space();
        let idx = SimilarityIndex::new(&s);
        assert_eq!(idx.stats().hit_rate(), 0.0, "no requests yet");
        let key = RowKey::Predicate(PredicateId::new(0));
        let _ = idx.row(key); // miss
        assert_eq!(idx.stats().hit_rate(), 0.0);
        let _ = idx.row(key); // hit
        assert_eq!(idx.stats().hit_rate(), 0.5);
        for _ in 0..6 {
            let _ = idx.row(key);
        }
        let rate = idx.stats().hit_rate();
        assert!(rate > 0.85 && rate < 1.0, "{rate}");
    }

    /// Clamp transform mirroring the query engine's weight transform —
    /// named so it can be passed as a `fn` pointer.
    fn clamp_unit(sim: f32) -> f64 {
        f64::from(sim).clamp(1e-6, 1.0)
    }

    #[test]
    fn bundles_carry_consistent_derived_forms() {
        let s = space();
        let idx = SimilarityIndex::with_transform(&s, clamp_unit);
        let b = idx.bundle(RowKey::Predicate(PredicateId::new(1)));
        assert_eq!(b.exact.len(), b.ln.len());
        for i in 0..b.exact.len() {
            assert_eq!(b.ln[i].to_bits(), b.exact[i].ln().to_bits());
        }
        let expected_max = b.exact.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(b.max.to_bits(), expected_max.to_bits());
        // The bundle and the plain-row view share the same allocation.
        let row = idx.row(RowKey::Predicate(PredicateId::new(1)));
        assert!(Arc::ptr_eq(&b.exact, &row));
    }

    use proptest::prelude::*;

    proptest! {
        /// Derived forms across arbitrary spaces: every `ln` row element is
        /// the bitwise `ln` of its exact element and no element exceeds the
        /// row maximum, on per-predicate rows, combined suffix rows and
        /// padded (vocab-grown) rows alike.
        #[test]
        fn prop_derived_forms_match_exact_rows(
            raw in proptest::collection::vec(
                proptest::collection::vec(-1.0f32..1.0, 3), 2..6),
            grow in 0usize..4,
        ) {
            let labels: Vec<String> =
                (0..raw.len()).map(|i| format!("p{i}")).collect();
            let space = PredicateSpace::from_raw(raw, labels);
            let idx = SimilarityIndex::with_transform(&space, clamp_unit);
            idx.ensure_vocab(space.len() + grow);
            let keys: Vec<RowKey> = (0..space.len() as u32)
                .map(|p| RowKey::Predicate(PredicateId::new(p)))
                .collect();
            let (segs, suffixes) = idx.plan_bundles(&keys);
            for b in segs.iter().chain(&suffixes) {
                for i in 0..b.exact.len() {
                    prop_assert_eq!(b.ln[i].to_bits(), b.exact[i].ln().to_bits());
                    prop_assert!(b.exact[i] <= b.max);
                }
            }
        }
    }

    #[test]
    fn repeated_plans_are_pure_hits() {
        let s = space();
        let idx = SimilarityIndex::new(&s);
        let keys = [
            RowKey::Predicate(PredicateId::new(0)),
            RowKey::Predicate(PredicateId::new(1)),
        ];
        let _ = idx.plan_bundles(&keys);
        let before = idx.stats();
        let _ = idx.plan_bundles(&keys);
        let after = idx.stats();
        assert_eq!(after.row_misses, before.row_misses);
        assert_eq!(after.max_row_misses, before.max_row_misses);
        assert!(after.row_hits > before.row_hits);
    }
}
