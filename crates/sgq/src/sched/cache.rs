//! Epoch-keyed semantic answer cache.
//!
//! The scheduler sits in front of the engine; this cache sits in front of
//! the scheduler's *batching*: a request whose certified answer is already
//! known resolves at submit time without entering the admission queue,
//! without batching, and without touching the engine at all.
//!
//! ## Keying and invalidation
//!
//! Entries are keyed by the structural [`super::query_signature`] hash;
//! like every sig-keyed cache in the scheduler it is only a prefilter —
//! the entry carries its query and a collision reads as a miss, never as a
//! borrowed answer. The engine configuration needs no key: it is the
//! backend's, fixed for the scheduler's lifetime, so one query at one
//! epoch has exactly one answer.
//!
//! Each entry is stamped with the **epoch** its answer was computed
//! against, exactly like the plan cache: a lookup at a different epoch is
//! `AnswerLookup::Stale` and evicts the entry, so an answer computed
//! before a commit / compaction / recovery can never escape afterwards.

use crate::answer::QueryResult;
use crate::query::QueryGraph;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// One cached certified answer.
struct AnswerEntry {
    /// The query the answer belongs to (signatures are a prefilter only).
    query: Arc<QueryGraph>,
    /// Epoch the answer was computed against.
    epoch: u64,
    /// The certified result, `Arc`-shared so an exact hit costs one clone
    /// of the `Arc`-held data, not a reassembly.
    result: Arc<QueryResult>,
    /// LRU recency stamp (logical ticks, not wall clock — deterministic).
    tick: u64,
}

/// Outcome of one cache probe.
pub(crate) enum AnswerLookup {
    /// Same query, same epoch: the cached result verbatim.
    Hit(Arc<QueryResult>),
    /// An entry existed but was computed at a different epoch; it has been
    /// evicted.
    Stale,
    /// No usable entry.
    Miss,
}

/// Bounded LRU of certified answers (see module docs). **Not**
/// synchronised — the scheduler wraps it in its own `Mutex`
/// (`sgq.sched.answers` in the workspace lock hierarchy).
pub(crate) struct AnswerCache {
    entries: FxHashMap<u64, AnswerEntry>,
    capacity: usize,
    tick: u64,
}

impl AnswerCache {
    /// An empty cache holding at most `capacity` entries (0 disables).
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            entries: FxHashMap::default(),
            capacity,
            tick: 0,
        }
    }

    /// Number of live entries (the `sgq_sched_answer_cache_entries` gauge).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Probes for an answer to `query` under `epoch`. A stale entry (other
    /// epoch) is evicted on sight — epoch-stamp invalidation, exactly like
    /// the plan cache.
    pub(crate) fn lookup(&mut self, key: u64, query: &QueryGraph, epoch: u64) -> AnswerLookup {
        let Some(entry) = self.entries.get_mut(&key) else {
            return AnswerLookup::Miss;
        };
        if *entry.query != *query {
            return AnswerLookup::Miss;
        }
        if entry.epoch != epoch {
            self.entries.remove(&key);
            return AnswerLookup::Stale;
        }
        self.tick += 1;
        entry.tick = self.tick;
        AnswerLookup::Hit(Arc::clone(&entry.result))
    }

    /// Stores a certified answer, replacing any entry under `key`. When
    /// the cache is full, the least recently used entry makes room.
    pub(crate) fn insert(
        &mut self,
        key: u64,
        query: &Arc<QueryGraph>,
        epoch: u64,
        result: Arc<QueryResult>,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(key, _)| key)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            key,
            AnswerEntry {
                query: Arc::clone(query),
                epoch,
                result,
                tick: self.tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::{FinalMatch, QueryStats, SubMatch};
    use kgraph::{EdgeId, NodeId};

    fn submatch(pivot: u32, pss: f64) -> SubMatch {
        SubMatch {
            source: NodeId::new(0),
            pivot: NodeId::new(pivot),
            pss,
            nodes: vec![NodeId::new(0), NodeId::new(pivot)],
            edges: vec![EdgeId::new(pivot)],
            bindings: vec![(0, NodeId::new(0)), (1, NodeId::new(pivot))],
        }
    }

    /// A donor with single-part matches at the given pss values, best
    /// first (the engine's order).
    fn donor(pss: &[f64]) -> QueryResult {
        QueryResult {
            matches: pss
                .iter()
                .enumerate()
                .map(|(i, &p)| FinalMatch {
                    pivot: NodeId::new(i as u32),
                    score: p,
                    parts: vec![submatch(i as u32, p)],
                })
                .collect(),
            stats: QueryStats::default(),
        }
    }

    fn query(tag: &str) -> Arc<QueryGraph> {
        let mut q = QueryGraph::new();
        let a = q.add_target("Automobile");
        let c = q.add_specific(tag, "Country");
        q.add_edge(a, "product", c);
        Arc::new(q)
    }

    #[test]
    fn lookup_distinguishes_hit_stale_miss() {
        let q = query("Germany");
        let mut cache = AnswerCache::new(4);
        cache.insert(2, &q, 7, Arc::new(donor(&[0.9, 0.8])));

        match cache.lookup(2, &q, 7) {
            AnswerLookup::Hit(r) => assert_eq!(r.matches.len(), 2),
            _ => panic!("same query, same epoch must hit"),
        }
        // Signature collision with a different query: miss, never borrow.
        let other = query("France");
        assert!(matches!(cache.lookup(2, &other, 7), AnswerLookup::Miss));
        // Another epoch: stale, and the entry is gone afterwards.
        assert!(matches!(cache.lookup(2, &q, 8), AnswerLookup::Stale));
        assert_eq!(cache.len(), 0);
        assert!(matches!(cache.lookup(2, &q, 8), AnswerLookup::Miss));
    }

    #[test]
    fn insert_replaces_and_evicts_lru() {
        let q = query("Germany");
        let mut cache = AnswerCache::new(2);
        let wide = Arc::new(donor(&[0.9, 0.8, 0.7]));
        cache.insert(1, &q, 0, Arc::clone(&wide));
        // A later answer under the same key replaces the entry.
        cache.insert(1, &q, 1, Arc::new(donor(&[0.9])));
        assert_eq!(cache.len(), 1);
        match cache.lookup(1, &q, 1) {
            AnswerLookup::Hit(r) => assert_eq!(r.matches.len(), 1),
            _ => panic!("the replacing entry must serve"),
        }

        // LRU: fill to capacity, touch the first, insert a third — the
        // untouched second entry is the victim.
        let mut cache = AnswerCache::new(2);
        cache.insert(1, &q, 0, Arc::clone(&wide));
        cache.insert(2, &q, 0, Arc::clone(&wide));
        let _ = cache.lookup(1, &q, 0);
        cache.insert(3, &q, 0, Arc::clone(&wide));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(1, &q, 0), AnswerLookup::Hit(_)));
        assert!(matches!(cache.lookup(2, &q, 0), AnswerLookup::Miss));
    }

    #[test]
    fn capacity_zero_disables() {
        let q = query("Germany");
        let mut cache = AnswerCache::new(0);
        cache.insert(1, &q, 0, Arc::new(donor(&[0.9])));
        assert_eq!(cache.len(), 0);
        assert!(matches!(cache.lookup(1, &q, 0), AnswerLookup::Miss));
    }
}
