//! Shard routing for the durable layout.
//!
//! A deployment stores its snapshot set and write-ahead logs as `k` shard
//! files ([`crate::io::shard`]); queries always run on one monolithic CSR
//! (plus, on the live path, one delta overlay). This module decides which
//! shard file a triple lives in:
//!
//! * a [`Partitioner`] assigns every node to a shard by a **stable hash of
//!   its name** (labels, not dense ids, so the assignment survives
//!   compaction, recovery, and re-ingestion in any order);
//! * every triple is *owned* by the shard of its source node — its shard
//!   slice and its WAL records live there;
//! * [`bucket_weights`] counts the triples per source-label bucket, the
//!   input [`Partitioner::rebalanced`] bin-packs into a levelled layout.
//!
//! The assignment only decides which file or log a triple lives in, never
//! its ids or adjacency order, so answers cannot depend on it.

use crate::error::{KgError, Result};
use crate::io::codec::checksum64;
use crate::view::GraphView;
use std::sync::Arc;

/// Assigns nodes (and thereby the triples they source) to shards by a
/// stable hash of the node *name*. Hashing labels rather than dense ids
/// keeps the assignment independent of insertion order, so the same entity
/// lands in the same shard across rebuilds, compactions, and WAL recovery.
///
/// Two routing modes share one hash:
///
/// * **hash routing** (the default): `shard = route_hash(label) % shards`
///   (see [`Partitioner::shard_of_label`]);
/// * **assigned routing**: the hash first selects one of
///   [`Partitioner::BUCKETS`] fixed *source-label groups*, and an explicit
///   bucket → shard table (derived by [`Partitioner::rebalanced`] from
///   observed bucket weights) places each group. This is how skew-driven
///   rebalancing moves heavy label groups off an overloaded shard without
///   changing the shard count or the label hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioner {
    shards: u32,
    /// Explicit bucket → shard table over [`Partitioner::BUCKETS`] source
    /// label groups; `None` routes by `hash % shards` (the legacy layout).
    assignment: Option<Arc<[u8]>>,
}

impl Partitioner {
    /// Upper bound on the shard count — far above any single-host layout,
    /// but a guard against a corrupt config fanning the storage into
    /// confetti.
    pub const MAX_SHARDS: usize = 64;

    /// Number of fixed source-label groups an assigned partitioner routes
    /// through. Buckets are the unit of migration: fine enough that greedy
    /// bin-packing can level a zipfian head, coarse enough that the table
    /// stays a few hundred bytes in the manifest.
    pub const BUCKETS: usize = 512;

    /// A partitioner over `shards` shards; `1..=`[`Partitioner::MAX_SHARDS`]
    /// is valid (1 is the single-store layout).
    pub fn new(shards: usize) -> Result<Self> {
        if shards == 0 || shards > Self::MAX_SHARDS {
            return Err(KgError::Shard(format!(
                "shard count must lie in 1..={}, got {shards}",
                Self::MAX_SHARDS
            )));
        }
        Ok(Self {
            shards: shards as u32,
            assignment: None,
        })
    }

    /// A partitioner with an explicit bucket → shard table (decoded from a
    /// manifest, or produced by [`Partitioner::rebalanced`]). The table must
    /// cover exactly [`Partitioner::BUCKETS`] buckets and only name shards
    /// below `shards`.
    pub fn with_assignment(shards: usize, assignment: Vec<u8>) -> Result<Self> {
        let base = Self::new(shards)?;
        if assignment.len() != Self::BUCKETS {
            return Err(KgError::Shard(format!(
                "bucket assignment must cover {} buckets, got {}",
                Self::BUCKETS,
                assignment.len()
            )));
        }
        if let Some(bad) = assignment.iter().find(|&&s| usize::from(s) >= shards) {
            return Err(KgError::Shard(format!(
                "bucket assignment names shard {bad} outside 0..{shards}"
            )));
        }
        Ok(Self {
            shards: base.shards,
            assignment: Some(assignment.into()),
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The explicit bucket → shard table, if this partitioner carries one.
    pub fn assignment(&self) -> Option<&[u8]> {
        self.assignment.as_deref()
    }

    /// The routing hash: [`checksum64`] pushed through a finalizing
    /// avalanche round (splitmix64's xor-shift/multiply mixer).
    ///
    /// The raw word-strided FNV is fine as a checksum but degenerate as a
    /// router: its xor-then-multiply step only propagates input bits
    /// *upward*, so labels that differ solely above bit 24 — numeric
    /// suffixes behind a shared 8-byte prefix, exactly the
    /// `Entity_<n>` shape synthetic and scraped vocabularies are full of —
    /// leave the low bits identical, and the `% BUCKETS` / `% shards`
    /// reductions collapse thousands of labels into a handful of buckets
    /// (the rebalance differential caught 900 of 1 200 labels landing in
    /// one bucket, making the skew unsplittable). The finalizer feeds every
    /// input bit back into the low bits; on-disk checksums keep the raw
    /// hash — only routing needs avalanche.
    fn route_hash(label: &str) -> u64 {
        let mut h = checksum64(label.as_bytes());
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        h
    }

    /// The fixed source-label group `label` hashes into — the unit a
    /// rebalance migrates. Pure and process-independent, like
    /// [`Partitioner::shard_of_label`].
    pub fn bucket_of_label(label: &str) -> usize {
        (Self::route_hash(label) % Self::BUCKETS as u64) as usize
    }

    /// The shard owning the node named `label`. Stable across processes and
    /// time: the hash is a pure function of the label bytes (no per-process
    /// seed), so a deployment's WAL routing and its in-memory layout can
    /// never disagree. Hash routing and bucket routing share one hash, and
    /// the shard count divides [`Partitioner::BUCKETS`] for every power of
    /// two, so under hash routing a bucket's implied shard is simply
    /// `bucket % shards` — the invariant the rebalance report's
    /// `moved_buckets` count leans on.
    pub fn shard_of_label(&self, label: &str) -> usize {
        let h = Self::route_hash(label);
        match &self.assignment {
            Some(table) => usize::from(table[(h % Self::BUCKETS as u64) as usize]),
            None => (h % u64::from(self.shards)) as usize,
        }
    }

    /// Derives a rebalanced partitioner (same shard count, explicit
    /// assignment) from observed per-bucket edge weights: buckets are
    /// placed heaviest-first onto the currently lightest shard (greedy
    /// longest-processing-time bin-packing). Ties break on the lower bucket
    /// index and the lower shard id, so the plan is a pure function of the
    /// weights — rebalancing is deterministic and replayable.
    pub fn rebalanced(&self, weights: &[u64]) -> Result<Self> {
        if weights.len() != Self::BUCKETS {
            return Err(KgError::Shard(format!(
                "bucket weights must cover {} buckets, got {}",
                Self::BUCKETS,
                weights.len()
            )));
        }
        let k = self.shards();
        let mut order: Vec<usize> = (0..Self::BUCKETS).collect();
        order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
        let mut load = vec![0u64; k];
        let mut table = vec![0u8; Self::BUCKETS];
        for bucket in order {
            let lightest = (0..k).min_by_key(|&s| (load[s], s)).unwrap_or(0);
            table[bucket] = lightest as u8;
            load[lightest] += weights[bucket];
        }
        Ok(Self {
            shards: self.shards,
            assignment: Some(table.into()),
        })
    }
}

/// Observed per-bucket edge weights of `graph`: how many triples each of
/// the [`Partitioner::BUCKETS`] source-label groups owns. This is the input
/// [`Partitioner::rebalanced`] bin-packs; it is a pure scan of the edge
/// table (the same walk compaction already does), so a rebalance plan is a
/// deterministic function of the logical graph alone.
pub fn bucket_weights<G: GraphView>(graph: &G) -> Vec<u64> {
    let mut weights = vec![0u64; Partitioner::BUCKETS];
    for (_, rec) in graph.edges() {
        weights[Partitioner::bucket_of_label(graph.node_name(rec.src))] += 1;
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, KnowledgeGraph};

    /// Triples owned by each shard under `partitioner`: the per-shard load
    /// a durable layout written with it carries.
    fn shard_loads(graph: &KnowledgeGraph, partitioner: &Partitioner) -> Vec<u64> {
        let mut loads = vec![0u64; partitioner.shards()];
        for (_, rec) in graph.edges() {
            loads[partitioner.shard_of_label(graph.node_name(rec.src))] += 1;
        }
        loads
    }

    /// Max over mean per-shard load: 1.0 is perfectly balanced.
    fn skew(loads: &[u64]) -> f64 {
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        max * loads.len() as f64 / loads.iter().sum::<u64>() as f64
    }

    #[test]
    fn shard_count_validation() {
        assert!(Partitioner::new(0).is_err());
        assert!(Partitioner::new(Partitioner::MAX_SHARDS + 1).is_err());
        for k in [1, 2, 8, Partitioner::MAX_SHARDS] {
            assert_eq!(Partitioner::new(k).unwrap().shards(), k);
        }
        let err = Partitioner::new(0).unwrap_err();
        assert!(err.to_string().contains("shard count"), "{err}");
    }

    #[test]
    fn label_hash_is_stable_and_in_range() {
        let p = Partitioner::new(8).unwrap();
        for label in ["Audi_TT", "Germany", "", "🚗", "node_12345"] {
            let s = p.shard_of_label(label);
            assert!(s < 8);
            assert_eq!(s, p.shard_of_label(label), "hash must be pure");
        }
        // The single-shard partitioner maps everything to shard 0.
        assert_eq!(Partitioner::new(1).unwrap().shard_of_label("anything"), 0);
    }

    #[test]
    fn assignment_validation_and_routing() {
        // Wrong table width and out-of-range shards are rejected.
        assert!(Partitioner::with_assignment(4, vec![0u8; 7]).is_err());
        assert!(Partitioner::with_assignment(2, vec![2u8; Partitioner::BUCKETS]).is_err());
        // A valid table routes every label through it.
        let p = Partitioner::with_assignment(4, vec![3u8; Partitioner::BUCKETS]).unwrap();
        for label in ["Audi_TT", "Germany", "", "🚗"] {
            assert_eq!(p.shard_of_label(label), 3);
        }
        assert_eq!(p.assignment().unwrap().len(), Partitioner::BUCKETS);
        // Hash-routed partitioners carry no table; routing, bucketing and
        // the finalized hash agree — the `bucket % shards` invariant the
        // rebalance report's moved-bucket count leans on.
        let hash = Partitioner::new(4).unwrap();
        assert!(hash.assignment().is_none());
        assert_eq!(
            hash.shard_of_label("Audi_TT"),
            (Partitioner::route_hash("Audi_TT") % 4) as usize
        );
        assert_eq!(
            Partitioner::bucket_of_label("Audi_TT") % 4,
            hash.shard_of_label("Audi_TT")
        );
    }

    /// The regression the rebalance differential caught: the raw checksum's
    /// xor-then-multiply never feeds suffix bytes back into the low bits,
    /// so `Entity_<n>` vocabularies collapsed into one bucket per digit
    /// count — an unsplittable mega-bucket no reassignment could level.
    /// The finalized routing hash must spread them.
    #[test]
    fn numeric_suffix_labels_spread_across_buckets() {
        let mut buckets: Vec<usize> = (0..1_200)
            .map(|i| Partitioner::bucket_of_label(&format!("SkewEntity_{i}")))
            .collect();
        buckets.sort_unstable();
        buckets.dedup();
        assert!(
            buckets.len() > Partitioner::BUCKETS / 2,
            "1200 suffixed labels must occupy hundreds of buckets, got {}",
            buckets.len()
        );
    }

    #[test]
    fn rebalanced_plan_is_deterministic_and_levels_load() {
        let p = Partitioner::new(4).unwrap();
        // One dominant bucket plus a uniform tail.
        let mut weights = vec![1u64; Partitioner::BUCKETS];
        weights[17] = 5_000;
        let a = p.rebalanced(&weights).unwrap();
        let b = p.rebalanced(&weights).unwrap();
        assert_eq!(a, b, "plan is a pure function of the weights");
        assert_eq!(a.shards(), 4);
        let table = a.assignment().unwrap();
        // Per-shard planned load stays near fair share: the heavy bucket
        // sits alone on one shard, the tail levels the rest.
        let mut load = [0u64; 4];
        for (bucket, &shard) in table.iter().enumerate() {
            load[usize::from(shard)] += weights[bucket];
        }
        let total: u64 = weights.iter().sum();
        let fair = total / 4;
        assert_eq!(load.iter().sum::<u64>(), total);
        assert!(
            *load.iter().max().unwrap() <= 5_000 + fair,
            "greedy LPT keeps the max shard near the dominant bucket: {load:?}"
        );
        assert!(p.rebalanced(&[1u64; 3]).is_err(), "width is validated");
    }

    #[test]
    fn rebalanced_routing_reduces_skew() {
        // Shard-hostile by construction: eight heavy source labels that all
        // *hash* into shard 0 of 4 (the zipf-head regime `SkewSpec`
        // generates), but occupy distinct buckets — so hash routing piles
        // every triple onto one shard while a bucket reassignment can level
        // them.
        let hash_routed = Partitioner::new(4).unwrap();
        let mut hubs = Vec::new();
        let mut seen_buckets = Vec::new();
        for i in 0.. {
            let name = format!("Hub{i}");
            let bucket = Partitioner::bucket_of_label(&name);
            if hash_routed.shard_of_label(&name) == 0 && !seen_buckets.contains(&bucket) {
                seen_buckets.push(bucket);
                hubs.push(name);
                if hubs.len() == 8 {
                    break;
                }
            }
        }
        let mut b = GraphBuilder::new();
        for (h, hub) in hubs.iter().enumerate() {
            let src = b.add_node(hub, "T");
            for i in 0..16 {
                let t = b.add_node(&format!("Spoke{h}_{i}"), "T");
                b.add_edge(src, t, "p");
            }
        }
        let graph = b.finish();
        let before = shard_loads(&graph, &hash_routed);
        assert_eq!(before, vec![128, 0, 0, 0], "every hub routes to shard 0");

        let weights = bucket_weights(&graph);
        assert_eq!(weights.iter().sum::<u64>(), graph.edge_count() as u64);
        let rebalanced = hash_routed.rebalanced(&weights).unwrap();
        let after = shard_loads(&graph, &rebalanced);
        assert_eq!(after.iter().sum::<u64>(), 128, "routing moves, never drops");
        assert!(
            skew(&after) < skew(&before),
            "rebalance must reduce skew: {before:?} -> {after:?}"
        );
    }
}
