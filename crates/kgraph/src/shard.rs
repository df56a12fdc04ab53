//! Shard routing for the durable layout.
//!
//! A deployment stores its snapshot set and write-ahead logs as `k` shard
//! files ([`crate::io::shard`]); queries always run on one monolithic CSR
//! (plus, on the live path, one delta overlay). This module decides which
//! shard file a triple lives in: a [`Partitioner`] assigns every node to a
//! shard by a **stable hash of its name** (labels, not dense ids, so the
//! assignment survives compaction, recovery, and re-ingestion in any
//! order), and every triple is *owned* by the shard of its source node —
//! its shard slice and its WAL records live there.
//!
//! The assignment only decides which file or log a triple lives in, never
//! its ids or adjacency order, so answers cannot depend on it.

use crate::error::{KgError, Result};
use crate::io::codec::checksum64;

/// Assigns nodes (and thereby the triples they source) to shards by a
/// stable hash of the node *name*: `shard = route_hash(label) % shards`.
/// Hashing labels rather than dense ids keeps the assignment independent
/// of insertion order, so the same entity lands in the same shard across
/// rebuilds, compactions, and WAL recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioner {
    shards: u32,
}

impl Partitioner {
    /// Upper bound on the shard count — far above any single-host layout,
    /// but a guard against a corrupt config fanning the storage into
    /// confetti.
    pub const MAX_SHARDS: usize = 64;

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
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The routing hash: [`checksum64`] pushed through a finalizing
    /// avalanche round (splitmix64's xor-shift/multiply mixer).
    ///
    /// The raw word-strided FNV is fine as a checksum but degenerate as a
    /// router: its xor-then-multiply step only propagates input bits
    /// *upward*, so labels that differ solely above bit 24 — numeric
    /// suffixes behind a shared 8-byte prefix, exactly the `Entity_<n>`
    /// shape synthetic and scraped vocabularies are full of — leave the
    /// low bits identical, and the `% shards` reduction piles them onto a
    /// few shards. The finalizer feeds every input bit back into the low
    /// bits; on-disk checksums keep the raw hash — only routing needs
    /// avalanche. The values are part of the on-disk format: a slice
    /// holding an edge routed elsewhere is refused at load.
    fn route_hash(label: &str) -> u64 {
        let mut h = checksum64(label.as_bytes());
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        h
    }

    /// The shard owning the node named `label`. Stable across processes and
    /// time: the hash is a pure function of the label bytes (no per-process
    /// seed), so a deployment's WAL routing and its in-memory layout can
    /// never disagree.
    pub fn shard_of_label(&self, label: &str) -> usize {
        (Self::route_hash(label) % u64::from(self.shards)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The routing hash is part of the on-disk format — `io::shard::load`
    /// refuses a slice holding an edge routed elsewhere — so its values are
    /// pinned, and so is the spread its finalizer exists for: without it,
    /// `Entity_<n>` vocabularies pile onto a few shards (the raw checksum
    /// puts 99–209 of 1,200 such labels on each of 8 shards, against a
    /// fair share of 150).
    #[test]
    fn routing_is_pinned_and_spreads_numeric_suffixes() {
        let labels = [
            "",
            "Audi_TT",
            "Germany",
            "🚗",
            "Müller",
            "node_12345",
            "Entity_0",
        ];
        for (k, expected) in [
            (1, [0; 7]),
            (2, [1, 0, 0, 0, 0, 1, 1]),
            (4, [3, 0, 2, 0, 0, 1, 3]),
            (8, [3, 4, 6, 0, 4, 1, 3]),
        ] {
            let p = Partitioner::new(k).unwrap();
            let got = labels.map(|l| p.shard_of_label(l));
            assert_eq!(got, expected, "routing moved at k = {k}");

            let mut counts = vec![0usize; k];
            for i in 0..1_200 {
                counts[p.shard_of_label(&format!("Entity_{i}"))] += 1;
            }
            let fair = 1_200 / k;
            assert!(
                counts
                    .iter()
                    .all(|&c| c * 4 >= fair * 3 && c * 4 <= fair * 5),
                "k = {k}: every shard within ±25% of {fair}, got {counts:?}"
            );
        }
    }
}
