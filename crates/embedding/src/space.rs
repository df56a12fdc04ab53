//! The predicate semantic space `E = {e₁…eₙ}` (paper §IV-A).
//!
//! The space holds one unit-normalised vector per predicate of the knowledge
//! graph. The semantic similarity between two predicates (paper Eq. 5) is
//! then a plain dot product. Because the query engine evaluates
//! `sim(L_Q(e), L(e'))` for every traversed edge, vectors are pre-normalised
//! once so the hot path is a single fused dot product.

use crate::transe::TransE;
use crate::vector;
use kgraph::io::codec::{checksum64, put_str, put_u32, put_u64, Cursor};
use kgraph::{KgError, KnowledgeGraph, PredicateId};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// File magic of the on-disk predicate-space format.
pub const SPACE_MAGIC: &[u8; 8] = b"KGVSPC01";
/// Current format version.
pub const SPACE_VERSION: u32 = 1;

/// Predicate → semantic vector map with cosine-similarity queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredicateSpace {
    dim: usize,
    /// Unit-normalised vectors, row-major by `PredicateId`.
    vectors: Vec<f32>,
    /// Predicate labels for diagnostics / experiment output.
    labels: Vec<String>,
}

impl PredicateSpace {
    /// Extracts predicate vectors from a trained model.
    pub fn from_model(graph: &KnowledgeGraph, model: &TransE) -> Self {
        let dim = model.dim();
        let mut vectors = Vec::with_capacity(graph.predicate_count() * dim);
        let mut labels = Vec::with_capacity(graph.predicate_count());
        for (pid, label) in graph.predicates() {
            let mut v = model.relation_embedding(pid.index()).to_vec();
            vector::normalize(&mut v);
            vectors.extend_from_slice(&v);
            labels.push(label.to_string());
        }
        Self {
            dim,
            vectors,
            labels,
        }
    }

    /// Builds a space directly from raw vectors (used by tests and by the
    /// synthetic "oracle" space in the data generator).
    pub fn from_raw(vectors: Vec<Vec<f32>>, labels: Vec<String>) -> Self {
        assert_eq!(vectors.len(), labels.len());
        let dim = vectors.first().map_or(0, Vec::len);
        let mut flat = Vec::with_capacity(vectors.len() * dim);
        for mut v in vectors {
            assert_eq!(v.len(), dim, "all predicate vectors must share a dim");
            vector::normalize(&mut v);
            flat.extend_from_slice(&v);
        }
        Self {
            dim,
            vectors: flat,
            labels,
        }
    }

    /// Number of predicates in the space.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The unit vector of predicate `p`.
    pub fn vector(&self, p: PredicateId) -> &[f32] {
        &self.vectors[p.index() * self.dim..(p.index() + 1) * self.dim]
    }

    /// The label of predicate `p`.
    pub fn label(&self, p: PredicateId) -> &str {
        &self.labels[p.index()]
    }

    /// Cosine similarity between two predicates (paper Eq. 5). Since vectors
    /// are unit-normalised this is a dot product, clamped to `[-1, 1]`.
    #[inline]
    pub fn sim(&self, a: PredicateId, b: PredicateId) -> f32 {
        if a == b {
            return 1.0;
        }
        vector::dot(self.vector(a), self.vector(b)).clamp(-1.0, 1.0)
    }

    /// The `k` predicates most similar to `p` (excluding `p`), best first.
    /// Used by the edge-noise experiment (§VII-E: "replace the predicate
    /// with one of its top-10 semantically similar predicates in E").
    pub fn top_k_similar(&self, p: PredicateId, k: usize) -> Vec<(PredicateId, f32)> {
        let mut sims: Vec<(PredicateId, f32)> = (0..self.len() as u32)
            .map(PredicateId::new)
            .filter(|&q| q != p)
            .map(|q| (q, self.sim(p, q)))
            .collect();
        sims.sort_by(|a, b| b.1.total_cmp(&a.1));
        sims.truncate(k);
        sims
    }

    /// Full similarity row of `p` against every predicate, indexable by
    /// `PredicateId` — precomputed once per query edge by the engine so the
    /// per-KG-edge cost during search is one array load.
    pub fn sim_row(&self, p: PredicateId) -> Vec<f32> {
        (0..self.len() as u32)
            .map(|q| self.sim(p, PredicateId::new(q)))
            .collect()
    }

    /// Saves the space as a checksummed little-endian binary file
    /// (atomically and durably, via [`kgraph::io::write_atomic`]), so a
    /// trained deployment cold-starts without re-running the embedding
    /// phase.
    ///
    /// Layout: magic `KGVSPC01`, `u32` version, then one checksummed
    /// payload — `u32` dim, `u32` predicate count, the labels
    /// (length-prefixed UTF-8) and the `f32` vectors row-major — followed
    /// by its FNV-1a 64 checksum.
    pub fn save(&self, path: impl AsRef<Path>) -> kgraph::Result<()> {
        let mut payload = Vec::with_capacity(self.vectors.len() * 4 + self.labels.len() * 16);
        put_u32(&mut payload, self.dim as u32);
        put_u32(&mut payload, self.labels.len() as u32);
        for label in &self.labels {
            put_str(&mut payload, label);
        }
        for v in &self.vectors {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let mut out = Vec::with_capacity(payload.len() + 20);
        out.extend_from_slice(SPACE_MAGIC);
        put_u32(&mut out, SPACE_VERSION);
        out.extend_from_slice(&payload);
        put_u64(&mut out, checksum64(&payload));
        kgraph::io::write_atomic(path.as_ref(), "predicate-space", &out)
    }

    /// Loads a space saved by [`Self::save`]. All failures carry the path
    /// and format context.
    pub fn load(path: impl AsRef<Path>) -> kgraph::Result<Self> {
        let path = path.as_ref();
        let wrap = |detail: String| KgError::snapshot(path, "predicate-space", detail);
        let buf = std::fs::read(path).map_err(|e| KgError::snapshot(path, "predicate-space", e))?;
        let mut c = Cursor::new(&buf);
        let magic = c.take(8, "magic").map_err(wrap)?;
        if magic != SPACE_MAGIC {
            return Err(wrap(format!(
                "bad magic {magic:02x?} (expected {SPACE_MAGIC:02x?})"
            )));
        }
        let version = c.u32("format version").map_err(wrap)?;
        if version != SPACE_VERSION {
            return Err(wrap(format!("unsupported format version {version}")));
        }
        if c.remaining() < 8 {
            return Err(wrap("truncated: missing checksum".into()));
        }
        let payload = &buf[buf.len() - c.remaining()..buf.len() - 8];
        let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8-byte tail"));
        let actual = checksum64(payload);
        if stored != actual {
            return Err(wrap(format!(
                "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
            )));
        }
        let mut c = Cursor::new(payload);
        let dim = c.u32("dimension").map_err(wrap)? as usize;
        let count = c.u32("predicate count").map_err(wrap)? as usize;
        // Decoded sizes are untrusted until proven consistent with the
        // payload: cap the pre-allocation and reject overflowing products
        // instead of aborting on a ~100 GB reservation for a corrupt count.
        let mut labels = Vec::with_capacity(count.min(payload.len()));
        for _ in 0..count {
            labels.push(c.str("label").map_err(wrap)?.to_string());
        }
        let vector_bytes = count
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(4))
            .filter(|&n| n <= c.remaining())
            .ok_or_else(|| wrap(format!("vector block {count}x{dim} exceeds payload")))?;
        let raw = c.take(vector_bytes, "vectors").map_err(wrap)?;
        if c.remaining() != 0 {
            return Err(wrap(format!("{} trailing bytes", c.remaining())));
        }
        let vectors: Vec<f32> = raw
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("4-byte chunk")))
            .collect();
        Ok(Self {
            dim,
            vectors,
            labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> PredicateSpace {
        PredicateSpace::from_raw(
            vec![
                vec![1.0, 0.0],  // product
                vec![0.9, 0.1],  // assembly (close to product)
                vec![0.0, 1.0],  // language (orthogonal)
                vec![-1.0, 0.0], // opposite
            ],
            vec![
                "product".into(),
                "assembly".into(),
                "language".into(),
                "opposite".into(),
            ],
        )
    }

    #[test]
    fn self_similarity_is_one() {
        let s = space();
        for p in 0..4 {
            assert_eq!(s.sim(PredicateId::new(p), PredicateId::new(p)), 1.0);
        }
    }

    #[test]
    fn similarity_is_symmetric_and_ordered() {
        let s = space();
        let product = PredicateId::new(0);
        let assembly = PredicateId::new(1);
        let language = PredicateId::new(2);
        assert!((s.sim(product, assembly) - s.sim(assembly, product)).abs() < 1e-6);
        assert!(s.sim(product, assembly) > s.sim(product, language));
    }

    #[test]
    fn top_k_excludes_self_and_sorts() {
        let s = space();
        let top = s.top_k_similar(PredicateId::new(0), 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, PredicateId::new(1)); // assembly first
        assert!(top[0].1 >= top[1].1);
        assert!(top.iter().all(|&(p, _)| p != PredicateId::new(0)));
    }

    #[test]
    fn sim_row_matches_pointwise() {
        let s = space();
        let row = s.sim_row(PredicateId::new(1));
        for q in 0..4u32 {
            assert!(
                (row[q as usize] - s.sim(PredicateId::new(1), PredicateId::new(q))).abs() < 1e-6
            );
        }
    }

    #[test]
    fn labels_roundtrip() {
        let s = space();
        assert_eq!(s.label(PredicateId::new(2)), "language");
        assert_eq!(s.len(), 4);
        assert_eq!(s.dim(), 2);
    }

    #[test]
    fn vectors_are_normalised() {
        let s = PredicateSpace::from_raw(vec![vec![3.0, 4.0]], vec!["p".into()]);
        let v = s.vector(PredicateId::new(0));
        assert!((crate::vector::norm(v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let dir = std::env::temp_dir().join(format!("embedding_space_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("space.kgv");
        let s = space();
        s.save(&path).unwrap();
        let back = PredicateSpace::load(&path).unwrap();
        assert_eq!(back.dim(), s.dim());
        assert_eq!(back.len(), s.len());
        for p in 0..s.len() as u32 {
            let p = PredicateId::new(p);
            assert_eq!(back.label(p), s.label(p));
            // Bit-exact vectors: similarity scores replay identically.
            assert_eq!(back.vector(p), s.vector(p));
        }
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_corruption_with_context() {
        let dir = std::env::temp_dir().join(format!("embedding_space_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("space.kgv");
        space().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[14] ^= 0x20; // flip a payload bit
        std::fs::write(&path, &bytes).unwrap();
        let err = PredicateSpace::load(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("checksum mismatch"), "{msg}");
        assert!(msg.contains("space.kgv"), "{msg}");
        // Truncation anywhere fails cleanly too.
        for cut in [0, 4, 11, bytes.len() - 3] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(PredicateSpace::load(&path).is_err(), "cut {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_rejects_absurd_counts_without_allocating() {
        // A tiny well-checksummed file claiming u32::MAX predicates must
        // error, not attempt a multi-gigabyte allocation or overflow
        // `count * dim * 4`.
        let dir = std::env::temp_dir().join(format!("embedding_space_huge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("space.kgv");
        let mut payload = Vec::new();
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // dim
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // count
        let mut file = Vec::new();
        file.extend_from_slice(SPACE_MAGIC);
        file.extend_from_slice(&SPACE_VERSION.to_le_bytes());
        file.extend_from_slice(&payload);
        file.extend_from_slice(&kgraph::io::codec::checksum64(&payload).to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        let err = PredicateSpace::load(&path).unwrap_err();
        assert!(err.to_string().contains("space.kgv"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_model_preserves_count() {
        use crate::trainer::{train_transe, TrainConfig};
        use kgraph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let a = b.add_node("A", "T");
        let c = b.add_node("B", "T");
        b.add_edge(a, c, "p");
        b.add_edge(c, a, "q");
        let g = b.finish();
        let model = train_transe(
            &g,
            &TrainConfig {
                dim: 8,
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        let s = PredicateSpace::from_model(&g, &model);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dim(), 8);
        assert_eq!(s.label(g.predicate_id("q").unwrap()), "q");
    }
}
