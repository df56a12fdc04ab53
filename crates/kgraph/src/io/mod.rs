//! Loading and saving knowledge graphs.
//!
//! Two formats are supported:
//! * 5-column TSV triples (see [`crate::triple`]) — the interchange format,
//! * the [`shard`] deployment layout — an epoch manifest, checksummed
//!   little-endian snapshot files (interner tables, node arrays, per-shard
//!   edge slices) and one write-ahead log per shard, so a
//!   [`crate::VersionedGraph`]'s committed epochs survive a crash (see
//!   [`crate::VersionedGraph::recover`]). It is the only durable
//!   layout; a single-store deployment is its 1-shard case. The [`wal`]
//!   module defines the logged records.
//!
//! The [`codec`] primitives (little-endian cursors, checked length-prefixed
//! containers, `checksum64`) also back the `semkg-server` wire protocol, so
//! the framing rules that make snapshots safe against corrupt files make
//! the socket tier safe against hostile peers; see `crates/server/README.md`
//! for the frame layout.
//!
//! All loaders wrap underlying parse failures in [`KgError::Snapshot`] so
//! errors always carry the offending path and format. Every file a
//! deployment rewrites whole goes through [`write_atomic`].

pub mod codec;
pub mod shard;
pub mod wal;

use crate::error::{KgError, Result};
use crate::graph::{GraphBuilder, KnowledgeGraph};
use crate::triple::Triple;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Replaces the file at `path` with `bytes` atomically and durably: writes
/// a sibling `.tmp` file, fsyncs it, renames it over `path`, then fsyncs
/// the parent directory so the rename itself survives a crash. A reader
/// sees the old file or the new one, never a torn mix. Errors carry `path`
/// and `format` as a [`KgError::Snapshot`].
pub fn write_atomic(path: &Path, format: &'static str, bytes: &[u8]) -> Result<()> {
    let wrap = |e: std::io::Error| KgError::snapshot(path, format, e);
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp).map_err(wrap)?;
    file.write_all(bytes)
        .and_then(|()| file.sync_all())
        .map_err(wrap)?;
    std::fs::rename(&tmp, path).map_err(wrap)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| KgError::snapshot(dir, format, format!("directory fsync: {e}")))
}

/// Reads triples from a TSV reader, one per line; blank lines and lines
/// starting with `#` are skipped.
pub fn read_triples<R: std::io::Read>(reader: R) -> Result<Vec<Triple>> {
    let reader = BufReader::new(reader);
    let mut triples = Vec::new();
    // Workhorse-String loop (perf guide: avoids per-line allocation of
    // `lines()`).
    let mut buf = String::new();
    let mut reader = reader;
    let mut line_no = 0usize;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let line = buf.trim_end_matches(['\n', '\r']);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        triples.push(Triple::from_tsv(line, line_no)?);
    }
    Ok(triples)
}

/// Writes triples as TSV.
pub fn write_triples<W: Write>(writer: W, triples: impl IntoIterator<Item = Triple>) -> Result<()> {
    let mut w = BufWriter::new(writer);
    for t in triples {
        writeln!(w, "{}", t.to_tsv())?;
    }
    w.flush()?;
    Ok(())
}

/// Builds a graph from an iterator of triples.
pub fn graph_from_triples(triples: impl IntoIterator<Item = Triple>) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for t in triples {
        b.add_triple(
            (&t.head, &t.head_type),
            &t.predicate,
            (&t.tail, &t.tail_type),
        );
    }
    b.finish()
}

/// Loads a graph from a TSV triples file.
pub fn load_tsv(path: impl AsRef<Path>) -> Result<KnowledgeGraph> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| KgError::snapshot(path, "tsv", e))?;
    Ok(graph_from_triples(read_triples(file).map_err(
        |e| match e {
            e @ KgError::Snapshot { .. } => e,
            e => KgError::snapshot(path, "tsv", e),
        },
    )?))
}

/// Saves a graph as a TSV triples file.
pub fn save_tsv(graph: &KnowledgeGraph, path: impl AsRef<Path>) -> Result<()> {
    let path = path.as_ref();
    let file = std::fs::File::create(path).map_err(|e| KgError::snapshot(path, "tsv", e))?;
    write_triples(file, graph.triples()).map_err(|e| match e {
        e @ KgError::Snapshot { .. } => e,
        e => KgError::snapshot(path, "tsv", e),
    })
}

#[cfg(test)]
pub(crate) mod test_dir {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory, removed on drop. Earlier io tests shared
    /// one fixed `temp_dir()/kgraph_io_test` directory and raced under
    /// parallel test runs; every test now gets its own.
    pub struct TestDir(PathBuf);

    impl TestDir {
        pub fn new(label: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "kgraph_{label}_{}_{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed),
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        pub fn path(&self, file: &str) -> PathBuf {
            self.0.join(file)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_dir::TestDir;
    use super::*;

    fn sample() -> Vec<Triple> {
        vec![
            Triple::new("Audi_TT", "Automobile", "assembly", "Germany", "Country"),
            Triple::new("Volkswagen", "Company", "product", "Audi_TT", "Automobile"),
        ]
    }

    #[test]
    fn triple_stream_roundtrip() {
        let mut buf = Vec::new();
        write_triples(&mut buf, sample()).unwrap();
        let back = read_triples(buf.as_slice()).unwrap();
        assert_eq!(back, sample());
    }

    #[test]
    fn skips_comments_and_blanks() {
        let text = "# header\n\nAudi_TT\tAutomobile\tassembly\tGermany\tCountry\n";
        let triples = read_triples(text.as_bytes()).unwrap();
        assert_eq!(triples.len(), 1);
    }

    #[test]
    fn error_carries_line_number() {
        let text = "# ok\nbroken line\n";
        let err = read_triples(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn graph_from_triples_merges_nodes() {
        let g = graph_from_triples(sample());
        assert_eq!(g.node_count(), 3); // Audi_TT shared between the two triples
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn tsv_file_roundtrip() {
        let dir = TestDir::new("io_tsv");
        let path = dir.path("g.tsv");
        let g = graph_from_triples(sample());
        save_tsv(&g, &path).unwrap();
        let back = load_tsv(&path).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert!(back.node_by_name("Volkswagen").is_some());
    }

    #[test]
    fn write_atomic_replaces_durably_and_fails_typed() {
        let dir = TestDir::new("io_atomic");
        let path = dir.path("blob.bin");
        write_atomic(&path, "test", b"first").unwrap();
        write_atomic(&path, "test", b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!dir.path("blob.tmp").exists(), "no tmp left behind");

        // A directory cannot be replaced by a file: typed error, path named.
        let target = dir.path("occupied");
        std::fs::create_dir_all(target.join("child")).unwrap();
        let err = write_atomic(&target, "test", b"x").unwrap_err();
        assert!(
            matches!(&err, KgError::Snapshot { path, .. } if *path == target),
            "{err:?}"
        );
        assert!(target.join("child").is_dir(), "the directory is untouched");
    }

    #[test]
    fn tsv_file_roundtrip_with_hostile_labels() {
        let dir = TestDir::new("io_tsv_hostile");
        let path = dir.path("g.tsv");
        // Tabs, newlines, a comment-looking name, and a backslash: all of
        // these used to corrupt the file on save→load.
        let triples = vec![
            Triple::new("#not a comment", "Ty\tpe", "has\npart", "tail\\end", "T"),
            Triple::new("plain", "T", "p", "multi\r\nline", "T"),
        ];
        write_triples(std::fs::File::create(&path).unwrap(), triples.clone()).unwrap();
        let g = graph_from_triples(triples);
        let back = load_tsv(&path).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert!(back.node_by_name("#not a comment").is_some());
        assert!(back.node_by_name("multi\r\nline").is_some());
    }
}
