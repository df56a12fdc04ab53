//! Error type shared by the graph substrate.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, KgError>;

/// Errors produced while constructing, loading, or querying a knowledge graph.
#[derive(Debug)]
pub enum KgError {
    /// A node id was out of range for this graph.
    NodeOutOfRange {
        /// Offending id value.
        id: u32,
        /// Number of nodes in the graph.
        len: usize,
    },
    /// An edge id was out of range for this graph.
    EdgeOutOfRange {
        /// Offending id value.
        id: u32,
        /// Number of edges in the graph.
        len: usize,
    },
    /// Two distinct nodes were registered under the same unique name.
    DuplicateName(String),
    /// A triple line could not be parsed.
    ParseTriple {
        /// 1-based line number.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A snapshot file could not be loaded or saved: the error carries the
    /// path and on-disk format so a raw decoder message never surfaces
    /// without file context.
    Snapshot {
        /// Path of the offending file.
        path: std::path::PathBuf,
        /// On-disk format (`"sharded"`, `"tsv"`).
        format: &'static str,
        /// What went wrong.
        detail: String,
    },
    /// A write-ahead-log file is unreadable or internally inconsistent
    /// beyond the tolerated torn tail record.
    Wal {
        /// Path of the offending WAL file.
        path: std::path::PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// An invalid shard layout: bad shard count, or on-disk shard files
    /// that disagree with their manifest.
    Shard(String),
}

impl KgError {
    /// Wraps any error as a [`KgError::Snapshot`] with file context.
    pub fn snapshot(
        path: impl Into<std::path::PathBuf>,
        format: &'static str,
        detail: impl std::fmt::Display,
    ) -> Self {
        KgError::Snapshot {
            path: path.into(),
            format,
            detail: detail.to_string(),
        }
    }

    /// Wraps any error as a [`KgError::Wal`] with file context.
    pub fn wal(path: impl Into<std::path::PathBuf>, detail: impl std::fmt::Display) -> Self {
        KgError::Wal {
            path: path.into(),
            detail: detail.to_string(),
        }
    }
}

impl fmt::Display for KgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KgError::NodeOutOfRange { id, len } => {
                write!(f, "node id {id} out of range (graph has {len} nodes)")
            }
            KgError::EdgeOutOfRange { id, len } => {
                write!(f, "edge id {id} out of range (graph has {len} edges)")
            }
            KgError::DuplicateName(name) => {
                write!(f, "duplicate unique node name {name:?}")
            }
            KgError::ParseTriple { line, reason } => {
                write!(f, "malformed triple at line {line}: {reason}")
            }
            KgError::Io(e) => write!(f, "i/o error: {e}"),
            KgError::Snapshot {
                path,
                format,
                detail,
            } => write!(f, "snapshot {} ({format} format): {detail}", path.display()),
            KgError::Wal { path, detail } => {
                write!(f, "write-ahead log {}: {detail}", path.display())
            }
            KgError::Shard(detail) => write!(f, "shard layout: {detail}"),
        }
    }
}

impl std::error::Error for KgError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KgError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for KgError {
    fn from(e: std::io::Error) -> Self {
        KgError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = KgError::NodeOutOfRange { id: 9, len: 3 };
        assert!(e.to_string().contains("node id 9"));
        let e = KgError::DuplicateName("Audi_TT".into());
        assert!(e.to_string().contains("Audi_TT"));
        let e = KgError::ParseTriple {
            line: 2,
            reason: "expected 3 fields".into(),
        };
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn io_error_has_source() {
        use std::error::Error;
        let e = KgError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }

    #[test]
    fn storage_errors_carry_path_and_format() {
        let e = KgError::snapshot("/tmp/g.json", "json", "unexpected end of input");
        let msg = e.to_string();
        assert!(msg.contains("/tmp/g.json"), "{msg}");
        assert!(msg.contains("json format"), "{msg}");
        assert!(msg.contains("unexpected end of input"), "{msg}");
        let e = KgError::wal("/tmp/wal.log", "bad magic");
        let msg = e.to_string();
        assert!(msg.contains("/tmp/wal.log"), "{msg}");
        assert!(msg.contains("bad magic"), "{msg}");
    }
}
