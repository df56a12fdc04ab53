//! Write-ahead-log records for the versioned graph store.
//!
//! Every mutation a [`crate::VersionedGraph`] accepts is logged as a
//! label-based [`WalOp`] (never ids — ids are epoch-scoped), and every
//! [`commit`]/[`compact`] logs an epoch marker followed by an fsync.
//! [`crate::io::shard`] frames the records into one log per shard (magic,
//! sequence numbers, checksums, torn-tail tolerance), and
//! [`crate::VersionedGraph::recover`] replays them on top of a
//! base snapshot set to the exact pre-crash epoch.
//!
//! ## Record body
//!
//! ```text
//! body  := tag:u8 fields
//!   tag 0 Insert : head, head_type, predicate, tail, tail_type  (strings)
//!   tag 1 Delete : head, predicate, tail                        (strings)
//!   tag 2 Commit : epoch:u64    — the op prefix became this epoch
//!   tag 3 Compact: epoch:u64    — overlay merged into a fresh CSR
//! ```
//!
//! Strings are `u32` length + UTF-8; integers little-endian.
//!
//! `Compact` is logged (not just `Commit`) because compaction reassigns
//! edge ids: replaying it at the same point reproduces the exact id layout,
//! which keeps recovered query answers — paths include [`crate::EdgeId`]s —
//! bit-identical to the pre-crash service.
//!
//! [`commit`]: crate::VersionedGraph::commit
//! [`compact`]: crate::VersionedGraph::compact

use super::codec::{put_str, put_u64, Cursor};

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// An edge insertion (resurrections are logged as plain inserts — the
    /// replay distinguishes them exactly like the original write did).
    Insert {
        /// Head entity `(name, type)`.
        head: (String, String),
        /// Predicate label.
        predicate: String,
        /// Tail entity `(name, type)`.
        tail: (String, String),
    },
    /// A live-edge deletion.
    Delete {
        /// Head entity name.
        head: String,
        /// Predicate label.
        predicate: String,
        /// Tail entity name.
        tail: String,
    },
    /// The op prefix before this marker was committed as `epoch`.
    Commit {
        /// Epoch the commit published.
        epoch: u64,
    },
    /// The store compacted its overlay into a fresh CSR at `epoch`.
    Compact {
        /// Epoch the compaction published.
        epoch: u64,
    },
}

impl WalOp {
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalOp::Insert {
                head,
                predicate,
                tail,
            } => {
                out.push(0);
                put_str(out, &head.0);
                put_str(out, &head.1);
                put_str(out, predicate);
                put_str(out, &tail.0);
                put_str(out, &tail.1);
            }
            WalOp::Delete {
                head,
                predicate,
                tail,
            } => {
                out.push(1);
                put_str(out, head);
                put_str(out, predicate);
                put_str(out, tail);
            }
            WalOp::Commit { epoch } => {
                out.push(2);
                put_u64(out, *epoch);
            }
            WalOp::Compact { epoch } => {
                out.push(3);
                put_u64(out, *epoch);
            }
        }
    }

    pub(crate) fn decode(body: &[u8]) -> std::result::Result<Self, String> {
        let mut c = Cursor::new(body);
        let tag = c.take(1, "record tag")?[0];
        let op = match tag {
            0 => WalOp::Insert {
                head: (c.str("head")?.into(), c.str("head type")?.into()),
                predicate: c.str("predicate")?.into(),
                tail: (c.str("tail")?.into(), c.str("tail type")?.into()),
            },
            1 => WalOp::Delete {
                head: c.str("head")?.into(),
                predicate: c.str("predicate")?.into(),
                tail: c.str("tail")?.into(),
            },
            2 => WalOp::Commit {
                epoch: c.u64("commit epoch")?,
            },
            3 => WalOp::Compact {
                epoch: c.u64("compact epoch")?,
            },
            t => return Err(format!("unknown record tag {t}")),
        };
        if c.remaining() != 0 {
            return Err(format!("record: {} trailing bytes", c.remaining()));
        }
        Ok(op)
    }

    /// True for the epoch markers ([`WalOp::Commit`] / [`WalOp::Compact`]).
    pub fn is_marker(&self) -> bool {
        matches!(self, WalOp::Commit { .. } | WalOp::Compact { .. })
    }
}

// The records as one shard log frames them, read back through
// `read_wal` at one shard.
#[cfg(test)]
mod tests {
    use super::super::shard::{read_wal, wal_path, ShardedWalWriter, WAL_MAGIC};
    use super::super::test_dir::TestDir;
    use super::*;
    use crate::shard::Partitioner;
    use std::path::Path;

    fn insert(h: &str, p: &str, t: &str) -> WalOp {
        WalOp::Insert {
            head: (h.into(), "T".into()),
            predicate: p.into(),
            tail: (t.into(), "T".into()),
        }
    }

    /// Logs `ops` into a fresh 1-shard log under `dir` and returns its bytes.
    fn write_log(dir: &Path, ops: &[WalOp]) -> Vec<u8> {
        let mut w = ShardedWalWriter::create(dir, Partitioner::new(1).unwrap()).unwrap();
        for op in ops {
            w.append(op).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        std::fs::read(wal_path(dir, 0)).unwrap()
    }

    #[test]
    fn roundtrip_all_record_kinds() {
        let dir = TestDir::new("wal_roundtrip");
        let ops = vec![
            insert("A", "p", "B"),
            WalOp::Delete {
                head: "A".into(),
                predicate: "p".into(),
                tail: "B".into(),
            },
            WalOp::Commit { epoch: 1 },
            insert("C#hostile\tname", "q\n", "D"),
            WalOp::Compact { epoch: 2 },
        ];
        write_log(&dir.path(""), &ops);
        let replay = read_wal(dir.path(""), 1).unwrap();
        assert_eq!(replay.ops, ops);
        assert!(!replay.torn);
        assert_eq!(replay.discarded_ops, 0);
    }

    #[test]
    fn tolerates_torn_tail_at_every_cut() {
        let dir = TestDir::new("wal_torn");
        let root = dir.path("");
        let ops = vec![
            insert("A", "p", "B"),
            WalOp::Commit { epoch: 1 },
            insert("C", "q", "D"),
        ];
        let bytes = write_log(&root, &ops);
        let full = read_wal(&root, 1).unwrap();
        assert!(!full.torn);
        assert_eq!(full.ops, ops[..2], "trailing insert is uncommitted");
        assert_eq!(full.discarded_ops, 1);

        // Frame boundaries: the magic, then `len | seq + body | checksum`
        // per record.
        let mut ends = vec![WAL_MAGIC.len()];
        for op in &ops {
            let mut body = Vec::new();
            op.encode(&mut body);
            ends.push(ends[ends.len() - 1] + 4 + 8 + body.len() + 8);
        }
        assert_eq!(ends[ends.len() - 1], bytes.len());

        // Cut the log at every byte length: replay must never fail, must
        // report a torn tail exactly when the cut falls inside the magic or
        // a frame, and must recover the commit only once its marker fits.
        for cut in 0..bytes.len() {
            std::fs::write(wal_path(&root, 0), &bytes[..cut]).unwrap();
            let replay = read_wal(&root, 1).unwrap();
            assert_eq!(replay.torn, !ends.contains(&cut), "cut {cut}");
            let committed = if cut >= ends[2] { 2 } else { 0 };
            assert_eq!(replay.ops, ops[..committed], "cut {cut}");
        }
    }

    #[test]
    fn checksum_failure_is_a_torn_tail() {
        let dir = TestDir::new("wal_bitrot");
        let root = dir.path("");
        let mut bytes = write_log(&root, &[insert("A", "p", "B"), WalOp::Commit { epoch: 1 }]);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // corrupt the final record's checksum
        std::fs::write(wal_path(&root, 0), &bytes).unwrap();
        let replay = read_wal(&root, 1).unwrap();
        assert!(replay.torn);
        assert!(
            replay.ops.is_empty(),
            "the marker is gone, so nothing committed"
        );
        assert_eq!(replay.discarded_ops, 1);
    }

    #[test]
    fn bad_magic_is_a_hard_error() {
        let dir = TestDir::new("wal_magic");
        let root = dir.path("");
        std::fs::write(wal_path(&root, 0), b"definitely not a wal").unwrap();
        let err = read_wal(&root, 1).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        assert!(err.to_string().contains("wal-0000.log"), "{err}");
    }

    #[test]
    fn open_append_truncates_torn_tail() {
        let dir = TestDir::new("wal_append");
        let root = dir.path("");
        let mut bytes = write_log(&root, &[insert("A", "p", "B"), WalOp::Commit { epoch: 1 }]);
        // Simulate a torn append.
        bytes.extend_from_slice(&[9, 0, 0, 0, 1, 2]); // half a frame
        std::fs::write(wal_path(&root, 0), &bytes).unwrap();
        let replay = read_wal(&root, 1).unwrap();
        assert!(replay.torn);

        let mut w = ShardedWalWriter::open_append(
            &root,
            Partitioner::new(1).unwrap(),
            &replay.committed_len,
            replay.next_seq,
        )
        .unwrap();
        w.append(&insert("C", "q", "D")).unwrap();
        w.append(&WalOp::Commit { epoch: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);
        let replay = read_wal(&root, 1).unwrap();
        assert!(!replay.torn, "torn bytes were truncated before appending");
        assert_eq!(replay.ops.len(), 4);
        assert_eq!(replay.ops[2], insert("C", "q", "D"));
    }
}
