//! Per-shard on-disk layout: sharded snapshots, sharded write-ahead logs,
//! and the epoch manifest coordinating them. This is the one durable
//! layout; a single-store deployment is its 1-shard case.
//!
//! A sharded deployment directory holds one *manifest* (the single epoch
//! coordinator), one *meta* file (the global vocabulary + node tables), one
//! edge-slice *snapshot per shard*, and one *WAL per shard*:
//!
//! ```text
//! dir/
//!   manifest.kgm            epoch coordinator: shard count + current epoch
//!   meta-<epoch>.kgb        interners, node arrays, edge count
//!   shard-0000-<epoch>.kgb  edge slice owned by shard 0 (global edge ids)
//!   …
//!   wal-0000.log            shard 0's write-ahead log (seq-framed records)
//!   …
//! ```
//!
//! ## Checkpoint atomicity (the epoch coordinator)
//!
//! [`save`] writes every `meta-E`/`shard-*-E` file for the new
//! epoch `E` via tmp + rename, fsyncs the directory, and only then flips
//! `manifest.kgm` (itself tmp + rename + dir fsync). The manifest is the
//! single commit point: a crash anywhere before the flip leaves the old
//! epoch's file set intact and referenced; stale files from either epoch
//! are garbage-collected on the next save/open. Readers therefore always
//! observe **all shards at one consistent epoch**, never a torn mix.
//!
//! ## Sharded WAL and recovery
//!
//! Mutations are routed to the WAL of the shard owning the *source-node
//! label* ([`crate::Partitioner::shard_of_label`] — the same hash that
//! places the edge in its shard slice). Because node and edge ids are
//! assigned by *global arrival order*, every record carries a monotonically
//! increasing sequence number; recovery merges the per-shard logs back into
//! arrival order by `seq`, which reproduces the exact id assignment (and
//! therefore bit-identical answers) of the pre-crash store.
//!
//! ```text
//! log    := magic "KGSWAL01" record*
//! record := len:u32  body:len bytes  checksum:u64 of body
//! body   := seq:u64  WalOp            (see super::wal for the op encoding)
//! ```
//!
//! A crash can tear a log's final record (partial frame or bad checksum);
//! readers stop there, and recovery truncates each log back to its last
//! committed marker so torn bytes and staged-but-uncommitted ops are
//! discarded rather than replayed as a half-applied epoch.
//!
//! Epoch markers (`Commit`/`Compact`) are written to **every** shard log
//! under one shared `seq` and fsynced everywhere before the epoch
//! publishes. Recovery's coordinated epoch is the *minimum* over shards of
//! each log's last marker: an epoch whose marker reached only some shards
//! was never published (the writer fsyncs all logs before publishing), so
//! it rolls back everywhere — all shards restore to one consistent epoch.

use super::codec::{checksum64, put_str, put_u32, put_u64, Cursor};
use crate::error::{KgError, Result};
use crate::graph::{Csr, EdgeRecord, KnowledgeGraph};
use crate::ids::{NodeId, PredicateId, TypeId};
use crate::interner::Interner;
use crate::io::wal::WalOp;
use crate::shard::Partitioner;
use rustc_hash::FxHashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Manifest file name (the epoch coordinator).
pub const MANIFEST_FILE: &str = "manifest.kgm";
/// Manifest magic.
pub const MANIFEST_MAGIC: &[u8; 8] = b"KGSMANI1";
/// Meta-file magic (vocabulary + node tables).
pub const META_MAGIC: &[u8; 8] = b"KGSMETA1";
/// Per-shard snapshot magic (edge slices).
pub const SHARD_MAGIC: &[u8; 8] = b"KGSSHRD1";
/// Per-shard WAL magic (seq-framed records).
pub const WAL_MAGIC: &[u8; 8] = b"KGSWAL01";
/// Current format version shared by all four files.
pub const VERSION: u32 = 1;

/// Path of the manifest inside `dir`.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

/// Path of the meta file for `epoch`.
pub fn meta_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("meta-{epoch}.kgb"))
}

/// Path of `shard`'s snapshot slice for `epoch`.
pub fn shard_snapshot_path(dir: &Path, shard: usize, epoch: u64) -> PathBuf {
    dir.join(format!("shard-{shard:04}-{epoch}.kgb"))
}

/// Path of `shard`'s write-ahead log (epoch-independent; truncated at
/// checkpoints).
pub fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("wal-{shard:04}.log"))
}

/// What the manifest records: the one epoch every shard file must match,
/// and the shard count that routed them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Epoch of the referenced snapshot file set.
    pub epoch: u64,
    /// Number of shards in the layout.
    pub shards: u32,
}

/// Writes a small checksummed blob through [`super::write_atomic`].
fn write_blob_atomic(path: &Path, magic: &[u8; 8], body: &[u8]) -> Result<()> {
    let mut out = Vec::with_capacity(body.len() + 32);
    out.extend_from_slice(magic);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, body.len() as u64);
    out.extend_from_slice(body);
    put_u64(&mut out, checksum64(body));
    super::write_atomic(path, "sharded", &out)
}

/// Reads a blob written by [`write_blob_atomic`], verifying magic, version
/// and checksum; returns the body.
fn read_blob(path: &Path, magic: &[u8; 8]) -> Result<Vec<u8>> {
    let wrap = |detail: String| KgError::snapshot(path, "sharded", detail);
    let buf = std::fs::read(path).map_err(|e| wrap(e.to_string()))?;
    let mut c = Cursor::new(&buf);
    let got = c.take(8, "magic").map_err(wrap)?;
    if got != magic {
        return Err(wrap(format!(
            "bad magic {got:02x?} (expected {magic:02x?})"
        )));
    }
    let version = c.u32("format version").map_err(wrap)?;
    if version != VERSION {
        return Err(wrap(format!("unsupported format version {version}")));
    }
    let len = c.u64("body length").map_err(wrap)? as usize;
    let body = c.take(len, "body").map_err(wrap)?;
    let stored = c.u64("checksum").map_err(wrap)?;
    let actual = checksum64(body);
    if stored != actual {
        return Err(wrap(format!(
            "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    Ok(body.to_vec())
}

/// Appends an interner's id-ordered string table: a `u32` count, then
/// length-prefixed UTF-8 strings.
fn encode_interner(out: &mut Vec<u8>, interner: &Interner) {
    put_u32(out, interner.len() as u32);
    for (_, s) in interner.iter() {
        put_str(out, s);
    }
}

/// Reads a table written by [`encode_interner`].
fn decode_interner(c: &mut Cursor<'_>, what: &str) -> std::result::Result<Interner, String> {
    let n = c.u32(what)? as usize;
    // Every string costs at least its 4-byte length prefix, so the bytes
    // left bound the count: a corrupt `n` cannot size the allocation.
    let mut strings = Vec::with_capacity(n.min(c.remaining() / 4));
    for _ in 0..n {
        strings.push(Box::<str>::from(c.str(what)?));
    }
    Interner::from_strings(strings).ok_or_else(|| format!("{what}: duplicate interned string"))
}

/// A shard slice body: its header fields and its raw 16-byte
/// `(edge_id, src, dst, predicate)` entries.
struct SliceBody<'a> {
    epoch: u64,
    shard: u32,
    shards: u32,
    entries: &'a [u8],
}

fn parse_slice(body: &[u8]) -> std::result::Result<SliceBody<'_>, String> {
    let mut c = Cursor::new(body);
    let epoch = c.u64("epoch")?;
    let shard = c.u32("shard index")?;
    let shards = c.u32("shard count")?;
    let count = c.u32("entry count")? as usize;
    // checked_mul: a corrupt count must not wrap usize into a small
    // in-bounds read on 32-bit targets.
    let byte_len = count
        .checked_mul(16)
        .ok_or_else(|| format!("corrupt entry count {count}: byte length overflows"))?;
    let entries = c.take(byte_len, "edge entries")?;
    if c.remaining() != 0 {
        return Err(format!("{} trailing bytes", c.remaining()));
    }
    Ok(SliceBody {
        epoch,
        shard,
        shards,
        entries,
    })
}

/// Atomically points the manifest at `epoch` (the checkpoint commit point).
pub fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<()> {
    let mut body = Vec::with_capacity(12);
    put_u64(&mut body, manifest.epoch);
    put_u32(&mut body, manifest.shards);
    write_blob_atomic(&manifest_path(dir), MANIFEST_MAGIC, &body)
}

/// Reads the epoch coordinator.
pub fn read_manifest(dir: &Path) -> Result<Manifest> {
    let path = manifest_path(dir);
    let body = read_blob(&path, MANIFEST_MAGIC)?;
    let wrap = |detail: String| KgError::snapshot(&path, "sharded", detail);
    let mut c = Cursor::new(&body);
    let epoch = c.u64("epoch").map_err(wrap)?;
    let shards = c.u32("shard count").map_err(wrap)?;
    if c.remaining() != 0 {
        return Err(wrap(format!("{} trailing bytes", c.remaining())));
    }
    Ok(Manifest { epoch, shards })
}

/// Saves `graph` as a per-shard snapshot set at `epoch` and flips the
/// manifest to it (see module docs for the atomicity argument). Stale files
/// from other epochs are garbage-collected afterwards, best-effort.
pub fn save(
    graph: &KnowledgeGraph,
    partitioner: &Partitioner,
    epoch: u64,
    dir: impl AsRef<Path>,
) -> Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)
        .map_err(|e| KgError::snapshot(dir, "sharded", format!("create dir: {e}")))?;
    let k = partitioner.shards();

    // Meta: global vocabulary + node tables + the edge count the shard
    // slices must tile exactly.
    let mut body = Vec::new();
    put_u64(&mut body, epoch);
    put_u32(&mut body, k as u32);
    for interner in [&graph.names, &graph.types, &graph.predicates] {
        encode_interner(&mut body, interner);
    }
    super::codec::put_u32_array(&mut body, graph.node_name.iter().copied());
    super::codec::put_u32_array(&mut body, graph.node_type.iter().map(|t| t.0));
    put_u64(&mut body, graph.duplicate_edges_dropped as u64);
    put_u32(&mut body, graph.edges.len() as u32);
    write_blob_atomic(&meta_path(dir, epoch), META_MAGIC, &body)?;

    // Edge slices, partitioned by the source node's label hash.
    let mut slices: Vec<Vec<(u32, EdgeRecord)>> = vec![Vec::new(); k];
    for (i, rec) in graph.edges.iter().enumerate() {
        let shard = partitioner.shard_of_label(graph.node_name(rec.src));
        slices[shard].push((i as u32, *rec));
    }
    for (shard, slice) in slices.iter().enumerate() {
        let mut body = Vec::with_capacity(20 + slice.len() * 16);
        put_u64(&mut body, epoch);
        put_u32(&mut body, shard as u32);
        put_u32(&mut body, k as u32);
        put_u32(&mut body, slice.len() as u32);
        for (id, rec) in slice {
            put_u32(&mut body, *id);
            put_u32(&mut body, rec.src.0);
            put_u32(&mut body, rec.dst.0);
            put_u32(&mut body, rec.predicate.0);
        }
        write_blob_atomic(&shard_snapshot_path(dir, shard, epoch), SHARD_MAGIC, &body)?;
    }

    // The commit point: all files for `epoch` are durable, flip the
    // coordinator.
    write_manifest(
        dir,
        &Manifest {
            epoch,
            shards: k as u32,
        },
    )?;

    // GC snapshot files of other epochs (the manifest no longer references
    // them). Best-effort: a leftover file is re-collected next time.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = parse_epoch_suffix(name, "meta-")
                .or_else(|| {
                    name.strip_prefix("shard-")
                        .and_then(|rest| rest.split_once('-'))
                        .and_then(|(_, tail)| parse_epoch_suffix(tail, ""))
                })
                .is_some_and(|e| e != epoch);
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
    Ok(())
}

/// Parses `<prefix><epoch>.kgb` into the epoch.
fn parse_epoch_suffix(name: &str, prefix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(".kgb")?
        .parse()
        .ok()
}

/// Loads the snapshot set the manifest references, recomposing the exact
/// monolithic [`KnowledgeGraph`] that was saved (node ids, edge ids,
/// adjacency order and all — the CSR is rebuilt with the same counting
/// sort the [`crate::GraphBuilder`] uses). Returns the graph, the
/// partitioner of the layout, and the manifest epoch.
pub fn load(dir: impl AsRef<Path>) -> Result<(KnowledgeGraph, Partitioner, u64)> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let partitioner = Partitioner::new(manifest.shards as usize)?;
    let epoch = manifest.epoch;

    let meta_file = meta_path(dir, epoch);
    let wrap_meta = |detail: String| KgError::snapshot(&meta_file, "sharded", detail);
    let body = read_blob(&meta_file, META_MAGIC)?;
    let mut c = Cursor::new(&body);
    let meta_epoch = c.u64("epoch").map_err(wrap_meta)?;
    let meta_shards = c.u32("shard count").map_err(wrap_meta)?;
    if meta_epoch != epoch || meta_shards != manifest.shards {
        return Err(KgError::Shard(format!(
            "meta file disagrees with manifest: epoch {meta_epoch} vs {epoch}, \
             shards {meta_shards} vs {}",
            manifest.shards
        )));
    }
    let names = decode_interner(&mut c, "names").map_err(wrap_meta)?;
    let types = decode_interner(&mut c, "types").map_err(wrap_meta)?;
    let predicates = decode_interner(&mut c, "predicates").map_err(wrap_meta)?;
    let node_name = c.u32_array("node names").map_err(wrap_meta)?;
    let node_type: Vec<TypeId> = c
        .u32_array("node types")
        .map_err(wrap_meta)?
        .into_iter()
        .map(TypeId::new)
        .collect();
    let duplicate_edges_dropped = c.u64("duplicate edge count").map_err(wrap_meta)? as usize;
    let m = c.u32("edge count").map_err(wrap_meta)? as usize;
    if c.remaining() != 0 {
        return Err(wrap_meta(format!("{} trailing bytes", c.remaining())));
    }
    let n = node_name.len();
    if node_type.len() != n {
        return Err(wrap_meta(format!(
            "node arrays disagree: {n} names vs {} types",
            node_type.len()
        )));
    }
    if node_name.iter().any(|&id| id as usize >= names.len()) {
        return Err(wrap_meta("node name id out of interner range".into()));
    }
    if node_type.iter().any(|t| t.index() >= types.len()) {
        return Err(wrap_meta("node type id out of interner range".into()));
    }

    // Frame-check every shard slice and count its entries before anything
    // sized by the meta file's edge count is allocated: `m` is only a claim
    // until slices whose lengths the reads have bounded back it, so a
    // corrupt count fails here instead of sizing a multi-GiB array.
    let mut slices = Vec::with_capacity(partitioner.shards());
    let mut entries = 0usize;
    for shard in 0..partitioner.shards() {
        let path = shard_snapshot_path(dir, shard, epoch);
        let body = read_blob(&path, SHARD_MAGIC)?;
        let SliceBody {
            epoch: file_epoch,
            shard: file_shard,
            shards: file_shards,
            entries: raw,
        } = parse_slice(&body).map_err(|detail| KgError::snapshot(&path, "sharded", detail))?;
        if file_epoch != epoch || file_shard as usize != shard || file_shards != manifest.shards {
            return Err(KgError::Shard(format!(
                "shard file {} disagrees with manifest (epoch {file_epoch}/{epoch}, \
                 shard {file_shard}/{shard}, shards {file_shards}/{})",
                path.display(),
                manifest.shards
            )));
        }
        entries += raw.len() / 16;
        slices.push((path, body));
    }
    if entries != m {
        return Err(wrap_meta(format!(
            "edge count {m} disagrees with the {entries} entries across the shard slices"
        )));
    }

    // Collect the shard slices into the dense global edge array.
    let mut edges: Vec<Option<EdgeRecord>> = vec![None; m];
    for (shard, (path, body)) in slices.iter().enumerate() {
        let wrap = |detail: String| KgError::snapshot(path, "sharded", detail);
        let raw = parse_slice(body).map_err(wrap)?.entries;
        for entry in raw.chunks_exact(16) {
            let u32_at = |o: usize| u32::from_le_bytes(entry[o..o + 4].try_into().unwrap()); // lint-ok(panic-freedom): chunks_exact(16) yields exactly 16-byte entries; o+4 <= 16 at every call
            let id = u32_at(0) as usize;
            let rec = EdgeRecord {
                src: NodeId::new(u32_at(4)),
                dst: NodeId::new(u32_at(8)),
                predicate: PredicateId::new(u32_at(12)),
            };
            if id >= m {
                return Err(wrap(format!("edge id {id} out of range ({m} edges)")));
            }
            if rec.src.index() >= n || rec.dst.index() >= n {
                return Err(wrap(format!("edge endpoint out of range ({n} nodes)")));
            }
            if rec.predicate.index() >= predicates.len() {
                return Err(wrap("edge predicate id out of interner range".into()));
            }
            // Ownership check: a slice holding another shard's edge means
            // the files come from mismatched layouts.
            let owner = partitioner.shard_of_label(names.resolve(node_name[rec.src.index()]));
            if owner != shard {
                return Err(KgError::Shard(format!(
                    "edge {id} in shard {shard}'s slice is owned by shard {owner} — \
                     mixed layouts in {}",
                    dir.display()
                )));
            }
            if edges[id].replace(rec).is_some() {
                return Err(wrap(format!("edge id {id} appears in two slices")));
            }
        }
    }
    let edges: Vec<EdgeRecord> = edges
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            e.ok_or_else(|| KgError::Shard(format!("edge id {i} missing from every slice")))
        })
        .collect::<Result<_>>()?;

    // Rebuild the CSR with the builder's counting sort (deterministic, so
    // adjacency order is bit-identical to the saved graph) and the derived
    // lookup tables.
    let csr = Csr::build(n, &edges);
    let name_to_node: FxHashMap<u32, NodeId> = node_name
        .iter()
        .enumerate()
        .map(|(i, &name)| (name, NodeId::new(i as u32)))
        .collect();
    let mut nodes_by_type: Vec<Vec<NodeId>> = vec![Vec::new(); types.len()];
    for (idx, ty) in node_type.iter().enumerate() {
        nodes_by_type[ty.index()].push(NodeId::new(idx as u32));
    }

    Ok((
        KnowledgeGraph {
            names,
            types,
            predicates,
            node_name,
            node_type,
            name_to_node,
            nodes_by_type,
            edges,
            csr,
            duplicate_edges_dropped,
        },
        partitioner,
        epoch,
    ))
}

// ---------------------------------------------------------------------------
// Sharded write-ahead log
// ---------------------------------------------------------------------------

/// Appends seq-framed records to one log per shard (see module docs).
#[derive(Debug)]
pub struct ShardedWalWriter {
    dir: PathBuf,
    partitioner: Partitioner,
    files: Vec<ShardLog>,
    next_seq: u64,
}

#[derive(Debug)]
struct ShardLog {
    file: BufWriter<File>,
    path: PathBuf,
}

impl ShardLog {
    fn append_frame(&mut self, seq: u64, op: &WalOp) -> Result<()> {
        let mut body = Vec::with_capacity(72);
        put_u64(&mut body, seq);
        op.encode(&mut body);
        let mut frame = Vec::with_capacity(body.len() + 12);
        put_u32(&mut frame, body.len() as u32);
        frame.extend_from_slice(&body);
        put_u64(&mut frame, checksum64(&body));
        self.file
            .write_all(&frame)
            .map_err(|e| KgError::wal(&self.path, e))
    }

    fn sync(&mut self) -> Result<()> {
        self.file.flush().map_err(|e| KgError::wal(&self.path, e))?;
        self.file
            .get_ref()
            .sync_data()
            .map_err(|e| KgError::wal(&self.path, e))
    }
}

impl ShardedWalWriter {
    /// Creates (or truncates) one fresh log per shard, each with its magic
    /// fsynced: the truncate-then-write is not atomic, so the magic is made
    /// durable immediately and [`read_wal`] treats a log caught
    /// inside this window (shorter than the magic) as empty, not corrupt.
    pub fn create(dir: impl AsRef<Path>, partitioner: Partitioner) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| KgError::wal(&dir, format!("create dir: {e}")))?;
        let files = (0..partitioner.shards())
            .map(|s| {
                let path = wal_path(&dir, s);
                let file = File::create(&path).map_err(|e| KgError::wal(&path, e))?;
                let mut log = ShardLog {
                    file: BufWriter::new(file),
                    path,
                };
                log.file
                    .write_all(WAL_MAGIC)
                    .and_then(|()| log.file.flush())
                    .and_then(|()| log.file.get_ref().sync_data())
                    .map_err(|e| KgError::wal(&log.path, e))?;
                Ok(log)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            dir,
            partitioner,
            files,
            next_seq: 0,
        })
    }

    /// Reopens the logs for appending at each shard's committed prefix (as
    /// reported by [`read_wal`]), truncating torn tails and
    /// uncommitted records first. A length of 0 (missing file, or one caught
    /// inside `create`'s truncate-then-write window) recreates that log.
    pub fn open_append(
        dir: impl AsRef<Path>,
        partitioner: Partitioner,
        committed_len: &[u64],
        next_seq: u64,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        assert_eq!(committed_len.len(), partitioner.shards());
        let files = (0..partitioner.shards())
            .map(|s| {
                let path = wal_path(&dir, s);
                if committed_len[s] == 0 {
                    let file = File::create(&path).map_err(|e| KgError::wal(&path, e))?;
                    let mut log = ShardLog {
                        file: BufWriter::new(file),
                        path,
                    };
                    log.file
                        .write_all(WAL_MAGIC)
                        .and_then(|()| log.file.flush())
                        .and_then(|()| log.file.get_ref().sync_data())
                        .map_err(|e| KgError::wal(&log.path, e))?;
                    return Ok(log);
                }
                let mut file = OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .map_err(|e| KgError::wal(&path, e))?;
                file.set_len(committed_len[s])
                    .map_err(|e| KgError::wal(&path, e))?;
                file.seek(SeekFrom::End(0))
                    .map_err(|e| KgError::wal(&path, e))?;
                Ok(ShardLog {
                    file: BufWriter::new(file),
                    path,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            dir,
            partitioner,
            files,
            next_seq,
        })
    }

    /// The deployment directory the logs live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The layout's partitioner.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner.clone()
    }

    /// Appends one record. Inserts/deletes go to the source-label shard
    /// under a fresh sequence number; epoch markers go to *every* shard
    /// under one shared sequence number (buffered — [`Self::sync`] makes
    /// them durable everywhere, which the store does before publishing).
    pub fn append(&mut self, op: &WalOp) -> Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        match op {
            WalOp::Insert { head, .. } => {
                let shard = self.partitioner.shard_of_label(&head.0);
                self.files[shard].append_frame(seq, op)
            }
            WalOp::Delete { head, .. } => {
                let shard = self.partitioner.shard_of_label(head);
                self.files[shard].append_frame(seq, op)
            }
            WalOp::Commit { .. } | WalOp::Compact { .. } => {
                for log in &mut self.files {
                    log.append_frame(seq, op)?;
                }
                Ok(())
            }
        }
    }

    /// Flushes and fsyncs every shard log.
    pub fn sync(&mut self) -> Result<()> {
        for log in &mut self.files {
            log.sync()?;
        }
        Ok(())
    }
}

/// Result of scanning a sharded WAL set (the merged, coordinated view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedReplay {
    /// The committed records merged back into arrival (`seq`) order, ending
    /// at the coordinated epoch's marker. Duplicate marker copies (one per
    /// shard) are collapsed to one.
    pub ops: Vec<WalOp>,
    /// Per-shard byte length of the committed prefix — the truncation
    /// points [`ShardedWalWriter::open_append`] expects.
    pub committed_len: Vec<u64>,
    /// Non-marker records dropped beyond the coordinated prefix (staged but
    /// never published, or part of an epoch whose marker missed a shard).
    pub discarded_ops: usize,
    /// True when any shard log ended in a torn record.
    pub torn: bool,
    /// The next free sequence number after the committed prefix.
    pub next_seq: u64,
}

/// Scans all shard logs under `dir`, tolerating torn tails per shard, and
/// merges the committed prefixes by sequence number (see module docs for
/// the coordinated-epoch rule).
///
/// Missing files read as empty **only while every shard log is empty** (a
/// deployment being created — the writer lays all logs out before the
/// first record). Once any log holds records, a *missing* sibling is
/// unambiguous corruption (every record fan-in happens after all logs
/// exist) and recovery fails loudly instead of silently rolling every
/// epoch since the last checkpoint back to the snapshot.
pub fn read_wal(dir: impl AsRef<Path>, shards: usize) -> Result<ShardedReplay> {
    let dir = dir.as_ref();
    struct Rec {
        seq: u64,
        op: WalOp,
        end: u64,
    }
    let mut per_shard: Vec<Vec<Rec>> = Vec::with_capacity(shards);
    let mut missing: Vec<usize> = Vec::new();
    let mut torn = false;
    for s in 0..shards {
        let path = wal_path(dir, s);
        let mut records = Vec::new();
        if !path.exists() {
            missing.push(s);
        }
        if path.exists() {
            let buf = std::fs::read(&path).map_err(|e| KgError::wal(&path, e))?;
            if buf.len() < WAL_MAGIC.len() {
                if !WAL_MAGIC.starts_with(&buf) {
                    return Err(KgError::wal(&path, "bad magic (not a sharded WAL file)"));
                }
                torn = true;
            } else if &buf[..WAL_MAGIC.len()] != WAL_MAGIC {
                return Err(KgError::wal(&path, "bad magic (not a sharded WAL file)"));
            } else {
                let mut pos = WAL_MAGIC.len();
                while pos < buf.len() {
                    let frame = (|| {
                        if buf.len() - pos < 4 {
                            return None;
                        }
                        let body_len =
                            u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize; // lint-ok(panic-freedom): the length guard above ensures the slice is in bounds and exactly sized
                        let total = 4 + body_len + 8;
                        if buf.len() - pos < total {
                            return None;
                        }
                        let body = &buf[pos + 4..pos + 4 + body_len];
                        let stored = u64::from_le_bytes(
                            buf[pos + 4 + body_len..pos + total].try_into().unwrap(), // lint-ok(panic-freedom): the length guard above ensures the slice is in bounds and exactly sized
                        );
                        if checksum64(body) != stored || body.len() < 8 {
                            return None;
                        }
                        let seq = u64::from_le_bytes(body[..8].try_into().unwrap()); // lint-ok(panic-freedom): body.len() >= 8 was checked on the previous line
                        Some(WalOp::decode(&body[8..]).map(|op| (seq, op, total)))
                    })();
                    match frame {
                        None => {
                            torn = true;
                            break;
                        }
                        Some(Err(detail)) => {
                            return Err(KgError::wal(
                                &path,
                                format!("corrupt record at byte {pos}: {detail}"),
                            ));
                        }
                        Some(Ok((seq, op, total))) => {
                            pos += total;
                            records.push(Rec {
                                seq,
                                op,
                                end: pos as u64,
                            });
                        }
                    }
                }
            }
        }
        per_shard.push(records);
    }
    if !missing.is_empty() && per_shard.iter().any(|r| !r.is_empty()) {
        return Err(KgError::wal(
            wal_path(dir, missing[0]),
            format!(
                "shard log(s) {missing:?} missing while sibling logs hold records — \
                 recovering would silently roll back committed epochs; restore the file \
                 or the last checkpoint"
            ),
        ));
    }

    // Coordinated epoch: the minimum over shards of each log's last marker
    // (a shard whose log holds no marker pins the whole set to "nothing
    // committed", which is exactly right — markers reach every shard before
    // an epoch publishes).
    let coordinated = per_shard
        .iter()
        .map(|records| {
            records
                .iter()
                .filter_map(|r| match r.op {
                    WalOp::Commit { epoch } | WalOp::Compact { epoch } => Some(epoch),
                    _ => None,
                })
                .max()
        })
        .min()
        .flatten();

    // Per-shard committed cut: just past the last marker with epoch ≤ C.
    let mut committed_len = Vec::with_capacity(shards);
    let mut merged: Vec<(u64, WalOp)> = Vec::new();
    let mut discarded_ops = 0usize;
    for records in &per_shard {
        let cut = match coordinated {
            None => 0usize,
            Some(c) => records
                .iter()
                .rposition(|r| match r.op {
                    WalOp::Commit { epoch } | WalOp::Compact { epoch } => epoch <= c,
                    _ => false,
                })
                .map(|i| i + 1)
                .unwrap_or(0),
        };
        committed_len.push(if cut == 0 {
            // Nothing committed in this shard: recreate from the magic.
            if records.is_empty() {
                0
            } else {
                WAL_MAGIC.len() as u64
            }
        } else {
            records[cut - 1].end
        });
        discarded_ops += records[cut..].iter().filter(|r| !r.op.is_marker()).count();
        for r in &records[..cut] {
            merged.push((r.seq, r.op.clone()));
        }
    }
    merged.sort_by_key(|(seq, op)| (*seq, !op.is_marker()));
    let next_seq = merged.last().map(|(seq, _)| seq + 1).unwrap_or(0);

    // Collapse the per-shard marker copies (same seq, same marker) and
    // verify no two distinct records ever shared a sequence number.
    let mut ops = Vec::with_capacity(merged.len());
    let mut last: Option<(u64, WalOp)> = None;
    for (seq, op) in merged {
        if let Some((prev_seq, prev_op)) = &last {
            if *prev_seq == seq {
                if *prev_op == op && op.is_marker() {
                    continue; // the same marker, from another shard's log
                }
                return Err(KgError::wal(
                    dir,
                    format!("two distinct records share sequence number {seq}"),
                ));
            }
        }
        last = Some((seq, op.clone()));
        ops.push(op);
    }

    // Empty logs (fresh deployment): committed_len 0 signals recreation for
    // files that never existed, but an existing magic-only file keeps its
    // magic.
    Ok(ShardedReplay {
        ops,
        committed_len,
        discarded_ops,
        torn,
        next_seq,
    })
}

#[cfg(test)]
mod tests {
    use super::super::test_dir::TestDir;
    use super::*;
    use crate::graph::GraphBuilder;

    fn sample() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let audi = b.add_node("Audi_TT", "Automobile");
        let lamando = b.add_node("Lamando", "Automobile");
        let de = b.add_node("Germany", "Country");
        let vw = b.add_node("Volkswagen", "Company");
        b.add_node("Isolated", "Company");
        b.add_edge(audi, de, "assembly");
        b.add_edge(lamando, de, "assembly");
        b.add_edge(vw, audi, "product");
        b.add_edge(audi, de, "assembly"); // duplicate, dropped
        b.finish()
    }

    fn insert(h: &str, p: &str, t: &str) -> WalOp {
        WalOp::Insert {
            head: (h.into(), "T".into()),
            predicate: p.into(),
            tail: (t.into(), "T".into()),
        }
    }

    #[test]
    fn sharded_snapshot_roundtrip_is_exact() {
        let dir = TestDir::new("shard_snap");
        let g = sample();
        let p = Partitioner::new(4).unwrap();
        save(&g, &p, 7, dir.path("")).unwrap();
        let (back, p2, epoch) = load(dir.path("")).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(p2, p);
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.duplicate_edges_dropped(), g.duplicate_edges_dropped());
        for node in g.nodes() {
            assert_eq!(back.node_name(node), g.node_name(node));
            assert_eq!(back.node_type(node), g.node_type(node));
            assert_eq!(
                back.neighbors(node).collect::<Vec<_>>(),
                g.neighbors(node).collect::<Vec<_>>(),
                "adjacency diverged at {node}"
            );
        }
        for (id, rec) in g.edges() {
            assert_eq!(back.edge(id), rec);
        }
    }

    #[test]
    fn manifest_flip_garbage_collects_old_epochs() {
        let dir = TestDir::new("shard_gc");
        let g = sample();
        let p = Partitioner::new(2).unwrap();
        save(&g, &p, 1, dir.path("")).unwrap();
        assert!(meta_path(&dir.path(""), 1).exists());
        save(&g, &p, 2, dir.path("")).unwrap();
        assert!(!meta_path(&dir.path(""), 1).exists(), "epoch 1 GC'd");
        assert!(!shard_snapshot_path(&dir.path(""), 0, 1).exists());
        assert!(meta_path(&dir.path(""), 2).exists());
        let (_, _, epoch) = load(dir.path("")).unwrap();
        assert_eq!(epoch, 2);
    }

    #[test]
    fn mixed_layout_is_rejected() {
        let dir = TestDir::new("shard_mixed");
        let g = sample();
        save(&g, &Partitioner::new(2).unwrap(), 1, dir.path("")).unwrap();
        // Forge a manifest claiming 3 shards: the 2-shard files disagree.
        write_manifest(
            &dir.path(""),
            &Manifest {
                epoch: 1,
                shards: 3,
            },
        )
        .unwrap();
        let err = load(dir.path("")).unwrap_err();
        assert!(err.to_string().contains("disagrees"), "{err}");
    }

    #[test]
    fn wal_routes_by_source_and_merges_by_seq() {
        let dir = TestDir::new("shard_wal");
        let p = Partitioner::new(4).unwrap();
        let mut w = ShardedWalWriter::create(dir.path(""), p.clone()).unwrap();
        let ops = vec![
            insert("A", "p", "B"),
            insert("C", "p", "D"),
            WalOp::Delete {
                head: "A".into(),
                predicate: "p".into(),
                tail: "B".into(),
            },
            WalOp::Commit { epoch: 1 },
            insert("E", "q", "F"),
            WalOp::Compact { epoch: 2 },
        ];
        for op in &ops {
            w.append(op).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let replay = read_wal(dir.path(""), 4).unwrap();
        assert_eq!(replay.ops, ops, "merged replay reproduces arrival order");
        assert!(!replay.torn);
        assert_eq!(replay.discarded_ops, 0);
        // Routed: A's ops share one log, C's another (unless hashes
        // collide, in which case they still merge correctly — the key
        // assertion above already proved the order).
        let shard_a = p.shard_of_label("A");
        let in_a = read_wal(dir.path(""), 4).unwrap();
        assert!(in_a.committed_len[shard_a] > WAL_MAGIC.len() as u64);
    }

    #[test]
    fn uncommitted_tail_is_discarded_and_truncated() {
        let dir = TestDir::new("shard_wal_tail");
        let p = Partitioner::new(2).unwrap();
        let mut w = ShardedWalWriter::create(dir.path(""), p.clone()).unwrap();
        w.append(&insert("A", "p", "B")).unwrap();
        w.append(&WalOp::Commit { epoch: 1 }).unwrap();
        w.append(&insert("C", "q", "D")).unwrap(); // never committed
        w.sync().unwrap();
        drop(w);
        let replay = read_wal(dir.path(""), 2).unwrap();
        assert_eq!(replay.ops.len(), 2);
        assert_eq!(replay.discarded_ops, 1);
        // Reattach + append: the discarded record must be gone for good.
        let mut w =
            ShardedWalWriter::open_append(dir.path(""), p, &replay.committed_len, replay.next_seq)
                .unwrap();
        w.append(&insert("E", "r", "F")).unwrap();
        w.append(&WalOp::Commit { epoch: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);
        let replay = read_wal(dir.path(""), 2).unwrap();
        assert_eq!(
            replay.ops,
            vec![
                insert("A", "p", "B"),
                WalOp::Commit { epoch: 1 },
                insert("E", "r", "F"),
                WalOp::Commit { epoch: 2 },
            ]
        );
    }

    #[test]
    fn marker_missing_from_one_shard_rolls_the_epoch_back() {
        // Simulate a crash mid-marker-fanout: epoch 2's marker reaches
        // shard 0 but not shard 1 → the whole set recovers to epoch 1.
        let dir = TestDir::new("shard_wal_partial");
        let p = Partitioner::new(2).unwrap();
        let mut w = ShardedWalWriter::create(dir.path(""), p).unwrap();
        w.append(&insert("A", "p", "B")).unwrap();
        w.append(&WalOp::Commit { epoch: 1 }).unwrap();
        w.append(&insert("C", "q", "D")).unwrap();
        w.sync().unwrap();
        drop(w);
        // Hand-append epoch 2's marker to shard 0 only.
        let shard0 = wal_path(&dir.path(""), 0);
        let mut log = ShardLog {
            file: BufWriter::new(OpenOptions::new().append(true).open(&shard0).unwrap()),
            path: shard0,
        };
        log.append_frame(99, &WalOp::Commit { epoch: 2 }).unwrap();
        log.sync().unwrap();
        drop(log);
        let replay = read_wal(dir.path(""), 2).unwrap();
        let epochs: Vec<u64> = replay
            .ops
            .iter()
            .filter_map(|op| match op {
                WalOp::Commit { epoch } | WalOp::Compact { epoch } => Some(*epoch),
                _ => None,
            })
            .collect();
        assert_eq!(epochs, vec![1], "epoch 2 must roll back everywhere");
    }

    #[test]
    fn torn_tail_per_shard_is_tolerated() {
        let dir = TestDir::new("shard_wal_torn");
        let p = Partitioner::new(2).unwrap();
        let mut w = ShardedWalWriter::create(dir.path(""), p).unwrap();
        w.append(&insert("A", "p", "B")).unwrap();
        w.append(&WalOp::Commit { epoch: 1 }).unwrap();
        w.sync().unwrap();
        drop(w);
        // Tear shard 0's log mid-frame.
        let path = wal_path(&dir.path(""), 0);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[42, 0, 0, 0, 7]);
        std::fs::write(&path, &bytes).unwrap();
        let replay = read_wal(dir.path(""), 2).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.ops.len(), 2);
    }

    #[test]
    fn missing_logs_read_as_empty_only_on_fresh_deployments() {
        // All missing (deployment being created): empty replay.
        let dir = TestDir::new("shard_wal_missing");
        let replay = read_wal(dir.path(""), 3).unwrap();
        assert!(replay.ops.is_empty());
        assert_eq!(replay.committed_len, vec![0, 0, 0]);
        assert_eq!(replay.next_seq, 0);

        // A sibling holding records makes a missing log corruption, not a
        // fresh deployment: silently reading it as empty would roll back
        // every epoch committed since the last checkpoint.
        let p = Partitioner::new(2).unwrap();
        let mut w = ShardedWalWriter::create(dir.path(""), p).unwrap();
        w.append(&insert("A", "p", "B")).unwrap();
        w.append(&WalOp::Commit { epoch: 1 }).unwrap();
        w.sync().unwrap();
        drop(w);
        std::fs::remove_file(wal_path(&dir.path(""), 1)).unwrap();
        let err = read_wal(dir.path(""), 2).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        assert!(err.to_string().contains("roll back"), "{err}");
    }

    #[test]
    fn hostile_manifest_meta_and_shard_files_fail_typed() {
        // Bad magic, an unsupported version, a flipped body byte and every
        // truncation of each file must surface as a typed snapshot error
        // naming the file — never a panic, never a mis-loaded graph.
        let dir = TestDir::new("shard_hostile");
        let root = dir.path("");
        save(&sample(), &Partitioner::new(2).unwrap(), 3, &root).unwrap();
        for path in [
            manifest_path(&root),
            meta_path(&root, 3),
            shard_snapshot_path(&root, 0, 3),
            shard_snapshot_path(&root, 1, 3),
        ] {
            let good = std::fs::read(&path).unwrap();
            let mut cases = Vec::new();
            let mut bad_magic = good.clone();
            bad_magic[0] ^= 0xff;
            cases.push((bad_magic, "bad magic"));
            let mut bad_version = good.clone();
            bad_version[8] = 99; // the u32 version follows the 8-byte magic
            cases.push((bad_version, "version 99"));
            let mut flipped = good.clone();
            flipped[20] ^= 0x40; // first body byte: magic + version + length
            cases.push((flipped, "checksum mismatch"));
            for cut in 0..good.len() {
                cases.push((good[..cut].to_vec(), "truncated"));
            }
            for (bytes, expected) in cases {
                std::fs::write(&path, &bytes).unwrap();
                let err = load(&root).unwrap_err();
                assert!(matches!(err, KgError::Snapshot { .. }), "{err:?}");
                let msg = err.to_string();
                assert!(msg.contains(expected), "{msg}");
                assert!(msg.contains(&*path.file_name().unwrap().to_string_lossy()));
            }
            std::fs::write(&path, &good).unwrap();
        }
        load(&root).expect("restored files load again");
    }

    #[test]
    fn manifest_with_an_assignment_tail_is_refused() {
        // Layouts once carried an optional bucket → shard table after the
        // shard count: `len u32` then `len` shard bytes. Routing is hash
        // only now, so such a manifest fails typed, naming the file,
        // instead of loading slices under routing they were not cut by.
        let dir = TestDir::new("shard_hostile_tail");
        let root = dir.path("");
        save(&sample(), &Partitioner::new(2).unwrap(), 1, &root).unwrap();
        let mut body = Vec::new();
        put_u64(&mut body, 1);
        put_u32(&mut body, 2);
        put_u32(&mut body, 512);
        body.extend((0..512u32).map(|b| (b % 2) as u8));
        write_blob_atomic(&manifest_path(&root), MANIFEST_MAGIC, &body).unwrap();
        let err = load(&root).unwrap_err();
        assert!(matches!(err, KgError::Snapshot { .. }), "{err:?}");
        let msg = err.to_string();
        assert!(msg.contains(MANIFEST_FILE), "{msg}");
        assert!(msg.contains("516 trailing bytes"), "{msg}");
    }

    #[test]
    fn meta_edge_count_must_be_backed_by_the_slices() {
        // A meta file with a valid checksum whose edge count claims
        // u32::MAX edges once sized a 64 GiB array before any shard slice
        // was read, aborting the process; it must fail typed instead.
        let dir = TestDir::new("shard_hostile_count");
        let root = dir.path("");
        save(&sample(), &Partitioner::new(1).unwrap(), 1, &root).unwrap();
        let meta = meta_path(&root, 1);
        let mut body = read_blob(&meta, META_MAGIC).unwrap();
        let count_at = body.len() - 4; // the edge count ends the body
        body[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        write_blob_atomic(&meta, META_MAGIC, &body).unwrap();
        let err = load(&root).unwrap_err();
        assert!(matches!(err, KgError::Snapshot { .. }), "{err:?}");
        assert!(err.to_string().contains("edge count"), "{err}");
    }
}
