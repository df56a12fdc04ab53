//! Live-update subsystem: an MVCC-style versioned graph store.
//!
//! The paper's engine assumes a frozen knowledge graph; real KGs receive a
//! constant stream of edge insertions and deletions. [`VersionedGraph`]
//! absorbs that stream without rebuilding the CSR per update:
//!
//! * the **base** is an immutable [`KnowledgeGraph`] shared via `Arc`;
//! * writes accumulate in a [`DeltaOverlay`] (added nodes/edges, tombstoned
//!   edges, extended type/predicate vocabularies);
//! * [`VersionedGraph::commit`] freezes the overlay and publishes a new
//!   epoch-tagged [`GraphSnapshot`] — readers pin a snapshot (two `Arc`
//!   bumps) and see one consistent epoch for their whole query, regardless
//!   of concurrent writes;
//! * [`VersionedGraph::compact`] merges base ∪ delta − tombstones into a
//!   fresh CSR and restarts with an empty overlay. Node, type and predicate
//!   ids are **preserved** across compaction (so offline-trained predicate
//!   spaces stay aligned); edge ids are reassigned densely.
//!
//! Writers are serialised by a mutex; readers never take it. `commit` is
//! `O(|overlay|)` (it clones the accumulated delta), `compact` is
//! `O(n + m)`; both are expected to run on a maintenance thread while query
//! threads keep answering from their pinned snapshots.

mod overlay;
mod snapshot;

pub use overlay::DeltaOverlay;
pub use snapshot::GraphSnapshot;

use crate::error::{KgError, Result};
use crate::graph::{EdgeRecord, GraphBuilder, KnowledgeGraph};
use crate::ids::{EdgeId, PredicateId};
use crate::io::shard::ShardedWalWriter;
use crate::io::wal::WalOp;
use crate::shard::Partitioner;
use crate::view::GraphView;
use rustc_hash::FxHashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Writer-side counters and overlay gauges (see [`VersionedGraph::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionedStats {
    /// Epoch of the currently published snapshot.
    pub epoch: u64,
    /// Successful edge insertions (including resurrections of tombstones).
    pub inserts: u64,
    /// Successful edge deletions.
    pub deletes: u64,
    /// Insertions dropped because the identical triple was already live.
    pub duplicate_inserts: u64,
    /// Commits published.
    pub commits: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Nodes currently in the (uncommitted) overlay.
    pub delta_nodes: usize,
    /// Edges currently in the overlay (tombstoned or not).
    pub delta_edges: usize,
    /// Tombstoned edges currently in the overlay.
    pub tombstones: usize,
    /// True when changes are staged but not yet committed.
    pub staged: bool,
    /// True when a write-ahead log is attached (durable mode).
    pub wal_attached: bool,
    /// False once a WAL append/sync has failed (the error is sticky; see
    /// [`VersionedGraph::wal_error`]).
    pub wal_healthy: bool,
}

/// What [`VersionedGraph::recover`] found and did (see that
/// method).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Insert/delete records replayed onto the base snapshot.
    pub ops_replayed: usize,
    /// Records skipped because their epoch marker was already part of the
    /// base snapshot (crash between the manifest flip and WAL truncation).
    pub skipped_ops: usize,
    /// Epoch markers (commits + compactions) replayed.
    pub epochs_replayed: u64,
    /// The epoch the store recovered to.
    pub recovered_epoch: u64,
    /// True when the WAL ended in a torn (incomplete or checksum-failing)
    /// record, as a crash mid-append leaves behind.
    pub torn_tail: bool,
    /// Clean records dropped because no epoch marker followed them — they
    /// were staged but never committed, so no reader ever observed them.
    pub discarded_ops: usize,
}

/// What [`VersionedGraph::insert_triple`] did with the staged triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new delta edge was created.
    Inserted(EdgeId),
    /// The triple existed but was tombstoned; the tombstone was removed.
    Resurrected(EdgeId),
    /// The identical triple is already live; nothing changed.
    Duplicate(EdgeId),
}

impl InsertOutcome {
    /// The edge the triple resolved to, whatever happened.
    pub fn edge(self) -> EdgeId {
        match self {
            InsertOutcome::Inserted(e)
            | InsertOutcome::Resurrected(e)
            | InsertOutcome::Duplicate(e) => e,
        }
    }

    /// True when the insert changed the staged state.
    pub fn changed(self) -> bool {
        !matches!(self, InsertOutcome::Duplicate(_))
    }
}

struct WriterState {
    base: Arc<KnowledgeGraph>,
    overlay: DeltaOverlay,
    /// Exact-duplicate guard over the *delta* edges (base duplicates are
    /// found by scanning the base adjacency row, which is O(degree)).
    edge_dedup: FxHashMap<EdgeRecord, EdgeId>,
    /// Changes staged since the last commit/compaction.
    dirty: bool,
    /// Optional per-shard write-ahead log: every state-changing op is
    /// appended, every epoch marker is appended to every shard log +
    /// fsynced. `None` = in-memory only.
    wal: Option<ShardedWalWriter>,
    /// First WAL failure, sticky (see [`VersionedGraph::wal_error`]).
    wal_error: Option<String>,
}

impl WriterState {
    /// Finds a (live or tombstoned) edge with this exact shape.
    fn find_edge(&self, record: EdgeRecord) -> Option<EdgeId> {
        if record.src.index() < self.overlay.base_nodes as usize {
            for r in self.base.out_edges(record.src) {
                if r.node == record.dst && r.predicate == record.predicate {
                    return Some(r.edge);
                }
            }
        }
        self.edge_dedup.get(&record).copied()
    }

    /// Appends `op` to the WAL if one is attached. Failures are sticky —
    /// recorded once, surfaced by [`VersionedGraph::wal_error`] and by the
    /// next checkpoint — so a full disk cannot poison the in-memory store.
    fn log_wal(&mut self, op: &WalOp) {
        if let Some(w) = self.wal.as_mut() {
            if let Err(e) = w.append(op) {
                let _ = self.wal_error.get_or_insert_with(|| e.to_string());
            }
        }
    }

    /// Flushes + fsyncs the WAL (called at every epoch marker).
    fn sync_wal(&mut self) {
        if let Some(w) = self.wal.as_mut() {
            if let Err(e) = w.sync() {
                let _ = self.wal_error.get_or_insert_with(|| e.to_string());
            }
        }
    }
}

/// A knowledge graph that accepts live updates while serving immutable
/// epoch snapshots (see module docs).
pub struct VersionedGraph {
    state: Mutex<WriterState>,
    published: RwLock<GraphSnapshot>,
    epoch: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    duplicate_inserts: AtomicU64,
    commits: AtomicU64,
    compactions: AtomicU64,
}

impl std::fmt::Debug for VersionedGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedGraph")
            .field("stats", &self.stats())
            .finish()
    }
}

impl VersionedGraph {
    /// Wraps a frozen graph as epoch 0 with an empty overlay.
    pub fn new(base: KnowledgeGraph) -> Self {
        Self::with_epoch(base, 0)
    }

    /// Wraps a frozen graph as the given epoch with an empty overlay — the
    /// recovery entry point for a base loaded from a checkpoint snapshot
    /// set (see [`crate::io::shard::load`], which returns the saved
    /// epoch).
    pub fn with_epoch(base: KnowledgeGraph, epoch: u64) -> Self {
        let base = Arc::new(base);
        let overlay = DeltaOverlay::empty(&base);
        let snapshot = GraphSnapshot::new(Arc::clone(&base), Arc::new(overlay.clone()), epoch);
        Self {
            state: Mutex::new(WriterState {
                base,
                overlay,
                edge_dedup: FxHashMap::default(),
                dirty: false,
                wal: None,
                wal_error: None,
            }),
            published: RwLock::new(snapshot),
            epoch: AtomicU64::new(epoch),
            inserts: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            duplicate_inserts: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// Epoch of the currently published snapshot. Lock-free — services poll
    /// this per query to detect staleness cheaply.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Pins the currently published snapshot (two `Arc` bumps).
    pub fn snapshot(&self) -> GraphSnapshot {
        self.published.read().unwrap().clone()
    }

    /// Stages an edge insertion `head --predicate--> tail`, creating the
    /// endpoint nodes (and interning new types/predicates) as needed.
    /// Matches [`GraphBuilder`] semantics: an existing node keeps its type,
    /// and an exact-duplicate live triple collapses onto the existing edge.
    /// Inserting a previously deleted triple resurrects it.
    ///
    /// Staged changes are invisible to snapshots until [`Self::commit`].
    pub fn insert_triple(
        &self,
        head: (&str, &str),
        predicate: &str,
        tail: (&str, &str),
    ) -> InsertOutcome {
        let mut state = self.state.lock().unwrap();
        let state = &mut *state;
        let src = state
            .overlay
            .resolve_or_add_node(&state.base, head.0, head.1);
        let dst = state
            .overlay
            .resolve_or_add_node(&state.base, tail.0, tail.1);
        let pred = state.overlay.intern_predicate(&state.base, predicate);
        let record = EdgeRecord {
            src,
            dst,
            predicate: pred,
        };
        // Build the label-owning op only when a WAL is attached: the
        // in-memory-only write path must not pay 5 allocations per insert.
        let log = |state: &mut WriterState| {
            if state.wal.is_none() {
                return;
            }
            state.log_wal(&WalOp::Insert {
                head: (head.0.to_string(), head.1.to_string()),
                predicate: predicate.to_string(),
                tail: (tail.0.to_string(), tail.1.to_string()),
            });
        };
        if let Some(existing) = state.find_edge(record) {
            return if state.overlay.tombstones.remove(&existing) {
                self.inserts.fetch_add(1, Ordering::Relaxed);
                state.dirty = true;
                log(state);
                InsertOutcome::Resurrected(existing)
            } else {
                // Duplicates change nothing, so they are not logged either:
                // replay reproduces the same no-op decision from the state.
                self.duplicate_inserts.fetch_add(1, Ordering::Relaxed);
                InsertOutcome::Duplicate(existing)
            };
        }
        let id = state.overlay.push_edge(record);
        state.edge_dedup.insert(record, id);
        state.dirty = true;
        log(state);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        InsertOutcome::Inserted(id)
    }

    /// Stages the deletion of the live edge `head --predicate--> tail`.
    /// Returns `false` when no such live edge exists (unknown names,
    /// unknown predicate, or already deleted).
    pub fn delete_triple(&self, head: &str, predicate: &str, tail: &str) -> bool {
        let mut state = self.state.lock().unwrap();
        let state = &mut *state;
        let (Some(src), Some(dst)) = (
            state.overlay.node_by_name(&state.base, head),
            state.overlay.node_by_name(&state.base, tail),
        ) else {
            return false;
        };
        let Some(pred) = state.overlay.predicate_id(&state.base, predicate) else {
            return false;
        };
        let record = EdgeRecord {
            src,
            dst,
            predicate: pred,
        };
        match state.find_edge(record) {
            Some(edge) if !state.overlay.is_tombstoned(edge) => {
                state.overlay.tombstones.insert(edge);
                state.dirty = true;
                if state.wal.is_some() {
                    state.log_wal(&WalOp::Delete {
                        head: head.to_string(),
                        predicate: predicate.to_string(),
                        tail: tail.to_string(),
                    });
                }
                self.deletes.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Stages the deletion of `edge` by id. Returns `false` for an unknown
    /// or already tombstoned id.
    pub fn delete_edge(&self, edge: EdgeId) -> bool {
        let mut state = self.state.lock().unwrap();
        let state = &mut *state;
        let known = edge.index() < state.overlay.base_edges as usize + state.overlay.edges.len();
        if !known || state.overlay.is_tombstoned(edge) {
            return false;
        }
        // The WAL is label-addressed (edge ids are epoch-scoped), so an
        // id-addressed deletion is logged by its resolved labels — resolved
        // only when a WAL is actually attached.
        let op = if state.wal.is_some() {
            let rec = match edge.index().checked_sub(state.overlay.base_edges as usize) {
                None => state.base.edge(edge),
                Some(i) => state.overlay.edges[i],
            };
            Some(WalOp::Delete {
                head: state.overlay.node_label(&state.base, rec.src).to_string(),
                predicate: state
                    .overlay
                    .predicate_label(&state.base, rec.predicate)
                    .to_string(),
                tail: state.overlay.node_label(&state.base, rec.dst).to_string(),
            })
        } else {
            None
        };
        state.overlay.tombstones.insert(edge);
        state.dirty = true;
        if let Some(op) = &op {
            state.log_wal(op);
        }
        self.deletes.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Publishes the staged overlay as a new epoch snapshot and returns it.
    /// A clean state republishes the current snapshot without an epoch bump,
    /// so idle periodic commits stay free.
    ///
    /// With a WAL attached, the epoch marker is appended and fsynced
    /// *before* the snapshot is published (write-ahead order): once a
    /// reader can observe epoch `e`, a crash recovers to at least `e`.
    pub fn commit(&self) -> GraphSnapshot {
        let mut state = self.state.lock().unwrap();
        if !state.dirty {
            return self.published.read().unwrap().clone();
        }
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        state.log_wal(&WalOp::Commit { epoch });
        state.sync_wal();
        let snapshot = GraphSnapshot::new(
            Arc::clone(&state.base),
            Arc::new(state.overlay.clone()),
            epoch,
        );
        *self.published.write().unwrap() = snapshot.clone();
        self.epoch.store(epoch, Ordering::Release);
        state.dirty = false;
        self.commits.fetch_add(1, Ordering::Relaxed);
        snapshot
    }

    /// Merges base ∪ delta − tombstones (including staged changes — compact
    /// implies commit) into a fresh CSR, publishes it as a new epoch with an
    /// empty overlay, and returns the snapshot.
    ///
    /// Node, type and predicate ids are preserved — every label is re-interned
    /// in snapshot id order before any node or edge is added, even labels
    /// whose last use was tombstoned — so predicate spaces and type masks
    /// trained against earlier epochs stay positionally aligned. Edge ids are
    /// reassigned densely in unified insertion order, which keeps per-node
    /// adjacency order (and therefore search tie-breaking) identical to the
    /// overlay view.
    ///
    /// Runs under the writer lock: concurrent writers stall for the rebuild,
    /// readers keep answering from their pinned snapshots. Call it from a
    /// maintenance thread.
    pub fn compact(&self) -> GraphSnapshot {
        let mut state = self.state.lock().unwrap();
        self.compact_locked(&mut state)
    }

    /// [`Self::compact`]'s body, callable while already holding the writer
    /// lock (checkpointing compacts, saves, and truncates the WAL as one
    /// atomic step).
    fn compact_locked(&self, state: &mut WriterState) -> GraphSnapshot {
        // No-op only when nothing is in the overlay AND nothing is staged.
        // An *empty-but-dirty* overlay is real: deleting a base edge,
        // committing, then re-inserting it leaves the overlay empty while
        // the published snapshot still carries the tombstone — early-
        // returning that snapshot here would hand a checkpoint a base CSR
        // that resurrects a committed, reader-visible deletion.
        if state.overlay.is_empty() && !state.dirty {
            return self.published.read().unwrap().clone();
        }
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        // Compaction is logged because it reassigns edge ids: replaying the
        // marker at the same point reproduces the exact id layout, keeping
        // recovered answers (whose paths carry edge ids) bit-identical.
        state.log_wal(&WalOp::Compact { epoch });
        state.sync_wal();
        let merged = GraphSnapshot::new(
            Arc::clone(&state.base),
            Arc::new(state.overlay.clone()),
            epoch,
        );

        let mut b = GraphBuilder::new();
        for (_, label) in GraphView::types(&merged) {
            b.intern_type(label);
        }
        for (_, label) in GraphView::predicates(&merged) {
            b.intern_predicate(label);
        }
        for node in GraphView::nodes(&merged) {
            let added = b.add_node(merged.node_name(node), merged.node_type_name(node));
            debug_assert_eq!(added, node, "compaction must preserve node ids");
        }
        for (_, rec) in GraphView::edges(&merged) {
            b.add_edge(rec.src, rec.dst, merged.predicate_name(rec.predicate));
        }
        let base = Arc::new(b.finish());

        state.overlay = DeltaOverlay::empty(&base);
        state.edge_dedup.clear();
        state.base = Arc::clone(&base);
        state.dirty = false;
        let snapshot = GraphSnapshot::new(base, Arc::new(state.overlay.clone()), epoch);
        *self.published.write().unwrap() = snapshot.clone();
        self.epoch.store(epoch, Ordering::Release);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        snapshot
    }

    /// Writer-side counters plus current overlay gauges.
    pub fn stats(&self) -> VersionedStats {
        let state = self.state.lock().unwrap();
        VersionedStats {
            epoch: self.epoch.load(Ordering::Acquire),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            duplicate_inserts: self.duplicate_inserts.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            delta_nodes: state.overlay.added_nodes(),
            delta_edges: state.overlay.added_edges(),
            tombstones: state.overlay.tombstone_count(),
            staged: state.dirty,
            wal_attached: state.wal.is_some(),
            wal_healthy: state.wal_error.is_none(),
        }
    }

    /// The first write-ahead-log failure, if any. The error is sticky: the
    /// in-memory store keeps serving after a WAL failure, but durability is
    /// lost from that point and checkpointing refuses until a fresh log is
    /// established.
    pub fn wal_error(&self) -> Option<String> {
        self.state.lock().unwrap().wal_error.clone()
    }

    /// Rebuilds the pre-crash store: starts from `base` (the checkpoint
    /// snapshot set recomposed by [`crate::io::shard::load`] at
    /// `base_epoch`) and replays the shard WALs under `dir`, merged back
    /// into arrival order, up to the coordinated epoch (see
    /// [`crate::io::shard`]), tolerating torn final records. Ops beyond it
    /// were never committed — no reader could have observed them — and are
    /// discarded, truncating the logs so the returned store (which stays
    /// attached to them and keeps routing new records by source-label
    /// hash) appends cleanly.
    ///
    /// Markers at or below `base_epoch` are skipped: they re-describe
    /// history the snapshot set already contains, which happens when a
    /// crash lands between a checkpoint's manifest flip and its WAL
    /// truncation.
    pub fn recover(
        base: KnowledgeGraph,
        base_epoch: u64,
        dir: impl AsRef<Path>,
        partitioner: Partitioner,
    ) -> Result<(Self, RecoveryReport)> {
        let dir = dir.as_ref();
        let store = Self::with_epoch(base, base_epoch);
        let replay = crate::io::shard::read_wal(dir, partitioner.shards())?;
        // Skip records up to the last marker ≤ base_epoch (already in the
        // snapshot set — a crash between the manifest flip and the WAL
        // truncation leaves the full pre-checkpoint history behind).
        let mut start = 0usize;
        for (i, op) in replay.ops.iter().enumerate() {
            match op {
                WalOp::Commit { epoch } | WalOp::Compact { epoch } if *epoch <= base_epoch => {
                    start = i + 1;
                }
                _ => {}
            }
        }
        let mut report = RecoveryReport {
            torn_tail: replay.torn,
            discarded_ops: replay.discarded_ops,
            skipped_ops: start,
            ..RecoveryReport::default()
        };
        for op in &replay.ops[start..] {
            match op {
                WalOp::Insert {
                    head,
                    predicate,
                    tail,
                } => {
                    store.insert_triple((&head.0, &head.1), predicate, (&tail.0, &tail.1));
                    report.ops_replayed += 1;
                }
                WalOp::Delete {
                    head,
                    predicate,
                    tail,
                } => {
                    store.delete_triple(head, predicate, tail);
                    report.ops_replayed += 1;
                }
                WalOp::Commit { epoch } => {
                    let snapshot = store.commit();
                    if snapshot.epoch() != *epoch {
                        return Err(KgError::wal(
                            dir,
                            format!(
                                "commit marker for epoch {epoch} replayed to epoch {} — \
                                 logs and snapshot set disagree",
                                snapshot.epoch()
                            ),
                        ));
                    }
                    report.epochs_replayed += 1;
                }
                WalOp::Compact { epoch } => {
                    let snapshot = store.compact();
                    if snapshot.epoch() != *epoch {
                        return Err(KgError::wal(
                            dir,
                            format!(
                                "compact marker for epoch {epoch} replayed to epoch {} — \
                                 logs and snapshot set disagree",
                                snapshot.epoch()
                            ),
                        ));
                    }
                    report.epochs_replayed += 1;
                }
            }
        }
        report.recovered_epoch = store.epoch();
        let writer = ShardedWalWriter::open_append(
            dir,
            partitioner,
            &replay.committed_len,
            replay.next_seq,
        )?;
        store.state.lock().unwrap().wal = Some(writer);
        Ok((store, report))
    }

    /// Checkpoints the store into the deployment its log is attached to:
    /// compacts the overlay (implying a commit of staged changes), writes
    /// the per-shard snapshot set + meta file, flips the epoch manifest
    /// (the single coordinator — all shards become visible at one epoch or
    /// not at all), and truncates every shard WAL — the snapshot set now
    /// owns all history, so cold start is one snapshot-set load plus empty
    /// logs. Runs under the writer lock as one atomic step; readers keep
    /// answering from pinned snapshots.
    ///
    /// Crash safety at every point: before the manifest flip the old
    /// snapshot set + full logs recover; after it the new set recovers and
    /// [`Self::recover`] skips the stale log prefix; after
    /// truncation the logs are simply empty.
    ///
    /// Fails with [`KgError::Shard`] on a store with no attached log, and
    /// (without truncating) with [`KgError::Wal`] if a previous WAL write
    /// already failed — the logs can be missing committed ops, and the
    /// snapshot set alone must not be trusted to include them either, so
    /// the error is surfaced instead.
    pub fn checkpoint(&self) -> Result<GraphSnapshot> {
        let mut state = self.state.lock().unwrap();
        if let Some(detail) = &state.wal_error {
            let path = state
                .wal
                .as_ref()
                .map(|w| w.dir().to_path_buf())
                .unwrap_or_default();
            return Err(KgError::wal(
                path,
                format!("unhealthy, refusing checkpoint: {detail}"),
            ));
        }
        let Some(w) = state.wal.as_ref() else {
            return Err(KgError::Shard(
                "checkpoint needs an attached log (recover the store from its deployment)".into(),
            ));
        };
        let (dir, partitioner) = (w.dir().to_path_buf(), w.partitioner());
        let snapshot = self.compact_locked(&mut state);
        crate::io::shard::save(snapshot.base(), &partitioner, snapshot.epoch(), &dir)?;
        // Drop (flushing) the old writer before `create` truncates its files.
        drop(state.wal.take());
        match ShardedWalWriter::create(dir, partitioner) {
            Ok(fresh) => state.wal = Some(fresh),
            Err(e) => {
                // The old writer is gone and no fresh log exists: the store
                // is no longer durable. Record that stickily so
                // stats()/wal_error() report it and the next checkpoint
                // refuses, instead of silently dropping to in-memory mode
                // with wal_healthy still true.
                let _ = state
                    .wal_error
                    .get_or_insert_with(|| format!("checkpoint could not recreate logs: {e}"));
                return Err(e);
            }
        }
        Ok(snapshot)
    }

    /// Resolves a predicate label against the *staged* vocabulary (base +
    /// overlay, including uncommitted interns).
    pub fn staged_predicate_id(&self, label: &str) -> Option<PredicateId> {
        let state = self.state.lock().unwrap();
        state.overlay.predicate_id(&state.base, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::stats::GraphStats;
    use proptest::prelude::*;

    fn base_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let audi = b.add_node("Audi_TT", "Automobile");
        let kia = b.add_node("KIA_K5", "Automobile");
        let de = b.add_node("Germany", "Country");
        let kr = b.add_node("Korea", "Country");
        b.add_edge(audi, de, "assembly");
        b.add_edge(kia, kr, "assembly");
        b.add_edge(audi, kr, "export");
        b.finish()
    }

    /// The live triples of a view as sortable label tuples.
    fn triples<G: GraphView>(g: &G) -> Vec<(String, String, String)> {
        let mut out: Vec<_> = g
            .edges()
            .map(|(_, rec)| {
                (
                    g.node_name(rec.src).to_string(),
                    g.predicate_name(rec.predicate).to_string(),
                    g.node_name(rec.dst).to_string(),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn snapshots_are_isolated_from_staged_writes() {
        let v = VersionedGraph::new(base_graph());
        let before = v.snapshot();
        assert_eq!(before.epoch(), 0);
        assert!(before.is_compacted());

        v.insert_triple(
            ("BMW_320", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        // Staged but uncommitted: still invisible.
        assert_eq!(v.snapshot().edge_count(), 3);

        let after = v.commit();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.edge_count(), 4);
        assert_eq!(after.node_count(), 5);
        // The pinned pre-commit snapshot is untouched.
        assert_eq!(before.edge_count(), 3);
        assert_eq!(before.node_count(), 4);
        assert!(before.node_by_name("BMW_320").is_none());
        assert!(after.node_by_name("BMW_320").is_some());
    }

    #[test]
    fn tombstones_hide_base_edges_everywhere() {
        let v = VersionedGraph::new(base_graph());
        assert!(v.delete_triple("Audi_TT", "assembly", "Germany"));
        let s = v.commit();
        assert_eq!(s.edge_count(), 2);
        let audi = s.node_by_name("Audi_TT").unwrap();
        let de = s.node_by_name("Germany").unwrap();
        assert!(s.neighbors(audi).all(|nb| nb.node != de));
        assert!(s.neighbors(de).next().is_none());
        assert_eq!(s.degree(audi), 1);
        assert!(!triples(&s).contains(&("Audi_TT".into(), "assembly".into(), "Germany".into())));
        // Deleting it again fails; re-inserting resurrects it.
        assert!(!v.delete_triple("Audi_TT", "assembly", "Germany"));
        v.insert_triple(
            ("Audi_TT", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        let s2 = v.commit();
        assert_eq!(s2.edge_count(), 3);
        assert_eq!(
            triples(&s2),
            triples(&GraphSnapshot::new(
                Arc::new(base_graph()),
                Arc::new(DeltaOverlay::empty(&base_graph())),
                0,
            ))
        );
    }

    #[test]
    fn duplicate_inserts_collapse_and_are_counted() {
        let v = VersionedGraph::new(base_graph());
        let first = v.insert_triple(
            ("Audi_TT", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        assert_eq!(
            first,
            InsertOutcome::Duplicate(EdgeId::new(0)),
            "live base edge is reused"
        );
        assert!(!first.changed());
        let e1 = v.insert_triple(("X", "T"), "p", ("Y", "T"));
        let e2 = v.insert_triple(("X", "T"), "p", ("Y", "T"));
        assert!(matches!(e1, InsertOutcome::Inserted(_)));
        assert_eq!(e1.edge(), e2.edge(), "live delta edge is reused");
        let stats = v.stats();
        assert_eq!(stats.duplicate_inserts, 2);
        assert_eq!(stats.inserts, 1);
        assert_eq!(v.commit().edge_count(), 4);
    }

    #[test]
    fn new_vocabulary_extends_base_ids() {
        let v = VersionedGraph::new(base_graph());
        let base_preds = v.snapshot().predicate_count();
        let base_types = v.snapshot().type_count();
        v.insert_triple(("Peter", "Person"), "designer", ("KIA_K5", "Automobile"));
        let s = v.commit();
        assert_eq!(s.predicate_count(), base_preds + 1);
        assert_eq!(s.type_count(), base_types + 1);
        let designer = s.predicate_id("designer").unwrap();
        assert_eq!(designer.index(), base_preds);
        assert_eq!(s.predicate_name(designer), "designer");
        let person = s.type_id("Person").unwrap();
        assert_eq!(s.type_name(person), "Person");
        let peter = s.node_by_name("Peter").unwrap();
        assert_eq!(s.node_type(peter), person);
        assert_eq!(s.nodes_with_type(person).as_ref(), &[peter]);
        // Mixed base+delta membership concatenates in id order.
        v.insert_triple(
            ("Lamando", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        let s2 = v.commit();
        let auto = s2.type_id("Automobile").unwrap();
        let autos = s2.nodes_with_type(auto);
        assert_eq!(autos.len(), 3);
        assert_eq!(s2.node_name(autos[2]), "Lamando");
    }

    #[test]
    fn compaction_preserves_ids_and_triples() {
        let v = VersionedGraph::new(base_graph());
        v.insert_triple(("Peter", "Person"), "designer", ("KIA_K5", "Automobile"));
        v.delete_triple("Audi_TT", "export", "Korea");
        v.insert_triple(
            ("BMW_320", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        let overlayed = v.commit();
        assert!(!overlayed.is_compacted());
        let compacted = v.compact();
        assert!(compacted.is_compacted());
        assert_eq!(compacted.epoch(), overlayed.epoch() + 1);
        assert_eq!(triples(&compacted), triples(&overlayed));
        // Node / type / predicate ids preserved.
        for node in GraphView::nodes(&overlayed) {
            assert_eq!(compacted.node_name(node), overlayed.node_name(node));
            assert_eq!(compacted.node_type(node), overlayed.node_type(node));
        }
        for (id, label) in GraphView::predicates(&overlayed) {
            assert_eq!(compacted.predicate_id(label), Some(id));
        }
        for (id, label) in GraphView::types(&overlayed) {
            assert_eq!(compacted.type_id(label), Some(id));
        }
        // Edge ids are dense again.
        assert_eq!(compacted.edge_count(), compacted.base().edge_count());
        // Idempotent: a second compact with a clean overlay is a no-op.
        let again = v.compact();
        assert_eq!(again.epoch(), compacted.epoch());
    }

    /// The load-bearing ordering guarantee: per-node adjacency on an overlay
    /// snapshot iterates in exactly the order the compacted CSR yields.
    #[test]
    fn overlay_adjacency_order_matches_compacted() {
        let v = VersionedGraph::new(base_graph());
        v.insert_triple(("Audi_TT", "Automobile"), "product", ("Germany", "Country"));
        v.insert_triple(
            ("Lamando", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.delete_triple("KIA_K5", "assembly", "Korea");
        v.insert_triple(("Germany", "Country"), "partner", ("Korea", "Country"));
        let overlayed = v.commit();
        let compacted = v.compact();
        for node in GraphView::nodes(&overlayed) {
            assert_eq!(
                adjacency_order(&overlayed, node),
                adjacency_order(&compacted, node),
                "adjacency order diverged at node {node:?}"
            );
        }
    }

    /// `node`'s adjacency as `(neighbour name, predicate name, outgoing)`
    /// in iteration order — comparable across stores whose edge ids differ.
    fn adjacency_order<G: GraphView>(g: &G, node: NodeId) -> Vec<(String, String, bool)> {
        g.neighbors(node)
            .map(|nb| {
                (
                    g.node_name(nb.node).to_string(),
                    g.predicate_name(nb.predicate).to_string(),
                    nb.outgoing,
                )
            })
            .collect()
    }

    #[test]
    fn graph_stats_work_on_snapshots() {
        let v = VersionedGraph::new(base_graph());
        v.insert_triple(
            ("BMW_320", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.delete_triple("Audi_TT", "export", "Korea");
        let s = v.commit();
        let stats = GraphStats::of(&s);
        assert_eq!(stats.entities, 5);
        assert_eq!(stats.relations, 3);
        let compacted_stats = GraphStats::of(&v.compact());
        assert_eq!(stats.entities, compacted_stats.entities);
        assert_eq!(stats.relations, compacted_stats.relations);
        assert_eq!(stats.max_degree, compacted_stats.max_degree);
        assert!((stats.avg_degree - compacted_stats.avg_degree).abs() < 1e-12);
    }

    #[test]
    fn delete_by_id_and_unknown_deletes() {
        let v = VersionedGraph::new(base_graph());
        assert!(v.delete_edge(EdgeId::new(0)));
        assert!(!v.delete_edge(EdgeId::new(0)), "already tombstoned");
        assert!(!v.delete_edge(EdgeId::new(99)), "unknown id");
        assert!(!v.delete_triple("Nobody", "assembly", "Germany"));
        assert!(!v.delete_triple("Audi_TT", "zorblify", "Germany"));
        assert_eq!(v.commit().edge_count(), 2);
    }

    #[test]
    fn clean_commit_does_not_bump_epoch() {
        let v = VersionedGraph::new(base_graph());
        assert_eq!(v.commit().epoch(), 0);
        v.insert_triple(("X", "T"), "p", ("Y", "T"));
        assert_eq!(v.commit().epoch(), 1);
        assert_eq!(v.commit().epoch(), 1, "nothing staged");
        assert_eq!(v.epoch(), 1);
    }

    /// A reference model: the net result of an op sequence, applied to a
    /// plain `GraphBuilder` from scratch.
    fn reference_build(
        base_triples: &[(&str, &str, &str)],
        ops: &[(bool, usize, usize, usize)],
        nodes: &[&str],
        preds: &[&str],
    ) -> KnowledgeGraph {
        // Replay the ops on a simple live-set model.
        let mut live: Vec<(String, String, String)> = base_triples
            .iter()
            .map(|&(h, p, t)| (h.into(), p.into(), t.into()))
            .collect();
        let mut known_nodes: Vec<String> = Vec::new();
        for &(h, _, t) in base_triples {
            for n in [h, t] {
                if !known_nodes.iter().any(|k| k == n) {
                    known_nodes.push(n.into());
                }
            }
        }
        for &(insert, h, p, t) in ops {
            let triple = (
                nodes[h % nodes.len()].to_string(),
                preds[p % preds.len()].to_string(),
                nodes[t % nodes.len()].to_string(),
            );
            if insert {
                for n in [&triple.0, &triple.2] {
                    if !known_nodes.iter().any(|k| k == n) {
                        known_nodes.push(n.clone());
                    }
                }
                if !live.contains(&triple) {
                    live.push(triple);
                }
            } else if let Some(pos) = live.iter().position(|x| *x == triple) {
                live.remove(pos);
            }
        }
        let mut b = GraphBuilder::new();
        for n in &known_nodes {
            b.add_node(n, "T");
        }
        for (h, p, t) in &live {
            let src = b.node_by_name(h).unwrap();
            let dst = b.node_by_name(t).unwrap();
            b.add_edge(src, dst, p);
        }
        b.finish()
    }

    use crate::io::test_dir::TestDir;

    /// Full adjacency fingerprint — node names, edge ids, predicates and
    /// directions in iteration order. Two stores agreeing here answer any
    /// query bit-identically (search order and tie-breaks included).
    fn fingerprint<G: GraphView>(g: &G) -> Vec<Vec<(String, u32, String, bool)>> {
        GraphView::nodes(g)
            .map(|n| {
                g.neighbors(n)
                    .map(|nb| {
                        (
                            g.node_name(nb.node).to_string(),
                            nb.edge.0,
                            g.predicate_name(nb.predicate).to_string(),
                            nb.outgoing,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Lays `base_graph()` out at epoch 0 in the 1-shard deployment layout
    /// under `dir` and returns the store recovered from it, logs attached.
    fn durable(dir: &Path) -> VersionedGraph {
        crate::io::shard::save(&base_graph(), &Partitioner::new(1).unwrap(), 0, dir).unwrap();
        reopen(dir).unwrap().0
    }

    /// Cold-starts the store under `dir`: loads the snapshot set the
    /// manifest references and replays the shard logs on top.
    fn reopen(dir: &Path) -> Result<(VersionedGraph, RecoveryReport)> {
        let (base, partitioner, epoch) = crate::io::shard::load(dir)?;
        VersionedGraph::recover(base, epoch, dir, partitioner)
    }

    #[test]
    fn wal_recovery_replays_committed_epochs() {
        let dir = TestDir::new("versioned_wal");
        let root = dir.path("dep");
        let v = durable(&root);
        v.insert_triple(
            ("BMW_320", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.commit();
        v.delete_triple("KIA_K5", "assembly", "Korea");
        v.insert_triple(("Peter", "Person"), "designer", ("KIA_K5", "Automobile"));
        v.commit();
        // Staged but never committed: must not survive the crash.
        v.insert_triple(("Ghost", "Automobile"), "assembly", ("Germany", "Country"));
        let stats = v.stats();
        assert!(stats.wal_attached && stats.wal_healthy);
        let live = v.snapshot();
        drop(v); // "crash"

        let (back, report) = reopen(&root).unwrap();
        assert_eq!(report.recovered_epoch, 2);
        assert_eq!(report.epochs_replayed, 2);
        assert_eq!(report.ops_replayed, 3);
        assert_eq!(report.discarded_ops, 1, "uncommitted Ghost dropped");
        assert!(!report.torn_tail);
        let recovered = back.snapshot();
        assert_eq!(recovered.epoch(), live.epoch());
        assert_eq!(triples(&recovered), triples(&live));
        assert_eq!(fingerprint(&recovered), fingerprint(&live));
        assert!(recovered.node_by_name("Ghost").is_none());

        // The recovered store keeps appending to the same (truncated) log.
        back.insert_triple(
            ("Lamando", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        back.commit();
        drop(back);
        let (again, report) = reopen(&root).unwrap();
        assert_eq!(report.recovered_epoch, 3);
        assert!(again.snapshot().node_by_name("Lamando").is_some());
    }

    #[test]
    fn wal_recovery_tolerates_torn_tail() {
        let dir = TestDir::new("versioned_torn");
        let root = dir.path("dep");
        let v = durable(&root);
        v.insert_triple(
            ("BMW_320", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.commit();
        v.insert_triple(
            ("Lamando", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.commit();
        drop(v);
        let wal = crate::io::shard::wal_path(&root, 0);
        let bytes = std::fs::read(&wal).unwrap();
        // Tear the final commit marker mid-frame.
        std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
        let (back, report) = reopen(&root).unwrap();
        assert!(report.torn_tail);
        assert_eq!(report.recovered_epoch, 1, "only the first commit survives");
        assert!(back.snapshot().node_by_name("BMW_320").is_some());
        assert!(back.snapshot().node_by_name("Lamando").is_none());
    }

    #[test]
    fn wal_replays_compactions_so_edge_ids_match() {
        let dir = TestDir::new("versioned_compact_wal");
        let root = dir.path("dep");
        let v = durable(&root);
        v.insert_triple(
            ("BMW_320", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.delete_triple("Audi_TT", "export", "Korea");
        v.commit();
        v.compact(); // reassigns edge ids
        v.insert_triple(("Peter", "Person"), "designer", ("KIA_K5", "Automobile"));
        v.commit();
        let live = v.snapshot();
        drop(v);
        let (back, report) = reopen(&root).unwrap();
        assert_eq!(report.epochs_replayed, 3);
        let recovered = back.snapshot();
        assert_eq!(recovered.epoch(), live.epoch());
        assert_eq!(
            fingerprint(&recovered),
            fingerprint(&live),
            "compaction's edge-id reassignment must replay identically"
        );
    }

    #[test]
    fn checkpoint_truncates_wal_and_cold_starts() {
        let dir = TestDir::new("versioned_checkpoint");
        let root = dir.path("dep");
        let v = durable(&root);
        v.insert_triple(
            ("BMW_320", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.commit();
        let checkpointed = v.checkpoint().unwrap();
        assert!(checkpointed.is_compacted());
        let wal_after = crate::io::shard::read_wal(&root, 1).unwrap();
        assert!(wal_after.ops.is_empty(), "checkpoint truncates the log");
        // Post-checkpoint writes land in the fresh log.
        v.insert_triple(
            ("Lamando", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.commit();
        let live = v.snapshot();
        drop(v);

        let manifest = crate::io::shard::read_manifest(&root).unwrap();
        assert_eq!(manifest.epoch, checkpointed.epoch());
        let (back, report) = reopen(&root).unwrap();
        assert_eq!(report.epochs_replayed, 1);
        assert_eq!(back.epoch(), live.epoch());
        assert_eq!(fingerprint(&back.snapshot()), fingerprint(&live));
    }

    #[test]
    fn checkpoint_after_committed_delete_then_resurrect_keeps_both() {
        // Delete a base edge, commit (reader-visible), re-insert it: the
        // overlay is now *empty but dirty*. A checkpoint here once wrote
        // the stale base CSR — resurrecting the committed deletion on
        // disk while dropping the staged re-insert from the log.
        let dir = TestDir::new("versioned_empty_dirty");
        let root = dir.path("dep");
        let v = durable(&root);
        assert!(v.delete_triple("Audi_TT", "assembly", "Germany"));
        assert_eq!(v.commit().epoch(), 1);
        v.insert_triple(
            ("Audi_TT", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        assert!(v.stats().staged);
        let checkpointed = v.checkpoint().unwrap();
        assert_eq!(checkpointed.epoch(), 2, "staged resurrect must commit");
        assert_eq!(checkpointed.edge_count(), 3);
        assert_eq!(
            triples(&checkpointed),
            triples(&v.snapshot()),
            "checkpoint snapshot == live snapshot"
        );
        let (base, _, epoch) = crate::io::shard::load(&root).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(base.edge_count(), 3, "resurrected edge is on disk");
        let (back, _) = reopen(&root).unwrap();
        assert_eq!(fingerprint(&back.snapshot()), fingerprint(&v.snapshot()));
    }

    #[test]
    fn recovery_tolerates_wal_caught_mid_create() {
        // A crash inside ShardedWalWriter::create's truncate-then-write
        // window leaves a log shorter than the magic; recovery must treat
        // it as empty and recreate it, not zero-pad or hard-fail.
        let dir = TestDir::new("versioned_short_wal");
        let root = dir.path("dep");
        drop(durable(&root));
        let wal = crate::io::shard::wal_path(&root, 0);
        for len in [0usize, 3, 7] {
            std::fs::write(&wal, &crate::io::shard::WAL_MAGIC[..len]).unwrap();
            let (store, report) = reopen(&root).unwrap();
            assert!(report.torn_tail, "len {len}");
            assert_eq!(report.recovered_epoch, 0);
            store.insert_triple(("X", "T"), "p", ("Y", "T"));
            store.commit();
            drop(store);
            let replay = crate::io::shard::read_wal(&root, 1).unwrap();
            assert!(!replay.torn, "len {len}: recreated log is clean");
            assert_eq!(replay.ops.len(), 2);
        }
        // Genuinely foreign short content still fails loudly.
        std::fs::write(&wal, b"zz").unwrap();
        assert!(reopen(&root).is_err());
    }

    #[test]
    fn recovery_skips_wal_prefix_already_in_snapshot() {
        // Simulate a crash *between* a checkpoint's manifest flip and its
        // WAL truncation: the snapshot set already contains epochs the log
        // still describes.
        let dir = TestDir::new("versioned_stale_prefix");
        let root = dir.path("dep");
        let v = durable(&root);
        v.insert_triple(
            ("BMW_320", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.commit();
        let compacted = v.compact();
        // Snapshot set saved and the manifest flipped, but the WAL still
        // holds the full history.
        crate::io::shard::save(
            compacted.base(),
            &Partitioner::new(1).unwrap(),
            compacted.epoch(),
            &root,
        )
        .unwrap();
        let live = v.snapshot();
        drop(v);

        let (back, report) = reopen(&root).unwrap();
        assert!(report.skipped_ops > 0, "stale prefix skipped: {report:?}");
        assert_eq!(report.ops_replayed, 0);
        assert_eq!(back.epoch(), live.epoch());
        assert_eq!(fingerprint(&back.snapshot()), fingerprint(&live));
    }

    #[test]
    fn recovery_rejects_wal_with_an_epoch_gap() {
        // A WAL whose first marker skips ahead of the snapshot's epoch
        // means committed history is missing (wrong snapshot for this log,
        // or a log truncated by hand) — recovery must fail loudly rather
        // than silently renumber epochs.
        let dir = TestDir::new("versioned_mismatch");
        let root = dir.path("dep");
        let p = Partitioner::new(1).unwrap();
        let mut w = ShardedWalWriter::create(&root, p.clone()).unwrap();
        w.append(&WalOp::Insert {
            head: ("X".into(), "T".into()),
            predicate: "p".into(),
            tail: ("Y".into(), "T".into()),
        })
        .unwrap();
        w.append(&WalOp::Commit { epoch: 5 }).unwrap();
        w.sync().unwrap();
        drop(w);
        let err = VersionedGraph::recover(base_graph(), 0, &root, p).unwrap_err();
        assert!(
            matches!(err, KgError::Wal { .. }),
            "epoch gap must fail loudly: {err:?}"
        );
        assert!(err.to_string().contains("disagree"), "{err}");
    }

    /// The per-shard durable cycle: sharded snapshot set + sharded WALs
    /// recover to the exact pre-crash store — same epochs, same node ids,
    /// same adjacency — across commit, compaction, checkpoint, and a crash
    /// with an uncommitted tail.
    #[test]
    fn sharded_checkpoint_and_recovery_roundtrip() {
        let dir = TestDir::new("versioned_sharded");
        let root = dir.path("dep");
        let p = Partitioner::new(4).unwrap();

        // Lay out epoch 0 and attach sharded logs.
        crate::io::shard::save(&base_graph(), &p, 0, &root).unwrap();
        let (loaded, p2, epoch) = crate::io::shard::load(&root).unwrap();
        assert_eq!((epoch, &p2), (0, &p));
        let (v, report) = VersionedGraph::recover(loaded, 0, &root, p.clone()).unwrap();
        assert_eq!(report.recovered_epoch, 0);

        // Mutate across several epochs, including a compaction (edge-id
        // reassignment) and a checkpoint (manifest flip + log truncation).
        v.insert_triple(
            ("BMW_320", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.delete_triple("Audi_TT", "export", "Korea");
        v.commit();
        v.insert_triple(("Peter", "Person"), "designer", ("KIA_K5", "Automobile"));
        v.compact();
        let checkpointed = v.checkpoint().unwrap();
        assert_eq!(checkpointed.epoch(), 2);
        assert_eq!(
            crate::io::shard::read_manifest(&root).unwrap().epoch,
            2,
            "manifest is the coordinator"
        );
        v.insert_triple(
            ("Lamando", "Automobile"),
            "assembly",
            ("Germany", "Country"),
        );
        v.commit();
        v.insert_triple(("Ghost", "Automobile"), "assembly", ("Germany", "Country"));
        let reference = v.snapshot();
        drop(v); // crash: Ghost staged but never committed

        let (loaded, p3, epoch) = crate::io::shard::load(&root).unwrap();
        assert_eq!((epoch, &p3), (2, &p));
        let (recovered, report) = VersionedGraph::recover(loaded, epoch, &root, p.clone()).unwrap();
        assert_eq!(report.recovered_epoch, 3);
        assert_eq!(report.epochs_replayed, 1);
        assert_eq!(report.discarded_ops, 1, "Ghost never committed");
        let after = recovered.snapshot();
        assert_eq!(after.epoch(), reference.epoch());
        assert_eq!(after.node_count(), reference.node_count());
        assert_eq!(after.edge_count(), reference.edge_count());
        assert!(after.node_by_name("Ghost").is_none());
        for node in GraphView::nodes(&reference) {
            assert_eq!(
                GraphView::node_name(&reference, node),
                GraphView::node_name(&after, node),
                "node ids must be bit-identical"
            );
            assert_eq!(
                GraphView::neighbors(&reference, node).collect::<Vec<_>>(),
                GraphView::neighbors(&after, node).collect::<Vec<_>>(),
                "adjacency (edge ids included) must be bit-identical at {node}"
            );
        }

        // The recovered store checkpoints into the deployment its logs
        // live in; a store with no attached log has nowhere to write.
        assert_eq!(recovered.checkpoint().unwrap().epoch(), 4);
        assert_eq!(crate::io::shard::read_manifest(&root).unwrap().epoch, 4);
        let err = VersionedGraph::new(base_graph()).checkpoint().unwrap_err();
        assert!(matches!(err, KgError::Shard(_)), "{err:?}");
        assert!(err.to_string().contains("attached log"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Any interleaving of inserts and deletes, committed and compacted,
        /// is graph-equivalent (same nodes, same live triples) to a
        /// from-scratch build of the net result — and the uncompacted
        /// overlay already agrees with the compacted CSR.
        #[test]
        fn prop_overlay_compact_rebuild_agree(
            ops in proptest::collection::vec(
                (proptest::bool::ANY, 0usize..6, 0usize..3, 0usize..6),
                0..60,
            ),
        ) {
            let nodes = ["N0", "N1", "N2", "N3", "N4", "N5"];
            let preds = ["p0", "p1", "p2"];
            let base_triples = [("N0", "p0", "N1"), ("N1", "p1", "N2"), ("N0", "p2", "N2")];

            let mut b = GraphBuilder::new();
            for &(h, p, t) in &base_triples {
                b.add_triple((h, "T"), p, (t, "T"));
            }
            let v = VersionedGraph::new(b.finish());
            for &(insert, h, p, t) in &ops {
                let (hn, pn, tn) = (
                    nodes[h % nodes.len()],
                    preds[p % preds.len()],
                    nodes[t % nodes.len()],
                );
                if insert {
                    v.insert_triple((hn, "T"), pn, (tn, "T"));
                } else {
                    v.delete_triple(hn, pn, tn);
                }
            }
            let overlayed = v.commit();
            let compacted = v.compact();
            let reference = reference_build(&base_triples, &ops, &nodes, &preds);

            prop_assert_eq!(triples(&overlayed), triples(&compacted));
            prop_assert_eq!(triples(&compacted), triples(&reference));
            prop_assert_eq!(overlayed.node_count(), reference.node_count());
            prop_assert_eq!(overlayed.edge_count(), reference.edge_count());
            // Degrees agree node-by-node (matched through names).
            for node in GraphView::nodes(&overlayed) {
                let name = overlayed.node_name(node);
                let r = reference.node_by_name(name).unwrap();
                prop_assert_eq!(overlayed.degree(node), reference.degree(r));
            }
            // Adjacency order agrees too: the overlay's four runs (base out,
            // delta out, base in, delta in, tombstones skipped) read in the
            // order the compacted CSR rebuilds — the order A*'s tie-breaks
            // see. Compaction preserves node ids, so nodes pair up by id.
            for node in GraphView::nodes(&overlayed) {
                prop_assert_eq!(
                    adjacency_order(&overlayed, node),
                    adjacency_order(&compacted, node),
                    "adjacency order diverged at node {:?}", node
                );
            }
        }
    }
}
