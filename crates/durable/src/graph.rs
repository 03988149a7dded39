//! [`DurableGraph`]: a [`kg::Graph`] whose mutations survive crashes.
//!
//! ## Life of a write
//!
//! 1. The batch is framed and appended to the active WAL segment
//!    (WAL-ahead: the log always leads the in-memory graph).
//! 2. The ops are applied to the in-memory graph — even when the fsync
//!    below fails, so the memory image always covers every whole record
//!    in the log and a later checkpoint can never purge an applied-but-
//!    unsnapshotted batch.
//! 3. When the [`GroupCommit`] window closes, the segment is fsynced and
//!    every batch it covers becomes *acknowledged*. Only then does
//!    [`DurableGraph::append`] return `Ok(true)`.
//!
//! ## Recovery
//!
//! [`DurableGraph::open`] loads the newest checkpoint that decodes (see
//! [`crate::checkpoint`]), replays every WAL segment of the same or
//! newer generation in order, truncates the active segment at the first
//! torn or corrupt record, and resumes appending at that boundary. The whole
//! procedure is described by the [`RecoveryReport`] it leaves behind.
//!
//! ## Generations and purge
//!
//! Checkpoint `n` is written only after the WAL is synced, then the
//! writer rotates to segment `n`, and generations `< n-1` are purged —
//! keep-last-two, so a torn checkpoint `n` falls back to checkpoint
//! `n-1` plus segment `n-1`, which together still cover every batch.

use std::io;
use std::sync::Arc;

use kg::Graph;
use obs::{MetricsSnapshot, Registry};

use crate::checkpoint::{
    load_latest_checkpoint, parse_ckpt_seq, parse_wal_seq, wal_name, write_checkpoint,
};
use crate::storage::Storage;
use crate::wal::{read_wal, GroupCommit, Op, WalWriter};

/// Tuning for a [`DurableGraph`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurableOptions {
    /// Fsync batching window (default: sync every batch — ack == durable).
    pub group_commit: GroupCommit,
    /// Write a checkpoint and rotate the WAL once the active segment
    /// exceeds this many bytes; `0` checkpoints only on explicit
    /// [`DurableGraph::checkpoint`] calls.
    pub checkpoint_every_bytes: u64,
}

/// What reopening a store found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Generation of the checkpoint that loaded, if any.
    pub checkpoint_seq: Option<u64>,
    /// Newer checkpoint files that failed to decode and were skipped.
    pub checkpoints_rejected: u32,
    /// Triples the checkpoint contributed.
    pub checkpoint_triples: usize,
    /// WAL segments replayed after the checkpoint.
    pub segments_replayed: u32,
    /// Whole batches replayed from those segments.
    pub batches_replayed: u64,
    /// Bytes of valid WAL records replayed.
    pub bytes_replayed: u64,
    /// Segments that ended in a torn or corrupt record (truncated at
    /// the tear).
    pub truncated_segments: u32,
}

/// A [`kg::Graph`] fronted by a WAL and checkpoint snapshots.
///
/// Not internally synchronized — writers wrap it in a `Mutex` (the serve
/// engine does); reads of the inner graph go through
/// [`DurableGraph::graph`].
pub struct DurableGraph {
    storage: Arc<dyn Storage>,
    graph: Graph,
    wal: WalWriter,
    /// Current generation: the active WAL segment's number, `>=` the
    /// newest checkpoint's.
    seq: u64,
    opts: DurableOptions,
    registry: Registry,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for DurableGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableGraph")
            .field("triples", &self.graph.len())
            .field("seq", &self.seq)
            .field("wal_bytes", &self.wal.len())
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl DurableGraph {
    /// Open (recovering if the storage holds state) or create a store.
    ///
    /// Fails only on storage errors or an unrecoverable layout: when no
    /// checkpoint decodes *and* the surviving WAL segments do not reach
    /// back to generation 0, the op history is incomplete and silently
    /// serving a partial graph would be worse than failing loudly.
    pub fn open(storage: Arc<dyn Storage>, opts: DurableOptions) -> io::Result<DurableGraph> {
        let registry = Registry::new();
        let mut recovery = RecoveryReport::default();
        let names = storage.list()?;

        // A crash during checkpoint write can leave a temp file behind;
        // it was never renamed into place, so it is garbage.
        for name in &names {
            if name.ends_with(".tmp") {
                let _ = storage.remove(name);
            }
        }

        let loaded = load_latest_checkpoint(storage.as_ref())?;
        if let Some(l) = &loaded {
            recovery.checkpoints_rejected = l.rejected;
        }

        let mut wal_seqs: Vec<u64> = names.iter().filter_map(|n| parse_wal_seq(n)).collect();
        wal_seqs.sort_unstable();
        let (mut graph, ckpt_seq) = match loaded {
            Some(l) => {
                recovery.checkpoint_seq = Some(l.seq);
                recovery.checkpoint_triples = l.graph.len();
                (l.graph, Some(l.seq))
            }
            None => {
                // Replaying from empty is only complete if the log
                // reaches back to generation 0 (see doc comment).
                if let Some(&min) = wal_seqs.first() {
                    if min > 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "no checkpoint decodes and the oldest WAL segment is \
                                 generation {min}: op history is incomplete"
                            ),
                        ));
                    }
                }
                (Graph::new(), None)
            }
        };

        let replay_from = ckpt_seq.unwrap_or(0);
        let mut active = (replay_from, 0u64, 0u64); // (seq, valid bytes, batches)
        for &seq in wal_seqs.iter().filter(|&&s| s >= replay_from) {
            let name = wal_name(seq);
            let replay = read_wal(storage.as_ref(), &name)?;
            for batch in &replay.batches {
                for op in batch {
                    op.apply(&mut graph);
                }
            }
            recovery.segments_replayed += 1;
            recovery.batches_replayed += replay.batches.len() as u64;
            recovery.bytes_replayed += replay.bytes_valid;
            active = (seq, replay.bytes_valid, replay.batches.len() as u64);
            if replay.truncated {
                recovery.truncated_segments += 1;
                storage.truncate(&name, replay.bytes_valid)?;
                // Segments newer than a tear cannot exist legitimately
                // (rotation only happens at a checkpoint, which fsyncs
                // first); drop any stragglers rather than replay data
                // from after the tear.
                for &later in wal_seqs.iter().filter(|&&s| s > seq) {
                    let _ = storage.remove(&wal_name(later));
                }
                break;
            }
        }

        registry.incr("wal.recoveries", 1);
        registry.incr(
            "wal.truncated_records",
            u64::from(recovery.truncated_segments),
        );

        let wal = WalWriter::resume(
            Arc::clone(&storage),
            wal_name(active.0),
            opts.group_commit,
            active.1,
            active.2,
        );
        Ok(DurableGraph {
            storage,
            graph,
            wal,
            seq: active.0,
            opts,
            registry,
            recovery,
        })
    }

    /// The recovered / live graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of live triples.
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Whether the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// The report from the [`DurableGraph::open`] that built this store.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The store's own `wal.*` metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot of the `wal.*` counters and histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Batches known durable (covered by a successful fsync).
    pub fn acked_batches(&self) -> u64 {
        self.wal.acked_batches()
    }

    /// Bytes of whole records in the active WAL segment.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len()
    }

    /// Current generation number.
    pub fn generation(&self) -> u64 {
        self.seq
    }

    /// Log one mutation batch and apply it to the graph.
    ///
    /// Returns `Ok(true)` when the batch is durable (the group-commit
    /// window closed and fsync succeeded) and `Ok(false)` when it rides
    /// the window. On `Err` from the append itself nothing was applied;
    /// on `Err` from the fsync the batch **is** applied in memory and in
    /// the log but unacknowledged — after a crash it may or may not
    /// survive, which is exactly what unacknowledged means.
    pub fn append(&mut self, ops: &[Op]) -> io::Result<bool> {
        self.wal.append(ops, &self.registry)?;
        for op in ops {
            op.apply(&mut self.graph);
        }
        let mut synced = false;
        if self.wal.window_full() {
            self.wal.sync(&self.registry)?;
            synced = true;
        }
        if self.opts.checkpoint_every_bytes > 0
            && self.wal.len() >= self.opts.checkpoint_every_bytes
        {
            // Auto-checkpoint is best-effort: a failure leaves the WAL
            // growing but the store correct.
            if self.checkpoint().is_err() {
                self.registry.incr("wal.checkpoint_errors", 1);
            }
        }
        Ok(synced)
    }

    /// Fsync the active segment, acknowledging every appended batch.
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync(&self.registry)
    }

    /// Write checkpoint generation `seq + 1`, rotate to a fresh WAL
    /// segment, and purge generations older than the previous one
    /// (keep-last-two).
    pub fn checkpoint(&mut self) -> io::Result<()> {
        // Everything the snapshot will contain must be durable in the
        // WAL first, or purging old segments could drop acked batches.
        self.wal.sync(&self.registry)?;
        let next = self.seq + 1;
        self.graph.compact();
        write_checkpoint(self.storage.as_ref(), next, &self.graph)?;
        self.wal.rotate(wal_name(next));
        self.seq = next;
        self.registry.incr("wal.checkpoints", 1);
        // Best-effort purge: stale generations are garbage, not state.
        if let Ok(names) = self.storage.list() {
            for name in names {
                let stale = parse_ckpt_seq(&name)
                    .map(|s| s + 1 < next)
                    .or_else(|| parse_wal_seq(&name).map(|s| s + 1 < next));
                if stale == Some(true) {
                    let _ = self.storage.remove(&name);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::ckpt_name;
    use crate::storage::MemStorage;
    use kg::Term;

    fn ops(range: std::ops::Range<u32>) -> Vec<Op> {
        range
            .map(|i| {
                Op::Insert(
                    Term::iri(format!("http://ex.org/s{i}")),
                    Term::iri("http://ex.org/p"),
                    Term::int(i64::from(i)),
                )
            })
            .collect()
    }

    #[test]
    fn append_checkpoint_reopen_round_trips() {
        let storage = Arc::new(MemStorage::new());
        let opts = DurableOptions::default();
        let mut d = DurableGraph::open(Arc::clone(&storage) as Arc<dyn Storage>, opts).unwrap();
        assert!(d.is_empty());
        assert!(d.append(&ops(0..10)).unwrap()); // default window: acked
        assert!(d.append(&ops(10..20)).unwrap());
        assert_eq!(d.len(), 20);
        d.checkpoint().unwrap();
        assert!(d.append(&ops(20..25)).unwrap());
        drop(d);

        let d2 = DurableGraph::open(Arc::clone(&storage) as Arc<dyn Storage>, opts).unwrap();
        assert_eq!(d2.len(), 25);
        let r = d2.recovery();
        assert_eq!(r.checkpoint_seq, Some(1));
        assert_eq!(r.checkpoint_triples, 20);
        assert_eq!(r.batches_replayed, 1);
        assert_eq!(r.truncated_segments, 0);
        assert_eq!(d2.registry().counter("wal.recoveries"), 1);
    }

    #[test]
    fn checkpoint_rotates_and_purges_keep_last_two() {
        let storage = Arc::new(MemStorage::new());
        let mut d = DurableGraph::open(
            Arc::clone(&storage) as Arc<dyn Storage>,
            DurableOptions::default(),
        )
        .unwrap();
        for gen in 0..4u32 {
            d.append(&ops(gen * 10..gen * 10 + 10)).unwrap();
            d.checkpoint().unwrap();
        }
        assert_eq!(d.generation(), 4);
        let names = storage.list().unwrap();
        assert!(names.contains(&ckpt_name(4)));
        assert!(names.contains(&ckpt_name(3)));
        assert!(!names.contains(&ckpt_name(2)));
        assert!(names
            .iter()
            .filter_map(|n| parse_wal_seq(n))
            .all(|s| s >= 3));
    }

    #[test]
    fn reopen_with_incomplete_history_fails_loudly() {
        let storage = Arc::new(MemStorage::new());
        let mut d = DurableGraph::open(
            Arc::clone(&storage) as Arc<dyn Storage>,
            DurableOptions::default(),
        )
        .unwrap();
        d.append(&ops(0..10)).unwrap();
        d.checkpoint().unwrap();
        d.append(&ops(10..15)).unwrap();
        d.checkpoint().unwrap(); // purges generation 0
        d.append(&ops(15..20)).unwrap();
        // destroy every checkpoint: the oldest surviving segment is
        // generation 1, so replay-from-empty would silently lose data
        for name in storage.list().unwrap() {
            if parse_ckpt_seq(&name).is_some() {
                storage.remove(&name).unwrap();
            }
        }
        let err = DurableGraph::open(
            Arc::clone(&storage) as Arc<dyn Storage>,
            DurableOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn group_commit_window_defers_ack() {
        let storage = Arc::new(MemStorage::new());
        let mut d = DurableGraph::open(
            Arc::clone(&storage) as Arc<dyn Storage>,
            DurableOptions {
                group_commit: GroupCommit::every(3),
                checkpoint_every_bytes: 0,
            },
        )
        .unwrap();
        assert!(!d.append(&ops(0..2)).unwrap());
        assert!(!d.append(&ops(2..4)).unwrap());
        assert_eq!(d.acked_batches(), 0);
        assert!(d.append(&ops(4..6)).unwrap());
        assert_eq!(d.acked_batches(), 3);
        // explicit sync drains a partial window
        assert!(!d.append(&ops(6..8)).unwrap());
        d.sync().unwrap();
        assert_eq!(d.acked_batches(), 4);
    }

    #[test]
    fn auto_checkpoint_triggers_on_wal_growth() {
        let storage = Arc::new(MemStorage::new());
        let mut d = DurableGraph::open(
            Arc::clone(&storage) as Arc<dyn Storage>,
            DurableOptions {
                group_commit: GroupCommit::default(),
                checkpoint_every_bytes: 256,
            },
        )
        .unwrap();
        for gen in 0..6u32 {
            d.append(&ops(gen * 5..gen * 5 + 5)).unwrap();
        }
        assert!(d.generation() > 0, "small threshold must have rotated");
        assert!(d.registry().counter("wal.checkpoints") > 0);
        drop(d);
        let d2 = DurableGraph::open(
            Arc::clone(&storage) as Arc<dyn Storage>,
            DurableOptions::default(),
        )
        .unwrap();
        assert_eq!(d2.len(), 30);
    }
}
