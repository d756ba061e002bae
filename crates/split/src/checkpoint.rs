//! Checkpointing: persist and restore a whole split-learning deployment.
//!
//! A checkpoint captures the configuration, the server's upper-model
//! parameters and every end-system's private lower-model parameters. The
//! serialized form is JSON (human-inspectable, version-diffable); restore
//! validates shape compatibility parameter-by-parameter.

use crate::client::EndSystem;
use crate::config::SplitConfig;
use crate::server::CentralServer;
use crate::trainer::ConfigError;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::Path;
use stsl_tensor::Tensor;

/// Wraps an I/O error with the path it happened on, preserving the error
/// kind (callers match on `kind()` to distinguish missing from corrupt).
fn annotate(path: &Path, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{}: {}", path.display(), e))
}

/// A serializable snapshot of a deployment: what
/// [`SpatioTemporalTrainer::checkpoint`](crate::SpatioTemporalTrainer::checkpoint)
/// and the asynchronous trainer's checkpoint ring hold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The configuration the deployment was built with.
    pub config: SplitConfig,
    /// Server upper-model parameters.
    pub server_state: Vec<Tensor>,
    /// Per-end-system private lower-model parameters.
    pub client_states: Vec<Vec<Tensor>>,
}

impl Checkpoint {
    /// Snapshots a deployment: the config it was built with, the
    /// server's uppers and every end-system's private lowers.
    pub(crate) fn capture(
        config: &SplitConfig,
        server: &mut CentralServer,
        clients: &mut [EndSystem],
    ) -> Checkpoint {
        Checkpoint {
            config: config.clone(),
            server_state: server.model_mut().state_dict(),
            client_states: clients
                .iter_mut()
                .map(|c| c.model_mut().state_dict())
                .collect(),
        }
    }

    /// Loads these parameters into a deployment built like the one
    /// captured.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`], before touching any state, if the
    /// end-system count differs; panics on per-tensor shape mismatches (a
    /// checkpoint from a different architecture is a programming error,
    /// not a runtime condition).
    pub(crate) fn restore_into(
        &self,
        server: &mut CentralServer,
        clients: &mut [EndSystem],
    ) -> Result<(), ConfigError> {
        if self.client_states.len() != clients.len() {
            return Err(ConfigError(format!(
                "checkpoint has {} end-systems but the trainer has {}",
                self.client_states.len(),
                clients.len()
            )));
        }
        server.model_mut().load_state_dict(&self.server_state);
        for (client, state) in clients.iter_mut().zip(&self.client_states) {
            client.model_mut().load_state_dict(state);
        }
        Ok(())
    }

    /// Writes the checkpoint as JSON, atomically: the bytes go to a
    /// sibling `.tmp` file first and are renamed into place, so a crash
    /// mid-write can never leave a truncated checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem and serialization failures, annotated with
    /// the offending path.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let json = serde_json::to_string(self).map_err(|e| {
            annotate(
                path,
                std::io::Error::new(std::io::ErrorKind::InvalidData, e),
            )
        })?;
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp_name);
        std::fs::write(&tmp, json).map_err(|e| annotate(&tmp, e))?;
        match std::fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                Err(annotate(path, e))
            }
        }
    }

    /// Reads a checkpoint written by [`Checkpoint::save`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem and deserialization failures, annotated with
    /// the offending path.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Checkpoint> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path).map_err(|e| annotate(path, e))?;
        serde_json::from_str(&json).map_err(|e| {
            annotate(
                path,
                std::io::Error::new(std::io::ErrorKind::InvalidData, e),
            )
        })
    }
}

/// The outcome of [`CheckpointRing::load_dir_traced`]: the recovered ring
/// plus one path-annotated error per entry that failed to parse.
#[derive(Debug)]
pub struct RingLoad {
    /// The ring rebuilt from every readable entry, oldest first.
    pub ring: CheckpointRing,
    /// Errors for entries that were skipped (crash mid-write, disk
    /// damage). Each error message names the offending file.
    pub skipped: Vec<std::io::Error>,
}

/// A bounded ring of the last K good checkpoints, newest last.
///
/// The health watchdog rolls back through this ring on divergence: the
/// newest entry first, then — if training diverges again before a fresh
/// good checkpoint lands — progressively older ones. [`CheckpointRing::save_dir`]/
/// [`CheckpointRing::load_dir`] persist the ring for crash→restart
/// recovery; a corrupt entry (e.g. from a crash mid-write) is skipped on
/// load, so restart lands on the newest *readable* state.
#[derive(Debug, Clone, Default)]
pub struct CheckpointRing {
    capacity: usize,
    entries: VecDeque<Checkpoint>,
}

impl CheckpointRing {
    /// Creates an empty ring holding at most `capacity` checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        // stsl-audit: allow(panic-reachability, reason = "constructor precondition on a compile-time-chosen capacity; a zero-capacity ring is a programming error, not a runtime condition")
        assert!(capacity > 0, "checkpoint ring capacity must be positive");
        CheckpointRing {
            capacity,
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends a checkpoint as the newest entry, evicting the oldest when
    /// the ring is full.
    pub fn push(&mut self, checkpoint: Checkpoint) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(checkpoint);
    }

    /// The newest checkpoint, if any.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.entries.back()
    }

    /// Removes and returns the newest checkpoint. Repeated calls walk
    /// backward in time — the rollback escalation path.
    pub fn pop_latest(&mut self) -> Option<Checkpoint> {
        self.entries.pop_back()
    }

    /// Checkpoints currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ring holds no checkpoints.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum checkpoints held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Persists the ring to `dir` as `ring-0.json` (oldest) through
    /// `ring-{n-1}.json` (newest), removing any stale higher-numbered
    /// files from a previous, longer ring.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures, annotated with the offending path.
    pub fn save_dir(&self, dir: impl AsRef<Path>) -> std::io::Result<()> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| annotate(dir, e))?;
        for (i, entry) in self.entries.iter().enumerate() {
            entry.save(dir.join(format!("ring-{i}.json")))?;
        }
        let mut stale = self.entries.len();
        loop {
            let path = dir.join(format!("ring-{stale}.json"));
            if !path.exists() {
                break;
            }
            std::fs::remove_file(&path).map_err(|e| annotate(&path, e))?;
            stale += 1;
        }
        Ok(())
    }

    /// Loads a ring saved by [`CheckpointRing::save_dir`]. Entries that
    /// fail to parse — a crash mid-write, disk damage — are skipped rather
    /// than fatal: surviving a partially written newest entry is exactly
    /// what the ring is for. An empty or missing directory yields an
    /// empty ring.
    pub fn load_dir(dir: impl AsRef<Path>, capacity: usize) -> CheckpointRing {
        Self::load_dir_traced(dir, capacity).ring
    }

    /// Like [`CheckpointRing::load_dir`], but reports every skipped entry
    /// as a path-annotated [`std::io::Error`] so callers can trace the
    /// data loss instead of discovering it by a shorter ring.
    pub fn load_dir_traced(dir: impl AsRef<Path>, capacity: usize) -> RingLoad {
        let dir = dir.as_ref();
        let mut ring = CheckpointRing::new(capacity);
        let mut skipped = Vec::new();
        let mut i = 0;
        loop {
            let path = dir.join(format!("ring-{i}.json"));
            if !path.exists() {
                break;
            }
            match Checkpoint::load(&path) {
                Ok(entry) => ring.push(entry),
                Err(e) => skipped.push(e),
            }
            i += 1;
        }
        RingLoad { ring, skipped }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CutPoint;
    use crate::SpatioTemporalTrainer;
    use stsl_data::SyntheticCifar;

    fn data(n: usize, seed: u64) -> stsl_data::ImageDataset {
        SyntheticCifar::new(seed)
            .difficulty(0.05)
            .generate_sized(n, 16)
    }

    #[test]
    fn checkpoint_roundtrip_preserves_behaviour() {
        let train = data(48, 1);
        let test = data(16, 2);
        let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(1).seed(4);
        let mut a = SpatioTemporalTrainer::new(cfg.clone(), &train).unwrap();
        a.train(&test);
        let acc_a = a.evaluate(&test);
        let ckpt = a.checkpoint();

        // A fresh deployment with a different seed behaves differently…
        let mut b = SpatioTemporalTrainer::new(cfg.seed(99), &train).unwrap();
        assert_ne!(b.evaluate(&test), acc_a);
        // …until restored.
        b.restore(&ckpt).unwrap();
        assert_eq!(b.evaluate(&test), acc_a);
    }

    #[test]
    fn checkpoint_survives_disk_roundtrip() {
        let train = data(32, 3);
        let cfg = SplitConfig::tiny(CutPoint(2), 2).epochs(1).seed(5);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).unwrap();
        t.run_epoch(0);
        let ckpt = t.checkpoint();
        let dir = std::env::temp_dir().join("stsl_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        ckpt.save(&path).unwrap();
        // The temp file of the atomic write is gone after a save.
        assert!(!dir.join("ckpt.json.tmp").exists());
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.server_state, ckpt.server_state);
        assert_eq!(back.client_states, ckpt.client_states);
        assert_eq!(back.config.end_systems, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_or_corrupt_checkpoint_loads_as_clean_error() {
        let train = data(24, 8);
        let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(1).seed(8);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).unwrap();
        let ckpt = t.checkpoint();
        let dir = std::env::temp_dir().join("stsl_ckpt_corrupt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.json");
        ckpt.save(&path).unwrap();

        // Truncate the file mid-stream, as a crash during a non-atomic
        // write would have.
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Valid JSON of the wrong shape is also a clean error.
        std::fs::write(&path, r#"{"config": 7}"#).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A missing file surfaces as NotFound, not InvalidData.
        std::fs::remove_file(&path).unwrap();
        let err = Checkpoint::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn load_and_save_errors_name_the_path() {
        let missing = std::env::temp_dir().join("stsl_no_such_ckpt_dir/nope.json");
        let err = Checkpoint::load(&missing).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(
            err.to_string().contains("nope.json"),
            "error should name the path: {err}"
        );

        let train = data(24, 9);
        let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(1).seed(9);
        let ckpt = SpatioTemporalTrainer::new(cfg, &train)
            .unwrap()
            .checkpoint();
        let bad_dir = std::env::temp_dir().join("stsl_no_such_ckpt_dir2/sub/ckpt.json");
        let err = ckpt.save(&bad_dir).unwrap_err();
        assert!(
            err.to_string().contains("ckpt.json"),
            "error should name the path: {err}"
        );
    }

    #[test]
    fn ring_evicts_oldest_and_pops_newest_first() {
        let train = data(24, 10);
        let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(1).seed(10);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).unwrap();
        let mut ring = CheckpointRing::new(2);
        assert!(ring.is_empty());
        assert!(ring.latest().is_none());

        // Three distinguishable snapshots (weights move between epochs).
        let a = t.checkpoint();
        t.run_epoch(0);
        let b = t.checkpoint();
        t.run_epoch(1);
        let c = t.checkpoint();
        ring.push(a.clone());
        ring.push(b.clone());
        ring.push(c.clone());
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.capacity(), 2);
        // `a` was evicted; pops walk newest to oldest.
        assert_eq!(ring.latest().unwrap().server_state, c.server_state);
        assert_eq!(ring.pop_latest().unwrap().server_state, c.server_state);
        assert_eq!(ring.pop_latest().unwrap().server_state, b.server_state);
        assert!(ring.pop_latest().is_none());
    }

    #[test]
    fn ring_survives_disk_roundtrip_and_skips_corrupt_entries() {
        let train = data(24, 11);
        let cfg = SplitConfig::tiny(CutPoint(1), 2).epochs(1).seed(11);
        let mut t = SpatioTemporalTrainer::new(cfg, &train).unwrap();
        let mut ring = CheckpointRing::new(3);
        ring.push(t.checkpoint());
        t.run_epoch(0);
        let good = t.checkpoint();
        ring.push(good.clone());
        t.run_epoch(1);
        ring.push(t.checkpoint());

        let dir = std::env::temp_dir().join("stsl_ring_test");
        std::fs::remove_dir_all(&dir).ok();
        ring.save_dir(&dir).unwrap();
        let back = CheckpointRing::load_dir(&dir, 3);
        assert_eq!(back.len(), 3);
        assert_eq!(
            back.latest().unwrap().server_state,
            ring.latest().unwrap().server_state
        );

        // Corrupt the newest entry, as a crash mid-write would: load lands
        // on the newest *readable* state, and the traced variant names
        // the file that was lost.
        std::fs::write(dir.join("ring-2.json"), "{truncated").unwrap();
        let degraded = CheckpointRing::load_dir_traced(&dir, 3);
        assert_eq!(degraded.ring.len(), 2);
        assert_eq!(
            degraded.ring.latest().unwrap().server_state,
            good.server_state
        );
        assert_eq!(degraded.skipped.len(), 1);
        assert_eq!(degraded.skipped[0].kind(), std::io::ErrorKind::InvalidData);
        assert!(
            degraded.skipped[0].to_string().contains("ring-2.json"),
            "skip error should name the corrupt file: {}",
            degraded.skipped[0]
        );
        // The untraced wrapper sees the same ring.
        assert_eq!(CheckpointRing::load_dir(&dir, 3).len(), 2);

        // Saving a shorter ring removes the stale third file.
        let mut short = CheckpointRing::new(3);
        short.push(good);
        short.save_dir(&dir).unwrap();
        assert!(dir.join("ring-0.json").exists());
        assert!(!dir.join("ring-1.json").exists());
        assert!(!dir.join("ring-2.json").exists());

        // A missing directory is an empty ring, not an error.
        std::fs::remove_dir_all(&dir).ok();
        assert!(CheckpointRing::load_dir(&dir, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_ring_rejected() {
        CheckpointRing::new(0);
    }

    #[test]
    fn restore_rejects_client_count_mismatch() {
        let train = data(48, 6);
        let cfg2 = SplitConfig::tiny(CutPoint(1), 2).seed(7);
        let cfg3 = SplitConfig::tiny(CutPoint(1), 3).seed(7);
        let mut two = SpatioTemporalTrainer::new(cfg2, &train).unwrap();
        let mut three = SpatioTemporalTrainer::new(cfg3, &train).unwrap();
        let ckpt = two.checkpoint();
        assert!(three.restore(&ckpt).is_err());
    }
}
