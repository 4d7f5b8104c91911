//! The serving-side checkpoint surface: load a v2 training checkpoint into
//! an inference-only [`PolicyArtifact`] without building a trainer (no
//! employee threads, no optimizers, no curiosity model).
//!
//! `vc_serve` is the main consumer: the daemon validates and loads an
//! artifact here, holds it behind an `Arc`, and hot-reloads by loading a
//! *new* artifact and atomically swapping the `Arc` only after every check
//! below has passed — so a corrupt file can never replace good weights.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::path::Path;
use vc_env::prelude::*;
use vc_nn::param::ParamStore;
use vc_nn::serialize::{load_checkpoint_v2, CheckpointError};
use vc_rl::prelude::*;

use crate::trainer::TrainerConfig;

/// Why a checkpoint could not be turned into a servable artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// The byte stream failed v2 decoding (bad magic/version/CRC/layout).
    Checkpoint(CheckpointError),
    /// The embedded metadata is not a parseable [`TrainerConfig`].
    BadMeta,
    /// The metadata parsed but describes an invalid environment.
    Env(EnvError),
    /// The parameter payload does not match the network the metadata
    /// describes (scalar-count mismatch).
    ShapeMismatch {
        /// Scalars the rebuilt network expects.
        expected: usize,
        /// Scalars the checkpoint carries.
        got: usize,
    },
    /// The checkpoint file could not be read.
    Io(std::io::Error),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Checkpoint(e) => write!(f, "undecodable checkpoint: {e}"),
            ArtifactError::BadMeta => write!(f, "checkpoint metadata is not a TrainerConfig"),
            ArtifactError::Env(e) => write!(f, "checkpoint env config invalid: {e}"),
            ArtifactError::ShapeMismatch { expected, got } => {
                write!(f, "checkpoint carries {got} policy scalars, network needs {expected}")
            }
            ArtifactError::Io(e) => write!(f, "cannot read checkpoint: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Checkpoint(e) => Some(e),
            ArtifactError::Env(e) => Some(e),
            ArtifactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ArtifactError {
    fn from(e: CheckpointError) -> Self {
        ArtifactError::Checkpoint(e)
    }
}

/// An immutable, inference-ready policy: the actor-critic network plus the
/// parameter store it reads, rebuilt and shape-validated from a v2
/// checkpoint's own metadata.
pub struct PolicyArtifact {
    /// Environment configuration the policy was trained on (the daemon's
    /// base scenario; requests snapshot fleet state onto it).
    pub env: EnvConfig,
    /// The rebuilt actor-critic network.
    pub net: ActorCritic,
    /// Parameters backing [`Self::net`], values copied from the checkpoint.
    pub store: ParamStore,
    /// Whether the training config masked invalid actions.
    pub mask_invalid: bool,
    /// Episodes the checkpoint had trained for (provenance).
    pub episodes: u64,
    /// Gradient rounds the checkpoint had trained for (provenance).
    pub rounds: u64,
}

impl fmt::Debug for PolicyArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyArtifact")
            .field("grid", &self.env.grid)
            .field("num_workers", &self.env.num_workers)
            .field("scalars", &self.store.num_scalars())
            .field("episodes", &self.episodes)
            .finish()
    }
}

impl PolicyArtifact {
    /// Decodes, validates, and materializes an artifact from checkpoint
    /// bytes. Validation order: CRC32 footer and wire layout first
    /// (`load_checkpoint_v2`), then metadata parse, env validation, and
    /// finally the parameter-shape cross-check — nothing is trusted until
    /// everything has passed.
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`] for each validation stage; never panics
    /// on hostile bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Self, ArtifactError> {
        let ck = load_checkpoint_v2(data)?;
        let cfg: TrainerConfig =
            serde_json::from_str(&ck.meta).map_err(|_| ArtifactError::BadMeta)?;
        cfg.env.validate().map_err(ArtifactError::Env)?;
        // Same seed and NetConfig as training ⇒ identical parameter layout,
        // so a flat value copy restores the exact trained weights.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut store = ParamStore::new();
        let net_cfg = NetConfig::for_scenario(cfg.env.grid, cfg.env.num_workers);
        let net = ActorCritic::new(&mut store, net_cfg, &mut rng);
        if ck.policy.num_scalars() != store.num_scalars() {
            return Err(ArtifactError::ShapeMismatch {
                expected: store.num_scalars(),
                got: ck.policy.num_scalars(),
            });
        }
        store.copy_values_from(&ck.policy);
        Ok(PolicyArtifact {
            env: cfg.env,
            net,
            store,
            mask_invalid: cfg.mask_invalid,
            episodes: ck.episodes,
            rounds: ck.rounds,
        })
    }

    /// Reads and loads a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on read failure, otherwise as
    /// [`Self::from_bytes`].
    pub fn from_file(path: &Path) -> Result<Self, ArtifactError> {
        let data = std::fs::read(path).map_err(ArtifactError::Io)?;
        Self::from_bytes(&data)
    }

    /// Builds a fresh environment matching this artifact's scenario.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Env`] if the stored config stopped validating
    /// (cannot happen for artifacts from [`Self::from_bytes`], which
    /// validates eagerly; kept typed for defense in depth).
    pub fn make_env(&self) -> Result<CrowdsensingEnv, ArtifactError> {
        self.env.validate().map_err(ArtifactError::Env)?;
        Ok(CrowdsensingEnv::new(self.env.clone()))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use vc_nn::serialize::{save_checkpoint_v2, AdamState, TrainCheckpoint};

    fn tiny_checkpoint() -> Vec<u8> {
        let mut env = EnvConfig::tiny();
        env.horizon = 8;
        let mut cfg = TrainerConfig::drl_cews(env).quick();
        cfg.num_employees = 1;
        let mut trainer = Trainer::new(cfg).unwrap();
        trainer.checkpoint_v2().unwrap()
    }

    #[test]
    fn artifact_round_trips_from_trainer_checkpoint() {
        let bytes = tiny_checkpoint();
        let art = PolicyArtifact::from_bytes(&bytes).unwrap();
        assert!(art.store.num_scalars() > 0);
        let env = art.make_env().unwrap();
        assert_eq!(env.workers().len(), art.env.num_workers);
    }

    #[test]
    fn corrupt_bytes_give_typed_errors() {
        let mut bytes = tiny_checkpoint();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            PolicyArtifact::from_bytes(&bytes),
            Err(ArtifactError::Checkpoint(CheckpointError::BadCrc { .. }))
        ));
        assert!(matches!(
            PolicyArtifact::from_bytes(&[]),
            Err(ArtifactError::Checkpoint(CheckpointError::Truncated))
        ));
    }

    #[test]
    fn non_trainer_meta_is_rejected() {
        let ck = TrainCheckpoint {
            policy: ParamStore::new(),
            curiosity: None,
            ppo_opt: AdamState::default(),
            curiosity_opt: None,
            rng_states: vec![],
            episodes: 0,
            rounds: 0,
            meta: "not json".to_owned(),
        };
        let bytes = save_checkpoint_v2(&ck);
        assert!(matches!(PolicyArtifact::from_bytes(&bytes), Err(ArtifactError::BadMeta)));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        // Valid meta, but a policy payload from a different (empty) store.
        let bytes = tiny_checkpoint();
        let mut ck = load_checkpoint_v2(&bytes).unwrap();
        ck.policy = ParamStore::new();
        ck.ppo_opt = AdamState::default();
        let reserialized = save_checkpoint_v2(&ck);
        assert!(matches!(
            PolicyArtifact::from_bytes(&reserialized),
            Err(ArtifactError::ShapeMismatch { expected: _, got: 0 })
        ));
    }
}
