//! Binary checkpointing of the full training state.
//!
//! The paper's training process "periodically saves DNN parameters for
//! testing" (Sec VI-D); this module is that mechanism. A checkpoint is one
//! durable [`TrainCheckpoint`] capturing everything a run needs to resume
//! *bit-exactly*: both parameter stores, Adam moment vectors and step
//! counters, per-employee RNG streams, the episode/round counters, an
//! opaque UTF-8 metadata blob (the trainer embeds its JSON config), and a
//! CRC32 footer so torn or corrupted files are detected before any of it
//! is trusted. Evaluation and serving read only its policy store.
//!
//! ```text
//! magic "VCNN" | u32 version=2 | u8 has-curiosity |
//!   policy params | [curiosity params] |
//!   ppo adam: u64 t | u32 n | n×f32 m | n×f32 v |
//!   [curiosity adam] |
//!   u32 rng-count | per stream: 4×u64 |
//!   u64 episodes | u64 rounds |
//!   u32 meta-len | meta bytes |
//!   u32 crc32 (IEEE, over every preceding byte)
//!
//! params = u32 param-count |
//!   per param: u32 name-len | name bytes | u8 frozen |
//!              u32 ndim | u32 dims... | f32 data...
//! ```
//!
//! Version 1 (a bare parameter store without footer) is retired; its files
//! are rejected with [`CheckpointError::BadVersion`].
//!
//! The loader is total: malformed input of any shape yields a typed
//! [`CheckpointError`], never a panic — length and size arithmetic is
//! checked so hostile headers can't wrap offsets. [`write_checkpoint_file`]
//! writes durably (tmp file, fsync, atomic rename) so a crash mid-write
//! can never truncate an existing checkpoint.

use crate::param::ParamStore;
use crate::tensor::Tensor;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"VCNN";
const VERSION: u32 = 2;

/// Errors from checkpoint decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The buffer ended before the declared content (or declared sizes
    /// overflow — either way the declared content can't exist).
    Truncated,
    /// A string field was not valid UTF-8.
    BadName,
    /// The CRC32 footer does not match the body: bit rot or a torn write.
    BadCrc {
        /// CRC computed over the body actually read.
        computed: u32,
        /// CRC the footer claims.
        stored: u32,
    },
    /// A section is internally inconsistent (e.g. Adam moments that
    /// don't cover the parameter store they accompany).
    Inconsistent(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "checkpoint magic mismatch"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadName => write!(f, "checkpoint contains non-UTF-8 name"),
            CheckpointError::BadCrc { computed, stored } => {
                write!(
                    f,
                    "checkpoint CRC mismatch: computed {computed:#010x}, stored {stored:#010x}"
                )
            }
            CheckpointError::Inconsistent(what) => {
                write!(f, "checkpoint internally inconsistent: {what}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the same checksum
/// gzip and PNG use. Bitwise implementation; checkpoint files are small
/// enough that a lookup table isn't worth the code.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ----------------------------------------------------------------- cursor

/// A little-endian cursor over a byte slice. Every read is bounds-checked
/// and yields [`CheckpointError::Truncated`] once the bytes run out, so the
/// parser cannot index past the end whatever the header claims.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Consumes the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(CheckpointError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CheckpointError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        self.array().map(f32::from_le_bytes)
    }
}

// --------------------------------------------------------------- sections

fn put_store(buf: &mut Vec<u8>, store: &ParamStore) {
    buf.extend((store.len() as u32).to_le_bytes());
    for id in store.ids() {
        let name = store.name(id).as_bytes();
        buf.extend((name.len() as u32).to_le_bytes());
        buf.extend_from_slice(name);
        buf.push(store.is_frozen(id) as u8);
        let value = store.value(id);
        buf.extend((value.ndim() as u32).to_le_bytes());
        for &d in value.shape() {
            buf.extend((d as u32).to_le_bytes());
        }
        for &x in value.data() {
            buf.extend(x.to_le_bytes());
        }
    }
}

fn get_store(r: &mut Reader<'_>) -> Result<ParamStore, CheckpointError> {
    let count = r.u32()? as usize;
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name_len = r.u32()? as usize;
        // name + frozen byte + ndim word, with overflow-checked sizing so a
        // hostile name_len can't reserve memory before the read fails.
        let need = name_len.checked_add(1 + 4).ok_or(CheckpointError::Truncated)?;
        if r.remaining() < need {
            return Err(CheckpointError::Truncated);
        }
        let name =
            String::from_utf8(r.take(name_len)?.to_vec()).map_err(|_| CheckpointError::BadName)?;
        let frozen = r.u8()? != 0;
        let ndim = r.u32()? as usize;
        let dims_bytes = ndim.checked_mul(4).ok_or(CheckpointError::Truncated)?;
        if r.remaining() < dims_bytes {
            return Err(CheckpointError::Truncated);
        }
        let shape: Vec<usize> =
            (0..ndim).map(|_| r.u32().map(|d| d as usize)).collect::<Result<_, _>>()?;
        let numel = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(CheckpointError::Truncated)?;
        let data_bytes = numel.checked_mul(4).ok_or(CheckpointError::Truncated)?;
        if r.remaining() < data_bytes {
            return Err(CheckpointError::Truncated);
        }
        let data = (0..numel).map(|_| r.f32()).collect::<Result<_, _>>()?;
        let tensor = Tensor::from_vec(&shape, data);
        if frozen {
            store.add_frozen(name, tensor);
        } else {
            store.add(name, tensor);
        }
    }
    Ok(store)
}

/// Snapshot of one Adam optimizer's state: step counter plus flattened
/// first/second moments (both empty before the optimizer's first step).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AdamState {
    /// Update steps taken (`Adam::steps`).
    pub t: u64,
    /// Flattened first-moment estimates in parameter-registration order.
    pub m: Vec<f32>,
    /// Flattened second-moment estimates in parameter-registration order.
    pub v: Vec<f32>,
}

/// Everything a chief–employee training run needs to resume bit-exactly
/// (see the v2 wire layout in the module docs).
#[derive(Clone, Debug, Default)]
pub struct TrainCheckpoint {
    /// Global actor-critic parameters.
    pub policy: ParamStore,
    /// Global curiosity parameters, when a curiosity model is trained.
    pub curiosity: Option<ParamStore>,
    /// Chief-side PPO Adam optimizer state.
    pub ppo_opt: AdamState,
    /// Chief-side curiosity Adam optimizer state (when curiosity is on).
    pub curiosity_opt: Option<AdamState>,
    /// Per-employee RNG stream states, indexed by employee.
    pub rng_states: Vec<[u64; 4]>,
    /// Episodes completed so far.
    pub episodes: u64,
    /// Global gradient gather rounds completed so far.
    pub rounds: u64,
    /// Opaque caller metadata (the trainer stores its JSON config here so
    /// `--resume` can rebuild an identical trainer).
    pub meta: String,
}

fn put_adam(buf: &mut Vec<u8>, state: &AdamState) {
    buf.extend(state.t.to_le_bytes());
    buf.extend((state.m.len() as u32).to_le_bytes());
    for &x in state.m.iter().chain(&state.v) {
        buf.extend(x.to_le_bytes());
    }
}

fn get_adam(r: &mut Reader<'_>) -> Result<AdamState, CheckpointError> {
    let t = r.u64()?;
    let n = r.u32()? as usize;
    let bytes = n.checked_mul(8).ok_or(CheckpointError::Truncated)?;
    if r.remaining() < bytes {
        return Err(CheckpointError::Truncated);
    }
    let m = (0..n).map(|_| r.f32()).collect::<Result<_, _>>()?;
    let v = (0..n).map(|_| r.f32()).collect::<Result<_, _>>()?;
    Ok(AdamState { t, m, v })
}

/// Serializes a full training checkpoint in the v2 format (with CRC32
/// footer).
pub fn save_checkpoint_v2(ck: &TrainCheckpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(
        64 + (ck.policy.num_scalars() + ck.ppo_opt.m.len() + ck.ppo_opt.v.len()) * 4
            + ck.rng_states.len() * 32
            + ck.meta.len(),
    );
    buf.extend_from_slice(MAGIC);
    buf.extend(VERSION.to_le_bytes());
    buf.push(ck.curiosity.is_some() as u8);
    put_store(&mut buf, &ck.policy);
    if let Some(cur) = &ck.curiosity {
        put_store(&mut buf, cur);
    }
    put_adam(&mut buf, &ck.ppo_opt);
    if ck.curiosity.is_some() {
        let default = AdamState::default();
        put_adam(&mut buf, ck.curiosity_opt.as_ref().unwrap_or(&default));
    }
    buf.extend((ck.rng_states.len() as u32).to_le_bytes());
    for &w in ck.rng_states.iter().flatten() {
        buf.extend(w.to_le_bytes());
    }
    buf.extend(ck.episodes.to_le_bytes());
    buf.extend(ck.rounds.to_le_bytes());
    buf.extend((ck.meta.len() as u32).to_le_bytes());
    buf.extend_from_slice(ck.meta.as_bytes());
    let crc = crc32(&buf);
    buf.extend(crc.to_le_bytes());
    buf
}

/// Reconstructs a [`TrainCheckpoint`] from [`save_checkpoint_v2`] output,
/// verifying the CRC32 footer before trusting any content.
///
/// # Errors
///
/// Every malformed-buffer shape maps to a typed [`CheckpointError`]; this
/// function never panics on hostile input.
pub fn load_checkpoint_v2(full: &[u8]) -> Result<TrainCheckpoint, CheckpointError> {
    let mut head = Reader { buf: full };
    let magic = head.take(4)?;
    let version = head.u32()?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    if full.len() < 13 {
        return Err(CheckpointError::Truncated);
    }
    let (body, footer) = full.split_at(full.len() - 4);
    let stored = Reader { buf: footer }.u32()?;
    let computed = crc32(body);
    if computed != stored {
        return Err(CheckpointError::BadCrc { computed, stored });
    }
    // Parse past magic + version (already validated above).
    let mut r = Reader { buf: &body[8..] };
    let has_curiosity = r.u8()? != 0;
    let policy = get_store(&mut r)?;
    let curiosity = if has_curiosity { Some(get_store(&mut r)?) } else { None };
    let ppo_opt = get_adam(&mut r)?;
    let curiosity_opt = if has_curiosity { Some(get_adam(&mut r)?) } else { None };
    let rng_count = r.u32()? as usize;
    let rng_bytes = rng_count.checked_mul(32).ok_or(CheckpointError::Truncated)?;
    if r.remaining() < rng_bytes {
        return Err(CheckpointError::Truncated);
    }
    let rng_states = (0..rng_count)
        .map(|_| Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?]))
        .collect::<Result<_, _>>()?;
    let episodes = r.u64()?;
    let rounds = r.u64()?;
    let meta_len = r.u32()? as usize;
    if r.remaining() != meta_len {
        return Err(CheckpointError::Truncated);
    }
    let meta =
        String::from_utf8(r.take(meta_len)?.to_vec()).map_err(|_| CheckpointError::BadName)?;
    if !ppo_opt.m.is_empty() && ppo_opt.m.len() != policy.num_scalars() {
        return Err(CheckpointError::Inconsistent("ppo Adam moments don't cover the policy"));
    }
    Ok(TrainCheckpoint {
        policy,
        curiosity,
        ppo_opt,
        curiosity_opt,
        rng_states,
        episodes,
        rounds,
        meta,
    })
}

/// Writes checkpoint bytes durably: the content goes to `<path>.tmp`, is
/// fsynced, then atomically renamed over `path`. A crash at any point
/// leaves either the previous checkpoint or the complete new one — never a
/// truncated hybrid.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming the file.
pub fn write_checkpoint_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = {
        let mut os = path.as_os_str().to_owned();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    };
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::init;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_store() -> ParamStore {
        let mut rng = StdRng::seed_from_u64(12);
        let mut s = ParamStore::new();
        s.add("layer.w", init::randn(&[4, 3], 1.0, &mut rng));
        s.add("layer.b", Tensor::zeros(&[3]));
        s.add_frozen("emb.table", init::randn(&[10, 8], 1.0, &mut rng));
        s
    }

    fn sample_v2() -> TrainCheckpoint {
        let policy = sample_store();
        let n = policy.num_scalars();
        let mut rng = StdRng::seed_from_u64(5);
        let mut cur = ParamStore::new();
        cur.add("icm.w", init::randn(&[2, 2], 0.5, &mut rng));
        TrainCheckpoint {
            ppo_opt: AdamState {
                t: 7,
                m: (0..n).map(|i| i as f32 * 0.01).collect(),
                v: (0..n).map(|i| i as f32 * 0.02).collect(),
            },
            curiosity_opt: Some(AdamState { t: 7, m: vec![0.1; 4], v: vec![0.2; 4] }),
            curiosity: Some(cur),
            policy,
            rng_states: vec![[1, 2, 3, 4], [5, 6, 7, 8]],
            episodes: 42,
            rounds: 168,
            meta: "{\"seed\":7}".to_owned(),
        }
    }

    /// A policy-only checkpoint (no curiosity, fresh optimizer).
    fn policy_only(policy: ParamStore) -> TrainCheckpoint {
        TrainCheckpoint { policy, ..TrainCheckpoint::default() }
    }

    /// Appends the CRC32 footer, so hand-built bodies reach the parser.
    fn with_footer(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc32(&body);
        body.extend(crc.to_le_bytes());
        body
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ck = sample_v2();
        let back = load_checkpoint_v2(&save_checkpoint_v2(&ck)).unwrap();
        let pairs = [
            (&ck.policy, &back.policy),
            (ck.curiosity.as_ref().unwrap(), back.curiosity.as_ref().unwrap()),
        ];
        for (store, restored) in pairs {
            assert_eq!(restored.len(), store.len());
            for (a, b) in store.ids().zip(restored.ids()) {
                assert_eq!(store.name(a), restored.name(b));
                assert_eq!(store.is_frozen(a), restored.is_frozen(b));
                assert_eq!(store.value(a), restored.value(b));
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = save_checkpoint_v2(&sample_v2());
        bytes[0] = b'X';
        assert_eq!(load_checkpoint_v2(&bytes).unwrap_err(), CheckpointError::BadMagic);
    }

    #[test]
    fn truncation_rejected() {
        let bytes = save_checkpoint_v2(&policy_only(sample_store()));
        for cut in [0, 5, 13, bytes.len() / 2, bytes.len() - 1] {
            let err = load_checkpoint_v2(&bytes[..cut]).unwrap_err();
            if cut < 8 {
                assert_eq!(err, CheckpointError::Truncated, "cut at {cut}");
            } else {
                // Past the header the footer no longer matches the body.
                assert!(matches!(err, CheckpointError::BadCrc { .. }), "cut at {cut}: {err:?}");
            }
        }
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = save_checkpoint_v2(&sample_v2());
        bytes[4] = 99;
        assert_eq!(load_checkpoint_v2(&bytes).unwrap_err(), CheckpointError::BadVersion(99));
    }

    #[test]
    fn retired_v1_files_are_rejected_by_version() {
        // A v1 file: magic, version 1, a bare one-param store, no footer.
        let mut v1: Vec<u8> = Vec::new();
        v1.extend_from_slice(b"VCNN");
        v1.extend(1u32.to_le_bytes());
        v1.extend(1u32.to_le_bytes()); // one param
        v1.extend(1u32.to_le_bytes()); // name_len
        v1.push(b'w');
        v1.push(0); // not frozen
        v1.extend(1u32.to_le_bytes()); // ndim
        v1.extend(1u32.to_le_bytes()); // dim
        v1.extend(1.0f32.to_le_bytes());
        assert_eq!(load_checkpoint_v2(&v1).unwrap_err(), CheckpointError::BadVersion(1));
    }

    #[test]
    fn wire_format_is_stable() {
        // Golden prefix: magic + version + curiosity flag + param count +
        // first param header. Changing the format must bump VERSION, not
        // silently alter these bytes.
        let mut s = ParamStore::new();
        s.add("w", Tensor::from_vec(&[1], vec![1.0]));
        let bytes = save_checkpoint_v2(&policy_only(s));
        assert_eq!(&bytes[..4], b"VCNN");
        assert_eq!(&bytes[4..8], &2u32.to_le_bytes());
        assert_eq!(bytes[8], 0); // no curiosity
        assert_eq!(&bytes[9..13], &1u32.to_le_bytes());
        // name-len(1) + "w" + frozen(0) + ndim(1) + dim(1) + f32(1.0)
        assert_eq!(bytes[13..17], 1u32.to_le_bytes());
        assert_eq!(bytes[17], b'w');
        assert_eq!(bytes[18], 0);
        assert_eq!(bytes[19..23], 1u32.to_le_bytes());
        assert_eq!(bytes[23..27], 1u32.to_le_bytes());
        assert_eq!(bytes[27..31], 1.0f32.to_le_bytes());
        // The footer is the CRC32 of everything before it.
        let (body, footer) = bytes.split_at(bytes.len() - 4);
        assert_eq!(footer, crc32(body).to_le_bytes());
    }

    #[test]
    fn empty_store_roundtrips() {
        let back = load_checkpoint_v2(&save_checkpoint_v2(&TrainCheckpoint::default())).unwrap();
        assert!(back.policy.is_empty());
        assert!(back.curiosity.is_none() && back.rng_states.is_empty());
        assert_eq!((back.episodes, back.rounds), (0, 0));
    }

    #[test]
    fn hostile_headers_with_huge_sizes_are_truncated_not_panics() {
        // A header declaring one param whose name_len is u32::MAX, behind a
        // valid footer: the unchecked `name_len + 5` would wrap to 4 and
        // pass the bounds check in release builds. Must be a typed error
        // instead.
        let mut body: Vec<u8> = Vec::new();
        body.extend_from_slice(b"VCNN");
        body.extend(VERSION.to_le_bytes());
        body.push(0); // no curiosity
        body.extend(1u32.to_le_bytes()); // one param
        body.extend(u32::MAX.to_le_bytes()); // hostile name_len
        assert_eq!(load_checkpoint_v2(&with_footer(body)).unwrap_err(), CheckpointError::Truncated);

        // Hostile shape whose element product overflows usize.
        let mut body: Vec<u8> = Vec::new();
        body.extend_from_slice(b"VCNN");
        body.extend(VERSION.to_le_bytes());
        body.push(0);
        body.extend(1u32.to_le_bytes()); // one param
        body.extend(1u32.to_le_bytes()); // name_len
        body.push(b'w');
        body.push(0); // not frozen
        body.extend(4u32.to_le_bytes()); // ndim = 4
        for _ in 0..4 {
            body.extend(u32::MAX.to_le_bytes()); // dims whose product wraps
        }
        assert_eq!(load_checkpoint_v2(&with_footer(body)).unwrap_err(), CheckpointError::Truncated);
    }

    #[test]
    fn v2_roundtrip_preserves_everything() {
        let ck = sample_v2();
        let bytes = save_checkpoint_v2(&ck);
        let back = load_checkpoint_v2(&bytes).unwrap();
        assert_eq!(back.policy.flat_values(), ck.policy.flat_values());
        assert_eq!(
            back.curiosity.as_ref().unwrap().flat_values(),
            ck.curiosity.as_ref().unwrap().flat_values()
        );
        assert_eq!(back.ppo_opt, ck.ppo_opt);
        assert_eq!(back.curiosity_opt, ck.curiosity_opt);
        assert_eq!(back.rng_states, ck.rng_states);
        assert_eq!((back.episodes, back.rounds), (42, 168));
        assert_eq!(back.meta, ck.meta);
    }

    #[test]
    fn v2_without_curiosity_roundtrips() {
        let ck = TrainCheckpoint {
            policy: sample_store(),
            meta: String::new(),
            ..TrainCheckpoint::default()
        };
        let back = load_checkpoint_v2(&save_checkpoint_v2(&ck)).unwrap();
        assert!(back.curiosity.is_none() && back.curiosity_opt.is_none());
        assert_eq!(back.policy.flat_values(), ck.policy.flat_values());
        assert_eq!(back.ppo_opt, AdamState::default());
    }

    #[test]
    fn v2_flipped_bit_anywhere_is_detected() {
        // The CRC footer must catch a single flipped bit at any offset
        // (flips inside the footer itself surface as BadCrc too; flips in
        // the magic/version words surface as those typed errors).
        let bytes = save_checkpoint_v2(&sample_v2());
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..200 {
            let mut corrupted = bytes.clone();
            let byte = rng.gen_range(0..corrupted.len());
            let bit = rng.gen_range(0..8usize);
            corrupted[byte] ^= 1 << bit;
            assert!(
                load_checkpoint_v2(&corrupted).is_err(),
                "flip at byte {byte} bit {bit} went undetected"
            );
        }
    }

    #[test]
    fn v2_every_truncation_is_a_typed_error() {
        let bytes = save_checkpoint_v2(&sample_v2());
        for cut in 0..bytes.len() {
            match load_checkpoint_v2(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncation to {cut} bytes parsed successfully"),
            }
        }
    }

    #[test]
    fn fuzz_random_mutations_never_panic() {
        // Seeded chaos: random multi-byte mutations, random truncations,
        // and random garbage must always produce Ok or a typed error —
        // any panic fails the test harness.
        let plain = save_checkpoint_v2(&policy_only(sample_store()));
        let full = save_checkpoint_v2(&sample_v2());
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..500 {
            let base = if round % 2 == 0 { &plain } else { &full };
            let mut buf = base.clone();
            for _ in 0..rng.gen_range(1..8usize) {
                let i = rng.gen_range(0..buf.len());
                buf[i] = (rng.gen::<u32>() & 0xFF) as u8;
            }
            if rng.gen_bool(0.5) {
                buf.truncate(rng.gen_range(0..buf.len() + 1));
            }
            let _ = load_checkpoint_v2(&buf);
        }
        // Pure garbage of assorted lengths.
        for len in [0usize, 1, 3, 7, 8, 12, 13, 64, 1024] {
            let garbage: Vec<u8> = (0..len).map(|_| (rng.gen::<u32>() & 0xFF) as u8).collect();
            let _ = load_checkpoint_v2(&garbage);
        }
    }

    #[test]
    fn v2_inconsistent_adam_coverage_rejected() {
        let mut ck = sample_v2();
        ck.ppo_opt.m = vec![0.0; 3]; // doesn't cover the policy
        ck.ppo_opt.v = vec![0.0; 3];
        let bytes = save_checkpoint_v2(&ck);
        assert!(matches!(
            load_checkpoint_v2(&bytes).unwrap_err(),
            CheckpointError::Inconsistent(_)
        ));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join("vcnn-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ck.bin");
        write_checkpoint_file(&path, b"old").unwrap();
        let bytes = save_checkpoint_v2(&sample_v2());
        write_checkpoint_file(&path, &bytes).unwrap();
        let read = std::fs::read(&path).unwrap();
        assert_eq!(read, bytes);
        assert!(!dir.join("ck.bin.tmp").exists(), "tmp file left behind");
        load_checkpoint_v2(&read).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reader_reads_little_endian_fields() {
        let mut w = vec![7u8];
        w.extend(0xDEAD_BEEFu32.to_le_bytes());
        w.extend(u64::MAX.to_le_bytes());
        w.extend(1.5f32.to_le_bytes());
        w.extend_from_slice(b"xy");
        let mut r = Reader { buf: &w };
        assert_eq!(r.remaining(), 19);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f32(), Ok(1.5));
        assert_eq!(r.take(2), Ok(&b"xy"[..]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_past_end_is_truncated_and_consumes_nothing() {
        let mut r = Reader { buf: &[1, 2] };
        assert_eq!(r.u32(), Err(CheckpointError::Truncated));
        assert_eq!(r.take(usize::MAX), Err(CheckpointError::Truncated));
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.take(2), Ok(&[1u8, 2][..]));
        assert_eq!(r.u8(), Err(CheckpointError::Truncated));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
