//! Checkpoint-footer edge cases the random-corruption fuzz suite misses:
//! truncation *exactly* at the CRC32 footer boundary, files whose CRC is
//! valid but whose shape header is internally inconsistent, and zero-length
//! files. Every case must come back as a typed [`CheckpointError`] — the
//! loader must never panic on hostile bytes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use vc_nn::param::ParamStore;
use vc_nn::serialize::{
    load_checkpoint_v2, save_checkpoint_v2, AdamState, CheckpointError, TrainCheckpoint,
};
use vc_nn::tensor::Tensor;

/// Local copy of the codec's CRC32 (IEEE 802.3, reflected 0xEDB88320) so
/// tests can forge *valid* footers over deliberately inconsistent bodies.
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

/// A small but structurally complete checkpoint: one 2x3 parameter,
/// matching Adam moments, two RNG streams, and a meta string.
fn sample_checkpoint() -> TrainCheckpoint {
    let mut policy = ParamStore::new();
    policy.add("w", Tensor::from_vec(&[2, 3], vec![0.5; 6]));
    TrainCheckpoint {
        policy,
        curiosity: None,
        ppo_opt: AdamState { t: 3, m: vec![0.1; 6], v: vec![0.2; 6] },
        curiosity_opt: None,
        rng_states: vec![[1, 2, 3, 4], [5, 6, 7, 8]],
        episodes: 11,
        rounds: 7,
        meta: "{\"k\":1}".to_owned(),
    }
}

#[test]
fn zero_length_and_tiny_files_are_typed_errors() {
    assert_eq!(load_checkpoint_v2(&[]).unwrap_err(), CheckpointError::Truncated);
    // Every prefix shorter than magic+version is truncation, not a panic.
    let good = save_checkpoint_v2(&sample_checkpoint());
    for n in 1..8 {
        assert_eq!(
            load_checkpoint_v2(&good[..n]).unwrap_err(),
            CheckpointError::Truncated,
            "prefix of {n} bytes"
        );
    }
    // Magic+version alone (8 bytes): past the header check but with no
    // room for body or footer.
    assert_eq!(load_checkpoint_v2(&good[..8]).unwrap_err(), CheckpointError::Truncated);
}

#[test]
fn truncation_exactly_at_footer_boundary() {
    let good = save_checkpoint_v2(&sample_checkpoint());
    let n = good.len();
    // The file ends where the footer should begin: the loader reinterprets
    // the last 4 body bytes as a footer, which cannot match a CRC computed
    // over a body that no longer contains them.
    let at_boundary = &good[..n - 4];
    assert!(
        matches!(
            load_checkpoint_v2(at_boundary).unwrap_err(),
            CheckpointError::BadCrc { .. } | CheckpointError::Truncated
        ),
        "truncation at footer boundary must be typed"
    );
    // Partial footers (1–3 bytes survive) and one byte short of the
    // boundary behave the same way.
    for cut in [n - 1, n - 2, n - 3, n - 5] {
        assert!(
            matches!(
                load_checkpoint_v2(&good[..cut]).unwrap_err(),
                CheckpointError::BadCrc { .. } | CheckpointError::Truncated
            ),
            "cut at {cut}/{n}"
        );
    }
}

#[test]
fn every_truncation_point_is_an_error_never_a_panic() {
    let good = save_checkpoint_v2(&sample_checkpoint());
    for cut in 0..good.len() {
        assert!(load_checkpoint_v2(&good[..cut]).is_err(), "cut at {cut} parsed");
    }
    // The untruncated file still round-trips.
    let back = load_checkpoint_v2(&good).unwrap();
    assert_eq!(back.rounds, 7);
    assert_eq!(back.policy.num_scalars(), 6);
}

#[test]
fn valid_crc_with_inconsistent_adam_shape_is_rejected() {
    // Moments of the wrong (non-empty) length serialize fine — the CRC is
    // honest about the bytes — but the loader must cross-check them
    // against the policy's scalar count.
    let mut ck = sample_checkpoint();
    ck.ppo_opt = AdamState { t: 1, m: vec![0.0; 5], v: vec![0.0; 5] };
    let bytes = save_checkpoint_v2(&ck);
    assert_eq!(
        load_checkpoint_v2(&bytes).unwrap_err(),
        CheckpointError::Inconsistent("ppo Adam moments don't cover the policy")
    );
}

#[test]
fn valid_crc_with_forged_shape_header_is_rejected() {
    let good = save_checkpoint_v2(&sample_checkpoint());
    let mut forged = good.to_vec();
    // Body layout after magic(4)+version(4)+curiosity flag(1): store count
    // u32, then name_len u32 ("w" = 1), name, frozen u8, ndim u32 at
    // offset 4+4+1+4+4+1+1 = 19. Bump ndim from 2 to 200 so the declared
    // shape no longer fits the data that follows.
    let ndim_off = 19;
    assert_eq!(u32::from_le_bytes(forged[ndim_off..ndim_off + 4].try_into().unwrap()), 2);
    forged[ndim_off..ndim_off + 4].copy_from_slice(&200u32.to_le_bytes());
    // Re-seal with a *correct* footer so only the shape header is wrong.
    let body_len = forged.len() - 4;
    let crc = crc32(&forged[..body_len]);
    forged[body_len..].copy_from_slice(&crc.to_le_bytes());
    assert!(
        matches!(
            load_checkpoint_v2(&forged).unwrap_err(),
            CheckpointError::Truncated | CheckpointError::Inconsistent(_)
        ),
        "forged shape header with valid CRC must be typed"
    );
}

#[test]
fn forged_footer_over_garbage_tail_is_rejected() {
    // A file with extra trailing garbage re-sealed under a valid CRC: the
    // body parses but leaves unconsumed bytes, which must not be ignored.
    let good = save_checkpoint_v2(&sample_checkpoint());
    let mut padded = good[..good.len() - 4].to_vec();
    padded.extend_from_slice(&[0xAB; 16]);
    let crc = crc32(&padded);
    padded.extend_from_slice(&crc.to_le_bytes());
    assert!(load_checkpoint_v2(&padded).is_err(), "trailing garbage accepted");
}

/// [`sample_checkpoint`] plus a curiosity store with a frozen parameter and
/// a curiosity Adam state, so every optional section is on the wire.
fn curious_checkpoint() -> TrainCheckpoint {
    let mut cur = ParamStore::new();
    cur.add("icm.w", Tensor::from_vec(&[2, 2], vec![0.25, -1.5, 3.0, 0.125]));
    cur.add_frozen("icm.emb", Tensor::from_vec(&[3], vec![-0.5, 2.0, 1e-3]));
    TrainCheckpoint {
        curiosity: Some(cur),
        curiosity_opt: Some(AdamState { t: 3, m: vec![0.3; 4], v: vec![0.4; 4] }),
        ..sample_checkpoint()
    }
}

/// `save_checkpoint_v2(&sample_checkpoint())`, recorded once and pinned.
const SAMPLE_HEX: &str = concat!(
    "56434e4e0200000000010000000100000077000200000002000000030000000000003f0000003f0000003f00",
    "00003f0000003f0000003f030000000000000006000000cdcccc3dcdcccc3dcdcccc3dcdcccc3dcdcccc3dcd",
    "cccc3dcdcc4c3ecdcc4c3ecdcc4c3ecdcc4c3ecdcc4c3ecdcc4c3e0200000001000000000000000200000000",
    "0000000300000000000000040000000000000005000000000000000600000000000000070000000000000008",
    "000000000000000b000000000000000700000000000000070000007b226b223a317da3f47620",
);

/// `save_checkpoint_v2(&curious_checkpoint())`, recorded once and pinned.
const CURIOUS_HEX: &str = concat!(
    "56434e4e0200000001010000000100000077000200000002000000030000000000003f0000003f0000003f00",
    "00003f0000003f0000003f020000000500000069636d2e77000200000002000000020000000000803e0000c0",
    "bf000040400000003e0700000069636d2e656d62010100000003000000000000bf000000406f12833a030000",
    "000000000006000000cdcccc3dcdcccc3dcdcccc3dcdcccc3dcdcccc3dcdcccc3dcdcc4c3ecdcc4c3ecdcc4c",
    "3ecdcc4c3ecdcc4c3ecdcc4c3e0300000000000000040000009a99993e9a99993e9a99993e9a99993ecdcccc",
    "3ecdcccc3ecdcccc3ecdcccc3e02000000010000000000000002000000000000000300000000000000040000",
    "000000000005000000000000000600000000000000070000000000000008000000000000000b000000000000",
    "000700000000000000070000007b226b223a317d52cfb69d",
);

#[test]
fn pinned_bytes_save_and_load_unchanged() {
    // The wire bytes are a compatibility contract: files written by any
    // earlier build must keep loading, and a save must reproduce them
    // byte for byte.
    for (ck, hex) in [(sample_checkpoint(), SAMPLE_HEX), (curious_checkpoint(), CURIOUS_HEX)] {
        let pinned: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(save_checkpoint_v2(&ck)[..], pinned[..]);
        // The v2 layout writes every field length-prefixed, so a loaded
        // checkpoint that saves back to the pinned bytes is field for
        // field the one that wrote them.
        let back = load_checkpoint_v2(&pinned).unwrap();
        assert_eq!(save_checkpoint_v2(&back)[..], pinned[..]);
    }
}
