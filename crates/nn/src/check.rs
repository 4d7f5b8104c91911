//! Graph-boundary invariant checking.
//!
//! Numerical bugs (exploding losses, shape confusions behind flat buffers)
//! are far cheaper to catch where data *enters or leaves* the autograd tape
//! than three layers downstream. This module validates tensors at those
//! boundaries:
//!
//! * [`validate_tensor`] — the always-available fallible check, returning a
//!   typed [`NnError`];
//! * [`assert_valid`] — the gated form the graph calls on every leaf/param
//!   node and on every parameter gradient produced by backward. It compiles
//!   to a no-op without debug assertions, so release training loops pay
//!   nothing while `cargo test` still runs every check.

use crate::error::NnError;
use crate::tensor::Tensor;

/// Whether boundary checks are compiled in (builds with debug assertions).
pub const ENABLED: bool = cfg!(debug_assertions);

/// Validates one tensor: its shape must describe exactly the stored element
/// count and every element must be finite.
///
/// # Errors
///
/// [`NnError::ShapeDataMismatch`] or [`NnError::NonFinite`] describing the
/// first violation found.
pub fn validate_tensor(t: &Tensor, context: &'static str) -> Result<(), NnError> {
    if t.numel() != t.data().len() {
        return Err(NnError::ShapeDataMismatch {
            context,
            shape: t.shape().to_vec(),
            data_len: t.data().len(),
        });
    }
    if let Some(index) = t.data().iter().position(|v| !v.is_finite()) {
        return Err(NnError::NonFinite { context, index });
    }
    Ok(())
}

/// Gated boundary assertion: panics with the [`NnError`] description when
/// [`ENABLED`] and the tensor is invalid, does nothing otherwise.
///
/// # Panics
///
/// In builds with debug assertions, when `t` fails [`validate_tensor`].
#[inline]
pub fn assert_valid(t: &Tensor, context: &'static str) {
    if ENABLED {
        if let Err(e) = validate_tensor(t, context) {
            panic!("invariant violation: {e}");
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn finite_tensor_passes() {
        let t = Tensor::from_vec(&[2, 2], vec![1.0, -2.0, 0.0, 3.5]);
        assert!(validate_tensor(&t, "test").is_ok());
    }

    #[test]
    fn nan_is_rejected_with_its_index() {
        let t = Tensor::from_vec(&[3], vec![0.0, f32::NAN, 1.0]);
        let err = validate_tensor(&t, "test").unwrap_err();
        assert_eq!(err, NnError::NonFinite { context: "test", index: 1 });
    }

    #[test]
    fn infinity_is_rejected() {
        let t = Tensor::from_vec(&[2], vec![f32::INFINITY, 0.0]);
        assert!(matches!(validate_tensor(&t, "test"), Err(NnError::NonFinite { index: 0, .. })));
    }

    #[test]
    #[cfg(debug_assertions)]
    fn assert_valid_panics_in_debug() {
        let t = Tensor::from_vec(&[1], vec![f32::NEG_INFINITY]);
        let res = std::panic::catch_unwind(|| assert_valid(&t, "boundary"));
        assert!(res.is_err());
    }
}
