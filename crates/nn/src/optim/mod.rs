//! Optimizers consuming [`crate::param::ParamStore`] gradients.

mod adam;
mod schedule;

pub use adam::{Adam, MomentLengthMismatch};
pub use schedule::LrSchedule;

use crate::param::ParamStore;

/// Common optimizer interface: apply the accumulated gradients to the
/// parameter values, then (typically) `store.zero_grads()` at the call site.
pub trait Optimizer {
    /// One update step from the currently accumulated gradients.
    fn step(&mut self, store: &mut ParamStore);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;

    /// Replaces the learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}
