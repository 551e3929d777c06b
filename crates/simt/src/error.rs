//! Error types for kernel launches.

use std::fmt;

/// Errors produced when validating or executing a kernel launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// `block_dim` exceeds the device's `max_threads_per_block`.
    BlockTooLarge {
        /// Requested threads per block.
        requested: u32,
        /// Device limit.
        limit: u32,
    },
    /// A zero-sized grid or block was requested.
    EmptyLaunch,
    /// Declared dynamic shared memory exceeds the per-block limit.
    SharedMemTooLarge {
        /// Requested bytes per block.
        requested: u32,
        /// Device limit per block.
        limit: u32,
    },
    /// A block allocated more shared memory at runtime than it declared at
    /// launch (CUDA would fault; we fail the launch deterministically).
    SharedMemOverflow {
        /// Block that overflowed.
        block_idx: u32,
        /// Bytes the block tried to hold live at once.
        used: u32,
        /// Bytes declared in the [`crate::LaunchConfig`].
        declared: u32,
    },
    /// Cooperative group size must be a power of two that divides the block
    /// or be a multiple of the block's warp count structure; see
    /// [`crate::BlockCtx::for_each_group`].
    BadGroupSize {
        /// Requested group size.
        group_size: u32,
        /// Block size it must tile.
        block_dim: u32,
    },
    /// The work description handed to the engine is malformed (e.g. a COO
    /// operand that is not in canonical row-major order). Surfaced as a
    /// configuration error instead of a panic so serving paths can fall
    /// back.
    InvalidWork {
        /// Human-readable description of the violated precondition.
        reason: String,
    },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BlockTooLarge { requested, limit } => write!(
                f,
                "block of {requested} threads exceeds device limit of {limit}"
            ),
            Self::EmptyLaunch => write!(f, "grid and block dimensions must be non-zero"),
            Self::SharedMemTooLarge { requested, limit } => write!(
                f,
                "declared shared memory {requested} B exceeds per-block limit {limit} B"
            ),
            Self::SharedMemOverflow {
                block_idx,
                used,
                declared,
            } => write!(
                f,
                "block {block_idx} held {used} B of shared memory live but declared only {declared} B"
            ),
            Self::BadGroupSize {
                group_size,
                block_dim,
            } => write!(
                f,
                "group size {group_size} does not evenly tile block of {block_dim} threads"
            ),
            Self::InvalidWork { reason } => write!(f, "invalid work description: {reason}"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Convenience result alias for launch operations.
pub type Result<T> = std::result::Result<T, LaunchError>;

/// Errors produced when dispatching work onto a simulated device that may
/// be running under an injected [`FaultPlan`](crate::fault::FaultPlan).
///
/// [`LaunchError`] covers *static* validation failures, raised where a
/// kernel executes ([`launch`](mod@crate::launch)); `SimError` covers the
/// *dynamic* failures a resilient runtime must survive when
/// [`DeviceSim::replay`](crate::stream::DeviceSim::replay) places the job
/// on a device: devices dying mid-run and transient launch failures. Both
/// are retryable, by failing over or by trying the same device again.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The device died (its [`FaultPlan`](crate::FaultPlan) kill tick passed); every future
    /// dispatch to it fails too. Jobs whose execution would cross the
    /// kill tick are lost and must be re-dispatched elsewhere.
    DeviceLost {
        /// Device index stamped on the device's trace events.
        device: u32,
        /// Device-clock time of the refused dispatch.
        at_ms: f64,
    },
    /// A kernel launch failed transiently (driver hiccup, ECC retry);
    /// the same dispatch may succeed if retried.
    TransientLaunch {
        /// Device index stamped on the device's trace events.
        device: u32,
        /// Device-clock time of the failed attempt.
        at_ms: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DeviceLost { device, at_ms } => {
                write!(f, "device {device} lost at {at_ms:.4} ms")
            }
            Self::TransientLaunch { device, at_ms } => {
                write!(f, "transient launch failure on device {device} at {at_ms:.4} ms")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for fault-aware dispatch operations.
pub type SimResult<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = LaunchError::BlockTooLarge {
            requested: 2048,
            limit: 1024,
        };
        assert!(e.to_string().contains("2048"));
        assert!(e.to_string().contains("1024"));
        let e = LaunchError::BadGroupSize {
            group_size: 48,
            block_dim: 256,
        };
        assert!(e.to_string().contains("48"));
        let e = LaunchError::InvalidWork {
            reason: "COO entries not canonical".into(),
        };
        assert!(e.to_string().contains("invalid work"));
        assert!(e.to_string().contains("canonical"));
        let lost = SimError::DeviceLost { device: 2, at_ms: 1.25 };
        assert!(lost.to_string().contains("device 2"));
        let transient = SimError::TransientLaunch { device: 0, at_ms: 0.5 };
        assert!(transient.to_string().contains("transient"));
    }

    #[test]
    fn error_implements_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&LaunchError::EmptyLaunch);
        takes_err(&SimError::DeviceLost { device: 0, at_ms: 1.0 });
    }
}
