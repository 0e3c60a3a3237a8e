//! Concurrency-primitive shim: real `std`/`core` types in normal builds,
//! `loom`-instrumented types under `RUSTFLAGS="--cfg loom"`.
//!
//! Every atomic and every interior-mutability cell on the lock-free data
//! path goes through this module so the loom model checker can explore
//! interleavings and detect illegal concurrent slot access (DESIGN.md §7).
//! `insane-memory` reuses the same shim via this re-export, keeping the
//! two `unsafe` crates on one set of instrumented primitives.
//!
//! The `UnsafeCell` here mirrors loom's closure-based API (`with` for
//! shared access, `with_mut` for exclusive access) instead of the raw
//! `get()` pointer escape: in loom builds the closures are the probes
//! that catch protocol violations, in normal builds they compile to the
//! plain pointer access.

#[cfg(loom)]
pub use loom::{
    cell::UnsafeCell,
    hint,
    sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering},
    sync::Arc,
    thread,
};

#[cfg(not(loom))]
pub use core::sync::atomic::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
pub use std::sync::Arc;
#[cfg(not(loom))]
pub use std::thread;

#[cfg(not(loom))]
pub mod hint {
    //! Spin-loop hint matching `loom::hint`.

    /// Busy-wait hint to the processor.
    #[inline(always)]
    pub fn spin_loop() {
        core::hint::spin_loop();
    }
}

/// Interior-mutability cell with loom's closure-based access API.
///
/// In normal builds this is a zero-cost wrapper over
/// [`core::cell::UnsafeCell`]; under `cfg(loom)` the loom version is used
/// instead, which instruments every access.
#[cfg(not(loom))]
#[derive(Debug, Default)]
pub struct UnsafeCell<T>(core::cell::UnsafeCell<T>);

#[cfg(not(loom))]
impl<T> UnsafeCell<T> {
    /// Wraps `data`.
    pub const fn new(data: T) -> Self {
        Self(core::cell::UnsafeCell::new(data))
    }

    /// Shared access to the cell contents.
    ///
    /// The *caller* must guarantee no concurrent exclusive access; the
    /// loom build checks that guarantee at model-run time.
    #[inline(always)]
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        f(self.0.get())
    }

    /// Exclusive access to the cell contents.
    ///
    /// The *caller* must guarantee no concurrent access of any kind; the
    /// loom build checks that guarantee at model-run time.
    #[inline(always)]
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_cell_with_and_with_mut_round_trip() {
        let cell = UnsafeCell::new(5u64);
        // SAFETY: single-threaded test — no concurrent access exists.
        cell.with_mut(|p| unsafe { *p += 1 });
        // SAFETY: as above.
        assert_eq!(cell.with(|p| unsafe { *p }), 6);
    }
}
