//! The synchronization facade the lock protocols are written against.
//!
//! In a normal build (`cargo build`, `cargo test`) every item here is a
//! zero-cost passthrough to `std`. Under `RUSTFLAGS="--cfg gls_model"` the
//! same paths resolve to the instrumented types from [`gls_model`], whose
//! every operation is a scheduling point for the deterministic concurrency
//! explorer — which is how the protocol model tests in `crates/model/tests`
//! drive `FutexLock`, the parking lot, the condvar and the entry
//! lifecycle through exhaustively many interleavings.
//!
//! The build is switched by a `cfg`, not a feature, on purpose: feature
//! unification would silently flip the whole workspace into model mode for
//! any build that enables it anywhere, whereas `--cfg gls_model` is a
//! deliberate, whole-compilation choice made only by the model-test CI
//! step.
//!
//! `Mutex`/`Condvar` are thin newtypes in the normal build rather than
//! `pub use std::sync::Mutex` re-exports: clippy's `disallowed-types` lint
//! (see `clippy.toml`) matches *resolved* def-paths, so a re-export would
//! flag every consumer of the facade. The newtype keeps the lint meaningful
//! — raw `std::sync::Mutex` anywhere else in the workspace is a violation,
//! while the facade stays the one sanctioned wrapper.

/// Atomic types: instrumented under `--cfg gls_model`, std otherwise.
pub mod atomic {
    #[cfg(gls_model)]
    pub use gls_model::atomic::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
    #[cfg(not(gls_model))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };
}

/// Spin hints: a budgeted scheduling point under the model (a spinning
/// virtual thread parks after K hints and yields the baton to the
/// explorer), a CPU hint otherwise.
pub mod hint {
    #[cfg(gls_model)]
    pub use gls_model::hint::spin_loop;
    #[cfg(not(gls_model))]
    pub use std::hint::spin_loop;
}

/// The `UnsafeCell` stand-in for lock-protected plain data. Under the
/// model every access records a read/write epoch against the owning
/// thread's vector clock and fails the exploration when two accesses are
/// unordered by happens-before; the normal build is a zero-cost
/// `UnsafeCell` wrapper with the same closure API.
pub mod cell {
    #[cfg(gls_model)]
    pub use gls_model::cell::ModelCell;
    #[cfg(not(gls_model))]
    pub use passthrough::ModelCell;

    #[cfg(not(gls_model))]
    mod passthrough {
        use std::cell::UnsafeCell;

        /// Passthrough `UnsafeCell` with the model cell's closure API.
        #[derive(Debug, Default)]
        pub struct ModelCell<T> {
            inner: UnsafeCell<T>,
        }

        // SAFETY: a plain-data container like UnsafeCell; sending it moves
        // the value with exclusive access.
        unsafe impl<T: Send> Send for ModelCell<T> {}
        // SAFETY: sharing only hands out raw pointers via `with`/`with_mut`;
        // callers are responsible for synchronizing the dereference (the
        // model build of the same API verifies that they do).
        unsafe impl<T: Send> Sync for ModelCell<T> {}

        impl<T> ModelCell<T> {
            pub const fn new(value: T) -> Self {
                Self {
                    inner: UnsafeCell::new(value),
                }
            }

            /// Runs `f` with a shared raw pointer to the value.
            #[inline]
            pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
                f(self.inner.get())
            }

            /// Runs `f` with an exclusive raw pointer to the value.
            #[inline]
            pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
                f(self.inner.get())
            }

            #[inline]
            pub fn get_mut(&mut self) -> &mut T {
                self.inner.get_mut()
            }

            #[inline]
            pub fn into_inner(self) -> T {
                self.inner.into_inner()
            }
        }
    }
}

/// Thread spawn/join/yield: virtual threads inside a model execution.
pub mod thread {
    #[cfg(gls_model)]
    pub use gls_model::thread::{spawn, yield_now, JoinHandle};
    #[cfg(not(gls_model))]
    pub use std::thread::{spawn, yield_now, JoinHandle};
}

/// Blocking primitives. `WaitTimeoutResult` is the facade's own type in
/// both modes (std's has no public constructor, which the model needs).
pub mod sync {
    #[cfg(gls_model)]
    pub use gls_model::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
    #[cfg(not(gls_model))]
    pub use passthrough::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    // The facade IS the sanctioned wrapper around the raw std primitives
    // (see clippy.toml); this is the one place they may appear.
    #[allow(clippy::disallowed_types)]
    #[cfg(not(gls_model))]
    mod passthrough {
        use std::fmt;
        use std::ops::{Deref, DerefMut};
        use std::sync::{LockResult, PoisonError, TryLockError, TryLockResult};
        use std::time::Duration;

        /// Passthrough wrapper around the std mutex.
        // The facade is the one sanctioned home for the raw std primitive;
        // everything else goes through this wrapper (see clippy.toml).
        #[allow(clippy::disallowed_types)]
        pub struct Mutex<T: ?Sized> {
            inner: std::sync::Mutex<T>,
        }

        /// Guard for [`Mutex`]; a plain newtype, so dropping it is exactly
        /// a std guard drop.
        pub struct MutexGuard<'a, T: ?Sized> {
            inner: std::sync::MutexGuard<'a, T>,
        }

        impl<T: Default> Default for Mutex<T> {
            fn default() -> Self {
                Self::new(T::default())
            }
        }

        impl<T> Mutex<T> {
            pub const fn new(value: T) -> Self {
                Self {
                    inner: std::sync::Mutex::new(value),
                }
            }

            pub fn into_inner(self) -> LockResult<T> {
                self.inner.into_inner()
            }
        }

        impl<T: ?Sized> Mutex<T> {
            #[inline]
            pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
                match self.inner.lock() {
                    Ok(g) => Ok(MutexGuard { inner: g }),
                    Err(p) => Err(PoisonError::new(MutexGuard {
                        inner: p.into_inner(),
                    })),
                }
            }

            #[inline]
            pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
                match self.inner.try_lock() {
                    Ok(g) => Ok(MutexGuard { inner: g }),
                    Err(TryLockError::Poisoned(p)) => {
                        Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                            inner: p.into_inner(),
                        })))
                    }
                    Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
                }
            }

            #[inline]
            pub fn get_mut(&mut self) -> LockResult<&mut T> {
                self.inner.get_mut()
            }
        }

        impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.inner.fmt(f)
            }
        }

        impl<T: ?Sized> Deref for MutexGuard<'_, T> {
            type Target = T;
            #[inline]
            fn deref(&self) -> &T {
                &self.inner
            }
        }

        impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
            #[inline]
            fn deref_mut(&mut self) -> &mut T {
                &mut self.inner
            }
        }

        /// Result of [`Condvar::wait_timeout`]; mirrors the std API.
        #[derive(Clone, Copy, Debug)]
        pub struct WaitTimeoutResult {
            timed_out: bool,
        }

        impl WaitTimeoutResult {
            pub fn timed_out(&self) -> bool {
                self.timed_out
            }
        }

        /// Passthrough wrapper around the std condvar.
        #[derive(Default)]
        pub struct Condvar {
            inner: std::sync::Condvar,
        }

        impl Condvar {
            pub const fn new() -> Self {
                Self {
                    inner: std::sync::Condvar::new(),
                }
            }

            #[inline]
            pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
                match self.inner.wait(guard.inner) {
                    Ok(g) => Ok(MutexGuard { inner: g }),
                    Err(p) => Err(PoisonError::new(MutexGuard {
                        inner: p.into_inner(),
                    })),
                }
            }

            #[inline]
            pub fn wait_timeout<'a, T>(
                &self,
                guard: MutexGuard<'a, T>,
                dur: Duration,
            ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
                match self.inner.wait_timeout(guard.inner, dur) {
                    Ok((g, r)) => Ok((
                        MutexGuard { inner: g },
                        WaitTimeoutResult {
                            timed_out: r.timed_out(),
                        },
                    )),
                    Err(p) => {
                        let (g, r) = p.into_inner();
                        Err(PoisonError::new((
                            MutexGuard { inner: g },
                            WaitTimeoutResult {
                                timed_out: r.timed_out(),
                            },
                        )))
                    }
                }
            }

            #[inline]
            pub fn notify_one(&self) {
                self.inner.notify_one();
            }

            #[inline]
            pub fn notify_all(&self) {
                self.inner.notify_all();
            }
        }

        impl fmt::Debug for Condvar {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.pad("Condvar { .. }")
            }
        }
    }
}

/// True when the current thread is a virtual thread of an active model
/// execution (always false outside `--cfg gls_model` builds — the check is
/// compiled out).
#[inline]
pub fn in_model_execution() -> bool {
    #[cfg(gls_model)]
    {
        gls_model::in_execution()
    }
    #[cfg(not(gls_model))]
    {
        false
    }
}
