//! The one address parameter of the GLS interface.

/// The identity of a lock: the address of any object, or any value except
/// 0/NULL (`gls_lock(17)`). Every [`GlsService`](super::GlsService) method takes
/// `impl Into<LockAddr>`, so `gls.lock(&object)` and `gls.lock(17usize)`
/// are the same call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockAddr(pub(super) usize);

impl From<usize> for LockAddr {
    #[inline]
    fn from(addr: usize) -> Self {
        Self(addr)
    }
}

impl<T: ?Sized> From<&T> for LockAddr {
    #[inline]
    fn from(m: &T) -> Self {
        Self(m as *const T as *const () as usize)
    }
}
