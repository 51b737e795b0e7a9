//! Cache-line padding.
//!
//! The paper's methodology pads every lock to 64 bytes (one cache line) "for
//! fairness and for avoiding false cache-line sharing" (§3.2). [`CachePadded`]
//! aligns and pads its contents to 64 bytes, the cache line of the paper's
//! x86-64 platforms.

/// Pads and aligns `T` to a cache-line boundary.
///
/// # Example
///
/// ```
/// use gls_locks::CachePadded;
/// use std::sync::atomic::AtomicU64;
///
/// let slot: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(0));
/// assert_eq!(std::mem::align_of_val(&slot), 64);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a cache-line-aligned container.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_is_a_cache_line() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        assert!(std::mem::size_of::<CachePadded<u8>>() >= 64);
    }

    #[test]
    fn deref_reaches_inner_value() {
        let mut p = CachePadded::new(5u32);
        assert_eq!(*p, 5);
        *p = 7;
        assert_eq!(*p, 7);
    }

    #[test]
    fn from_and_default() {
        let p: CachePadded<u64> = 9u64.into();
        assert_eq!(*p, 9);
        let d: CachePadded<u64> = CachePadded::default();
        assert_eq!(*d, 0);
    }
}
