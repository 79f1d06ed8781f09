//! A minimal cheaply-cloneable byte buffer.
//!
//! Transaction payloads are cloned every time a block is broadcast, echoed or
//! re-queued, so payload bytes are reference-counted: cloning a [`Bytes`] is a
//! pointer copy, never a memcpy. This replaces the external `bytes` crate with
//! the small subset of its API the workspace actually uses.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
///
/// # Example
///
/// ```
/// use bamboo_types::Bytes;
///
/// let payload = Bytes::from(vec![1u8, 2, 3]);
/// let copy = payload.clone(); // O(1), shares the allocation
/// assert_eq!(&*copy, &[1, 2, 3]);
/// assert_eq!(payload.len(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer filled with `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        Bytes(vec![0u8; len].into())
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns true if the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(bytes: Vec<u8>) -> Self {
        Bytes(bytes.into())
    }
}

impl From<&[u8]> for Bytes {
    fn from(bytes: &[u8]) -> Self {
        Bytes(bytes.into())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} B)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_paths_agree() {
        assert_eq!(Bytes::zeroed(4), Bytes::from(vec![0u8; 4]));
        assert_eq!(Bytes::from(&b"abc"[..]).as_slice(), b"abc");
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from(&b"xy"[..]).len(), 2);
    }

    #[test]
    fn clones_share_the_allocation() {
        let a = Bytes::from(vec![7u8; 1024]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()));
        assert_eq!(a, b);
    }

    #[test]
    fn deref_exposes_slice_methods() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.iter().sum::<u8>(), 6);
        assert_eq!(&b[1..], &[2, 3]);
    }
}
