//! A fixed-capacity [`BufMut`] over a stack array.
//!
//! A message with a known upper bound on its length (a registration
//! message, an ICMP error) is written in place here and copied into its
//! `Bytes` once, so it costs one allocation, not a vector and a shared
//! handle around it.

use bytes::BufMut;
use std::ops::{Deref, DerefMut};

/// Up to `N` bytes, written in place on the stack.
///
/// A write past `N` panics: the caller sizes `N` to its message's bound.
pub struct ArrayBuf<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> Default for ArrayBuf<N> {
    /// An empty buffer.
    #[inline]
    fn default() -> ArrayBuf<N> {
        ArrayBuf {
            buf: [0; N],
            len: 0,
        }
    }
}

impl<const N: usize> Deref for ArrayBuf<N> {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl<const N: usize> DerefMut for ArrayBuf<N> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[..self.len]
    }
}

impl<const N: usize> BufMut for ArrayBuf<N> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        let end = self.len + src.len();
        self.buf[self.len..end].copy_from_slice(src);
        self.len = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn a_write_past_the_capacity_panics() {
        let mut b = ArrayBuf::<4>::default();
        b.put_u32(1);
        b.put_u8(2);
    }
}
