//! Length-checked byte buffer primitives for the `vcloudd` frame codec
//! ([`crate::svc`]).
//!
//! In-tree replacement for the `bytes` crate's `Buf`/`BufMut`: a
//! [`ByteWriter`] appends big-endian fields to a growable buffer, a
//! [`ByteReader`] consumes them defensively — every read is length-checked
//! and returns `None` on underrun instead of panicking, and slice reads
//! borrow from the input (zero-copy).

/// Append-only big-endian encoder over a `Vec<u8>`.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter { buf: Vec::with_capacity(capacity) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub(crate) fn put_slice(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Finishes encoding, yielding the frame.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Consuming big-endian decoder over a borrowed byte slice.
///
/// Every accessor returns `None` once the input is exhausted; slice reads
/// ([`ByteReader::take`]) are zero-copy borrows of the input.
#[derive(Debug, Clone, Copy)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { rest: buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Consumes and returns the next `n` bytes as a borrowed slice.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.rest.len() < n {
            return None;
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Some(head)
    }

    /// Consumes one byte.
    pub(crate) fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Consumes a big-endian `u32`.
    pub(crate) fn get_u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_be_bytes(s.try_into().expect("4 bytes")))
    }

    /// Consumes a big-endian `u64`.
    pub(crate) fn get_u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_be_bytes(s.try_into().expect("8 bytes")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_field_types() {
        let mut w = ByteWriter::with_capacity(32);
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_slice(b"tail");
        assert_eq!(w.len(), 1 + 4 + 8 + 4);
        let frame = w.into_vec();
        let mut r = ByteReader::new(&frame);
        assert_eq!(r.get_u8(), Some(0xAB));
        assert_eq!(r.get_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Some(0x0123_4567_89AB_CDEF));
        assert_eq!(r.take(4), Some(&b"tail"[..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.get_u8(), None);
    }

    #[test]
    fn underruns_return_none_not_panic() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u32(), None, "4 bytes from 3 must fail");
        assert_eq!(r.remaining(), 3, "failed read consumes nothing");
        assert_eq!(r.get_u8(), Some(1));
        assert_eq!(r.take(5), None);
        assert_eq!(r.take(2), Some(&[2u8, 3][..]));
    }

    #[test]
    fn take_is_zero_copy_borrow() {
        let frame = vec![9u8; 16];
        let mut r = ByteReader::new(&frame);
        let head = r.take(8).unwrap();
        assert_eq!(head.as_ptr(), frame.as_ptr(), "borrowed, not copied");
    }
}
