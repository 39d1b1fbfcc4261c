//! The ChaCha20 stream cipher (RFC 8439), from scratch.
//!
//! Used for payload confidentiality in data-policy packages and encrypted
//! task handover. Verified against the RFC quarter-round and block vectors.

/// Key length in bytes.
pub(crate) const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub(crate) const NONCE_LEN: usize = 12;

/// ChaCha20 keystream generator / XOR cipher.
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
}

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Creates a cipher instance for a key, nonce, and initial block counter.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[0] = 0x61707865;
        state[1] = 0x3320646e;
        state[2] = 0x79622d32;
        state[3] = 0x6b206574;
        for i in 0..8 {
            state[4 + i] =
                u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes([
                nonce[i * 4],
                nonce[i * 4 + 1],
                nonce[i * 4 + 2],
                nonce[i * 4 + 3],
            ]);
        }
        ChaCha20 { state }
    }

    /// Produces the 64-byte keystream block for the current counter and
    /// advances the counter.
    pub(crate) fn next_block(&mut self) -> [u8; 64] {
        let mut working = self.state;
        for _ in 0..10 {
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(self.state[i]);
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_le_bytes());
        }
        self.state[12] = self.state[12].wrapping_add(1);
        out
    }

    /// XORs the keystream into `data` in place (encrypt == decrypt).
    pub fn apply(&mut self, data: &mut [u8]) {
        for chunk in data.chunks_mut(64) {
            let block = self.next_block();
            for (byte, k) in chunk.iter_mut().zip(block.iter()) {
                *byte ^= k;
            }
        }
    }
}

/// One-shot encryption: returns the ciphertext of `plaintext`.
///
/// ```
/// use vc_crypto::chacha20::{encrypt, decrypt};
/// let key = [7u8; 32];
/// let nonce = [9u8; 12];
/// let ct = encrypt(&key, &nonce, b"secret payload");
/// assert_eq!(decrypt(&key, &nonce, &ct), b"secret payload");
/// ```
pub fn encrypt(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    ChaCha20::new(key, nonce, 1).apply(&mut out);
    out
}

/// One-shot decryption (ChaCha20 is an involution under the same key/nonce).
pub fn decrypt(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], ciphertext: &[u8]) -> Vec<u8> {
    encrypt(key, nonce, ciphertext)
}

/// Authenticated encryption: ChaCha20 for confidentiality plus an
/// encrypt-then-MAC HMAC-SHA-256 tag over `nonce || ciphertext`.
///
/// (RFC 8439 pairs ChaCha20 with Poly1305; HMAC is used here since this
/// crate already ships SHA-256 and the experiments only need integrity plus
/// cost realism, not wire compatibility.)
pub fn seal(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], plaintext: &[u8]) -> Vec<u8> {
    let mut ct = encrypt(key, nonce, plaintext);
    let mut mac = crate::hmac::HmacSha256::new(key);
    mac.update(nonce);
    mac.update(&ct);
    let tag = mac.finalize();
    ct.extend_from_slice(&tag);
    ct
}

/// Opens a sealed message; returns `None` when the tag does not verify.
pub fn open(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], sealed: &[u8]) -> Option<Vec<u8>> {
    if sealed.len() < 32 {
        return None;
    }
    let (ct, tag) = sealed.split_at(sealed.len() - 32);
    let mut mac = crate::hmac::HmacSha256::new(key);
    mac.update(nonce);
    mac.update(ct);
    let expected = mac.finalize();
    let mut provided = [0u8; 32];
    provided.copy_from_slice(tag);
    if !crate::hmac::verify_tag(&expected, &provided) {
        return None;
    }
    Some(decrypt(key, nonce, ct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc8439_quarter_round_vector() {
        // RFC 8439 §2.1.1 test vector.
        let mut state = [0u32; 16];
        state[0] = 0x11111111;
        state[1] = 0x01020304;
        state[2] = 0x9b8d6f43;
        state[3] = 0x01234567;
        quarter_round(&mut state, 0, 1, 2, 3);
        assert_eq!(state[0], 0xea2a92f4);
        assert_eq!(state[1], 0xcb1cf8ce);
        assert_eq!(state[2], 0x4581472e);
        assert_eq!(state[3], 0x5881c4bb);
    }

    #[test]
    fn rfc8439_block_vector() {
        // RFC 8439 §2.3.2: key 00..1f, nonce 000000090000004a00000000, ctr 1.
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let mut c = ChaCha20::new(&key, &nonce, 1);
        let block = c.next_block();
        let expected_first16: [u8; 16] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4,
        ];
        assert_eq!(&block[..16], &expected_first16);
        let expected_last4: [u8; 4] = [0xa2, 0x50, 0x3c, 0x4e];
        assert_eq!(&block[60..], &expected_last4);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = [0xA5u8; 32];
        let nonce = [0x5Au8; 12];
        for len in [0usize, 1, 63, 64, 65, 1000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let ct = encrypt(&key, &nonce, &msg);
            assert_eq!(ct.len(), len);
            if len > 8 {
                assert_ne!(ct, msg, "ciphertext equals plaintext at len {len}");
            }
            assert_eq!(decrypt(&key, &nonce, &ct), msg, "len {len}");
        }
    }

    #[test]
    fn keystream_differs_by_nonce_and_key() {
        let key = [1u8; 32];
        let n1 = [1u8; 12];
        let n2 = [2u8; 12];
        assert_ne!(encrypt(&key, &n1, b"same message"), encrypt(&key, &n2, b"same message"));
        let key2 = [2u8; 32];
        assert_ne!(encrypt(&key, &n1, b"same message"), encrypt(&key2, &n1, b"same message"));
    }

    #[test]
    fn counter_advances_per_block() {
        let key = [3u8; 32];
        let nonce = [4u8; 12];
        let mut c = ChaCha20::new(&key, &nonce, 0);
        let b0 = c.next_block();
        let b1 = c.next_block();
        assert_ne!(b0, b1);
        // A fresh cipher starting at counter 1 must produce b1 first.
        let mut c2 = ChaCha20::new(&key, &nonce, 1);
        assert_eq!(c2.next_block(), b1);
    }

    #[test]
    fn seal_open_roundtrip_and_tamper_detection() {
        let key = [9u8; 32];
        let nonce = [8u8; 12];
        let sealed = seal(&key, &nonce, b"task state checkpoint");
        assert_eq!(open(&key, &nonce, &sealed).unwrap(), b"task state checkpoint");
        let mut tampered = sealed.clone();
        tampered[0] ^= 1;
        assert_eq!(open(&key, &nonce, &tampered), None);
        let mut cut = sealed.clone();
        cut.truncate(10);
        assert_eq!(open(&key, &nonce, &cut), None);
        let wrong_key = [10u8; 32];
        assert_eq!(open(&wrong_key, &nonce, &sealed), None);
    }

    #[test]
    fn seal_empty_message() {
        let key = [0u8; 32];
        let nonce = [0u8; 12];
        let sealed = seal(&key, &nonce, b"");
        assert_eq!(sealed.len(), 32);
        assert_eq!(open(&key, &nonce, &sealed).unwrap(), Vec::<u8>::new());
    }
}
