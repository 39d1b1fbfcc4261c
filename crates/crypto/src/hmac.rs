//! HMAC-SHA-256 (RFC 2104) and an HKDF-style key-derivation function
//! (RFC 5869), built on this crate's SHA-256.

use crate::sha256::{Digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
///
/// ```
/// use vc_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA-256.
#[derive(Debug, Clone)]
pub(crate) struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates a MAC keyed with `key` (any length; long keys are hashed).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256::sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 { inner, opad_key: opad }
    }

    /// Absorbs message bytes.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the 32-byte tag.
    pub(crate) fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Constant-time equality for 32-byte tags.
///
/// A timing-safe comparison matters even in simulation code: the attack
/// framework measures exactly this kind of oracle.
pub(crate) fn verify_tag(expected: &Digest, provided: &Digest) -> bool {
    let mut diff = 0u8;
    for i in 0..DIGEST_LEN {
        diff |= expected[i] ^ provided[i];
    }
    diff == 0
}

/// HKDF-Extract: compresses input keying material into a pseudorandom key.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> Digest {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: derives `out_len` bytes (≤ 255·32) of key material bound to
/// `info`.
///
/// # Panics
///
/// Panics if `out_len > 8160`.
pub fn hkdf_expand(prk: &Digest, info: &[u8], out_len: usize) -> Vec<u8> {
    assert!(out_len <= 255 * DIGEST_LEN, "HKDF output too long");
    let mut out = Vec::with_capacity(out_len);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < out_len {
        let mut mac = HmacSha256::new(prk);
        mac.update(&previous);
        mac.update(info);
        mac.update(&[counter]);
        let block = mac.finalize();
        let take = (out_len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&block[..take]);
        previous = block.to_vec();
        counter = counter.wrapping_add(1);
    }
    out
}

/// Convenience: one-shot HKDF (extract then expand).
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, out_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case_1() {
        // key = 0x0b * 20, data = "Hi There"
        let tag = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(hex(&tag), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    }

    #[test]
    fn rfc4231_case_2() {
        // key = "Jefe", data = "what do ya want for nothing?"
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }

    #[test]
    fn long_key_is_hashed_first() {
        // A key longer than the block must hash to the same MAC as its digest.
        let long_key = vec![0x42u8; 100];
        let hashed_key = crate::sha256::sha256(&long_key);
        assert_eq!(hmac_sha256(&long_key, b"m"), hmac_sha256(&hashed_key, b"m"));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"k", b"hello world"));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn verify_tag_accepts_and_rejects() {
        let t = hmac_sha256(b"k", b"m");
        assert!(verify_tag(&t, &t));
        let mut bad = t;
        bad[31] ^= 1;
        assert!(!verify_tag(&t, &bad));
    }

    #[test]
    fn hkdf_lengths_and_determinism() {
        let okm1 = hkdf(b"salt", b"secret", b"ctx", 42);
        let okm2 = hkdf(b"salt", b"secret", b"ctx", 42);
        assert_eq!(okm1.len(), 42);
        assert_eq!(okm1, okm2);
        let other = hkdf(b"salt", b"secret", b"other", 42);
        assert_ne!(okm1, other);
    }

    #[test]
    fn hkdf_prefix_property() {
        // Expanding to a longer length keeps the shorter output as prefix.
        let prk = hkdf_extract(b"s", b"ikm");
        let short = hkdf_expand(&prk, b"i", 16);
        let long = hkdf_expand(&prk, b"i", 64);
        assert_eq!(&long[..16], &short[..]);
    }

    #[test]
    #[should_panic]
    fn hkdf_too_long_panics() {
        hkdf_expand(&[0u8; 32], b"", 255 * 32 + 1);
    }
}
