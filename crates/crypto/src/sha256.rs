//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The hash under every signature, MAC, pseudonym tag, and Merkle node in
//! the workspace. Verified against the standard test vectors.

/// Digest size in bytes.
pub(crate) const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use vc_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
/// fn hex(d: &[u8]) -> String { d.iter().map(|b| format!("{b:02x}")).collect() }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffered: 0, length_bytes: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        while let Some((block, rest)) = input.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            input = rest;
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    /// Finishes and returns the digest, consuming the hasher.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, 64-bit big-endian length. `update` leaves
        // at most 63 bytes buffered, so the 0x80 always fits; the length
        // needs a second block when fewer than 8 bytes remain after it.
        self.buffer[self.buffered] = 0x80;
        self.buffer[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&self.length_bytes.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The compression function on one byte block: the streaming hasher's step.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut words = [[0u32; 1]; 16];
    for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
        word[0] = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let mut lanes = state.map(|word| [word]);
    compress_from(&mut lanes, &words);
    *state = lanes.map(|[word]| word);
}

/// A value on its own 64-byte cache line.
#[repr(align(64))]
struct CacheLine<T>(T);

/// The SHA-256 compression function on `N` independent lanes: lane `l`
/// advances the chaining value `state[..][l]` by the block `block[..][l]`
/// (sixteen big-endian message words). The crate's only round loop.
///
/// Every working variable and schedule word is a `[u32; N]`, and each round
/// is **one** `for lane in 0..N` loop over all eight variables: that shape
/// is what LLVM turns into the target's vectors (4-wide SSE2 on baseline
/// x86-64, wider under the tiers [`compress_lanes`] dispatches to).
/// Per-operation helpers with a lane loop each (`rotr(x)`, `xor(x, y)`, ...)
/// measure twice the cost per hash (docs/CRYPTO.md, "Linkage-scan kernel").
/// With `N = 1` the loops vanish and this is the textbook scalar function.
///
/// `inline(always)`, not `inline`: each tier's wrapper must compile this
/// body with its own features. An out-of-line copy is built for the
/// baseline target and runs SSE2 code under every tier.
#[inline(always)]
fn compress_from<const N: usize>(state: &mut [[u32; N]; 8], block: &[[u32; N]; 16]) {
    // A rolling 16-word window of the message schedule: w[i & 15] is W_i.
    // Cache-line aligned: the AVX2 build reads it and spills beside it in
    // 32-byte halves, which split cache lines on a 16-byte-aligned stack
    // (≈ 120 ns per CRL entry instead of ≈ 60, depending on the caller).
    let mut w = CacheLine(*block);
    let w = &mut w.0;
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        if i >= 16 {
            let (w15, w7, w2) = (w[(i + 1) & 15], w[(i + 9) & 15], w[(i + 14) & 15]);
            let wi = &mut w[i & 15];
            for lane in 0..N {
                let s0 = w15[lane].rotate_right(7) ^ w15[lane].rotate_right(18) ^ (w15[lane] >> 3);
                let s1 = w2[lane].rotate_right(17) ^ w2[lane].rotate_right(19) ^ (w2[lane] >> 10);
                wi[lane] = wi[lane].wrapping_add(s0).wrapping_add(w7[lane]).wrapping_add(s1);
            }
        }
        let wi = &w[i & 15];
        for lane in 0..N {
            let s1 = e[lane].rotate_right(6) ^ e[lane].rotate_right(11) ^ e[lane].rotate_right(25);
            let ch = (e[lane] & f[lane]) ^ (!e[lane] & g[lane]);
            let temp1 =
                h[lane].wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(wi[lane]);
            let s0 = a[lane].rotate_right(2) ^ a[lane].rotate_right(13) ^ a[lane].rotate_right(22);
            let maj = (a[lane] & b[lane]) ^ (a[lane] & c[lane]) ^ (b[lane] & c[lane]);
            let temp2 = s0.wrapping_add(maj);
            h[lane] = g[lane];
            g[lane] = f[lane];
            f[lane] = e[lane];
            e[lane] = d[lane].wrapping_add(temp1);
            d[lane] = c[lane];
            c[lane] = b[lane];
            b[lane] = a[lane];
            a[lane] = temp1.wrapping_add(temp2);
        }
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        for lane in 0..N {
            word[lane] = word[lane].wrapping_add(add[lane]);
        }
    }
}

/// Hashes `N` independent single-block messages at once: `blocks[i][l]` is
/// big-endian word `i` of lane `l`'s already-padded 64-byte block, and the
/// result's `[j][l]` is word `j` of lane `l`'s digest — exactly
/// `sha256(message_l)` for a message short enough (≤ 55 bytes) to pad into
/// one block.
///
/// The words are lane-minor (structure of arrays) so that one vector load
/// fetches the same word of adjacent lanes. Safe Rust with no intrinsics:
/// the speed comes from the loop shape documented on the private round
/// function. On x86 that one round loop is built three times — for
/// AVX-512F, for AVX2, and for the baseline target — and each call runs the
/// best build the CPU reports; the digests are the same bytes whichever
/// runs. Callers with a fixed message shape and many messages (the CRL
/// linkage scan in `vc_auth::pseudonym`) use this; everything else wants
/// [`sha256`].
///
/// ```
/// use vc_crypto::sha256::{compress_lanes, sha256};
/// // "abc" padded by hand: 0x80 after the message, bit length in word 15.
/// let mut blocks = [[0u32; 2]; 16];
/// for lane in 0..2 {
///     blocks[0][lane] = u32::from_be_bytes(*b"abc\x80");
///     blocks[15][lane] = 24;
/// }
/// let words = compress_lanes(&blocks);
/// let digest = sha256(b"abc");
/// for lane in 0..2 {
///     for (j, word) in words.iter().enumerate() {
///         assert_eq!(word[lane].to_be_bytes(), digest[4 * j..4 * j + 4]);
///     }
/// }
/// ```
pub fn compress_lanes<const N: usize>(blocks: &[[u32; N]; 16]) -> [[u32; N]; 8] {
    chain_lanes(std::slice::from_ref(blocks))
}

/// [`compress_lanes`] over a chain of blocks: lane `l` of the result is the
/// chaining value after `blocks[0][..][l]`, `blocks[1][..][l]`, … from the
/// initial hash value, so every lane hashes a message of `blocks.len()`
/// padded blocks.
fn chain_lanes<const N: usize>(blocks: &[[[u32; N]; 16]]) -> [[u32; N]; 8] {
    TIERS
        .into_iter()
        .find_map(|tier| compress_on(tier, blocks))
        .expect("the portable build runs on every CPU")
}

/// A build of the round loop: which target features its wrapper enables.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Avx512,
    Avx2,
    Portable,
}

/// Every build, best first: [`compress_lanes`] runs the first this CPU has.
const TIERS: [Tier; 3] = [Tier::Avx512, Tier::Avx2, Tier::Portable];

/// [`chain_lanes`] as `tier`'s build computes it, or `None` when this CPU
/// lacks the tier's feature.
#[allow(unsafe_code)] // the two calls into a tier wrapper, each behind its feature check
fn compress_on<const N: usize>(tier: Tier, blocks: &[[[u32; N]; 16]]) -> Option<[[u32; N]; 8]> {
    match tier {
        // SAFETY: avx512f was just detected, and the body is safe Rust with no intrinsics.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Tier::Avx512 if is_x86_feature_detected!("avx512f") => {
            Some(unsafe { lanes_avx512(blocks) })
        }
        // SAFETY: avx2 was just detected, and the body is safe Rust with no intrinsics.
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        Tier::Avx2 if is_x86_feature_detected!("avx2") => Some(unsafe { lanes_avx2(blocks) }),
        Tier::Portable => Some(lanes(blocks)),
        _ => None,
    }
}

/// The one body every tier builds: [`compress_from`] over each block in
/// turn from the initial hash value, inlined into the caller so that it
/// compiles with the caller's target features.
#[inline(always)]
fn lanes<const N: usize>(blocks: &[[[u32; N]; 16]]) -> [[u32; N]; 8] {
    let mut state = H0.map(|word| [word; N]);
    for block in blocks {
        compress_from(&mut state, block);
    }
    state
}

/// [`lanes`] compiled for AVX2: eight `u32` lanes per register.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn lanes_avx2<const N: usize>(blocks: &[[[u32; N]; 16]]) -> [[u32; N]; 8] {
    lanes(blocks)
}

/// [`lanes`] compiled for AVX-512F: sixteen `u32` lanes per register and a
/// rotate instruction.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f")]
fn lanes_avx512<const N: usize>(blocks: &[[[u32; N]; 16]]) -> [[u32; N]; 8] {
    lanes(blocks)
}

/// SHA-256 of every message, in order: `sha256_lanes(m)[i] == sha256(m[i])`.
///
/// Messages that pad to the same number of blocks hash side by side through
/// [`chain_lanes`], sixteen lanes at a time, or eight when at most eight are
/// left of their group; a lane costs about what one scalar block does
/// divided by the tier's width. For callers that hash many independent
/// short messages at once (the per-item hashes of a batch verification).
pub(crate) fn sha256_lanes(messages: &[&[u8]]) -> Vec<Digest> {
    let mut digests = vec![[0u8; DIGEST_LEN]; messages.len()];
    let mut order: Vec<usize> = (0..messages.len()).collect();
    order.sort_by_key(|&i| padded_blocks(messages[i].len()));
    let same_blocks = |&a: &usize, &b: &usize| {
        padded_blocks(messages[a].len()) == padded_blocks(messages[b].len())
    };
    for mut group in order.chunk_by(same_blocks) {
        while group.len() > 8 {
            let (lanes, rest) = group.split_at(group.len().min(16));
            hash_side_by_side::<16>(messages, lanes, &mut digests);
            group = rest;
        }
        if !group.is_empty() {
            hash_side_by_side::<8>(messages, group, &mut digests);
        }
    }
    digests
}

/// The number of 64-byte blocks a `len`-byte message pads to: it, the 0x80
/// byte and the 8-byte bit length.
fn padded_blocks(len: usize) -> usize {
    (len + 9).div_ceil(64)
}

/// Hashes `messages[i]` for each `i` in `which` (at most `N`, all padding
/// to the same block count) in lane order, into `digests[i]`. Unused lanes
/// hash zero blocks and are dropped.
fn hash_side_by_side<const N: usize>(messages: &[&[u8]], which: &[usize], digests: &mut [Digest]) {
    let count = padded_blocks(messages[which[0]].len());
    let mut blocks = vec![[[0u32; N]; 16]; count];
    for (lane, &i) in which.iter().enumerate() {
        for (b, block) in blocks.iter_mut().enumerate() {
            let bytes = padded_block(messages[i], b, count);
            for (word, be) in block.iter_mut().zip(bytes.chunks_exact(4)) {
                word[lane] = u32::from_be_bytes([be[0], be[1], be[2], be[3]]);
            }
        }
    }
    let state = chain_lanes(&blocks);
    for (lane, &i) in which.iter().enumerate() {
        for (bytes, word) in digests[i].chunks_exact_mut(4).zip(&state) {
            bytes.copy_from_slice(&word[lane].to_be_bytes());
        }
    }
}

/// Block `b` of `message` padded to `count` blocks: its bytes, the 0x80
/// byte in the block the message ends in, the bit length in the last.
fn padded_block(message: &[u8], b: usize, count: usize) -> [u8; 64] {
    let mut block = [0u8; 64];
    let start = (64 * b).min(message.len());
    let data = &message[start..message.len().min(64 * b + 64)];
    block[..data.len()].copy_from_slice(data);
    if (64 * b..64 * b + 64).contains(&message.len()) {
        block[message.len() - 64 * b] = 0x80;
    }
    if b + 1 == count {
        block[56..].copy_from_slice(&(8 * message.len() as u64).to_be_bytes());
    }
    block
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over the concatenation of several parts (avoids an
/// intermediate allocation at call sites that hash framed messages).
pub fn sha256_parts(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vc_testkit::prop;
    use vc_testkit::prop::strategy::{any_u8, vec};

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn parts_equals_concat() {
        assert_eq!(sha256_parts(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_parts(&[]), sha256(b""));
    }

    #[test]
    fn length_boundary_padding() {
        // Messages of exactly 55, 56, 63, 64 bytes exercise both padding paths.
        for len in [55usize, 56, 63, 64, 119, 120] {
            let data = vec![0xAB; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    /// Every build this CPU has, the portable one always, against the
    /// streaming hasher: lane `l` of `compress_on` must be `sha256` of the
    /// `l`-th message. Tests each tier, not only the one dispatched to.
    fn every_tier_matches_sha256<const N: usize>(messages: &[Vec<u8>]) {
        let mut blocks = [[0u32; N]; 16];
        for (lane, message) in messages[..N].iter().enumerate() {
            let mut block = [0u8; 64];
            block[..message.len()].copy_from_slice(message);
            block[message.len()] = 0x80;
            block[56..].copy_from_slice(&(8 * message.len() as u64).to_be_bytes());
            for (word, bytes) in blocks.iter_mut().zip(block.chunks_exact(4)) {
                word[lane] = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
        }
        for tier in TIERS {
            let Some(words) = compress_on(tier, std::slice::from_ref(&blocks)) else { continue };
            for (lane, message) in messages[..N].iter().enumerate() {
                let digest = sha256(message);
                for (word, bytes) in words.iter().zip(digest.chunks_exact(4)) {
                    assert_eq!(word[lane].to_be_bytes(), bytes, "{tier:?}, {N} lanes, lane {lane}");
                }
            }
        }
    }

    prop! {
        #![cases(32)]

        #[test]
        fn every_tier_matches_the_streaming_hasher(
            messages in vec(vec(any_u8(), 0..56), 16..17),
        ) {
            every_tier_matches_sha256::<1>(&messages);
            every_tier_matches_sha256::<8>(&messages);
            every_tier_matches_sha256::<16>(&messages);
        }
    }

    /// A message of `len` bytes whose bytes all differ from its neighbours'.
    fn message(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect()
    }

    /// Every length 0–200 in one call: block counts 1 to 4 mixed, and the
    /// padding edges (55/56, 63/64, 119/120) each in a group of its own
    /// block count.
    #[test]
    fn lane_hasher_matches_sha256_at_every_length() {
        let messages: Vec<Vec<u8>> = (0..=200).map(|len| message(len, 0x5A)).collect();
        let slices: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
        let digests = sha256_lanes(&slices);
        assert_eq!(digests.len(), messages.len());
        for (m, d) in messages.iter().zip(&digests) {
            assert_eq!(*d, sha256(m), "length {}", m.len());
        }
        assert!(sha256_lanes(&[]).is_empty());
    }

    /// One to sixteen messages (the eight-lane build, the sixteen-lane
    /// build, and partly filled lanes of each), of one length and of
    /// interleaved lengths whose block counts differ.
    #[test]
    fn lane_hasher_matches_sha256_at_every_lane_count() {
        for count in 1..=16usize {
            for lengths in [[44usize, 44], [55, 56], [64, 128], [0, 183]] {
                let messages: Vec<Vec<u8>> =
                    (0..count).map(|i| message(lengths[i % 2], i as u8)).collect();
                let slices: Vec<&[u8]> = messages.iter().map(Vec::as_slice).collect();
                for (i, d) in sha256_lanes(&slices).iter().enumerate() {
                    assert_eq!(*d, sha256(&messages[i]), "{count} messages {lengths:?}, #{i}");
                }
            }
        }
    }

    /// Chained blocks on every build this CPU has: the multi-block path of
    /// each tier, not only the one the lane hasher dispatches to.
    #[test]
    fn every_tier_chains_blocks_like_the_streaming_hasher() {
        for len in [56usize, 64, 119, 120, 200] {
            let count = padded_blocks(len);
            let messages: Vec<Vec<u8>> = (0..8u8).map(|salt| message(len, salt)).collect();
            let mut blocks = vec![[[0u32; 8]; 16]; count];
            for (lane, m) in messages.iter().enumerate() {
                for (b, block) in blocks.iter_mut().enumerate() {
                    let bytes = padded_block(m, b, count);
                    for (word, be) in block.iter_mut().zip(bytes.chunks_exact(4)) {
                        word[lane] = u32::from_be_bytes([be[0], be[1], be[2], be[3]]);
                    }
                }
            }
            for tier in TIERS {
                let Some(words) = compress_on(tier, &blocks) else { continue };
                for (lane, m) in messages.iter().enumerate() {
                    for (word, bytes) in words.iter().zip(sha256(m).chunks_exact(4)) {
                        assert_eq!(word[lane].to_be_bytes(), bytes, "{tier:?}, len {len}");
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }
}
