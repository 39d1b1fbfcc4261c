//! A fixed-width 256-bit unsigned integer with modular arithmetic.
//!
//! This is the arithmetic core under the discrete-log constructions in this
//! crate (Schnorr signatures, Diffie–Hellman). Little-endian `u64` limbs;
//! all operations are constant-size loops (no heap).
//!
//! Two modular multipliers live here: the division-based
//! [`U256::mul_mod`] / [`U256::pow_mod`] (any modulus; the reference oracle)
//! and the [`Mont`] context (one odd modulus fixed up front; what
//! [`group`](crate::group) runs on). docs/CRYPTO.md has the contract.

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer (four little-endian 64-bit limbs).
///
/// ```
/// use vc_crypto::u256::U256;
/// let a = U256::from_u64(7);
/// let b = U256::from_u64(9);
/// assert_eq!(a.wrapping_add(b), U256::from_u64(16));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    /// Little-endian limbs: `limbs[0]` is least significant.
    limbs: [u64; 4],
}

/// A 512-bit product of two [`U256`] values (eight little-endian limbs).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct U512 {
    limbs: [u64; 8],
}

impl U256 {
    /// Zero.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// One.
    pub const ONE: U256 = U256 { limbs: [1, 0, 0, 0] };
    /// The largest representable value.
    pub const MAX: U256 = U256 { limbs: [u64::MAX; 4] };

    /// Creates from a `u64`.
    pub const fn from_u64(x: u64) -> Self {
        U256 { limbs: [x, 0, 0, 0] }
    }

    /// Creates from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// The little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Creates from 32 big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        #[allow(clippy::needless_range_loop)] // i indexes both arrays
        for i in 0..4 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            limbs[3 - i] = u64::from_be_bytes(word);
        }
        U256 { limbs }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        #[allow(clippy::needless_range_loop)] // i indexes both ends
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.limbs[3 - i].to_be_bytes());
        }
        out
    }

    /// Parses a hex string (with or without `0x`, up to 64 digits).
    ///
    /// Returns `None` on invalid characters or overflow.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut out = U256::ZERO;
        for c in s.chars() {
            let d = c.to_digit(16)? as u64;
            out = out.shl_bits(4);
            out.limbs[0] |= d;
        }
        Some(out)
    }

    /// Formats as a 64-digit lowercase hex string (no prefix).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for i in (0..4).rev() {
            s.push_str(&format!("{:016x}", self.limbs[i]));
        }
        s
    }

    /// `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// `true` when the low bit is set.
    pub(crate) fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 256);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return i * 64 + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Wrapping addition (mod 2^256); also returns the carry.
    pub(crate) fn overflowing_add(&self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        #[allow(clippy::needless_range_loop)] // i indexes three arrays
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 || c2;
        }
        (U256 { limbs: out }, carry)
    }

    /// Wrapping addition (mod 2^256).
    pub fn wrapping_add(&self, rhs: U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Wrapping subtraction (mod 2^256); also returns the borrow.
    pub(crate) fn overflowing_sub(&self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        #[allow(clippy::needless_range_loop)] // i indexes three arrays
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 || b2;
        }
        (U256 { limbs: out }, borrow)
    }

    /// Wrapping subtraction (mod 2^256).
    pub fn wrapping_sub(&self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Full 512-bit product.
    pub fn mul_wide(&self, rhs: U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let cur =
                    out[i + j] as u128 + (self.limbs[i] as u128) * (rhs.limbs[j] as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + 4] = carry as u64;
        }
        U512 { limbs: out }
    }

    /// Left shift by `n` bits (`n < 256`), dropping overflow.
    pub fn shl_bits(&self, n: usize) -> U256 {
        assert!(n < 256);
        if n == 0 {
            return *self;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            let mut v = self.limbs[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Right shift by `n` bits (`n < 256`).
    pub fn shr_bits(&self, n: usize) -> U256 {
        assert!(n < 256);
        if n == 0 {
            return *self;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        #[allow(clippy::needless_range_loop)] // i indexes shifted pairs
        for i in 0..4 - limb_shift {
            let mut v = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                v |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Quotient and remainder of division by `divisor`.
    ///
    /// # Panics
    ///
    /// Panics on division by zero.
    pub fn div_rem(&self, divisor: U256) -> (U256, U256) {
        assert!(!divisor.is_zero(), "division by zero");
        if *self < divisor {
            return (U256::ZERO, *self);
        }
        let mut quotient = U256::ZERO;
        let mut remainder = U256::ZERO;
        for i in (0..self.bits()).rev() {
            remainder = remainder.shl_bits(1);
            if self.bit(i) {
                remainder.limbs[0] |= 1;
            }
            if remainder >= divisor {
                remainder = remainder.wrapping_sub(divisor);
                quotient.limbs[i / 64] |= 1 << (i % 64);
            }
        }
        (quotient, remainder)
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: U256) -> U256 {
        self.div_rem(m).1
    }

    /// `(self + rhs) mod m`, assuming both inputs are already `< m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero (debug: or if inputs are not reduced).
    pub(crate) fn add_mod(&self, rhs: U256, m: U256) -> U256 {
        debug_assert!(*self < m && rhs < m, "add_mod inputs must be reduced");
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || sum >= m {
            sum.wrapping_sub(m)
        } else {
            sum
        }
    }

    /// `(self - rhs) mod m`, assuming both inputs are already `< m`.
    pub(crate) fn sub_mod(&self, rhs: U256, m: U256) -> U256 {
        debug_assert!(*self < m && rhs < m, "sub_mod inputs must be reduced");
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            diff.wrapping_add(m)
        } else {
            diff
        }
    }

    /// `(self * rhs) mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mul_mod(&self, rhs: U256, m: U256) -> U256 {
        self.mul_wide(rhs).rem(m)
    }

    /// `self^exp mod m` by square-and-multiply.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn pow_mod(&self, exp: U256, m: U256) -> U256 {
        assert!(!m.is_zero(), "zero modulus");
        if m == U256::ONE {
            return U256::ZERO;
        }
        let mut base = self.rem(m);
        let mut result = U256::ONE;
        for i in 0..exp.bits() {
            if exp.bit(i) {
                result = result.mul_mod(base, m);
            }
            base = base.mul_mod(base, m);
        }
        result
    }

    /// The `w`-th 4-bit window of the value (`w < 64`, 0 = least significant).
    pub(crate) fn nibble(&self, w: usize) -> usize {
        ((self.limbs[w / 16] >> ((w % 16) * 4)) & 0xF) as usize
    }

    /// Modular inverse for a **prime** modulus, via Fermat's little theorem.
    ///
    /// Returns `None` when `self ≡ 0 (mod p)`.
    pub fn inv_mod_prime(&self, p: U256) -> Option<U256> {
        if self.rem(p).is_zero() {
            return None;
        }
        let exp = p.wrapping_sub(U256::from_u64(2));
        Some(self.pow_mod(exp, p))
    }
}

/// Montgomery arithmetic for one odd modulus `m`, with `R = 2^256`.
///
/// A value `a` is held in *Montgomery form* `a·R mod m`; [`Mont::mul`] of two
/// such values is the Montgomery form of their product and costs 32 word
/// multiplies and no division — against the 512-step bit-serial reduction
/// under [`U256::mul_mod`], which stays as the reference oracle. Build the
/// context once per modulus (three division-based steps) and reuse it.
///
/// ```
/// use vc_crypto::u256::{Mont, U256};
/// let ctx = Mont::new(U256::from_u64(1_000_000_007));
/// let (a, b) = (U256::from_u64(123_456_789), U256::from_u64(987_654_321));
/// let product = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(b)));
/// assert_eq!(product, a.mul_mod(b, ctx.modulus()));
/// assert_eq!(ctx.pow(a, b), a.pow_mod(b, ctx.modulus()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mont {
    m: U256,
    /// `-m⁻¹ mod 2^64`.
    n0: u64,
    /// `R mod m`: the Montgomery form of one.
    r: U256,
    /// `R² mod m`: multiplying by it converts into Montgomery form.
    r2: U256,
}

impl Mont {
    /// Builds the context for `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even (zero included): `R` must be invertible mod `m`.
    pub fn new(m: U256) -> Mont {
        assert!(m.is_odd(), "Montgomery modulus must be odd");
        // Newton iteration on the low limb: m0·m0 ≡ 1 (mod 8), and each
        // step doubles the number of correct low bits (3 → 96 ≥ 64).
        let m0 = m.limbs[0];
        let mut inv = m0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        }
        // 2^256 - m ≡ R (mod m), and fits in 256 bits.
        let r = U256::ZERO.wrapping_sub(m).rem(m);
        Mont { m, n0: inv.wrapping_neg(), r, r2: r.mul_mod(r, m) }
    }

    /// The modulus.
    pub fn modulus(&self) -> U256 {
        self.m
    }

    /// The Montgomery form of one (`R mod m`).
    pub fn one(&self) -> U256 {
        self.r
    }

    /// Converts into Montgomery form. Any 256-bit `a` is accepted; the
    /// result is the form of `a mod m`.
    pub fn to_mont(&self, a: U256) -> U256 {
        self.mul(a, self.r2)
    }

    /// Converts out of Montgomery form to the canonical value `< m`.
    pub fn from_mont(&self, a: U256) -> U256 {
        self.mul(a, U256::ONE)
    }

    /// Montgomery product `a·b·R⁻¹ mod m` (4-limb CIOS), fully reduced.
    ///
    /// At least one operand must be `< m`; the other may be any 256-bit
    /// value, since the interleaved sum stays below `(R·m + R·m)/R = 2m` and
    /// one conditional subtraction finishes the reduction.
    pub fn mul(&self, a: U256, b: U256) -> U256 {
        let (a, b, m) = (a.limbs, b.limbs, self.m.limbs);
        // t holds the running sum: four limbs plus a fifth word, because m
        // may use all 256 bits (p does) and the sum reaches 2m.
        let mut t = [0u64; 5];
        for &ai in &a {
            // t += ai · b; `top` is the carry out of the fifth word.
            let mut carry = 0u128;
            for j in 0..4 {
                let cur = t[j] as u128 + (ai as u128) * (b[j] as u128) + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[4] as u128 + carry;
            t[4] = cur as u64;
            let top = (cur >> 64) as u64;
            // t = (t + k·m) / 2^64, with k chosen so the low limb cancels.
            let k = t[0].wrapping_mul(self.n0);
            let mut carry = (t[0] as u128 + (k as u128) * (m[0] as u128)) >> 64;
            for j in 1..4 {
                let cur = t[j] as u128 + (k as u128) * (m[j] as u128) + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[4] as u128 + carry;
            t[3] = cur as u64;
            t[4] = top + (cur >> 64) as u64;
        }
        let out = U256 { limbs: [t[0], t[1], t[2], t[3]] };
        if t[4] != 0 || out >= self.m {
            out.wrapping_sub(self.m)
        } else {
            out
        }
    }

    /// `base^exp mod m`, canonical in and out: result-identical to
    /// [`U256::pow_mod`] for every odd `m` (including `m = 1`).
    pub fn pow(&self, base: U256, exp: U256) -> U256 {
        self.from_mont(self.multi_pow(&[(self.powers(self.to_mont(base)), exp)]))
    }

    /// `[b, b², …, b¹⁵]` for a Montgomery-form `b`: one base's table for
    /// `Mont::multi_pow`.
    pub(crate) fn powers(&self, b: U256) -> [U256; 15] {
        let mut table = [b; 15];
        for j in 1..15 {
            table[j] = self.mul(table[j - 1], b);
        }
        table
    }

    /// `Π bᵢ^eᵢ` in Montgomery form over `(powers(bᵢ), eᵢ)` terms — 4-bit
    /// windowed Straus interleaving: one squaring chain (four per window,
    /// none above the longest exponent's top window) shared by all terms,
    /// plus one multiply per nonzero exponent nibble.
    pub(crate) fn multi_pow(&self, terms: &[([U256; 15], U256)]) -> U256 {
        let max_bits = terms.iter().map(|(_, e)| e.bits()).max().unwrap_or(0);
        let windows = max_bits.div_ceil(4);
        let mut acc = self.r;
        for w in (0..windows).rev() {
            if w + 1 != windows {
                for _ in 0..4 {
                    acc = self.mul(acc, acc);
                }
            }
            for (table, exp) in terms {
                let nibble = exp.nibble(w);
                if nibble != 0 {
                    acc = self.mul(acc, table[nibble - 1]);
                }
            }
        }
        acc
    }
}

impl U512 {
    /// The little-endian limbs.
    pub const fn limbs(&self) -> [u64; 8] {
        self.limbs
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        for i in (0..8).rev() {
            if self.limbs[i] != 0 {
                return i * 64 + (64 - self.limbs[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 512`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 512);
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Remainder modulo a 256-bit divisor (bitwise long division).
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: U256) -> U256 {
        assert!(!m.is_zero(), "division by zero");
        let mut remainder = U256::ZERO;
        for i in (0..self.bits()).rev() {
            // remainder = remainder * 2 + bit; remainder stays < 2m < 2^257,
            // so track the shifted-out carry explicitly.
            let carry = remainder.bit(255);
            remainder = remainder.shl_bits(1);
            if self.bit(i) {
                remainder.limbs[0] |= 1;
            }
            if carry || remainder >= m {
                remainder = remainder.wrapping_sub(m);
            }
        }
        remainder
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for U256 {
    fn from(x: u64) -> Self {
        U256::from_u64(x)
    }
}

impl From<u128> for U256 {
    fn from(x: u128) -> Self {
        U256 { limbs: [x as u64, (x >> 64) as u64, 0, 0] }
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl fmt::Debug for U512 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U512(")?;
        for i in (0..8).rev() {
            write!(f, "{:016x}", self.limbs[i])?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(x: u128) -> U256 {
        U256::from(x)
    }

    #[test]
    fn hex_roundtrip() {
        let v =
            U256::from_hex("0xdeadbeefcafebabe1234567890abcdef00112233445566778899aabbccddeeff")
                .unwrap();
        assert_eq!(v.to_hex(), "deadbeefcafebabe1234567890abcdef00112233445566778899aabbccddeeff");
        assert_eq!(U256::from_hex("ff").unwrap(), u(255));
        assert_eq!(U256::from_hex(""), None);
        assert_eq!(U256::from_hex("xyz"), None);
        assert_eq!(U256::from_hex(&"f".repeat(65)), None);
    }

    #[test]
    fn be_bytes_roundtrip() {
        let v = U256::from_hex("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
            .unwrap();
        let bytes = v.to_be_bytes();
        assert_eq!(bytes[0], 0x01);
        assert_eq!(bytes[31], 0x20);
        assert_eq!(U256::from_be_bytes(&bytes), v);
    }

    #[test]
    fn add_sub_with_carries() {
        let a = U256::MAX;
        let (sum, carry) = a.overflowing_add(U256::ONE);
        assert!(carry);
        assert_eq!(sum, U256::ZERO);
        let (diff, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
        assert_eq!(diff, U256::MAX);
        assert_eq!(u(100).wrapping_sub(u(1)), u(99));
    }

    #[test]
    fn mul_wide_against_u128_oracle() {
        let a = 0xdead_beef_u64 as u128;
        let b = 0xcafe_babe_1234_u64 as u128;
        let wide = u(a).mul_wide(u(b));
        let expect = a * b;
        assert_eq!(wide.limbs()[0] as u128 | ((wide.limbs()[1] as u128) << 64), expect);
        assert_eq!(wide.limbs()[2], 0);
    }

    #[test]
    fn mul_wide_max_values() {
        // MAX * MAX = 2^512 - 2^257 + 1
        let wide = U256::MAX.mul_wide(U256::MAX);
        assert_eq!(wide.limbs()[0], 1);
        assert_eq!(wide.limbs()[7], u64::MAX);
        assert_eq!(wide.bits(), 512);
    }

    #[test]
    fn shifts() {
        let v = u(1);
        assert_eq!(v.shl_bits(64), U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(v.shl_bits(255).shr_bits(255), v);
        assert_eq!(v.shl_bits(3), u(8));
        assert_eq!(u(0x80).shr_bits(4), u(8));
        let pattern = U256::from_hex("f0f0f0f0").unwrap();
        assert_eq!(pattern.shl_bits(0), pattern);
        assert_eq!(pattern.shl_bits(100).shr_bits(100), pattern);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(u(0x100).bits(), 9);
        assert_eq!(U256::MAX.bits(), 256);
        assert!(u(5).bit(0));
        assert!(!u(5).bit(1));
        assert!(u(5).bit(2));
    }

    #[test]
    fn div_rem_small_oracle() {
        for (a, b) in [(100u128, 7u128), (1, 1), (0, 5), (12345678901234567890, 97), (u128::MAX, 3)]
        {
            let (q, r) = u(a).div_rem(u(b));
            assert_eq!(q, u(a / b), "quotient {a}/{b}");
            assert_eq!(r, u(a % b), "remainder {a}%{b}");
        }
    }

    #[test]
    fn div_rem_large() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff")
            .unwrap();
        let b = U256::from_hex("10000000000000001").unwrap();
        let (q, r) = a.div_rem(b);
        // verify a = q*b + r and r < b
        let qb = q.mul_wide(b);
        let back = U256::from_limbs([qb.limbs()[0], qb.limbs()[1], qb.limbs()[2], qb.limbs()[3]])
            .wrapping_add(r);
        assert_eq!(back, a);
        assert!(r < b);
    }

    #[test]
    #[should_panic]
    fn div_by_zero_panics() {
        u(1).div_rem(U256::ZERO);
    }

    #[test]
    fn mod_arithmetic_oracle() {
        let m = u(1_000_000_007);
        for (a, b) in [(5u128, 7u128), (999_999_999, 999_999_999), (0, 123)] {
            assert_eq!(u(a).add_mod(u(b), m), u((a + b) % 1_000_000_007));
            assert_eq!(u(a).mul_mod(u(b), m), u((a * b) % 1_000_000_007));
        }
        assert_eq!(u(3).sub_mod(u(5), m), u(1_000_000_007 - 2));
    }

    #[test]
    fn u512_rem_oracle() {
        let a = u(u128::MAX);
        let wide = a.mul_wide(a); // (2^128-1)^2
        let m = u(1_000_000_007);
        // (2^128-1)^2 mod p computed via pow: ((2^128-1) mod p)^2 mod p
        let expect = (u128::MAX % 1_000_000_007).pow(2) % 1_000_000_007;
        assert_eq!(wide.rem(m), u(expect));
    }

    #[test]
    fn pow_mod_small_oracle() {
        let m = u(1_000_000_007);
        assert_eq!(u(2).pow_mod(u(10), m), u(1024));
        assert_eq!(u(5).pow_mod(U256::ZERO, m), U256::ONE);
        assert_eq!(u(7).pow_mod(u(1_000_000_006), m), U256::ONE, "Fermat little theorem");
        assert_eq!(u(3).pow_mod(u(4), U256::ONE), U256::ZERO, "mod 1 is zero");
    }

    #[test]
    fn pow_mod_group_known_answer() {
        // Values generated alongside the hardcoded Schnorr group:
        // g=4, p below, 4^5 mod p = 1024 and 4^0x1234567890abcdef is the y below.
        let p = U256::from_hex("a252363211224274024c034527879257e2663936263f2ec0e8818b63737f276b")
            .unwrap();
        assert_eq!(u(4).pow_mod(u(5), p), u(1024));
        let y = U256::from_hex("4c7df5ef507f1eaf801ace29ff42eeff97cbeb8b99dabd0ef07e5c3033122959")
            .unwrap();
        assert_eq!(u(4).pow_mod(u(0x1234567890abcdef), p), y);
    }

    #[test]
    fn pow_mod_windowed_matches_reference() {
        let p = U256::from_hex("a252363211224274024c034527879257e2663936263f2ec0e8818b63737f276b")
            .unwrap();
        let exps = [
            U256::ZERO,
            U256::ONE,
            u(5),
            u(0x1234567890abcdef),
            U256::from_hex("51291b190891213a012601a293c3c92bf1331c9b131f97607440c5b1b9bf93b5")
                .unwrap(),
            U256::MAX,
        ];
        let ctx = Mont::new(p);
        for base in [U256::ZERO, u(2), u(4), u(0xdeadbeef), p.wrapping_sub(U256::ONE), U256::MAX] {
            for exp in exps {
                assert_eq!(ctx.pow(base, exp), base.pow_mod(exp, p), "base={base} exp={exp}");
            }
        }
        // Small-modulus corners.
        assert_eq!(Mont::new(U256::ONE).pow(u(3), u(4)), U256::ZERO, "mod 1 is zero");
        assert_eq!(Mont::new(U256::ONE).pow(u(3), U256::ZERO), U256::ZERO, "mod 1 is zero");
        assert_eq!(Mont::new(u(1_000_000_007)).pow(u(2), u(10)), u(1024));
    }

    #[test]
    fn mont_constants_and_roundtrip() {
        let p = U256::from_hex("a252363211224274024c034527879257e2663936263f2ec0e8818b63737f276b")
            .unwrap();
        for m in [p, p.shr_bits(1), u(1_000_000_007), u(3), U256::MAX] {
            let ctx = Mont::new(m);
            assert_eq!(ctx.modulus(), m);
            // n0·m ≡ -1 (mod 2^64); one() is R mod m.
            assert_eq!(ctx.n0.wrapping_mul(m.limbs[0]), u64::MAX, "m={m}");
            assert_eq!(ctx.from_mont(ctx.one()), U256::ONE, "m={m}");
            assert_eq!(ctx.to_mont(U256::ONE), ctx.one(), "m={m}");
            for a in [U256::ZERO, U256::ONE, m.wrapping_sub(U256::ONE), m, U256::MAX] {
                assert_eq!(ctx.from_mont(ctx.to_mont(a)), a.rem(m), "m={m} a={a}");
                let sq = ctx.from_mont(ctx.mul(ctx.to_mont(a), ctx.to_mont(a)));
                assert_eq!(sq, a.rem(m).mul_mod(a.rem(m), m), "m={m} a={a}");
            }
        }
    }

    #[test]
    fn inverse_mod_prime() {
        let p = u(1_000_000_007);
        for a in [2u128, 3, 999, 123456789] {
            let inv = u(a).inv_mod_prime(p).unwrap();
            assert_eq!(u(a).mul_mod(inv, p), U256::ONE, "a={a}");
        }
        assert_eq!(U256::ZERO.inv_mod_prime(p), None);
        assert_eq!(p.inv_mod_prime(p), None, "p ≡ 0 mod p");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(u(5) < u(6));
        assert!(U256::from_limbs([0, 1, 0, 0]) > U256::from_limbs([u64::MAX, 0, 0, 0]));
        assert_eq!(u(7).cmp(&u(7)), Ordering::Equal);
    }

    #[test]
    fn display_and_debug() {
        assert!(format!("{}", u(255)).ends_with("ff"));
        assert!(format!("{:?}", u(255)).starts_with("U256(0x"));
    }
}
