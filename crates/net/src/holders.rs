//! The set of vehicles that hold, or have held, a copy of one packet.
//!
//! [`NetSim`](crate::netsim::NetSim) probes it once per neighbour per live
//! copy per round, which made the keyed SipHash of a std `HashSet` the
//! dearest instruction sequence of an epidemic round. Ids below 64 are one
//! bit of a word — the whole set for the fleets a `vcloudd` job runs, with no
//! heap behind it — and higher ids spill into a hash set whose hash is one
//! multiply. Memory stays O(holders) whatever the fleet: a city run sends
//! thousands of packets into a 10 000-id space and retires none of them, so
//! a fleet-sized bitmap per packet is not an option.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use vc_sim::node::VehicleId;

/// Width of the inline word.
const WORD_BITS: u32 = u64::BITS;

/// A set of vehicle ids. Never iterated, so no ordering can leak into
/// results.
#[derive(Debug, Clone, Default)]
pub struct HolderSet {
    /// Bit `i` is vehicle `i`, for `i < 64`.
    low: u64,
    /// Every member with an id of 64 or more.
    high: HashSet<VehicleId, BuildHasherDefault<IdHasher>>,
}

impl HolderSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is `id` a member?
    pub fn contains(&self, id: VehicleId) -> bool {
        if id.0 < WORD_BITS {
            self.low >> id.0 & 1 != 0
        } else {
            self.high.contains(&id)
        }
    }

    /// The members among a bit row's word `w` (bit `j` is id `64 w + j`),
    /// as the bits of `bits` whose ids are in the set: the inline word
    /// itself for `w = 0`, one spill probe per set bit above it.
    pub(crate) fn members_in_word(&self, w: usize, bits: u64) -> u64 {
        if w == 0 {
            return self.low & bits;
        }
        if self.high.is_empty() {
            return 0;
        }
        let mut members = 0;
        let mut rest = bits;
        while rest != 0 {
            let j = rest.trailing_zeros();
            if self.high.contains(&VehicleId((w as u32) << 6 | j)) {
                members |= 1 << j;
            }
            rest &= rest - 1;
        }
        members
    }

    /// Adds `id`; `true` when it was not a member before.
    pub fn insert(&mut self, id: VehicleId) -> bool {
        if id.0 < WORD_BITS {
            let bit = 1 << id.0;
            let fresh = self.low & bit == 0;
            self.low |= bit;
            fresh
        } else {
            self.high.insert(id)
        }
    }

    /// Heap bytes behind the set, from the spill table's capacity alone
    /// (an id and a control byte per slot), so the value is a function of
    /// the inserts made and not of the allocator.
    pub fn heap_bytes(&self) -> u64 {
        self.high.capacity() as u64 * (std::mem::size_of::<VehicleId>() as u64 + 1)
    }
}

/// Hashes the one `u32` a [`VehicleId`] feeds it with a single multiply by
/// 2⁶⁴/φ, which spreads consecutive ids over both the high bits the table
/// tags with and the low bits it indexes with. Ids come from the simulator,
/// never from outside the program, so there is no collision attack for a
/// keyed hash to resist.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write(&mut self, bytes: &[u8]) {
        // `VehicleId` only ever calls `write_u32`; this keeps the trait's
        // contract for any other key.
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_and_spill_agree_on_set_semantics() {
        let mut set = HolderSet::new();
        for id in [0, 63, 64, 65, 10_000, u32::MAX] {
            assert!(!set.contains(VehicleId(id)));
            assert!(set.insert(VehicleId(id)), "{id} is new");
            assert!(!set.insert(VehicleId(id)), "{id} is already in");
            assert!(set.contains(VehicleId(id)));
        }
        assert!(!set.contains(VehicleId(1)) && !set.contains(VehicleId(66)));
    }

    #[test]
    fn members_in_word_reads_the_word_and_the_spill() {
        let mut set = HolderSet::new();
        for id in [1, 63, 64, 130] {
            set.insert(VehicleId(id));
        }
        assert_eq!(set.members_in_word(0, !0), 1 << 1 | 1 << 63);
        assert_eq!(set.members_in_word(0, 1 << 63 | 1 << 2), 1 << 63);
        assert_eq!(set.members_in_word(1, !0), 1);
        assert_eq!(set.members_in_word(2, !0), 1 << 2);
        assert_eq!(set.members_in_word(2, !0 << 3), 0);
        assert_eq!(HolderSet::new().members_in_word(1, !0), 0);
    }

    #[test]
    fn a_fleet_that_fits_the_word_owns_no_heap() {
        let mut set = HolderSet::new();
        for id in 0..WORD_BITS {
            set.insert(VehicleId(id));
        }
        assert_eq!(set.heap_bytes(), 0);
        set.insert(VehicleId(WORD_BITS));
        assert!(set.heap_bytes() > 0);
    }
}
