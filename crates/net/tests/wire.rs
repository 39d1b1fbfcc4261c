//! The radio codec against hostile bytes. On arbitrary input, and on valid
//! frames with bytes flipped, cut short or extended, `decode_beacon` and
//! `decode_packet` return `None` or a value that re-encodes to exactly the
//! frame they were given. Neither may panic: a panic fails the property.

use vc_crypto::schnorr::SigningKey;
use vc_net::beacon::{sign_beacon, Beacon};
use vc_net::message::{Packet, PacketId};
use vc_net::wire::{decode_beacon, decode_packet, encode_beacon, encode_packet};
use vc_sim::geom::Point;
use vc_sim::node::VehicleId;
use vc_sim::rng::SimRng;
use vc_sim::time::SimTime;
use vc_testkit::prop::strategy::{any_u8, from_fn, vec};
use vc_testkit::{prop, prop_assert, prop_assert_eq};

/// The decoder that accepts `frame` as a value encoding to other bytes, if
/// any.
fn reencode_mismatch(frame: &[u8]) -> Option<&'static str> {
    if decode_beacon(frame).is_some_and(|beacon| encode_beacon(&beacon) != frame) {
        return Some("decode_beacon");
    }
    if decode_packet(frame)
        .is_some_and(|(packet, payload)| encode_packet(&packet, payload) != frame)
    {
        return Some("decode_packet");
    }
    None
}

/// A finite coordinate with a fractional part.
fn coordinate(rng: &mut SimRng) -> f64 {
    f64::from(rng.next_u32() as i32) / 64.0
}

/// A valid beacon or data frame, as the sender encodes it.
fn valid_frame(rng: &mut SimRng) -> Vec<u8> {
    if rng.chance(0.5) {
        let beacon = Beacon {
            sender: VehicleId(rng.next_u32()),
            pos: Point::new(coordinate(rng), coordinate(rng)),
            vel: Point::new(coordinate(rng), coordinate(rng)),
            sent_at: SimTime::from_micros(rng.next_u64()),
        };
        let key = SigningKey::from_seed(&rng.next_u64().to_be_bytes());
        encode_beacon(&sign_beacon(beacon, &key))
    } else {
        let payload: Vec<u8> = (0..rng.index(96)).map(|_| rng.next_u32() as u8).collect();
        let created = SimTime::from_micros(rng.next_u64());
        let (src, dst) = (VehicleId(rng.next_u32()), VehicleId(rng.next_u32()));
        let mut packet = Packet::new(PacketId(rng.next_u64()), src, dst, payload.len(), created);
        packet.ttl_hops = rng.next_u32();
        encode_packet(&packet, &payload)
    }
}

/// A valid frame, then 1–4 mutations: a byte XORed with a non-zero mask,
/// a cut at any length, or junk appended.
fn mutated_frame(rng: &mut SimRng) -> (Vec<u8>, Vec<u8>) {
    let valid = valid_frame(rng);
    let mut frame = valid.clone();
    for _ in 0..1 + rng.index(4) {
        match rng.index(3) {
            0 if !frame.is_empty() => {
                let at = rng.index(frame.len());
                frame[at] ^= 1 + rng.index(255) as u8;
            }
            1 => frame.truncate(rng.index(frame.len() + 1)),
            _ => frame.extend((0..1 + rng.index(8)).map(|_| rng.next_u32() as u8)),
        }
    }
    (valid, frame)
}

prop! {
    #![cases(512)]

    #[test]
    fn arbitrary_bytes_decode_to_nothing_or_to_themselves(bytes in vec(any_u8(), 0..160)) {
        prop_assert_eq!(reencode_mismatch(&bytes), None);
        // A valid header over arbitrary bytes gets past the first check.
        for tag in [1u8, 2] {
            let framed = [&[0xC7, vc_net::wire::WIRE_VERSION, tag][..], &bytes].concat();
            prop_assert_eq!(reencode_mismatch(&framed), None, "tag {}", tag);
        }
    }

    #[test]
    fn mutated_frames_decode_to_nothing_or_to_themselves((valid, frame) in from_fn(mutated_frame)) {
        prop_assert!(
            decode_beacon(&valid).is_some() || decode_packet(&valid).is_some(),
            "the unmutated frame decodes"
        );
        prop_assert_eq!(reencode_mismatch(&valid), None);
        prop_assert_eq!(reencode_mismatch(&frame), None, "mutated from {:?}", valid);
    }
}
