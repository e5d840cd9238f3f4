//! Property tests for the batch coalescer's wire format — the one new
//! place where a length field from the network steers a parser. Three
//! properties must hold for *every* frame mix and *every* corruption:
//! pack-then-unpack is the identity, a sealed batch never exceeds its
//! MTU, and a mangled sub-frame length can at worst cost that one
//! datagram (never a panic, never garbage delivery).

use flipc_core::endpoint::{EndpointAddress, EndpointIndex, FlipcNodeId};
use flipc_engine::wire::Frame;
use flipc_net::packet::{self, BatchBuilder, Packet, HEADER_LEN, MAX_DATAGRAM, SUBFRAME_PREFIX};
use proptest::collection::vec;
use proptest::prelude::*;

fn frame(tag: u8, len: usize) -> Frame {
    Frame {
        src: EndpointAddress::new(FlipcNodeId(0), EndpointIndex(1), 1),
        dst: EndpointAddress::new(FlipcNodeId(1), EndpointIndex(2), 1),
        payload: vec![tag; len].into(),
        stamp_ns: u64::from(tag) * 1_000,
    }
}

/// Field-wise frame equality (stamp_ns is not serialized, so it is
/// excluded — the wire roundtrip zeroes it by contract).
fn same_frame(a: &Frame, b: &Frame) -> bool {
    a.src == b.src && a.dst == b.dst && a.payload == b.payload
}

/// Stages `frames` through a builder exactly the way the transport does:
/// encode as plain Data, strip the datagram header, push; when a frame
/// does not fit, seal the pending batch and start the next one. Returns
/// the sealed datagrams (skipping frames too big to ever coalesce, as
/// the transport's plain-Data bypass would).
fn pack_all(frames: &[Frame], mtu: usize, first_seq: u32) -> Vec<Vec<u8>> {
    let src = FlipcNodeId(3);
    let epoch = 7;
    let mut b = BatchBuilder::new(mtu);
    let mut out = Vec::new();
    let mut seq = first_seq;
    for f in frames {
        let bytes = packet::encode_data(src, seq, epoch, f).expect("frame fits a datagram");
        let body = &bytes[HEADER_LEN..];
        if !b.can_ever_hold(body.len()) {
            continue; // the transport sends these as plain Data
        }
        if !b.fits(body.len()) {
            out.extend(b.finish(src, epoch, None).map(<[u8]>::to_vec));
            b.clear();
        }
        assert!(b.push(seq, body), "a flushed builder must accept it");
        seq = seq.wrapping_add(1);
    }
    out.extend(b.finish(src, epoch, None).map(<[u8]>::to_vec));
    out
}

/// An arbitrary mix of (tag, payload length) pairs, including empty
/// payloads and sizes near typical MTU boundaries.
fn frame_mix() -> impl Strategy<Value = Vec<(u8, usize)>> {
    vec(
        (
            any::<u8>(),
            prop_oneof![0usize..64, 1_300usize..1_500, Just(0usize)],
        ),
        1..40,
    )
}

/// CRC32C over the datagram with the check field read as zero, written
/// into that field — a bit-at-a-time test reimplementation, independent of
/// `packet`'s table and intrinsic, so corruption tests can forge a
/// *re-sealed* datagram whose only defect is the mangled field.
fn forge_seal(bytes: &mut [u8]) {
    const CHECK_OFFSET: usize = 14;
    bytes[CHECK_OFFSET..CHECK_OFFSET + 4].fill(0);
    let mut crc = !0u32;
    for &b in bytes.iter() {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
        }
    }
    bytes[CHECK_OFFSET..CHECK_OFFSET + 4].copy_from_slice(&(!crc).to_le_bytes());
}

proptest! {
    /// Pack-then-unpack is the identity: every staged frame comes back,
    /// in order, with contiguous sequence numbers and intact contents.
    #[test]
    fn pack_then_unpack_is_the_identity(
        mix in frame_mix(),
        mtu in (HEADER_LEN + SUBFRAME_PREFIX + 64)..4_000usize,
        first_seq in any::<u32>(),
    ) {
        let frames: Vec<Frame> = mix.iter().map(|&(t, l)| frame(t, l)).collect();
        let datagrams = pack_all(&frames, mtu, first_seq);
        let mut got = Vec::new();
        let mut expect_seq = first_seq;
        for d in &datagrams {
            match packet::decode(d) {
                Some(Packet::Batch { src, first_seq: fs, epoch, ack: None, frames }) => {
                    prop_assert_eq!(src, FlipcNodeId(3));
                    prop_assert_eq!(epoch, 7);
                    prop_assert_eq!(fs, expect_seq, "batches stay seq-contiguous");
                    expect_seq = expect_seq.wrapping_add(frames.len() as u32);
                    got.extend(frames);
                }
                _ => prop_assert!(false, "sealed batch must decode as Batch"),
            }
        }
        let staged: Vec<&Frame> = frames
            .iter()
            .filter(|f| HEADER_LEN + SUBFRAME_PREFIX + f.wire_len() <= mtu.min(MAX_DATAGRAM))
            .collect();
        prop_assert_eq!(got.len(), staged.len());
        for (g, e) in got.iter().zip(staged) {
            prop_assert!(same_frame(g, e), "sub-frame mutated in transit: {:?} vs {:?}", g, e);
        }
    }

    /// No sealed datagram ever exceeds the MTU bound, and every sealed
    /// datagram re-parses standalone (no sub-frame straddles a boundary).
    #[test]
    fn sealed_batches_respect_the_mtu(
        mix in frame_mix(),
        mtu in (HEADER_LEN + SUBFRAME_PREFIX + 64)..4_000usize,
    ) {
        let frames: Vec<Frame> = mix.iter().map(|&(t, l)| frame(t, l)).collect();
        for d in pack_all(&frames, mtu, 1) {
            prop_assert!(d.len() <= mtu.min(MAX_DATAGRAM), "datagram {} > mtu {}", d.len(), mtu);
            prop_assert!(packet::decode(&d).is_some(), "each datagram stands alone");
        }
    }

    /// Any single-byte corruption of a batch datagram — including its
    /// sub-frame length prefixes — never panics the decoder and never
    /// yields frames (the whole-datagram checksum rejects it): at most
    /// that one datagram is lost, which go-back-N already recovers.
    #[test]
    fn corrupted_batches_never_panic_and_never_deliver(
        mix in vec((any::<u8>(), 0usize..96), 1..8),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let frames: Vec<Frame> = mix.iter().map(|&(t, l)| frame(t, l)).collect();
        let mut d = pack_all(&frames, 2_000, 1).swap_remove(0);
        let at = pos % d.len();
        d[at] ^= flip;
        prop_assert!(packet::decode(&d).is_none(), "corruption drops the datagram whole");
    }

    /// Even an adversary who can re-seal the checksum cannot make an
    /// inflated or truncated sub-frame length panic the decoder or read
    /// out of bounds: the structural checks reject the datagram instead.
    #[test]
    fn forged_length_prefixes_never_panic(
        mix in vec((any::<u8>(), 0usize..96), 1..8),
        forged_len in any::<u16>(),
    ) {
        let frames: Vec<Frame> = mix.iter().map(|&(t, l)| frame(t, l)).collect();
        let mut d = pack_all(&frames, 2_000, 1).swap_remove(0);
        // The forger must compute the real checksum, or every forged
        // datagram fails it and the length checks go untested.
        let mut unmangled = d.clone();
        forge_seal(&mut unmangled);
        prop_assert!(packet::decode(&unmangled).is_some(), "forge_seal matches packet's checksum");
        // Overwrite the first sub-frame's length prefix with an arbitrary
        // value and forge a valid checksum over the mangled datagram.
        let [lo, hi] = forged_len.to_le_bytes();
        d[HEADER_LEN] = lo;
        d[HEADER_LEN + 1] = hi;
        forge_seal(&mut d);
        // Must not panic; may decode only if the forged length happens to
        // reproduce a structurally valid batch (e.g. the original value).
        if let Some(Packet::Batch { frames: got, .. }) = packet::decode(&d) {
            prop_assert!(!got.is_empty(), "a decoded batch is never empty");
        }
    }
}
