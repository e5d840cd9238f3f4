//! The `flipc-net` datagram format.
//!
//! The engine's [`flipc_engine::wire::Frame`] assumes a reliable ordered
//! medium, so it carries no transport state. A real network is neither
//! reliable nor ordered; `flipc-net` therefore wraps each frame in a small
//! versioned header carrying the sending node, a per-path sequence number,
//! and the sender's *session epoch*, and adds packet kinds for cumulative
//! acknowledgements and idle-path heartbeats.
//!
//! Layout (little-endian), version 6:
//!
//! ```text
//! magic:   u16  0xF11C
//! version: u8   6
//! kind:    u8   1 = Data, 2 = Ack, 3 = Ping, 4 = Batch, 5 = Pong,
//!               6 = Batch with an ack block
//! src:     u16  FLIPC node id of the sender
//! len:     u16  Data: byte length of the embedded frame
//!               Ack: epoch of the data being acknowledged
//!               Ping: 8 (the t1 timestamp payload)
//!               Batch: byte length of the sub-frame region
//!               Pong: 32 (the t1/t2/t3 timestamp payload + credit)
//!               Batch with ack: byte length of the ack block plus the
//!               sub-frame region
//! seq:     u32  Data: path sequence number (first frame is 1)
//!               Ack: cumulative ack — highest in-order sequence received
//!               Ping / Pong: 0
//!               Batch (either kind): sequence number of the first
//!               sub-frame
//! epoch:   u16  the sender's current session epoch on this path
//! check:   u32  CRC32C of the whole datagram with this field zeroed
//! ```
//!
//! Version 6 lets an acknowledgement ride the reverse data instead of
//! costing a datagram of its own. Kind 6 is a Batch whose header is
//! followed by a 14-byte [`AckBlock`] — the cumulative ack (`u32`), the
//! acked epoch (`u16`), the credit grant (`u32`) and the receive-drop
//! counter (`u32`), the same fields an Ack carries — and then the
//! sub-frames. The receiver applies the block exactly as it applies an
//! Ack. Data and kind-4 Batch datagrams keep their version-5 layout byte
//! for byte, so data-only traffic pays zero extra bytes. The block never
//! enters a Data datagram: those bytes are sealed once into the
//! retransmit ring and resent verbatim, and a resent grant or drop
//! counter would be stale.
//!
//! Version 5 replaced the byte-at-a-time Fowler-Noll-Vo hash with CRC32C
//! (Castagnoli) as the checksum, with the same field and the same
//! read-as-zero rule. CRC32C detects every error burst of up to 32 bits,
//! which the hash did not. CPUs with SSE4.2 compute it with the `crc32`
//! instruction; elsewhere a slice-by-8 table does. The datagram sizes did
//! not change.
//!
//! Version 4 adds receiver-granted flow control as a *payload extension*
//! on Ack and Pong: an 8-byte trailer carrying the advertising node's
//! current credit window (`u32`, how many frames the peer may keep in
//! flight toward it) and its cumulative receive-side drop counter
//! (`u32`, wrapping — the congestion signal the sender reacts to; see
//! [`crate::reliability::CreditGrantor`]). As with the clock-sync
//! stamps, the extension deliberately rides the control datagrams only:
//! Data and Batch — the hot path — pay zero extra bytes unless an ack
//! rides (version 6).
//!
//! Version 3 turns the idle-path heartbeat into an NTP-style
//! four-timestamp clock-sync exchange: a Ping carries the pinger's send
//! stamp `t1` (nanoseconds on its trace clock) as an 8-byte payload, and
//! the receiver answers with a Pong echoing `t1` plus its own receive
//! stamp `t2` and send stamp `t3` (24 bytes). The pinger notes its
//! arrival stamp `t4` and feeds all four into a per-peer offset
//! estimator (see [`crate::reliability::ClockSync`]). The timestamps ride
//! the heartbeat *payload* rather than the common header deliberately:
//! Data and Batch datagrams — the hot path — pay zero extra bytes, at
//! the cost of sync samples arriving only at the heartbeat cadence
//! (plenty: offsets drift slowly).
//!
//! A Batch datagram coalesces several consecutive Data frames into one
//! MTU-bounded jumbo: the header is followed by sub-frames, each a
//! `u16` little-endian byte length and then [`Frame::encode`] bytes.
//! Sub-frame `i` carries sequence `seq + i`; the receiver fans the batch
//! back out through the same per-sequence reliability/dedup window as
//! plain Data, so a lost jumbo is just a contiguous sequence gap and
//! go-back-N recovers it with individual Data retransmissions. The whole
//! datagram shares one checksum: a corrupted sub-frame length (or any
//! other flipped bit) rejects the entire datagram — at most that one
//! datagram is dropped, never a desynchronized tail.
//!
//! The checksum is what keeps in-flight corruption out of the protocol:
//! UDP's 16-bit checksum is optional and weak, and a flipped bit in the
//! sequence, epoch, or embedded frame would otherwise parse cleanly and
//! poison the go-back-N state (or deliver garbage to the application).
//! With it, corrupted datagrams of any shape are counted as
//! `decode_errors` and recovered by retransmission like ordinary loss.
//!
//! The epoch is what makes a crashed-and-restarted peer detectable: a
//! fresh incarnation (or a sender that reset the path after declaring its
//! peer dead) speaks a *newer* epoch, the receiver resets its go-back-N
//! state and resynchronizes, and datagrams from a *stale* epoch are
//! rejected outright — in-order exactly-once delivery is guaranteed
//! within one epoch (see `DESIGN.md` §3.4.2). Acks echo the epoch of the
//! data they acknowledge in `len` so a sender never applies an ack meant
//! for a previous incarnation of the path.
//!
//! Data packets append [`Frame::encode`] bytes after the header. A `len`
//! that disagrees with the datagram size is rejected (UDP preserves
//! datagram boundaries, so a mismatch means corruption or a foreign
//! speaker, not fragmentation). Version-1 datagrams (no epoch) are
//! rejected like any other version mismatch: both ends of a path upgrade
//! together, as with any header change.

use flipc_core::endpoint::FlipcNodeId;
use flipc_engine::wire::Frame;

/// First two bytes of every `flipc-net` datagram.
pub const MAGIC: u16 = 0xF11C;
/// Wire protocol version this build speaks (2 added the session epoch and
/// the Ping heartbeat kind; 3 added the clock-sync timestamps on
/// Ping/Pong; 4 added the credit-window extension on Ack/Pong; 5 replaced
/// the Fowler-Noll-Vo checksum with CRC32C; 6 added the Batch kind that
/// carries an ack block). Mixed versions on one path reject each other's
/// datagrams — both ends upgrade together, as with any header change.
pub const VERSION: u8 = 6;
/// Byte length of a Ping's timestamp payload (`t1`).
pub const PING_BODY: usize = 8;
/// Byte length of an Ack's credit-extension payload (`credit`,
/// `recv_drops`).
pub const ACK_BODY: usize = 8;
/// Byte length of a Pong's payload (`t1`, `t2`, `t3`, `credit`,
/// `recv_drops`).
pub const PONG_BODY: usize = 32;
/// Byte length of the [`AckBlock`] a kind-6 Batch carries before its
/// sub-frames.
pub const ACK_BLOCK: usize = 14;
/// Byte length of the packet header.
pub const HEADER_LEN: usize = 18;
/// Byte offset of the checksum field within the header.
const CHECK_OFFSET: usize = 14;
/// Largest datagram this implementation will emit or accept. Large enough
/// for any fixed-size FLIPC message geometry in this workspace; small
/// enough to avoid IP fragmentation on loopback and most LANs with jumbo
/// frames disabled being the only exception we accept.
pub const MAX_DATAGRAM: usize = 9 * 1024;
/// Byte length of the per-sub-frame length prefix inside a Batch.
pub const SUBFRAME_PREFIX: usize = 2;
/// Largest Batch datagram the transport's coalescer assembles, header
/// included: an Ethernet MTU less IP/UDP headers, so a batch never
/// fragments. Frames that can never fit under it go out as plain Data.
pub const BATCH_MTU: usize = 1_400;

/// One decoded `flipc-net` datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Packet {
    /// A sequenced engine frame on the path `src -> us`.
    Data {
        /// Sending node.
        src: FlipcNodeId,
        /// Path sequence number (starts at 1 in every epoch).
        seq: u32,
        /// The sender's session epoch on this path.
        epoch: u16,
        /// The engine frame being carried.
        frame: Frame,
    },
    /// A cumulative acknowledgement for the path `us -> src`.
    Ack {
        /// Acknowledging node.
        src: FlipcNodeId,
        /// Highest sequence number received in order (0 = nothing yet).
        cumulative: u32,
        /// The acknowledging node's own session epoch.
        epoch: u16,
        /// Epoch of the data stream being acknowledged (our sender epoch,
        /// as last seen by the peer). A sender ignores acks whose
        /// `acked_epoch` is not its current epoch.
        acked_epoch: u16,
        /// Credit window granted by the acknowledging node: how many
        /// frames the receiver of this ack may keep in flight toward it.
        credit: u32,
        /// The acknowledging node's cumulative receive-side drop counter
        /// (wrapping). A sender that sees this advance treats it as a
        /// congestion signal and clamps its usable window immediately.
        recv_drops: u32,
    },
    /// An idle-path heartbeat; any valid reply (the receiver answers with
    /// an ack and a [`Packet::Pong`]) proves the peer alive, and the
    /// carried stamp starts a clock-sync sample.
    Ping {
        /// Pinging node.
        src: FlipcNodeId,
        /// The pinging node's session epoch.
        epoch: u16,
        /// The pinger's trace-clock send stamp (nanoseconds).
        t1: u64,
    },
    /// Several consecutive Data frames coalesced into one jumbo datagram
    /// (kind 4), or one or more with an acknowledgement riding ahead of
    /// them (kind 6).
    Batch {
        /// Sending node.
        src: FlipcNodeId,
        /// Sequence number of the first sub-frame; sub-frame `i` carries
        /// `first_seq + i`.
        first_seq: u32,
        /// The sender's session epoch on this path.
        epoch: u16,
        /// The acknowledgement for the path `us -> src` that rode this
        /// datagram (kind 6), or `None` (kind 4).
        ack: Option<AckBlock>,
        /// The coalesced engine frames, in sequence order.
        frames: Vec<Frame>,
    },
    /// The clock-sync reply to a [`Packet::Ping`]: echoes the pinger's
    /// send stamp and adds this node's receive and send stamps, completing
    /// three of the four NTP timestamps (the pinger supplies `t4` on
    /// arrival).
    Pong {
        /// Replying node.
        src: FlipcNodeId,
        /// The replying node's session epoch.
        epoch: u16,
        /// The pinger's send stamp, echoed verbatim (the pinger matches it
        /// against its outstanding probe — Karn-style rejection).
        t1: u64,
        /// The replier's trace-clock stamp when the ping arrived.
        t2: u64,
        /// The replier's trace-clock stamp when this pong was sent.
        t3: u64,
        /// Credit window granted by the replying node (same meaning as on
        /// [`Packet::Ack`]; pongs keep an idle sender's view fresh).
        credit: u32,
        /// The replying node's cumulative receive-side drop counter.
        recv_drops: u32,
    },
}

/// A cumulative acknowledgement with its credit advertisement: the body
/// of an Ack, and the block a kind-6 Batch carries ahead of its
/// sub-frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckBlock {
    /// Highest sequence number received in order (0 = nothing yet).
    pub cumulative: u32,
    /// Epoch of the data stream being acknowledged (the receiver of the
    /// block ignores the cumulative ack unless this is its current
    /// epoch).
    pub acked_epoch: u16,
    /// Credit window granted by the acknowledging node.
    pub credit: u32,
    /// The acknowledging node's cumulative receive-side drop counter
    /// (wrapping).
    pub recv_drops: u32,
}

impl AckBlock {
    fn encode(&self) -> [u8; ACK_BLOCK] {
        let mut b = [0u8; ACK_BLOCK];
        b[0..4].copy_from_slice(&self.cumulative.to_le_bytes());
        b[4..6].copy_from_slice(&self.acked_epoch.to_le_bytes());
        b[6..10].copy_from_slice(&self.credit.to_le_bytes());
        b[10..14].copy_from_slice(&self.recv_drops.to_le_bytes());
        b
    }

    fn decode(b: &[u8]) -> Option<AckBlock> {
        Some(AckBlock {
            cumulative: u32::from_le_bytes(b.get(0..4)?.try_into().ok()?),
            acked_epoch: u16::from_le_bytes(b.get(4..6)?.try_into().ok()?),
            credit: u32::from_le_bytes(b.get(6..10)?.try_into().ok()?),
            recv_drops: u32::from_le_bytes(b.get(10..14)?.try_into().ok()?),
        })
    }
}

fn header(kind: u8, src: FlipcNodeId, len: u16, seq: u32, epoch: u16) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    h[2] = VERSION;
    h[3] = kind;
    h[4..6].copy_from_slice(&src.0.to_le_bytes());
    h[6..8].copy_from_slice(&len.to_le_bytes());
    h[8..12].copy_from_slice(&seq.to_le_bytes());
    h[12..14].copy_from_slice(&epoch.to_le_bytes());
    // check (14..18) stays zero here; seal() fills it over the whole
    // datagram.
    h
}

/// CRC32C of the datagram with the check field read as zero.
fn checksum(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `checksum_sse42` needs SSE4.2, which the CPU was just
        // checked to support.
        return unsafe { checksum_sse42(bytes) };
    }
    checksum_portable(bytes)
}

/// The datagram as the checksum reads it: the bytes before the check
/// field, as many zeros as the field has bytes in `bytes` (fewer than
/// four when `bytes` ends inside it), and the bytes after it.
fn check_parts(bytes: &[u8]) -> [&[u8]; 3] {
    let (head, rest) = bytes.split_at(bytes.len().min(CHECK_OFFSET));
    let (field, tail) = rest.split_at(rest.len().min(4));
    [head, &[0; 4][..field.len()], tail]
}

/// CRC32C's reflected polynomial.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 tables: `CRC32C_TABLE[0][b]` is the CRC of byte `b`, and
/// `CRC32C_TABLE[k][b]` that of `b` followed by `k` zero bytes.
static CRC32C_TABLE: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                (c >> 1) ^ CRC32C_POLY
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Table-driven [`checksum`], eight bytes per step: the path on CPUs
/// without SSE4.2, and the reference the tests hold the SSE4.2 path to.
fn checksum_portable(bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLE;
    let mut crc = !0u32;
    for part in check_parts(bytes) {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][usize::from(w[4])]
                ^ t[2][usize::from(w[5])]
                ^ t[1][usize::from(w[6])]
                ^ t[0][usize::from(w[7])];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
    }
    !crc
}

/// [`checksum`] with the SSE4.2 `crc32` instruction, eight bytes per step.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn checksum_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = !0u32;
    for part in check_parts(bytes) {
        let mut words = part.chunks_exact(8);
        let mut wide = u64::from(crc);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            wide = _mm_crc32_u64(wide, u64::from_le_bytes(word));
        }
        // The instruction leaves the 32-bit CRC in the low half.
        crc = wide as u32;
        for &b in words.remainder() {
            crc = _mm_crc32_u8(crc, b);
        }
    }
    !crc
}

/// Writes the checksum of the assembled datagram into its header.
fn seal(out: &mut [u8]) {
    let c = checksum(out);
    out[CHECK_OFFSET..CHECK_OFFSET + 4].copy_from_slice(&c.to_le_bytes());
}

/// Encodes a data packet carrying `frame` as sequence `seq` of session
/// epoch `epoch` from `src`.
///
/// Returns `None` if the frame is too large for one datagram (a
/// misconfigured geometry; the caller treats it as undeliverable).
pub fn encode_data(src: FlipcNodeId, seq: u32, epoch: u16, frame: &Frame) -> Option<Vec<u8>> {
    let body_len = frame.wire_len();
    if HEADER_LEN + body_len > MAX_DATAGRAM || body_len > u16::MAX as usize {
        return None;
    }
    let mut out = Vec::with_capacity(HEADER_LEN + body_len);
    out.extend_from_slice(&header(1, src, body_len as u16, seq, epoch));
    frame.encode_into(&mut out);
    seal(&mut out);
    Some(out)
}

/// Incrementally packs consecutive pre-encoded frames into one sealed
/// Batch datagram bounded by an MTU budget.
///
/// The builder owns one reusable buffer: pushes append in place, and
/// [`BatchBuilder::finish`] seals the header + checksum without
/// allocating, so the steady-state coalesce path stays allocation-free
/// after warmup. An ack block, when one rides, is inserted in front of
/// the sub-frames only if the result still fits the MTU, so the buffer
/// never grows past its first capacity. Callers stage [`Frame::encode`]
/// bytes (the body of the equivalent Data datagram) with the sequence
/// the reliability layer assigned; the builder refuses — leaving its
/// state untouched — any push that would cross the MTU bound or break
/// sequence contiguity, which is the caller's cue to flush first.
#[derive(Debug)]
pub struct BatchBuilder {
    /// Largest datagram this builder will assemble (header included).
    mtu: usize,
    /// Header placeholder followed by length-prefixed sub-frames.
    buf: Vec<u8>,
    /// Sequence of the first staged sub-frame (meaningful when nonempty).
    first_seq: u32,
    /// Number of staged sub-frames.
    count: u32,
}

impl BatchBuilder {
    /// A builder bounded by `mtu` bytes per datagram. The bound is
    /// clamped into `[HEADER_LEN + SUBFRAME_PREFIX + 1, MAX_DATAGRAM]` so
    /// a nonsensical MTU can never produce unencodable or oversized
    /// datagrams.
    pub fn new(mtu: usize) -> BatchBuilder {
        let mtu = mtu.clamp(HEADER_LEN + SUBFRAME_PREFIX + 1, MAX_DATAGRAM);
        let mut buf = Vec::with_capacity(mtu);
        buf.resize(HEADER_LEN, 0);
        BatchBuilder {
            mtu,
            buf,
            first_seq: 0,
            count: 0,
        }
    }

    /// Number of sub-frames currently staged.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Sequence of the first staged sub-frame (meaningful when nonempty).
    pub fn first_seq(&self) -> u32 {
        self.first_seq
    }

    /// True if a sub-frame of `encoded_len` bytes would fit in an *empty*
    /// builder — i.e. whether this frame is batchable at all under the
    /// MTU bound. Frames that fail this are sent as plain Data datagrams.
    pub fn can_ever_hold(&self, encoded_len: usize) -> bool {
        HEADER_LEN + SUBFRAME_PREFIX + encoded_len <= self.mtu
    }

    /// True if a sub-frame of `encoded_len` bytes fits right now.
    pub fn fits(&self, encoded_len: usize) -> bool {
        self.buf.len() + SUBFRAME_PREFIX + encoded_len <= self.mtu
    }

    /// True if an [`AckBlock`] could ride the staged sub-frames without
    /// crossing the MTU bound.
    pub fn fits_ack(&self) -> bool {
        self.buf.len() + ACK_BLOCK <= self.mtu
    }

    /// Stages the pre-encoded frame carrying sequence `seq`. Returns
    /// `false` — with the builder unchanged — when the frame would cross
    /// the MTU bound, would break sequence contiguity, or is too long for
    /// the `u16` prefix; the caller flushes and retries (or falls back to
    /// a plain Data send for frames that can never fit).
    pub fn push(&mut self, seq: u32, encoded_frame: &[u8]) -> bool {
        if !self.fits(encoded_frame.len()) || encoded_frame.len() > u16::MAX as usize {
            return false;
        }
        if self.count == 0 {
            self.first_seq = seq;
        } else if seq != self.first_seq.wrapping_add(self.count) {
            return false;
        }
        self.buf
            .extend_from_slice(&(encoded_frame.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(encoded_frame);
        self.count += 1;
        true
    }

    /// Seals the staged sub-frames into one Batch datagram and returns
    /// its bytes: kind 4, or kind 6 with `ack` ahead of the sub-frames.
    /// Returns `None` when nothing is staged, or when `ack` would not
    /// fit ([`BatchBuilder::fits_ack`]). The caller transmits the slice
    /// and then calls [`BatchBuilder::clear`]; the buffer is reused for
    /// the next batch.
    pub fn finish(&mut self, src: FlipcNodeId, epoch: u16, ack: Option<AckBlock>) -> Option<&[u8]> {
        if self.count == 0 || (ack.is_some() && !self.fits_ack()) {
            return None;
        }
        let kind = match ack {
            None => 4,
            Some(a) => {
                // Shift the sub-frames up and write the block into the
                // gap; `fits_ack` keeps this within the capacity.
                let end = self.buf.len();
                self.buf.resize(end + ACK_BLOCK, 0);
                self.buf
                    .copy_within(HEADER_LEN..end, HEADER_LEN + ACK_BLOCK);
                self.buf[HEADER_LEN..HEADER_LEN + ACK_BLOCK].copy_from_slice(&a.encode());
                6
            }
        };
        let body_len = (self.buf.len() - HEADER_LEN) as u16;
        let h = header(kind, src, body_len, self.first_seq, epoch);
        self.buf[..HEADER_LEN].copy_from_slice(&h);
        seal(&mut self.buf);
        Some(&self.buf)
    }

    /// Discards the staged sub-frames (and any ack block `finish`
    /// inserted), keeping the buffer's capacity. `finish` rewrites the
    /// whole header, so the stale one needs no scrubbing.
    pub fn clear(&mut self) {
        self.buf.truncate(HEADER_LEN);
        self.count = 0;
    }
}

/// Encodes a cumulative acknowledgement from `src` (whose own epoch is
/// `epoch`) for the peer's data stream at `acked_epoch`, advertising the
/// acknowledger's current credit window and cumulative receive-side drop
/// counter.
pub fn encode_ack(
    src: FlipcNodeId,
    cumulative: u32,
    epoch: u16,
    acked_epoch: u16,
    credit: u32,
    recv_drops: u32,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + ACK_BODY);
    out.extend_from_slice(&header(2, src, acked_epoch, cumulative, epoch));
    out.extend_from_slice(&credit.to_le_bytes());
    out.extend_from_slice(&recv_drops.to_le_bytes());
    seal(&mut out);
    out
}

/// Encodes an idle-path heartbeat from `src` at session epoch `epoch`,
/// carrying the pinger's trace-clock send stamp `t1`.
pub fn encode_ping(src: FlipcNodeId, epoch: u16, t1: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + PING_BODY);
    out.extend_from_slice(&header(3, src, PING_BODY as u16, 0, epoch));
    out.extend_from_slice(&t1.to_le_bytes());
    seal(&mut out);
    out
}

/// Encodes the clock-sync reply from `src` at session epoch `epoch`:
/// the pinger's stamp `t1` echoed back plus this node's receive stamp
/// `t2`, send stamp `t3`, and the same credit advertisement acks carry.
pub fn encode_pong(
    src: FlipcNodeId,
    epoch: u16,
    t1: u64,
    t2: u64,
    t3: u64,
    credit: u32,
    recv_drops: u32,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + PONG_BODY);
    out.extend_from_slice(&header(5, src, PONG_BODY as u16, 0, epoch));
    out.extend_from_slice(&t1.to_le_bytes());
    out.extend_from_slice(&t2.to_le_bytes());
    out.extend_from_slice(&t3.to_le_bytes());
    out.extend_from_slice(&credit.to_le_bytes());
    out.extend_from_slice(&recv_drops.to_le_bytes());
    seal(&mut out);
    out
}

/// Splits a Batch's sub-frame region into its frames: `None` when a
/// length prefix runs past the region, a frame does not decode, or the
/// region holds no frame at all.
fn decode_subframes(mut region: &[u8]) -> Option<Vec<Frame>> {
    let mut frames = Vec::new();
    while !region.is_empty() {
        let prefix = region.get(..SUBFRAME_PREFIX)?;
        let flen = usize::from(u16::from_le_bytes(prefix.try_into().ok()?));
        let frame = region.get(SUBFRAME_PREFIX..SUBFRAME_PREFIX + flen)?;
        frames.push(Frame::decode(frame)?);
        region = &region[SUBFRAME_PREFIX + flen..];
    }
    (!frames.is_empty()).then_some(frames)
}

/// Decodes one datagram. Returns `None` for anything that is not a
/// well-formed `flipc-net` packet: short datagrams, wrong magic or
/// version, a failed checksum, unknown kind, or a length field that
/// disagrees with the datagram size.
pub fn decode(bytes: &[u8]) -> Option<Packet> {
    if bytes.len() < HEADER_LEN || bytes.len() > MAX_DATAGRAM {
        return None;
    }
    let magic = u16::from_le_bytes(bytes[0..2].try_into().ok()?);
    if magic != MAGIC || bytes[2] != VERSION {
        return None;
    }
    let check = u32::from_le_bytes(bytes[CHECK_OFFSET..CHECK_OFFSET + 4].try_into().ok()?);
    if check != checksum(bytes) {
        return None;
    }
    let kind = bytes[3];
    let src = FlipcNodeId(u16::from_le_bytes(bytes[4..6].try_into().ok()?));
    let len = u16::from_le_bytes(bytes[6..8].try_into().ok()?);
    let seq = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
    let epoch = u16::from_le_bytes(bytes[12..14].try_into().ok()?);
    match kind {
        1 => {
            if bytes.len() - HEADER_LEN != len as usize {
                return None;
            }
            let frame = Frame::decode(&bytes[HEADER_LEN..])?;
            Some(Packet::Data {
                src,
                seq,
                epoch,
                frame,
            })
        }
        2 => {
            if bytes.len() != HEADER_LEN + ACK_BODY {
                return None;
            }
            let credit = u32::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 4].try_into().ok()?);
            let recv_drops =
                u32::from_le_bytes(bytes[HEADER_LEN + 4..HEADER_LEN + 8].try_into().ok()?);
            Some(Packet::Ack {
                src,
                cumulative: seq,
                epoch,
                acked_epoch: len,
                credit,
                recv_drops,
            })
        }
        3 => {
            if len as usize != PING_BODY || seq != 0 || bytes.len() != HEADER_LEN + PING_BODY {
                return None;
            }
            let t1 = u64::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 8].try_into().ok()?);
            Some(Packet::Ping { src, epoch, t1 })
        }
        4 | 6 => {
            if bytes.len() - HEADER_LEN != len as usize {
                return None;
            }
            let (ack, sub) = if kind == 6 {
                let block = bytes.get(HEADER_LEN..HEADER_LEN + ACK_BLOCK)?;
                (Some(AckBlock::decode(block)?), HEADER_LEN + ACK_BLOCK)
            } else {
                (None, HEADER_LEN)
            };
            Some(Packet::Batch {
                src,
                first_seq: seq,
                epoch,
                ack,
                frames: decode_subframes(&bytes[sub..])?,
            })
        }
        5 => {
            if len as usize != PONG_BODY || seq != 0 || bytes.len() != HEADER_LEN + PONG_BODY {
                return None;
            }
            let t1 = u64::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 8].try_into().ok()?);
            let t2 = u64::from_le_bytes(bytes[HEADER_LEN + 8..HEADER_LEN + 16].try_into().ok()?);
            let t3 = u64::from_le_bytes(bytes[HEADER_LEN + 16..HEADER_LEN + 24].try_into().ok()?);
            let credit =
                u32::from_le_bytes(bytes[HEADER_LEN + 24..HEADER_LEN + 28].try_into().ok()?);
            let recv_drops =
                u32::from_le_bytes(bytes[HEADER_LEN + 28..HEADER_LEN + 32].try_into().ok()?);
            Some(Packet::Pong {
                src,
                epoch,
                t1,
                t2,
                t3,
                credit,
                recv_drops,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipc_core::endpoint::{EndpointAddress, EndpointIndex};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn frame(tag: u8) -> Frame {
        Frame {
            src: EndpointAddress::new(FlipcNodeId(3), EndpointIndex(1), 7),
            dst: EndpointAddress::new(FlipcNodeId(4), EndpointIndex(2), 9),
            payload: vec![tag; 56].into(),
            stamp_ns: 0,
        }
    }

    #[test]
    fn data_roundtrips() {
        let f = frame(0xAB);
        let bytes = encode_data(FlipcNodeId(3), 42, 5, &f).unwrap();
        assert_eq!(
            decode(&bytes).unwrap(),
            Packet::Data {
                src: FlipcNodeId(3),
                seq: 42,
                epoch: 5,
                frame: f
            }
        );
    }

    #[test]
    fn ack_roundtrips_with_both_epochs_and_credit() {
        let bytes = encode_ack(FlipcNodeId(9), 17, 4, 11, 32, u32::MAX - 1);
        assert_eq!(
            decode(&bytes).unwrap(),
            Packet::Ack {
                src: FlipcNodeId(9),
                cumulative: 17,
                epoch: 4,
                acked_epoch: 11,
                credit: 32,
                recv_drops: u32::MAX - 1,
            }
        );
    }

    #[test]
    fn ping_roundtrips() {
        let bytes = encode_ping(FlipcNodeId(2), 8, 0xDEAD_BEEF_1234_5678);
        assert_eq!(
            decode(&bytes).unwrap(),
            Packet::Ping {
                src: FlipcNodeId(2),
                epoch: 8,
                t1: 0xDEAD_BEEF_1234_5678,
            }
        );
    }

    #[test]
    fn pong_roundtrips_all_three_stamps_and_credit() {
        let bytes = encode_pong(FlipcNodeId(5), 3, u64::MAX, 0, 42, 7, 9);
        assert_eq!(
            decode(&bytes).unwrap(),
            Packet::Pong {
                src: FlipcNodeId(5),
                epoch: 3,
                t1: u64::MAX,
                t2: 0,
                t3: 42,
                credit: 7,
                recv_drops: 9,
            }
        );
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let good = encode_data(FlipcNodeId(1), 1, 1, &frame(1)).unwrap();
        // Truncated below the header.
        assert!(decode(&good[..HEADER_LEN - 1]).is_none());
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decode(&bad).is_none());
        // Wrong version — including the epoch-less version 1, the
        // clock-sync-less version 2, the credit-less version 3, the
        // Fowler-Noll-Vo-checked version 4, and version 5, which has no
        // ack-carrying Batch.
        let mut bad = good.clone();
        bad[2] = VERSION + 1;
        assert!(decode(&bad).is_none());
        for old in [1u8, 2, 3, 4, 5] {
            let mut bad = good.clone();
            bad[2] = old;
            assert!(decode(&bad).is_none());
        }
        // Unknown kind — re-sealed so only the kind check can reject it.
        let mut bad = good.clone();
        bad[3] = 9;
        seal(&mut bad);
        assert!(decode(&bad).is_none());
        // Length disagreeing with the datagram.
        let mut bad = good.clone();
        bad[6] = bad[6].wrapping_add(1);
        assert!(decode(&bad).is_none());
        // Truncated body.
        assert!(decode(&good[..good.len() - 1]).is_none());
    }

    #[test]
    fn any_single_byte_flip_is_rejected() {
        // The checksum closes the holes the field checks cannot see:
        // flipped sequence numbers, epochs, or payload bytes would parse
        // cleanly and poison the protocol state.
        let good = encode_data(FlipcNodeId(1), 7, 3, &frame(0x5A)).unwrap();
        assert!(decode(&good).is_some(), "the unmodified datagram decodes");
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            assert!(decode(&bad).is_none(), "flip of byte {i} must be rejected");
        }
        let good = encode_ack(FlipcNodeId(1), 7, 3, 3, 64, 2);
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(decode(&bad).is_none(), "ack flip of byte {i}");
        }
    }

    /// `len` bytes from a generator seeded with `seed`.
    fn seeded_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// The SSE4.2 path's checksum, or `None` where the CPU lacks SSE4.2.
    #[cfg(target_arch = "x86_64")]
    fn sse42(bytes: &[u8]) -> Option<u32> {
        std::arch::is_x86_feature_detected!("sse4.2").then(|| {
            // SAFETY: the CPU supports SSE4.2, checked just above.
            unsafe { checksum_sse42(bytes) }
        })
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn sse42(_: &[u8]) -> Option<u32> {
        None
    }

    #[test]
    fn checksum_is_crc32c_on_both_paths() {
        // The standard CRC32C check value. Nine bytes end before the
        // check field, so nothing is read as zero.
        assert_eq!(checksum_portable(b"123456789"), 0xE306_9283);
        if let Some(c) = sse42(b"123456789") {
            assert_eq!(c, 0xE306_9283);
        }
        assert_eq!(checksum(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn sse42_and_portable_paths_agree_at_every_length() {
        // Lengths 15..18 end inside the check field, so only part of it
        // is read as zero.
        let bytes = seeded_bytes(BATCH_MTU, 0xF11C);
        for len in 0..=BATCH_MTU {
            let portable = checksum_portable(&bytes[..len]);
            if let Some(c) = sse42(&bytes[..len]) {
                assert_eq!(c, portable, "length {len}");
            }
        }
    }

    #[test]
    fn any_single_bit_flip_of_a_full_batch_is_rejected() {
        // Two stream-sized frames and one of 320 B fill BATCH_MTU exactly.
        let mut payload = seeded_bytes(504 + 504 + 320, 5).into_iter();
        let mut b = BatchBuilder::new(BATCH_MTU);
        for (seq, len) in [(1, 504), (2, 504), (3, 320)] {
            let f = Frame {
                payload: payload.by_ref().take(len).collect(),
                ..frame(0)
            };
            assert!(b.push(seq, &f.encode()));
        }
        let mut bytes = b.finish(FlipcNodeId(3), 2, None).unwrap().to_vec();
        assert_eq!(bytes.len(), BATCH_MTU);
        assert!(decode(&bytes).is_some(), "the unmodified batch decodes");
        for bit in 0..BATCH_MTU * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(decode(&bytes).is_none(), "flip of bit {bit} must reject");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn ack_with_wrong_body_length_is_rejected() {
        // A trailing byte beyond the 8-byte credit extension is malformed.
        let mut bytes = encode_ack(FlipcNodeId(0), 5, 1, 1, 8, 0);
        bytes.push(0);
        assert!(decode(&bytes).is_none());
        // So is a bare version-3-shaped ack with no credit extension,
        // even re-sealed: the body length must be exact.
        let mut bytes = encode_ack(FlipcNodeId(0), 5, 1, 1, 8, 0);
        bytes.truncate(HEADER_LEN);
        seal(&mut bytes);
        assert!(decode(&bytes).is_none());
    }

    #[test]
    fn ping_with_wrong_payload_is_rejected() {
        // A trailing byte beyond the 8-byte t1 payload is malformed even
        // when re-sealed: the len field must agree with the datagram.
        let mut bytes = encode_ping(FlipcNodeId(0), 1, 7);
        bytes.push(0);
        seal(&mut bytes);
        assert!(decode(&bytes).is_none());
        // A ping whose seq field is nonzero is malformed too.
        let mut bytes = encode_ping(FlipcNodeId(0), 1, 7);
        bytes[8] = 1;
        seal(&mut bytes);
        assert!(decode(&bytes).is_none());
        // Same discipline for pongs: truncated or padded payloads reject.
        let mut bytes = encode_pong(FlipcNodeId(0), 1, 1, 2, 3, 4, 5);
        bytes.pop();
        seal(&mut bytes);
        assert!(decode(&bytes).is_none());
        let mut bytes = encode_pong(FlipcNodeId(0), 1, 1, 2, 3, 4, 5);
        bytes.push(0);
        seal(&mut bytes);
        assert!(decode(&bytes).is_none());
    }

    /// Packs `frames` into one sealed batch via the builder (panics if
    /// they do not all fit — tests size accordingly).
    fn batch_of(first_seq: u32, epoch: u16, frames: &[Frame]) -> Vec<u8> {
        let mut b = BatchBuilder::new(MAX_DATAGRAM);
        for (i, f) in frames.iter().enumerate() {
            assert!(b.push(first_seq.wrapping_add(i as u32), &f.encode()));
        }
        let out = b.finish(FlipcNodeId(3), epoch, None).unwrap().to_vec();
        b.clear();
        out
    }

    #[test]
    fn batch_roundtrips() {
        let frames = vec![frame(1), frame(2), frame(3)];
        let bytes = batch_of(42, 5, &frames);
        assert_eq!(
            decode(&bytes).unwrap(),
            Packet::Batch {
                src: FlipcNodeId(3),
                first_seq: 42,
                epoch: 5,
                ack: None,
                frames,
            }
        );
    }

    #[test]
    fn batch_builder_is_reusable_after_clear() {
        let mut b = BatchBuilder::new(1_400);
        assert!(b.push(1, &frame(1).encode()));
        assert!(b.finish(FlipcNodeId(0), 1, None).is_some());
        b.clear();
        assert_eq!(b.count(), 0);
        assert!(b.push(7, &frame(9).encode()));
        let bytes = b.finish(FlipcNodeId(0), 2, None).unwrap().to_vec();
        match decode(&bytes).unwrap() {
            Packet::Batch {
                first_seq, frames, ..
            } => {
                assert_eq!(first_seq, 7);
                assert_eq!(frames, vec![frame(9)]);
            }
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn batch_builder_enforces_mtu_and_contiguity() {
        // Each encoded frame is 16 (frame header) + 56 (payload) = 72
        // bytes, 74 with the prefix; an MTU of HEADER_LEN + 2*74 holds
        // exactly two.
        let mtu = HEADER_LEN + 2 * (SUBFRAME_PREFIX + 72);
        let mut b = BatchBuilder::new(mtu);
        assert!(b.push(10, &frame(1).encode()));
        assert!(b.push(11, &frame(2).encode()));
        assert!(!b.push(12, &frame(3).encode()), "third frame crosses MTU");
        assert_eq!(b.count(), 2);
        let sealed = b.finish(FlipcNodeId(0), 1, None).unwrap();
        assert!(sealed.len() <= mtu, "sealed batch respects the MTU bound");
        b.clear();
        // A sequence gap is refused: the staged run must stay contiguous.
        assert!(b.push(20, &frame(4).encode()));
        assert!(!b.push(22, &frame(5).encode()), "gap breaks contiguity");
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn empty_batches_are_rejected() {
        let mut b = BatchBuilder::new(1_400);
        assert!(
            b.finish(FlipcNodeId(0), 1, None).is_none(),
            "nothing staged"
        );
        // A hand-built kind-4 datagram with no sub-frames must not decode.
        let mut bytes = header(4, FlipcNodeId(0), 0, 1, 1).to_vec();
        seal(&mut bytes);
        assert!(decode(&bytes).is_none());
    }

    #[test]
    fn batch_sub_frame_length_corruption_is_rejected_whole() {
        let frames = vec![frame(1), frame(2)];
        let good = batch_of(1, 1, &frames);
        // Any single-byte flip — including the sub-frame length prefixes —
        // fails the whole-datagram checksum: the decoder never walks a
        // corrupted layout.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            assert!(decode(&bad).is_none(), "flip of byte {i} must reject");
        }
        // Even a forged checksum cannot make a straddling sub-frame
        // deliver: inflate the first length prefix past the datagram end
        // and re-seal, and the bounds check rejects it.
        let mut forged = good.clone();
        forged[HEADER_LEN..HEADER_LEN + SUBFRAME_PREFIX].copy_from_slice(&u16::MAX.to_le_bytes());
        seal(&mut forged);
        assert!(decode(&forged).is_none());
    }

    const BLOCK: AckBlock = AckBlock {
        cumulative: 17,
        acked_epoch: 11,
        credit: 32,
        recv_drops: u32::MAX - 1,
    };

    #[test]
    fn batch_with_an_ack_block_roundtrips() {
        // A lone frame and a run of three: the block rides both.
        for frames in [vec![frame(1)], vec![frame(1), frame(2), frame(3)]] {
            let mut b = BatchBuilder::new(BATCH_MTU);
            for (i, f) in frames.iter().enumerate() {
                assert!(b.push(42 + i as u32, &f.encode()));
            }
            let bytes = b.finish(FlipcNodeId(3), 5, Some(BLOCK)).unwrap().to_vec();
            assert_eq!(bytes[3], 6, "kind 6");
            let region: usize = frames.iter().map(|f| SUBFRAME_PREFIX + f.wire_len()).sum();
            assert_eq!(bytes.len(), HEADER_LEN + ACK_BLOCK + region);
            assert_eq!(
                decode(&bytes).unwrap(),
                Packet::Batch {
                    src: FlipcNodeId(3),
                    first_seq: 42,
                    epoch: 5,
                    ack: Some(BLOCK),
                    frames,
                }
            );
        }
    }

    #[test]
    fn the_ack_block_rides_only_when_it_fits_the_mtu() {
        // One 74-byte sub-frame; an MTU with 13 bytes to spare cannot
        // take the 14-byte block, one with 14 can.
        let sub = SUBFRAME_PREFIX + frame(1).wire_len();
        let mut tight = BatchBuilder::new(HEADER_LEN + sub + ACK_BLOCK - 1);
        assert!(tight.push(1, &frame(1).encode()));
        assert!(!tight.fits_ack());
        assert!(tight.finish(FlipcNodeId(3), 1, Some(BLOCK)).is_none());
        // Refused whole: the staged frame still seals as a kind-4 batch.
        let plain = tight.finish(FlipcNodeId(3), 1, None).unwrap().to_vec();
        assert_eq!(plain, batch_of(1, 1, &[frame(1)]));
        let mut exact = BatchBuilder::new(HEADER_LEN + sub + ACK_BLOCK);
        assert!(exact.push(1, &frame(1).encode()));
        assert!(exact.fits_ack());
        let sealed = exact.finish(FlipcNodeId(3), 1, Some(BLOCK)).unwrap();
        assert_eq!(sealed.len(), HEADER_LEN + sub + ACK_BLOCK);
        // `clear` drops the block with the frames.
        exact.clear();
        assert!(exact.push(2, &frame(2).encode()));
        let bytes = exact.finish(FlipcNodeId(3), 1, None).unwrap().to_vec();
        assert_eq!(bytes, batch_of(2, 1, &[frame(2)]));
    }

    #[test]
    fn a_sealed_version_5_datagram_is_rejected() {
        // Re-sealed, so only the version check can reject it.
        for mut bytes in [
            encode_data(FlipcNodeId(1), 1, 1, &frame(1)).unwrap(),
            encode_ack(FlipcNodeId(1), 1, 1, 1, 8, 0),
            batch_of(1, 1, &[frame(1), frame(2)]),
        ] {
            bytes[2] = 5;
            seal(&mut bytes);
            assert!(decode(&bytes).is_none());
        }
    }

    #[test]
    fn a_kind_6_batch_shorter_than_its_block_is_rejected() {
        // `len` agrees with the datagram but leaves no room for the block.
        for short in [0, 1, ACK_BLOCK - 1] {
            let mut bytes = header(6, FlipcNodeId(0), short as u16, 1, 1).to_vec();
            bytes.resize(HEADER_LEN + short, 0);
            seal(&mut bytes);
            assert!(decode(&bytes).is_none(), "len {short}");
        }
        // A block with no sub-frame behind it is malformed too.
        let mut bytes = header(6, FlipcNodeId(0), ACK_BLOCK as u16, 1, 1).to_vec();
        bytes.extend_from_slice(&BLOCK.encode());
        seal(&mut bytes);
        assert!(decode(&bytes).is_none());
    }

    #[test]
    fn any_single_byte_flip_of_a_kind_6_batch_is_rejected() {
        let mut b = BatchBuilder::new(BATCH_MTU);
        assert!(b.push(9, &frame(4).encode()));
        let good = b.finish(FlipcNodeId(1), 2, Some(BLOCK)).unwrap().to_vec();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            assert!(decode(&bad).is_none(), "flip of byte {i} must reject");
        }
    }

    #[test]
    fn oversized_frames_are_unencodable() {
        let f = Frame {
            payload: vec![0u8; MAX_DATAGRAM].into(),
            stamp_ns: 0,
            ..frame(0)
        };
        assert!(encode_data(FlipcNodeId(0), 1, 1, &f).is_none());
    }
}
