//! The on-the-wire frame format.
//!
//! A frame is exactly one fixed-size FLIPC message in flight: source and
//! destination endpoint addresses (the 8 "internal" bytes of the paper's
//! message format, plus the reverse address the delivery path stamps into
//! the receive buffer's header) and the opaque payload. Frames between a
//! given (source endpoint, destination endpoint) pair are delivered
//! reliably and in order by every [`crate::transport::Transport`]
//! implementation; that is the engine's transport contract.

use flipc_core::endpoint::EndpointAddress;

/// One message in flight between two nodes.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Sending endpoint (stamped into the delivered buffer's header as the
    /// reply address).
    pub src: EndpointAddress,
    /// Destination endpoint.
    pub dst: EndpointAddress,
    /// Fixed-size application payload.
    pub payload: Box<[u8]>,
    /// Telemetry stamp: the sending engine's `flipc_obs::now_ns()` at
    /// transmit time, or 0 for "unstamped". Diagnostic metadata only — it
    /// is NOT serialized (clocks of different processes are not
    /// comparable), so it survives in-process transports (which move
    /// `Frame` values) and decodes to 0 off the wire. The delivery path
    /// turns a non-zero stamp into a send→deliver latency sample.
    pub stamp_ns: u64,
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        // `stamp_ns` is diagnostic metadata, not message identity: two
        // frames carrying the same addresses and payload are the same
        // message whether or not telemetry stamped them.
        self.src == other.src && self.dst == other.dst && self.payload == other.payload
    }
}

impl Eq for Frame {}

/// Byte length of the encoded frame header (packed src + packed dst).
pub const FRAME_HEADER_LEN: usize = 16;

impl Frame {
    /// Serializes the frame for byte-oriented transports (KKT, and any
    /// future network transport). Layout: `src:u64le | dst:u64le | payload`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the [`Frame::encode`] bytes to `out`, so a caller building
    /// a larger message (a datagram behind its header) makes no
    /// intermediate copy.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.src.pack().to_le_bytes());
        out.extend_from_slice(&self.dst.pack().to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Deserializes a frame previously produced by [`Frame::encode`].
    ///
    /// Returns `None` if the bytes are too short to hold the header.
    pub fn decode(bytes: &[u8]) -> Option<Frame> {
        if bytes.len() < FRAME_HEADER_LEN {
            return None;
        }
        let src = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let dst = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        Some(Frame {
            src: EndpointAddress::unpack(src),
            dst: EndpointAddress::unpack(dst),
            payload: bytes[FRAME_HEADER_LEN..].into(),
            stamp_ns: 0,
        })
    }

    /// Total bytes this frame occupies on a link, including the 16-byte
    /// header (used by byte-accounting transports).
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flipc_core::endpoint::{EndpointIndex, FlipcNodeId};

    fn addr(n: u16, e: u16, g: u16) -> EndpointAddress {
        EndpointAddress::new(FlipcNodeId(n), EndpointIndex(e), g)
    }

    #[test]
    fn encode_decode_roundtrips() {
        let f = Frame {
            src: addr(1, 2, 3),
            dst: addr(4, 5, 6),
            payload: vec![9u8; 56].into(),
            stamp_ns: 0,
        };
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.wire_len());
        let g = Frame::decode(&bytes).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn decode_rejects_truncated_header() {
        assert!(Frame::decode(&[0u8; 15]).is_none());
        // Exactly a header with empty payload decodes.
        let f = Frame {
            src: addr(0, 0, 0),
            dst: addr(0, 0, 0),
            payload: Box::new([]),
            stamp_ns: 0,
        };
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }
}
