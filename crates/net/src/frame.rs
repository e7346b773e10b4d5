//! The wire protocol: length-prefixed, versioned binary frames.
//!
//! Every message on a seal-net connection is one frame:
//!
//! ```text
//! offset  size  field
//!      0     2  magic        0x5EA1, big-endian — rejects non-protocol bytes
//!      2     1  version      protocol revision (currently 1)
//!      3     1  kind         Request / Response / Reject
//!      4     4  tenant       tenant id, big-endian
//!      8     8  seq          caller-chosen correlation id, big-endian
//!     16     4  payload_len  bytes that follow, big-endian
//!     20     …  payload      opaque to seal-net (serve defines the body)
//! ```
//!
//! Decoding is incremental ([`FrameDecoder`]): bytes arrive in arbitrary
//! TCP segment boundaries, frames are yielded once complete, and every
//! malformed input maps to a typed [`FrameError`] — never a panic, never
//! an unbounded buffer (payloads are capped at [`MAX_PAYLOAD`]).

use std::error::Error;
use std::fmt;

/// Frame magic: rejects peers that are not speaking the protocol.
pub const MAGIC: u16 = 0x5EA1;
/// Current protocol version.
pub const VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Upper bound on a frame payload; larger advertised lengths are a typed
/// decode error, so a hostile length prefix cannot balloon the buffer.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// What a frame is, on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: an inference request.
    Request,
    /// Server → client: a completed inference response.
    Response,
    /// Server → client: a typed rejection (admission, protocol, fault).
    Reject,
    /// Server → client: a GOAWAY control frame — the server is draining
    /// (or retiring this connection's keepalive budget); in-flight
    /// requests still complete, new ones will be rejected or closed.
    Goaway,
}

impl FrameKind {
    fn to_wire(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Reject => 3,
            FrameKind::Goaway => 4,
        }
    }

    fn from_wire(byte: u8) -> Option<FrameKind> {
        match byte {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            3 => Some(FrameKind::Reject),
            4 => Some(FrameKind::Goaway),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind.
    pub kind: FrameKind,
    /// Tenant the request/response belongs to.
    pub tenant: u32,
    /// Correlation id chosen by the requester and echoed in the response.
    pub seq: u64,
    /// Opaque body (seal-serve defines the encoding).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a request frame.
    pub fn request(tenant: u32, seq: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Request,
            tenant,
            seq,
            payload,
        }
    }

    /// Builds a response frame.
    pub fn response(tenant: u32, seq: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Response,
            tenant,
            seq,
            payload,
        }
    }

    /// Builds a typed-rejection frame.
    pub fn reject(tenant: u32, seq: u64, payload: Vec<u8>) -> Frame {
        Frame {
            kind: FrameKind::Reject,
            tenant,
            seq,
            payload,
        }
    }

    /// Builds a GOAWAY control frame. `tenant`/`seq` are zero — the frame
    /// addresses the connection, not any one request — and the payload
    /// carries a short human-readable reason.
    pub fn goaway(reason: &str) -> Frame {
        Frame {
            kind: FrameKind::Goaway,
            tenant: 0,
            seq: 0,
            payload: reason.as_bytes().to_vec(),
        }
    }

    /// Serialises the frame (header + payload) for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the serialised frame to `out` — the allocation-free form
    /// of [`encode`](Self::encode) for callers that batch frames into one
    /// reused buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_with(out, self.kind, self.tenant, self.seq, self.payload.len(), |out| {
            out.extend_from_slice(&self.payload);
        });
    }
}

/// Appends to `out` one frame with a `len`-byte payload that `body`
/// writes in place, so a reply needs no payload buffer of its own. The
/// payload is what `body` appends, zero-filled (or cut) to exactly `len`
/// bytes — a frame's length field and its bytes cannot disagree. `len`
/// must not exceed [`MAX_PAYLOAD`] (a longer frame would not decode).
pub fn encode_with(
    out: &mut Vec<u8>,
    kind: FrameKind,
    tenant: u32,
    seq: u64,
    len: usize,
    body: impl FnOnce(&mut Vec<u8>),
) {
    debug_assert!(len <= MAX_PAYLOAD, "payload of {len} bytes cannot be decoded");
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(VERSION);
    out.push(kind.to_wire());
    out.extend_from_slice(&tenant.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&(len as u32).to_be_bytes());
    let end = out.len() + len;
    body(out);
    out.resize(end, 0);
}

/// Typed decode failures. Any of these kills the connection: after a
/// framing error the byte stream has no trustworthy resynchronisation
/// point.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The first two bytes were not [`MAGIC`].
    BadMagic {
        /// What arrived instead.
        got: u16,
    },
    /// Unsupported protocol version.
    BadVersion {
        /// What arrived.
        got: u8,
    },
    /// Unknown frame kind byte.
    BadKind {
        /// What arrived.
        got: u8,
    },
    /// Advertised payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The advertised length.
        len: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic 0x{got:04X} (expected 0x{MAGIC:04X})")
            }
            FrameError::BadVersion { got } => {
                write!(f, "unsupported frame version {got} (expected {VERSION})")
            }
            FrameError::BadKind { got } => write!(f, "unknown frame kind byte {got}"),
            FrameError::Oversized { len } => write!(
                f,
                "advertised payload length {len} exceeds the {MAX_PAYLOAD}-byte cap"
            ),
        }
    }
}

impl Error for FrameError {}

/// Incremental frame decoder: feed it raw TCP bytes, pull complete frames.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends freshly-read bytes to the decode buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so a long-lived
        // connection's buffer stays bounded by one frame, not its history.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// `true` while a started-but-incomplete frame sits in the buffer —
    /// the signal the reactor's slow-loris sweep and truncation detection
    /// key on.
    pub fn mid_frame(&self) -> bool {
        self.buf.len() > self.pos
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on malformed input; the caller must drop
    /// the connection (the stream cannot be resynchronised).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u16::from_be_bytes([avail[0], avail[1]]);
        if magic != MAGIC {
            return Err(FrameError::BadMagic { got: magic });
        }
        let version = avail[2];
        if version != VERSION {
            return Err(FrameError::BadVersion { got: version });
        }
        let Some(kind) = FrameKind::from_wire(avail[3]) else {
            return Err(FrameError::BadKind { got: avail[3] });
        };
        let tenant = u32::from_be_bytes([avail[4], avail[5], avail[6], avail[7]]);
        let seq = u64::from_be_bytes([
            avail[8], avail[9], avail[10], avail[11], avail[12], avail[13], avail[14], avail[15],
        ]);
        let len = u32::from_be_bytes([avail[16], avail[17], avail[18], avail[19]]);
        if len as usize > MAX_PAYLOAD {
            return Err(FrameError::Oversized { len });
        }
        let total = HEADER_LEN + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[HEADER_LEN..total].to_vec();
        self.pos += total;
        Ok(Some(Frame {
            kind,
            tenant,
            seq,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let wire = frame.encode();
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let out = dec.next_frame().unwrap().unwrap();
        assert!(dec.next_frame().unwrap().is_none());
        assert!(!dec.mid_frame());
        out
    }

    #[test]
    fn encode_decode_roundtrip() {
        for frame in [
            Frame::request(0, 0, vec![]),
            Frame::request(7, 42, vec![1, 2, 3]),
            Frame::response(u32::MAX, u64::MAX, vec![0xFF; 1000]),
            Frame::reject(3, 9, b"deadline".to_vec()),
            Frame::goaway("draining"),
        ] {
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn encode_into_appends_the_same_bytes_as_encode() {
        let frames = [
            Frame::response(7, 42, vec![1, 2, 3]),
            Frame::reject(3, 9, vec![]),
            Frame::request(u32::MAX, u64::MAX, vec![0xAB; 300]),
        ];
        let mut out = vec![0xEE]; // what is already there stays
        for frame in &frames {
            frame.encode_into(&mut out);
        }
        let want: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        assert_eq!(out[0], 0xEE);
        assert_eq!(out[1..], want[..]);
    }

    #[test]
    fn encode_with_zero_fills_a_short_body_to_the_declared_length() {
        let mut out = Vec::new();
        encode_with(&mut out, FrameKind::Response, 3, 9, 6, |out| out.extend_from_slice(&[7, 8]));
        assert_eq!(out, Frame::response(3, 9, vec![7, 8, 0, 0, 0, 0]).encode());
    }

    #[test]
    fn goaway_wire_byte_is_stable() {
        let wire = Frame::goaway("drain").encode();
        assert_eq!(wire[3], 4, "GOAWAY must stay kind byte 4 on the wire");
        assert_eq!(roundtrip(&Frame::goaway("drain")).kind, FrameKind::Goaway);
    }

    #[test]
    fn split_delivery_reassembles() {
        let frame = Frame::request(5, 99, (0..=255).collect());
        let wire = frame.encode();
        // Deliver one byte at a time: worst-case TCP fragmentation.
        let mut dec = FrameDecoder::new();
        let mut got = None;
        for (i, b) in wire.iter().enumerate() {
            dec.push(std::slice::from_ref(b));
            if i + 1 < wire.len() {
                assert!(dec.next_frame().unwrap().is_none());
                assert!(dec.mid_frame());
            } else {
                got = dec.next_frame().unwrap();
            }
        }
        assert_eq!(got, Some(frame));
    }

    #[test]
    fn back_to_back_frames_both_decode() {
        let a = Frame::request(1, 1, vec![9]);
        let b = Frame::response(2, 2, vec![8, 7]);
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_frame().unwrap(), Some(a));
        assert_eq!(dec.next_frame().unwrap(), Some(b));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0u8; HEADER_LEN]);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadMagic { got: 0 })
        ));

        let mut wire = Frame::request(0, 0, vec![]).encode();
        wire[2] = 9; // future version
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadVersion { got: 9 })
        ));

        let mut wire = Frame::request(0, 0, vec![]).encode();
        wire[3] = 200; // unknown kind
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::BadKind { got: 200 })
        ));

        let mut wire = Frame::request(0, 0, vec![]).encode();
        wire[16..20].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_be_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn property_random_bytes_never_panic() {
        // Seeded pseudo-random garbage: the decoder must return
        // Ok(None)/Ok(frame)/typed error, never panic, for any input.
        let mut state = 0x9E37_79B9_u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for round in 0..200 {
            let mut dec = FrameDecoder::new();
            let len = (round * 7) % 97;
            let chunk: Vec<u8> = (0..len).map(|_| step()).collect();
            dec.push(&chunk);
            // Drain until it stops yielding; bounded by input length.
            for _ in 0..len + 1 {
                match dec.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn property_roundtrip_survives_any_payload_seed() {
        let mut state = 1u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..100 {
            let n = (step() % 512) as usize;
            let payload: Vec<u8> = (0..n).map(|_| (step() >> 24) as u8).collect();
            let frame = Frame::request((step() % 64) as u32, step(), payload);
            assert_eq!(roundtrip(&frame), frame);
        }
    }

    #[test]
    fn long_lived_decoder_buffer_stays_bounded() {
        let frame = Frame::request(0, 0, vec![7; 256]);
        let wire = frame.encode();
        let mut dec = FrameDecoder::new();
        for _ in 0..100 {
            dec.push(&wire);
            assert!(dec.next_frame().unwrap().is_some());
        }
        // The consumed prefix must have been reclaimed along the way.
        assert!(dec.buf.len() < 3 * wire.len(), "buf grew: {}", dec.buf.len());
    }
}
