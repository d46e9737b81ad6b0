//! Length-prefixed framing for the daemon's TCP streams.
//!
//! Every frame is `magic (4) | kind (1) | req_id (4) | from (4) |
//! len (4) | payload (len)`, all integers big-endian. Gossip frames —
//! §V-A join pings and grants among them — carry a
//! [`sc_core::wire::encode_message`] payload; control frames carry the
//! payloads defined in [`crate::control`].
//!
//! Decoding is incremental and hostile-input safe: the payload length is
//! validated against the configured cap **before** any buffer is grown,
//! so a 4-byte length prefix can never force a large allocation — the
//! same discipline [`sc_core::wire::WireLimits`] applies one layer down.

use sc_core::wire::{Reader, Writer};
use sc_core::Addr;

/// Frame magic: `"SCn1"`.
pub const FRAME_MAGIC: u32 = 0x5343_6e31;

/// Fixed header size in bytes.
pub const FRAME_HEADER_BYTES: usize = 17;

/// Cap on one frame's payload.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// The role of a frame on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A gossip RPC request (`SecureMsg`); expects a [`FrameKind::Reply`]
    /// with the same `req_id` on the same connection.
    Request,
    /// The response to a [`FrameKind::Request`].
    Reply,
    /// A fire-and-forget gossip message (proof floods, §V-A join pings
    /// and grants).
    Oneway,
    /// Control channel: status scrape request (empty payload).
    CtrlStatus,
    /// Control channel: encoded [`crate::StatusReport`].
    CtrlStatusReply,
    /// Control channel: ask the daemon to exit its run loop.
    CtrlShutdown,
    /// Control channel: install an encoded [`sc_core::FaultSpec`] at the
    /// next cycle boundary.
    CtrlFault,
    /// Control channel: acknowledges a [`FrameKind::CtrlFault`].
    CtrlFaultReply,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Reply => 2,
            FrameKind::Oneway => 3,
            FrameKind::CtrlStatus => 6,
            FrameKind::CtrlStatusReply => 7,
            FrameKind::CtrlShutdown => 8,
            FrameKind::CtrlFault => 9,
            FrameKind::CtrlFaultReply => 10,
        }
    }

    fn from_tag(tag: u8) -> Option<FrameKind> {
        match tag {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Reply),
            3 => Some(FrameKind::Oneway),
            6 => Some(FrameKind::CtrlStatus),
            7 => Some(FrameKind::CtrlStatusReply),
            8 => Some(FrameKind::CtrlShutdown),
            9 => Some(FrameKind::CtrlFault),
            10 => Some(FrameKind::CtrlFaultReply),
            _ => None,
        }
    }
}

/// One framed unit on a daemon connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// What the payload is.
    pub kind: FrameKind,
    /// RPC correlation id (0 for non-RPC frames).
    pub req_id: u32,
    /// The sender's protocol address (0 for control clients).
    pub from: Addr,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame with no correlation id.
    pub fn new(kind: FrameKind, from: Addr, payload: Vec<u8>) -> Frame {
        Frame {
            kind,
            req_id: 0,
            from,
            payload,
        }
    }

    /// Serializes the frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the serialized frame to `out`, so a caller that keeps one
    /// buffer allocates only when a frame outgrows it.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(FRAME_HEADER_BYTES + self.payload.len());
        let mut w = Writer::new(out);
        w.u32(FRAME_MAGIC);
        w.u8(self.kind.tag());
        w.u32(self.req_id);
        w.u32(self.from);
        w.u32(self.payload.len() as u32);
        w.bytes(&self.payload);
    }
}

/// Errors that poison a connection's frame stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream did not start with [`FRAME_MAGIC`].
    BadMagic(u32),
    /// Unknown [`FrameKind`] tag.
    BadKind(u8),
    /// The declared payload length exceeds the configured cap.
    TooLarge {
        /// Declared payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadKind(t) => write!(f, "unknown frame kind tag {t}"),
            FrameError::TooLarge { len, max } => {
                write!(
                    f,
                    "declared payload of {len} bytes exceeds the {max}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder: feed raw stream bytes in, pop whole frames
/// out. One decoder per connection.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame_bytes: usize,
    poisoned: bool,
}

impl FrameReader {
    /// Creates a decoder enforcing the given payload cap.
    pub fn new(max_frame_bytes: usize) -> FrameReader {
        FrameReader {
            buf: Vec::new(),
            max_frame_bytes,
            poisoned: false,
        }
    }

    /// Appends raw bytes read from the stream.
    ///
    /// The internal buffer stays bounded: callers feed at most their read
    /// budget per poll, and [`FrameReader::next_frame`] drains completed
    /// frames (or poisons the stream) before more input arrives.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes currently buffered and not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are needed.
    ///
    /// # Errors
    ///
    /// A [`FrameError`] permanently poisons the stream (framing offers no
    /// way to resynchronize with a peer that sends garbage); callers must
    /// drop the connection.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.poisoned {
            return Ok(None);
        }
        // Nothing is judged until the whole header is buffered.
        let mut r = Reader::new(&self.buf);
        let (Ok(magic), Ok(tag), Ok(req_id), Ok(from), Ok(len)) =
            (r.u32(), r.u8(), r.u32(), r.u32(), r.u32())
        else {
            return Ok(None);
        };
        if magic != FRAME_MAGIC {
            self.poisoned = true;
            return Err(FrameError::BadMagic(magic));
        }
        let Some(kind) = FrameKind::from_tag(tag) else {
            self.poisoned = true;
            return Err(FrameError::BadKind(tag));
        };
        let len = len as usize;
        if len > self.max_frame_bytes {
            self.poisoned = true;
            return Err(FrameError::TooLarge {
                len,
                max: self.max_frame_bytes,
            });
        }
        if self.buf.len() < FRAME_HEADER_BYTES + len {
            return Ok(None);
        }
        let payload = self.buf[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len].to_vec();
        self.buf.drain(..FRAME_HEADER_BYTES + len);
        Ok(Some(Frame {
            kind,
            req_id,
            from,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(kind: FrameKind, req_id: u32, payload: &[u8]) -> Frame {
        Frame {
            kind,
            req_id,
            from: 9001,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn roundtrip_through_incremental_reader() {
        let frames = [
            frame(FrameKind::Request, 7, b"hello"),
            frame(FrameKind::Reply, 7, &[0u8; 300]),
            frame(FrameKind::CtrlStatus, 0, b""),
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        // Feed byte-by-byte: every frame must pop exactly once.
        let mut r = FrameReader::new(1 << 16);
        let mut got = Vec::new();
        for &b in &stream {
            r.feed(&[b]);
            while let Some(f) = r.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn oversized_declaration_poisons_without_buffering() {
        let mut f = frame(FrameKind::Request, 1, b"x");
        f.payload = vec![0; 64];
        let mut bytes = f.encode();
        // Forge the length field to 256 MiB.
        bytes[13..17].copy_from_slice(&(256u32 << 20).to_be_bytes());
        let mut r = FrameReader::new(1 << 20);
        r.feed(&bytes);
        assert_eq!(
            r.next_frame().unwrap_err(),
            FrameError::TooLarge {
                len: 256 << 20,
                max: 1 << 20
            }
        );
        // Poisoned: further input is discarded, no frames ever pop.
        r.feed(&[0; 128]);
        assert!(r.next_frame().unwrap().is_none());
        assert_eq!(r.buffered(), bytes.len());
    }

    #[test]
    fn garbage_magic_and_kind_rejected() {
        let mut r = FrameReader::new(1 << 20);
        r.feed(&[0xde; FRAME_HEADER_BYTES]);
        assert!(matches!(r.next_frame(), Err(FrameError::BadMagic(_))));

        let mut bytes = frame(FrameKind::Oneway, 0, b"ok").encode();
        bytes[4] = 99;
        let mut r = FrameReader::new(1 << 20);
        r.feed(&bytes);
        assert_eq!(r.next_frame().unwrap_err(), FrameError::BadKind(99));
    }
}
