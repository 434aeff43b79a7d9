//! Durable journal framing: length-prefixed, CRC-checksummed frames
//! for fault-event streams.
//!
//! The in-memory journal of a churn pipeline is a `Vec<FaultEvent>`;
//! this module is its *durable* form — the byte stream a control plane
//! writes to disk (or ships to a standby) and recovers from after a
//! crash. Two properties drive the format:
//!
//! * **Every frame is independently verifiable.** A frame is
//!   `[len: u32 LE][payload][crc32: u32 LE]`, where the CRC covers the
//!   length prefix *and* the payload. A flipped bit anywhere in a frame
//!   is detected by the checksum, never folded into the fault state.
//! * **A torn tail is a clean recovery point.** Journals die mid-write:
//!   a final frame cut short by a crash is *expected*, not an error.
//!   [`decode_journal`] distinguishes a **torn tail** (the bytes simply
//!   run out mid-frame — recover everything before it) from **interior
//!   corruption** (a frame that is fully present but fails its
//!   checksum, carries an unknown kind, or declares an absurd length —
//!   a typed [`JournalDecodeError`], never a panic).
//!
//! Two frame kinds exist: an **event** frame wrapping one 9-byte
//! [`FaultEvent`] wire frame, and a **checkpoint** frame serializing a
//! folded [`FaultState`] plus the journal sequence and oracle epoch it
//! summarizes — the compaction point that lets recovery skip replaying
//! history event by event.
//!
//! One documented ambiguity: corruption *inside the final frame's
//! length prefix* can make the frame claim more bytes than remain, which
//! is indistinguishable from a torn write and recovers as one. That
//! trade is deliberate — treating it as fatal would turn every real
//! torn write into an unrecoverable journal.
//!
//! # Examples
//!
//! ```
//! use rsp_graph::journal::{decode_journal, JournalFrame, JournalTail};
//! use rsp_graph::FaultEvent;
//!
//! let mut bytes = Vec::new();
//! JournalFrame::Event(FaultEvent::Arrive(3)).encode_into(&mut bytes);
//! JournalFrame::Event(FaultEvent::Repair(3)).encode_into(&mut bytes);
//!
//! // A crash tears the last frame mid-write:
//! bytes.truncate(bytes.len() - 5);
//! let decoded = decode_journal(&bytes).unwrap();
//! assert_eq!(decoded.frames, vec![JournalFrame::Event(FaultEvent::Arrive(3))]);
//! assert!(matches!(decoded.tail, JournalTail::Torn { .. }));
//! ```

use crate::event::{FaultEvent, FaultState, WireEventError};
use crate::fault::FaultSet;
use crate::graph::EdgeId;

/// The IEEE 802.3 CRC-32 lookup table (reflected polynomial
/// `0xEDB88320`), generated at compile time — the image is offline, so
/// the checksum is hand-rolled rather than pulled from a crate.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The CRC-32 (IEEE 802.3) checksum of `bytes`.
///
/// # Examples
///
/// ```
/// use rsp_graph::journal::crc32;
/// // The classic check value for the ASCII string "123456789".
/// assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
/// assert_eq!(crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Frame kind tag: one journaled [`FaultEvent`].
const KIND_EVENT: u8 = 0x01;
/// Frame kind tag: a [`JournalCheckpoint`].
const KIND_CHECKPOINT: u8 = 0x02;

/// Upper bound on a single frame's declared payload length. A frame
/// whose length prefix exceeds this is interior corruption
/// ([`JournalDecodeError::FrameTooLong`]), not a request for 4 GiB of
/// buffer: real frames are 10 bytes (events) or `32 + 8·|F|` bytes
/// (checkpoints), both nowhere near the cap.
pub const MAX_JOURNAL_FRAME_LEN: usize = 1 << 26;

/// A compaction point: the fold of every accepted event up to and
/// including sequence [`JournalCheckpoint::seq`], plus the oracle epoch
/// that was serving when the checkpoint was taken.
///
/// Recovery from `(checkpoint, tail)` is state-identical to replaying
/// the whole journal from genesis — the recovery-equivalence proptests
/// in `rsp_oracle` pin this at every compaction point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalCheckpoint {
    /// Journal sequence of the last event folded into `state`.
    pub seq: u64,
    /// The oracle epoch serving when the checkpoint was taken
    /// (informational: recovery republishes under a fresh epoch).
    pub epoch: u64,
    /// The folded fault state at `seq`.
    pub state: FaultState,
}

/// One decoded journal frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalFrame {
    /// One accepted fault event.
    Event(FaultEvent),
    /// A compaction checkpoint.
    Checkpoint(JournalCheckpoint),
}

impl JournalFrame {
    /// Appends this frame's encoding (`len ++ payload ++ crc`) to `out`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_graph::journal::{decode_journal, JournalFrame, JournalTail};
    /// use rsp_graph::FaultEvent;
    ///
    /// let mut bytes = Vec::new();
    /// JournalFrame::Event(FaultEvent::Arrive(7)).encode_into(&mut bytes);
    /// let decoded = decode_journal(&bytes).unwrap();
    /// assert_eq!(decoded.frames.len(), 1);
    /// assert_eq!(decoded.tail, JournalTail::Clean);
    /// ```
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::new();
        match self {
            JournalFrame::Event(ev) => {
                payload.push(KIND_EVENT);
                payload.extend_from_slice(&ev.encode());
            }
            JournalFrame::Checkpoint(c) => {
                payload.push(KIND_CHECKPOINT);
                payload.extend_from_slice(&c.seq.to_le_bytes());
                payload.extend_from_slice(&c.epoch.to_le_bytes());
                payload.extend_from_slice(&(c.state.edge_count() as u64).to_le_bytes());
                payload.extend_from_slice(&(c.state.faults().len() as u64).to_le_bytes());
                for e in c.state.faults().iter() {
                    payload.extend_from_slice(&(e as u64).to_le_bytes());
                }
            }
        }
        let start = out.len();
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }
}

/// Why a checkpoint frame's body failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointDecodeError {
    /// The body is shorter than its fixed header or its declared edge
    /// list.
    Truncated {
        /// Bytes actually present in the body.
        got: usize,
        /// Bytes the body needed.
        need: usize,
    },
    /// The graph edge count does not fit this platform's `usize`.
    EdgeCountOverflow {
        /// The 64-bit edge count received.
        m: u64,
    },
    /// The fault list claims more edges than the graph has.
    TooManyFaults {
        /// The declared fault count.
        k: u64,
        /// The declared graph edge count.
        m: u64,
    },
    /// A fault edge id is not an edge of the declared graph.
    EdgeOutOfRange {
        /// The offending edge id.
        edge: u64,
        /// The declared graph edge count.
        m: u64,
    },
    /// The fault edge list is not strictly increasing — the canonical
    /// [`FaultSet`] order every encoder produces.
    NotStrictlyIncreasing {
        /// 0-based index of the offending edge in the list.
        index: usize,
    },
}

impl std::fmt::Display for CheckpointDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointDecodeError::Truncated { got, need } => {
                write!(f, "checkpoint body has {got} bytes, needs {need}")
            }
            CheckpointDecodeError::EdgeCountOverflow { m } => {
                write!(f, "checkpoint edge count {m} overflows usize")
            }
            CheckpointDecodeError::TooManyFaults { k, m } => {
                write!(f, "checkpoint claims {k} faults on a graph with {m} edges")
            }
            CheckpointDecodeError::EdgeOutOfRange { edge, m } => {
                write!(f, "checkpoint fault edge {edge} out of range (graph has {m} edges)")
            }
            CheckpointDecodeError::NotStrictlyIncreasing { index } => {
                write!(f, "checkpoint fault list not strictly increasing at index {index}")
            }
        }
    }
}

impl std::error::Error for CheckpointDecodeError {}

/// Interior corruption found while decoding a journal stream: a frame
/// that is fully present but invalid. (Bytes that simply run out are a
/// torn tail — see [`JournalTail::Torn`] — not an error.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalDecodeError {
    /// A length prefix exceeds [`MAX_JOURNAL_FRAME_LEN`].
    FrameTooLong {
        /// Byte offset of the frame's length prefix.
        offset: usize,
        /// The declared payload length.
        len: usize,
    },
    /// A frame's checksum does not match its contents.
    BadCrc {
        /// Byte offset of the frame's length prefix.
        offset: usize,
    },
    /// A frame declares an empty payload (no kind byte).
    EmptyFrame {
        /// Byte offset of the frame's length prefix.
        offset: usize,
    },
    /// A frame's kind byte is unknown.
    BadKind {
        /// Byte offset of the frame's length prefix.
        offset: usize,
        /// The kind byte received.
        kind: u8,
    },
    /// An event frame's body failed the wire-event codec.
    BadEvent {
        /// Byte offset of the frame's length prefix.
        offset: usize,
        /// The codec's reason.
        source: WireEventError,
    },
    /// A checkpoint frame's body failed validation.
    BadCheckpoint {
        /// Byte offset of the frame's length prefix.
        offset: usize,
        /// The validation failure.
        source: CheckpointDecodeError,
    },
}

impl std::fmt::Display for JournalDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalDecodeError::FrameTooLong { offset, len } => {
                write!(f, "frame at byte {offset} declares absurd payload length {len}")
            }
            JournalDecodeError::BadCrc { offset } => {
                write!(f, "frame at byte {offset} failed its CRC-32 check")
            }
            JournalDecodeError::EmptyFrame { offset } => {
                write!(f, "frame at byte {offset} has an empty payload")
            }
            JournalDecodeError::BadKind { offset, kind } => {
                write!(f, "frame at byte {offset} has unknown kind {kind:#04x}")
            }
            JournalDecodeError::BadEvent { offset, source } => {
                write!(f, "event frame at byte {offset} invalid: {source}")
            }
            JournalDecodeError::BadCheckpoint { offset, source } => {
                write!(f, "checkpoint frame at byte {offset} invalid: {source}")
            }
        }
    }
}

impl std::error::Error for JournalDecodeError {}

/// How a decoded journal stream ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalTail {
    /// The final frame ended exactly at the end of the bytes.
    Clean,
    /// The bytes ran out mid-frame — a torn write. Everything before
    /// `offset` decoded cleanly and is safe to recover.
    Torn {
        /// Byte offset where the incomplete frame starts.
        offset: usize,
    },
}

/// The result of [`decode_journal`]: every cleanly decoded frame, plus
/// how the stream ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedJournal {
    /// The decoded frames, in stream order.
    pub frames: Vec<JournalFrame>,
    /// Whether the stream ended cleanly or mid-frame.
    pub tail: JournalTail,
}

/// Decodes a journal byte stream frame by frame. **Never panics,
/// whatever the bytes** — the garbage-injection proptests in
/// `rsp_oracle` feed this arbitrary mutations.
///
/// Bytes running out mid-frame is a *torn tail* (`Ok` with
/// [`JournalTail::Torn`]): a crash mid-write is the expected failure
/// mode and everything before the tear recovers. A frame that is fully
/// present but invalid — bad checksum, unknown kind, undecodable body,
/// absurd length — is *interior corruption* and returns a typed
/// [`JournalDecodeError`].
///
/// # Examples
///
/// ```
/// use rsp_graph::journal::{decode_journal, JournalDecodeError, JournalFrame};
/// use rsp_graph::FaultEvent;
///
/// let mut bytes = Vec::new();
/// JournalFrame::Event(FaultEvent::Arrive(1)).encode_into(&mut bytes);
/// JournalFrame::Event(FaultEvent::Repair(1)).encode_into(&mut bytes);
///
/// // A flipped bit inside the first frame is interior corruption:
/// bytes[6] ^= 0x40;
/// assert_eq!(decode_journal(&bytes), Err(JournalDecodeError::BadCrc { offset: 0 }));
/// ```
pub fn decode_journal(bytes: &[u8]) -> Result<DecodedJournal, JournalDecodeError> {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let offset = pos;
        let Some(len_bytes) = bytes.get(pos..pos + 4) else {
            return Ok(DecodedJournal { frames, tail: JournalTail::Torn { offset } });
        };
        let len = u32::from_le_bytes(len_bytes.try_into().expect("slice is 4 bytes")) as usize;
        if len > MAX_JOURNAL_FRAME_LEN {
            return Err(JournalDecodeError::FrameTooLong { offset, len });
        }
        let Some(payload) = bytes.get(pos + 4..pos + 4 + len) else {
            return Ok(DecodedJournal { frames, tail: JournalTail::Torn { offset } });
        };
        let Some(crc_bytes) = bytes.get(pos + 4 + len..pos + 8 + len) else {
            return Ok(DecodedJournal { frames, tail: JournalTail::Torn { offset } });
        };
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("slice is 4 bytes"));
        if crc32(&bytes[pos..pos + 4 + len]) != stored {
            return Err(JournalDecodeError::BadCrc { offset });
        }
        let Some((&kind, body)) = payload.split_first() else {
            return Err(JournalDecodeError::EmptyFrame { offset });
        };
        match kind {
            KIND_EVENT => {
                let ev = FaultEvent::decode(body)
                    .map_err(|source| JournalDecodeError::BadEvent { offset, source })?;
                frames.push(JournalFrame::Event(ev));
            }
            KIND_CHECKPOINT => {
                let c = decode_checkpoint(body)
                    .map_err(|source| JournalDecodeError::BadCheckpoint { offset, source })?;
                frames.push(JournalFrame::Checkpoint(c));
            }
            kind => return Err(JournalDecodeError::BadKind { offset, kind }),
        }
        pos += 8 + len;
    }
    Ok(DecodedJournal { frames, tail: JournalTail::Clean })
}

/// Fixed header of a checkpoint body: seq + epoch + m + fault count.
const CHECKPOINT_HEADER_LEN: usize = 32;

/// Decodes and validates a checkpoint frame body (everything after the
/// kind byte): `seq u64 | epoch u64 | m u64 | k u64 | k × edge u64`,
/// all little-endian, edges strictly increasing.
fn decode_checkpoint(body: &[u8]) -> Result<JournalCheckpoint, CheckpointDecodeError> {
    let read_u64 = |at: usize| -> u64 {
        u64::from_le_bytes(body[at..at + 8].try_into().expect("slice is 8 bytes"))
    };
    if body.len() < CHECKPOINT_HEADER_LEN {
        return Err(CheckpointDecodeError::Truncated {
            got: body.len(),
            need: CHECKPOINT_HEADER_LEN,
        });
    }
    let seq = read_u64(0);
    let epoch = read_u64(8);
    let m_raw = read_u64(16);
    let k = read_u64(24);
    let m: usize =
        m_raw.try_into().map_err(|_| CheckpointDecodeError::EdgeCountOverflow { m: m_raw })?;
    if k > m_raw {
        return Err(CheckpointDecodeError::TooManyFaults { k, m: m_raw });
    }
    let need = CHECKPOINT_HEADER_LEN + (k as usize) * 8;
    if body.len() < need {
        return Err(CheckpointDecodeError::Truncated { got: body.len(), need });
    }
    let mut edges: Vec<EdgeId> = Vec::with_capacity(k as usize);
    for i in 0..k as usize {
        let raw = read_u64(CHECKPOINT_HEADER_LEN + i * 8);
        if raw >= m_raw {
            return Err(CheckpointDecodeError::EdgeOutOfRange { edge: raw, m: m_raw });
        }
        // m fits usize and raw < m, so the cast is lossless.
        let edge = raw as EdgeId;
        if edges.last().is_some_and(|&prev| prev >= edge) {
            return Err(CheckpointDecodeError::NotStrictlyIncreasing { index: i });
        }
        edges.push(edge);
    }
    let state = FaultState::with_faults(m, FaultSet::from_edges(edges))
        .expect("edges validated against m above");
    Ok(JournalCheckpoint { seq, epoch, state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::WIRE_EVENT_LEN;

    fn sample_checkpoint() -> JournalCheckpoint {
        JournalCheckpoint {
            seq: 42,
            epoch: 7,
            state: FaultState::with_faults(10, FaultSet::from_edges([1, 4, 9])).unwrap(),
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"\x00"), 0xd202_ef8d);
    }

    #[test]
    fn event_and_checkpoint_round_trip() {
        let mut bytes = Vec::new();
        let frames = vec![
            JournalFrame::Event(FaultEvent::Arrive(1)),
            JournalFrame::Checkpoint(sample_checkpoint()),
            JournalFrame::Event(FaultEvent::Repair(1)),
        ];
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        let decoded = decode_journal(&bytes).unwrap();
        assert_eq!(decoded.frames, frames);
        assert_eq!(decoded.tail, JournalTail::Clean);
    }

    #[test]
    fn empty_stream_is_clean() {
        let decoded = decode_journal(&[]).unwrap();
        assert!(decoded.frames.is_empty());
        assert_eq!(decoded.tail, JournalTail::Clean);
    }

    #[test]
    fn every_truncation_is_torn_never_an_error() {
        let mut bytes = Vec::new();
        JournalFrame::Event(FaultEvent::Arrive(5)).encode_into(&mut bytes);
        JournalFrame::Checkpoint(sample_checkpoint()).encode_into(&mut bytes);
        let first_frame_len = 4 + 1 + WIRE_EVENT_LEN + 4;
        for cut in 0..bytes.len() {
            let decoded = decode_journal(&bytes[..cut]).expect("truncation is never an error");
            match cut.cmp(&first_frame_len) {
                std::cmp::Ordering::Less => {
                    assert!(decoded.frames.is_empty(), "cut {cut}");
                    if cut == 0 {
                        assert_eq!(decoded.tail, JournalTail::Clean);
                    } else {
                        assert_eq!(decoded.tail, JournalTail::Torn { offset: 0 }, "cut {cut}");
                    }
                }
                _ => {
                    assert_eq!(decoded.frames.len(), 1, "cut {cut}");
                    if cut == first_frame_len {
                        assert_eq!(decoded.tail, JournalTail::Clean);
                    } else {
                        assert_eq!(
                            decoded.tail,
                            JournalTail::Torn { offset: first_frame_len },
                            "cut {cut}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interior_bit_flip_is_bad_crc() {
        let mut bytes = Vec::new();
        JournalFrame::Event(FaultEvent::Arrive(5)).encode_into(&mut bytes);
        JournalFrame::Event(FaultEvent::Repair(5)).encode_into(&mut bytes);
        let frame_len = bytes.len() / 2;
        // Flip every bit position of the first frame in turn: all are
        // caught, either by the CRC or (length-prefix flips) by the
        // declared frame no longer fitting (torn) or growing absurd.
        for bit in 0..frame_len * 8 {
            let mut mutated = bytes.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            match decode_journal(&mutated) {
                Err(_) => {}
                Ok(decoded) => {
                    // A length-prefix flip can only tear the stream; the
                    // mutated frame must never decode as a frame.
                    assert!(
                        matches!(decoded.tail, JournalTail::Torn { offset: 0 }),
                        "bit {bit} slipped through: {decoded:?}"
                    );
                    assert!(decoded.frames.is_empty(), "bit {bit} forged a frame");
                }
            }
        }
    }

    #[test]
    fn unknown_kind_and_empty_payload_are_typed() {
        // Hand-build a frame with kind 0x7f.
        let payload = [0x7fu8, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_journal(&bytes),
            Err(JournalDecodeError::BadKind { offset: 0, kind: 0x7f })
        );

        let mut empty = 0u32.to_le_bytes().to_vec();
        let crc = crc32(&empty);
        empty.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(decode_journal(&empty), Err(JournalDecodeError::EmptyFrame { offset: 0 }));
    }

    #[test]
    fn absurd_length_is_frame_too_long() {
        let bytes = u32::MAX.to_le_bytes();
        assert_eq!(
            decode_journal(&bytes),
            Err(JournalDecodeError::FrameTooLong { offset: 0, len: u32::MAX as usize })
        );
    }

    #[test]
    fn checkpoint_validation_is_typed() {
        // Helper to frame an arbitrary checkpoint body with a good CRC.
        let frame = |body: &[u8]| -> Vec<u8> {
            let mut payload = vec![KIND_CHECKPOINT];
            payload.extend_from_slice(body);
            let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&payload);
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            bytes
        };

        // k > m.
        let mut body = Vec::new();
        body.extend_from_slice(&0u64.to_le_bytes()); // seq
        body.extend_from_slice(&0u64.to_le_bytes()); // epoch
        body.extend_from_slice(&2u64.to_le_bytes()); // m
        body.extend_from_slice(&3u64.to_le_bytes()); // k
        assert_eq!(
            decode_journal(&frame(&body)),
            Err(JournalDecodeError::BadCheckpoint {
                offset: 0,
                source: CheckpointDecodeError::TooManyFaults { k: 3, m: 2 },
            })
        );

        // Edge out of range.
        let mut body = Vec::new();
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&4u64.to_le_bytes()); // m = 4
        body.extend_from_slice(&1u64.to_le_bytes()); // k = 1
        body.extend_from_slice(&9u64.to_le_bytes()); // edge 9 >= 4
        assert_eq!(
            decode_journal(&frame(&body)),
            Err(JournalDecodeError::BadCheckpoint {
                offset: 0,
                source: CheckpointDecodeError::EdgeOutOfRange { edge: 9, m: 4 },
            })
        );

        // Not strictly increasing.
        let mut body = Vec::new();
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.extend_from_slice(&4u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        body.extend_from_slice(&2u64.to_le_bytes());
        assert_eq!(
            decode_journal(&frame(&body)),
            Err(JournalDecodeError::BadCheckpoint {
                offset: 0,
                source: CheckpointDecodeError::NotStrictlyIncreasing { index: 1 },
            })
        );

        // Truncated body.
        let body = [0u8; 16];
        assert_eq!(
            decode_journal(&frame(&body)),
            Err(JournalDecodeError::BadCheckpoint {
                offset: 0,
                source: CheckpointDecodeError::Truncated { got: 16, need: 32 },
            })
        );
    }

    #[test]
    fn error_offsets_point_at_the_bad_frame() {
        let mut bytes = Vec::new();
        JournalFrame::Event(FaultEvent::Arrive(5)).encode_into(&mut bytes);
        let second = bytes.len();
        JournalFrame::Event(FaultEvent::Repair(5)).encode_into(&mut bytes);
        bytes[second + 6] ^= 0xff;
        assert_eq!(decode_journal(&bytes), Err(JournalDecodeError::BadCrc { offset: second }));
    }
}
