//! Wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Every frame is a little-endian `u32` payload length followed by exactly
//! that many bytes of UTF-8 JSON. The length is capped at
//! [`MAX_FRAME_BYTES`]; an oversized or unparsable frame is a *client*
//! error answered with a typed [`WireError`], never a daemon crash. The
//! same codec serves both directions, so perfbench and the tests
//! reuse it via [`crate::client`].

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Hard cap on one frame's payload (1 MiB). Large enough for thousands of
/// workers per request, small enough that a hostile length prefix cannot
/// balloon allocation.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Framing-layer failures (I/O and length violations; JSON errors are
/// handled one level up so the connection can answer them in-band).
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed or timed out.
    Io(io::Error),
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The claimed payload length.
        claimed: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameError::Closed => write!(f, "peer closed the stream"),
            FrameError::TooLarge { claimed } => {
                write!(f, "frame of {claimed} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF before a prefix, [`FrameError::Io`]
/// on stream errors (including read timeouts from a wedged peer), and
/// [`FrameError::TooLarge`] for hostile length prefixes — the payload is
/// not read in that case, so the connection must be dropped afterwards.
pub fn read_frame<S: Read>(stream: &mut S) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    match stream.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(FrameError::Closed),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { claimed: len });
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(payload)
}

/// Writes one length-prefixed frame as a single buffered write.
///
/// # Errors
///
/// Any I/O error from the underlying stream.
pub fn write_frame<S: Write>(stream: &mut S, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    stream.write_all(&buf)?;
    stream.flush()
}

/// One worker's reported state in a fleet snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkerState {
    /// Position x.
    pub x: f32,
    /// Position y.
    pub y: f32,
    /// Remaining energy (clamped to the scenario's battery capacity).
    pub energy: f32,
}

/// A "schedule my fleet" request: the client reports observed fleet state
/// and the daemon projects it onto the policy's training scenario before
/// inference.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleRequest {
    /// Client-chosen correlation id, echoed in every reply.
    pub id: u64,
    /// Per-request deadline in milliseconds from admission; `0` selects
    /// the daemon's default. Requests still queued past their deadline are
    /// shed with [`WireError::DeadlineExceeded`].
    pub deadline_ms: u64,
    /// Fleet snapshot; length must equal the policy's worker count.
    pub workers: Vec<WorkerState>,
    /// Remaining-data levels per PoI (extra entries ignored, missing ones
    /// keep scenario defaults).
    pub poi_data: Vec<f32>,
}

/// Client → daemon messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Schedule one fleet snapshot.
    Schedule(ScheduleRequest),
    /// Hot-reload weights from a checkpoint file on the daemon host.
    Reload {
        /// Path to the candidate v2 checkpoint.
        path: String,
    },
    /// Fetch daemon health/stats.
    Stats,
    /// Liveness probe.
    Ping,
}

/// One worker's decided action on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ActionOut {
    /// Index into `Move::ALL` (0 = stay, then the 8 compass directions).
    pub move_index: u64,
    /// Whether the worker should charge this slot.
    pub charge: bool,
}

/// A successful scheduling decision.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReply {
    /// Echo of the request id.
    pub id: u64,
    /// `"policy"` for batched actor-critic inference, `"greedy"` when the
    /// shed ladder degraded this batch to the engineered baseline.
    pub mode: String,
    /// One action per worker.
    pub actions: Vec<ActionOut>,
    /// Milliseconds the request waited in the admission queue.
    pub queued_ms: f64,
}

/// Typed rejections — every admitted request that cannot be scheduled gets
/// exactly one of these instead of silence.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireError {
    /// The bounded admission queue is full; retry after the hint.
    QueueFull {
        /// Echo of the request id.
        id: u64,
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
    /// The request sat in the queue past its deadline and was shed.
    DeadlineExceeded {
        /// Echo of the request id.
        id: u64,
        /// How long it actually waited before being shed.
        waited_ms: u64,
    },
    /// The request was structurally invalid for this daemon's scenario.
    BadRequest {
        /// Echo of the request id (0 when the frame never parsed).
        id: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// The daemon failed internally (e.g. both the policy batch and the
    /// greedy fallback panicked); the request was consumed.
    Internal {
        /// Echo of the request id.
        id: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// The daemon is draining for shutdown and no longer admits work.
    ShuttingDown {
        /// Echo of the request id.
        id: u64,
    },
}

impl WireError {
    /// The correlation id this rejection answers.
    #[must_use]
    pub fn id(&self) -> u64 {
        match *self {
            WireError::QueueFull { id, .. }
            | WireError::DeadlineExceeded { id, .. }
            | WireError::BadRequest { id, .. }
            | WireError::Internal { id, .. }
            | WireError::ShuttingDown { id } => id,
        }
    }
}

/// Daemon health snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Weight generation (increments on every successful hot-reload).
    pub generation: u64,
    /// Current admission-queue depth.
    pub queue_depth: u64,
    /// Whether the shed ladder is currently degraded to greedy.
    pub degraded: bool,
    /// Requests admitted so far.
    pub admitted: u64,
    /// Requests shed (deadline + queue-full) so far.
    pub shed: u64,
}

/// Daemon → client messages.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A scheduling decision.
    Schedule(ScheduleReply),
    /// A typed rejection.
    Rejected(WireError),
    /// Hot-reload outcome: `ok == false` means the reload was rejected and
    /// the previous weights remain live (`detail` says why).
    Reloaded {
        /// Whether the swap happened.
        ok: bool,
        /// Generation now live / rejection reason.
        detail: String,
    },
    /// Health snapshot.
    Stats(StatsReply),
    /// Liveness answer.
    Pong,
}

/// Serializes a [`Response`] to JSON bytes.
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    // The shim's serializer only fails on unrepresentable values, which
    // none of our wire types contain; an empty frame decodes to `None` on
    // the peer, which handles it as a bad response.
    serde_json::to_string(resp).map(String::into_bytes).unwrap_or_default()
}

/// Serializes a [`Request`] to JSON bytes.
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    serde_json::to_string(req).map(String::into_bytes).unwrap_or_default()
}

/// Parses a request frame; `None` when the payload is not valid
/// UTF-8/JSON for a [`Request`].
#[must_use]
pub fn decode_request(payload: &[u8]) -> Option<Request> {
    let text = std::str::from_utf8(payload).ok()?;
    serde_json::from_str(text).ok()
}

/// Parses a response frame; `None` on malformed payloads.
#[must_use]
pub fn decode_response(payload: &[u8]) -> Option<Response> {
    let text = std::str::from_utf8(payload).ok()?;
    serde_json::from_str(text).ok()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = io::Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::TooLarge { .. })));
    }

    #[test]
    fn requests_and_responses_round_trip_json() {
        let req = Request::Schedule(ScheduleRequest {
            id: 7,
            deadline_ms: 50,
            workers: vec![WorkerState { x: 1.0, y: 2.0, energy: 0.5 }],
            poi_data: vec![0.25, 0.75],
        });
        let back = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(back, req);

        let resp = Response::Rejected(WireError::DeadlineExceeded { id: 7, waited_ms: 81 });
        let back = decode_response(&encode_response(&resp)).unwrap();
        assert_eq!(back, resp);
        assert_eq!(
            match back {
                Response::Rejected(e) => e.id(),
                _ => 0,
            },
            7
        );
    }

    #[test]
    fn garbage_payloads_decode_to_none() {
        assert!(decode_request(b"\xFF\xFE").is_none());
        assert!(decode_request(b"{\"nope\":1}").is_none());
        assert!(decode_response(b"[1,2").is_none());
    }
}
