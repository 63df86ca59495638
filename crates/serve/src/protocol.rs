//! The `nnq serve` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every frame is a little-endian `u32` payload length followed by that
//! many payload bytes; the first payload byte is the message opcode. All
//! multi-byte integers are little-endian, and distances travel as raw
//! `f64` bits (`to_bits`/`from_bits`), so a response is **byte-identical**
//! across server configurations whenever the underlying query results are
//! bit-identical — the repo-wide accounting contract extends over the
//! wire.
//!
//! Responses carry the request's client-chosen `id`; correlation is by id,
//! not arrival order, because overload rejections are written from the
//! connection's reader thread the moment admission fails, while accepted
//! requests answer later from the batcher. Within the accepted stream,
//! responses preserve admission order.

use std::io::{self, IoSlice, Read, Write};

/// Upper bound on a request frame (bad input must not allocate a page's
/// worth of RAM, let alone gigabytes).
pub const MAX_REQUEST_FRAME: usize = 4 * 1024;

/// Upper bound on a response frame (a radius query can legitimately
/// return the whole dataset; 64 MiB ≈ 4M hits).
pub const MAX_RESPONSE_FRAME: usize = 64 * 1024 * 1024;

/// Fixed bytes of an OK response before the hit rows: opcode + id +
/// logical reads + hit count.
const OK_HEADER_BYTES: usize = 1 + 8 + 8 + 4;

/// Bytes per hit row: record id + distance bits.
const HIT_BYTES: usize = 8 + 8;

/// Most hit rows an OK response can carry within [`MAX_RESPONSE_FRAME`].
pub const MAX_RESULT_HITS: usize = (MAX_RESPONSE_FRAME - OK_HEADER_BYTES) / HIT_BYTES;

/// Largest admissible `k`: a kNN answer with more hits could not be
/// framed. Enforced by [`Request::validate`] before admission.
pub const MAX_K: u32 = MAX_RESULT_HITS as u32;

const OP_KNN: u8 = 0x01;
const OP_RADIUS: u8 = 0x02;
const OP_PING: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;

const OP_OK: u8 = 0x81;
const OP_REJECTED: u8 = 0x82;
const OP_REJECTED_SHUTDOWN: u8 = 0x83;
const OP_ERROR: u8 = 0x84;
const OP_PONG: u8 = 0x85;
const OP_BYE: u8 = 0x86;

/// A client→server message. Queries are 2-D (the CLI's index format);
/// `id` is chosen by the client and echoed verbatim in the response.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// k-nearest-neighbor query.
    Knn {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Query point x.
        x: f64,
        /// Query point y.
        y: f64,
        /// Neighbors requested.
        k: u32,
    },
    /// Distance-range query (linear radius).
    Radius {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Query point x.
        x: f64,
        /// Query point y.
        y: f64,
        /// Inclusive distance cutoff; must be finite and nonnegative.
        radius: f64,
    },
    /// Liveness probe; answered immediately with [`Response::Pong`].
    Ping {
        /// Client-chosen correlation id.
        id: u64,
    },
    /// Graceful shutdown: the server stops admitting, drains every
    /// in-flight batch (all admitted requests still get responses),
    /// quiesces its I/O pipelines, and answers [`Response::Bye`].
    Shutdown,
}

/// One result row of an OK response.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// The matched record id.
    pub record: u64,
    /// Its exact squared distance from the query point.
    pub dist_sq: f64,
}

/// A server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The query ran; hits are sorted exactly as the sequential query
    /// sorts them.
    Ok {
        /// Echo of the request id.
        id: u64,
        /// Tree nodes this query read — its logical page accesses, the
        /// paper's cost unit, bit-identical to a sequential run.
        logical_reads: u64,
        /// Result rows.
        hits: Vec<Hit>,
    },
    /// Admission control turned the request away; nothing was queued.
    Rejected {
        /// Echo of the request id.
        id: u64,
        /// Hint: how long to back off before retrying. Zero when the
        /// server is shutting down (don't retry this endpoint).
        retry_after_us: u32,
        /// `true` when the rejection is the shutdown gate rather than a
        /// full inbox.
        shutting_down: bool,
    },
    /// The request was malformed or failed during execution.
    Error {
        /// Echo of the request id.
        id: u64,
        /// Human-readable cause.
        message: String,
    },
    /// Answer to [`Request::Ping`].
    Pong {
        /// Echo of the request id.
        id: u64,
    },
    /// Answer to [`Request::Shutdown`], sent after the drain completes.
    Bye,
}

/// Protocol-level failures (distinct from transport `io::Error`s).
#[derive(Debug)]
pub enum ProtocolError {
    /// Frame length prefix exceeded the allowed maximum.
    FrameTooLarge(usize),
    /// Payload was empty, truncated, or had trailing bytes.
    Malformed(&'static str),
    /// Unknown opcode byte.
    UnknownOpcode(u8),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds maximum"),
            ProtocolError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtocolError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Appends one whole frame to `out`: the length prefix, then the payload
/// `encode` appends in place, so responses staged back to back are one
/// buffer and one socket write. Callers bound their payloads beforehand.
pub(crate) fn append_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = out.len() - at - 4;
    debug_assert!(len <= MAX_RESPONSE_FRAME, "unbounded response payload");
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Writes one frame: length prefix + payload, handed to the writer
/// together (one `writev` on a socket — frames from concurrent writers
/// must not interleave, so the caller serializes on a per-connection
/// lock) and without copying the payload. A payload too large for the
/// `u32` prefix is refused — truncating the length would corrupt the
/// framing for every later message.
pub fn write_frame(w: &mut dyn Write, payload: &[u8]) -> io::Result<()> {
    let prefix = u32::try_from(payload.len())
        .map_err(|_| ProtocolError::FrameTooLarge(payload.len()))?
        .to_le_bytes();
    let mut sent = 0;
    while sent < 4 + payload.len() {
        let wrote = if sent < 4 {
            w.write_vectored(&[IoSlice::new(&prefix[sent..]), IoSlice::new(payload)])
        } else {
            w.write(&payload[sent - 4..])
        };
        match wrote {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => sent += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame's payload, enforcing `max` on the length prefix.
pub fn read_frame(r: &mut dyn Read, max: usize) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > max {
        return Err(ProtocolError::FrameTooLarge(len).into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], ProtocolError> {
        let end = self.pos + N;
        if end > self.buf.len() {
            return Err(ProtocolError::Malformed("truncated payload"));
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.take()?)))
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::Malformed("trailing bytes"));
        }
        Ok(())
    }
}

impl Request {
    /// Serializes the request payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33);
        match *self {
            Request::Knn { id, x, y, k } => {
                out.push(OP_KNN);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&x.to_bits().to_le_bytes());
                out.extend_from_slice(&y.to_bits().to_le_bytes());
            }
            Request::Radius { id, x, y, radius } => {
                out.push(OP_RADIUS);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&radius.to_bits().to_le_bytes());
                out.extend_from_slice(&x.to_bits().to_le_bytes());
                out.extend_from_slice(&y.to_bits().to_le_bytes());
            }
            Request::Ping { id } => {
                out.push(OP_PING);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Request::Shutdown => out.push(OP_SHUTDOWN),
        }
        out
    }

    /// Parses a request payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut c = Cursor::new(payload);
        let op = c.u8()?;
        let req = match op {
            OP_KNN => {
                let id = c.u64()?;
                let k = c.u32()?;
                let x = c.f64()?;
                let y = c.f64()?;
                Request::Knn { id, x, y, k }
            }
            OP_RADIUS => {
                let id = c.u64()?;
                let radius = c.f64()?;
                let x = c.f64()?;
                let y = c.f64()?;
                Request::Radius { id, x, y, radius }
            }
            OP_PING => Request::Ping { id: c.u64()? },
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        c.finish()?;
        Ok(req)
    }

    /// The request's correlation id (`None` for [`Request::Shutdown`]).
    pub fn id(&self) -> Option<u64> {
        match *self {
            Request::Knn { id, .. } | Request::Radius { id, .. } | Request::Ping { id } => Some(id),
            Request::Shutdown => None,
        }
    }

    /// Validates query parameters before admission: coordinates must be
    /// finite (the Hilbert schedule orders by them), `k` must be in
    /// `1..=MAX_K` (the executor asserts `k > 0`, and a larger answer
    /// could not be framed), and a radius must be finite and nonnegative.
    /// Returns the rejection message on failure.
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            Request::Knn { x, y, k, .. } => {
                if !(x.is_finite() && y.is_finite()) {
                    return Err("non-finite query coordinates");
                }
                if k == 0 {
                    return Err("k must be at least 1");
                }
                if k > MAX_K {
                    return Err("k exceeds the maximum response size");
                }
            }
            Request::Radius { x, y, radius, .. } => {
                if !(x.is_finite() && y.is_finite()) {
                    return Err("non-finite query coordinates");
                }
                if !radius.is_finite() || radius < 0.0 {
                    return Err("radius must be finite and nonnegative");
                }
            }
            Request::Ping { .. } | Request::Shutdown => {}
        }
        Ok(())
    }
}

/// Appends an OK payload built from `(record, dist_sq)` rows: the one OK
/// encoder, under [`Response::encode_into`] and under the server's
/// write-out, which feeds it neighbors with no [`Hit`] list in between.
pub(crate) fn encode_ok(
    out: &mut Vec<u8>,
    id: u64,
    logical_reads: u64,
    hits: impl ExactSizeIterator<Item = (u64, f64)>,
) {
    out.reserve(OK_HEADER_BYTES + HIT_BYTES * hits.len());
    out.push(OP_OK);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&logical_reads.to_le_bytes());
    out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
    for (record, dist_sq) in hits {
        out.extend_from_slice(&record.to_le_bytes());
        out.extend_from_slice(&dist_sq.to_bits().to_le_bytes());
    }
}

impl Response {
    /// Serializes the response payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Serializes the response payload (no length prefix) into `out`,
    /// clearing it first, so a caller can reuse one buffer across
    /// responses.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        match self {
            Response::Ok {
                id,
                logical_reads,
                hits,
            } => encode_ok(
                out,
                *id,
                *logical_reads,
                hits.iter().map(|h| (h.record, h.dist_sq)),
            ),
            Response::Rejected {
                id,
                retry_after_us,
                shutting_down,
            } => {
                out.reserve(13);
                out.push(if *shutting_down {
                    OP_REJECTED_SHUTDOWN
                } else {
                    OP_REJECTED
                });
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&retry_after_us.to_le_bytes());
            }
            Response::Error { id, message } => {
                let msg = message.as_bytes();
                out.reserve(13 + msg.len());
                out.push(OP_ERROR);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                out.extend_from_slice(msg);
            }
            Response::Pong { id } => {
                out.reserve(9);
                out.push(OP_PONG);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Response::Bye => out.push(OP_BYE),
        }
    }

    /// Parses a response payload.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtocolError> {
        let mut c = Cursor::new(payload);
        let op = c.u8()?;
        let resp = match op {
            OP_OK => {
                let id = c.u64()?;
                let logical_reads = c.u64()?;
                let n = c.u32()? as usize;
                // Cheap sanity bound: each hit is 16 payload bytes.
                if n > payload.len() / 16 + 1 {
                    return Err(ProtocolError::Malformed("hit count exceeds payload"));
                }
                let mut hits = Vec::with_capacity(n);
                for _ in 0..n {
                    let record = c.u64()?;
                    let dist_sq = c.f64()?;
                    hits.push(Hit { record, dist_sq });
                }
                Response::Ok {
                    id,
                    logical_reads,
                    hits,
                }
            }
            OP_REJECTED | OP_REJECTED_SHUTDOWN => Response::Rejected {
                id: c.u64()?,
                retry_after_us: c.u32()?,
                shutting_down: op == OP_REJECTED_SHUTDOWN,
            },
            OP_ERROR => {
                let id = c.u64()?;
                let len = c.u32()? as usize;
                if c.pos + len != payload.len() {
                    return Err(ProtocolError::Malformed("error message length"));
                }
                let message = String::from_utf8(payload[c.pos..].to_vec())
                    .map_err(|_| ProtocolError::Malformed("error message not utf-8"))?;
                return Ok(Response::Error { id, message });
            }
            OP_PONG => Response::Pong { id: c.u64()? },
            OP_BYE => Response::Bye,
            other => return Err(ProtocolError::UnknownOpcode(other)),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Knn {
                id: 7,
                x: 1.5,
                y: -2.25,
                k: 10,
            },
            Request::Radius {
                id: u64::MAX,
                x: 0.0,
                y: f64::MIN_POSITIVE,
                radius: 123.456,
            },
            Request::Ping { id: 0 },
            Request::Shutdown,
        ];
        for req in cases {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Ok {
                id: 3,
                logical_reads: 42,
                hits: vec![
                    Hit {
                        record: 9,
                        dist_sq: 0.0,
                    },
                    Hit {
                        record: 1,
                        dist_sq: 7.25,
                    },
                ],
            },
            Response::Ok {
                id: 4,
                logical_reads: 0,
                hits: vec![],
            },
            Response::Rejected {
                id: 5,
                retry_after_us: 200,
                shutting_down: false,
            },
            Response::Rejected {
                id: 6,
                retry_after_us: 0,
                shutting_down: true,
            },
            Response::Error {
                id: 7,
                message: "radius must be finite and nonnegative".into(),
            },
            Response::Pong { id: 8 },
            Response::Bye,
        ];
        for resp in cases {
            let bytes = resp.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn dist_sq_travels_bit_exactly() {
        for v in [0.0, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
            let resp = Response::Ok {
                id: 1,
                logical_reads: 1,
                hits: vec![Hit {
                    record: 1,
                    dist_sq: v,
                }],
            };
            let Response::Ok { hits, .. } = Response::decode(&resp.encode()).unwrap() else {
                panic!("wrong variant");
            };
            assert_eq!(hits[0].dist_sq.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Truncated.
        assert!(Request::decode(&[OP_KNN, 1, 2]).is_err());
        // Trailing garbage.
        let mut bytes = Request::Ping { id: 1 }.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        // Unknown opcode.
        assert!(Request::decode(&[0x7f]).is_err());
        assert!(Response::decode(&[0x02]).is_err());
        // Empty payload.
        assert!(Request::decode(&[]).is_err());
        // Hit count larger than payload could hold.
        let mut ok = Response::Ok {
            id: 1,
            logical_reads: 1,
            hits: vec![],
        }
        .encode();
        let n = ok.len();
        ok[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&ok).is_err());
    }

    #[test]
    fn frame_io_round_trips_and_enforces_max() {
        let payload = Request::Knn {
            id: 1,
            x: 2.0,
            y: 3.0,
            k: 4,
        }
        .encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(wire.len(), 4 + payload.len());
        let got = read_frame(&mut wire.as_slice(), MAX_REQUEST_FRAME).unwrap();
        assert_eq!(got, payload);
        // A length prefix over the cap is refused before allocation.
        let huge = (MAX_REQUEST_FRAME as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice(), MAX_REQUEST_FRAME).is_err());
    }

    #[test]
    fn write_frame_survives_short_and_unvectored_writes() {
        /// Accepts one byte per call and only the first slice of a
        /// vectored write (`Write`'s default).
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.extend_from_slice(&buf[..buf.len().min(1)]);
                Ok(buf.len().min(1))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for payload in [&b""[..], b"x", b"a longer payload"] {
            let mut whole = Vec::new();
            write_frame(&mut whole, payload).unwrap();
            let mut dribbled = Dribble(Vec::new());
            write_frame(&mut dribbled, payload).unwrap();
            assert_eq!(dribbled.0, whole);
            let mut appended = Vec::new();
            append_frame(&mut appended, |out| out.extend_from_slice(payload));
            assert_eq!(appended, whole, "one framing, two encoders");
        }
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(Request::Knn {
            id: 1,
            x: f64::NAN,
            y: 0.0,
            k: 1
        }
        .validate()
        .is_err());
        assert!(Request::Radius {
            id: 1,
            x: 0.0,
            y: 0.0,
            radius: -1.0
        }
        .validate()
        .is_err());
        assert!(Request::Radius {
            id: 1,
            x: 0.0,
            y: 0.0,
            radius: f64::INFINITY
        }
        .validate()
        .is_err());
        // k = 0 would trip the executor's `k > 0` assertion; k beyond
        // MAX_K could not be framed. Both
        // must be turned into Error responses before admission.
        assert!(Request::Knn {
            id: 1,
            x: 1.0,
            y: 2.0,
            k: 0
        }
        .validate()
        .is_err());
        assert!(Request::Knn {
            id: 1,
            x: 1.0,
            y: 2.0,
            k: MAX_K + 1
        }
        .validate()
        .is_err());
        assert!(Request::Knn {
            id: 1,
            x: 1.0,
            y: 2.0,
            k: MAX_K
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn max_k_saturates_the_response_frame() {
        // MAX_K is exactly the largest hit count whose OK response still
        // fits: one more row would overflow MAX_RESPONSE_FRAME.
        let encoded = |hits: usize| OK_HEADER_BYTES + hits * HIT_BYTES;
        assert!(encoded(MAX_K as usize) <= MAX_RESPONSE_FRAME);
        assert!(encoded(MAX_K as usize + 1) > MAX_RESPONSE_FRAME);
        assert_eq!(MAX_K as usize, MAX_RESULT_HITS);
    }
}
