//! The load generator: one thread per connection. Each turn of its loop
//! sends every request that is due and takes in every response frame that
//! has arrived.
//!
//! Open loop: requests are due at the times of a Poisson schedule fixed
//! before the phase, and latency runs from the **intended** send time, so
//! a stall of server or generator shows as latency of the requests behind
//! it. The gated phases keep fewer requests outstanding than the server's
//! inbox holds: after a stall the backlog waits in the generator (and counts
//! as latency) instead of overflowing the inbox into rejections, so no
//! operation fails because the host stalled. The socket is non-blocking and an idle generator yields its core
//! and polls again at once. It does not sleep: with 50 µs sleeps the
//! timer's wake-up from an idle virtual core was the largest part of the
//! run-to-run spread of the latency medians on this host (430–470 µs
//! across runs, against 312–329 µs polling), because the generator only
//! sees a response when it next wakes.
//!
//! Closed loop: a request is due whenever fewer than `window` are
//! outstanding, and latency runs from the actual send. The window is deep
//! and the generator sleeps 500 µs between turns, so it refills in bulk,
//! costs little CPU and leaves the cores to the server, which always has
//! a full batch queued: throughput is then set by the server and not by
//! how generator and server threads happen to share two cores (medians of
//! 43–47k requests/s across runs, against 37–45k with a window of 32 and a
//! generator woken by every response).

use crate::gen;
use crate::procfs;
use crate::spans::{Recorder, Span, NO_PARENT};
use nnq_core::BatchQuery;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Response opcodes of `nnq_serve::protocol` that the generator tells apart.
const OP_OK: u8 = 0x81;
const OP_REJECTED: u8 = 0x82;

/// Pause between two turns of a closed-loop generator.
const CLOSED_LOOP_PAUSE: Duration = Duration::from_micros(500);

/// How long after the last send a phase waits for outstanding responses
/// before it counts them as unanswered.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Reassembles length-prefixed frames from a byte stream that arrives in
/// arbitrary pieces.
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    at: usize,
}

impl FrameBuf {
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.at == self.buf.len() {
            self.buf.clear();
            self.at = 0;
        } else if self.at > (1 << 16) {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame's payload, if one has fully arrived.
    pub fn next_frame(&mut self) -> Option<&[u8]> {
        let avail = &self.buf[self.at..];
        if avail.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes")) as usize;
        if avail.len() < 4 + len {
            return None;
        }
        let start = self.at + 4;
        self.at = start + len;
        Some(&self.buf[start..start + len])
    }
}

/// Appends `payload` as one frame.
pub fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// What a phase's requests are and how their answers are checked. Both
/// are pure functions of the stream index, which is also the wire id.
pub trait Stream: Sync {
    /// The query at stream index `i`.
    fn query(&self, i: u64) -> BatchQuery<2>;
    /// Its encoded request payload.
    fn request(&self, i: u64) -> Vec<u8> {
        gen::wire_request(i, &self.query(i)).encode()
    }
    /// Whether `payload` (an Ok response to index `i`) is acceptable.
    fn check(&self, i: u64, payload: &[u8]) -> bool;
}

pub enum Drive {
    Closed {
        window: usize,
        duration: Duration,
    },
    /// Intended send times in nanoseconds from the phase start. A request
    /// that is due while `max_outstanding` are unanswered waits in the
    /// generator, and its latency still runs from the intended time.
    Open {
        schedule: Vec<u64>,
        max_outstanding: usize,
    },
}

/// One connection's share of a phase. Connection `c` of `conns` sends the
/// stream indices `base + c`, `base + c + conns`, ..
pub struct ConnPlan<'a> {
    pub addr: SocketAddr,
    pub stream: &'a dyn Stream,
    pub base: u64,
    pub conn: u64,
    pub conns: u64,
    /// Requests sent (closed loop, window 32) and awaited before the
    /// phase; they use the indices just below `base`.
    pub warmup: u64,
    pub drive: Drive,
    /// Releases all generators of the phase at once, after warm-up.
    pub start: &'a Barrier,
    /// Record three client-side spans per request, on the trace clock that
    /// started at the `Instant`, for the first so many requests answered
    /// (a preallocated vector; later requests are not recorded).
    pub trace: Option<(Instant, usize)>,
}

#[derive(Default)]
pub struct ConnOutcome {
    pub sent: u64,
    pub ok: u64,
    pub rejected: u64,
    pub errors: u64,
    pub unanswered: u64,
    /// Ok responses that failed `Stream::check`, and frames that answer
    /// nothing outstanding.
    pub wrong: u64,
    /// Latency of every accepted Ok response, in nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Open loop: how far behind its intended time each send ran.
    pub late_ns: Vec<u64>,
    /// Phase start to last response.
    pub elapsed: Duration,
    /// CPU this generator thread used during the phase.
    pub cpu_us: f64,
    pub spans: Vec<Span>,
}

impl ConnOutcome {
    pub fn absorb(&mut self, o: ConnOutcome) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.rejected += o.rejected;
        self.errors += o.errors;
        self.unanswered += o.unanswered;
        self.wrong += o.wrong;
        self.lat_ns.extend(o.lat_ns);
        self.late_ns.extend(o.late_ns);
        self.elapsed = self.elapsed.max(o.elapsed);
        self.cpu_us += o.cpu_us;
    }

    /// Requests that did not end in an accepted Ok.
    pub fn failed(&self) -> u64 {
        self.rejected + self.errors + self.unanswered + self.wrong
    }
}

/// Runs one connection's share of a phase; see the module docs.
pub fn run_conn(plan: ConnPlan<'_>) -> io::Result<ConnOutcome> {
    let warm_first = plan.base - plan.warmup * plan.conns + plan.conn;
    let mut sock = warm_up(
        plan.addr,
        plan.stream,
        warm_first,
        plan.warmup as usize,
        plan.conns,
    )?;
    sock.set_nonblocking(true)?;
    let open_loop = matches!(plan.drive, Drive::Open { .. });

    let mut out = ConnOutcome::default();
    let (window, duration_ns, schedule) = match plan.drive {
        Drive::Closed { window, duration } => (window as u64, duration.as_nanos() as u64, None),
        Drive::Open {
            schedule,
            max_outstanding,
        } => (max_outstanding as u64, 0, Some(schedule)),
    };
    let planned = schedule.as_ref().map_or(0, Vec::len);
    // Per request: the time latency is measured from (u64::MAX once
    // answered) and, for the trace, the actual send time.
    let mut from_ns: Vec<u64> = Vec::with_capacity(planned.max(1 << 16));
    let mut sent_ns: Vec<u64> = Vec::new();
    out.lat_ns.reserve(planned.max(1 << 16));
    out.late_ns.reserve(planned);
    let mut recorder = plan
        .trace
        .map(|(epoch, keep)| (Recorder::new(epoch, 3 * keep), 3 * keep));

    let mut tx: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut tx_at = 0usize;
    let mut rx = FrameBuf::default();
    let mut chunk = vec![0u8; 1 << 16];
    let mut answered = 0u64;

    plan.start.wait();
    let cpu0 = procfs::thread_cpu_us();
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    // Offset of this phase's clock on the trace clock.
    let trace_off = recorder.as_ref().map_or(0, |(r, _)| r.now_ns());
    let mut last_send_ns = 0u64;
    let mut last_resp_ns = 0u64;

    loop {
        let mut progressed = false;
        let now = now_ns();

        // Send everything that is due.
        loop {
            let j = out.sent;
            let intended = match &schedule {
                Some(s) => match s.get(j as usize) {
                    Some(&t) if t <= now && j - answered < window => t,
                    _ => break,
                },
                None if now < duration_ns && j - answered < window => now,
                None => break,
            };
            let i = plan.base + plan.conn + j * plan.conns;
            push_frame(&mut tx, &plan.stream.request(i));
            from_ns.push(intended);
            if schedule.is_some() {
                out.late_ns.push(now - intended);
            }
            if recorder.is_some() {
                sent_ns.push(now);
            }
            out.sent += 1;
            last_send_ns = now;
        }
        while tx_at < tx.len() {
            match sock.write(&tx[tx_at..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    tx_at += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if tx_at == tx.len() {
            tx.clear();
            tx_at = 0;
        }

        // Drain every response that has arrived.
        loop {
            match sock.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    rx.extend(&chunk[..n]);
                    progressed = true;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let got = now_ns();
        while let Some(payload) = rx.next_frame() {
            last_resp_ns = got;
            let Some((op, id)) = head(payload) else {
                out.wrong += 1;
                continue;
            };
            // Map the id back to this connection's request number.
            let j = id
                .checked_sub(plan.base + plan.conn)
                .filter(|d| d % plan.conns == 0)
                .map(|d| (d / plan.conns) as usize)
                .filter(|&j| j < from_ns.len() && from_ns[j] != u64::MAX);
            let Some(j) = j else {
                out.wrong += 1;
                continue;
            };
            let from = std::mem::replace(&mut from_ns[j], u64::MAX);
            answered += 1;
            match op {
                OP_OK if plan.stream.check(id, payload) => {
                    out.ok += 1;
                    out.lat_ns.push(got.saturating_sub(from));
                    if let Some((rec, _)) =
                        recorder.as_mut().filter(|(r, room)| r.spans.len() < *room)
                    {
                        let (a, b, c) = (trace_off + from, trace_off + sent_ns[j], trace_off + got);
                        let root = rec.record(NO_PARENT, "request", a, c, id);
                        rec.record(root, "gen.late", a, b, id);
                        rec.record(root, "wire", b, c, id);
                    }
                }
                OP_OK => out.wrong += 1,
                OP_REJECTED => out.rejected += 1,
                _ => out.errors += 1,
            }
        }

        let all_sent = match &schedule {
            Some(s) => out.sent as usize == s.len(),
            None => now >= duration_ns,
        };
        if all_sent && tx.is_empty() {
            if answered == out.sent {
                break;
            }
            if now_ns() > last_send_ns + DRAIN_TIMEOUT.as_nanos() as u64 {
                out.unanswered = out.sent - answered;
                break;
            }
        }
        if !open_loop {
            std::thread::sleep(CLOSED_LOOP_PAUSE);
        } else if !progressed {
            std::thread::yield_now();
        }
    }
    out.elapsed = Duration::from_nanos(last_resp_ns.max(last_send_ns));
    out.cpu_us = procfs::thread_cpu_us() - cpu0;
    if let Some((rec, _)) = recorder {
        out.spans = rec.spans;
    }
    Ok(out)
}

/// Opcode and id of a response payload (`Bye` has no id and is never sent
/// to a generator).
fn head(payload: &[u8]) -> Option<(u8, u64)> {
    let id = payload.get(1..9)?;
    Some((
        payload[0],
        u64::from_le_bytes(id.try_into().expect("8 bytes")),
    ))
}

/// Sends `count` requests of `stream` (positions `first`, `first + stride`,
/// ..) with at most 32 outstanding on a fresh blocking connection, awaits
/// every answer and returns the connection.
pub fn warm_up(
    addr: SocketAddr,
    stream: &dyn Stream,
    first: u64,
    count: usize,
    stride: u64,
) -> io::Result<TcpStream> {
    let mut sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    let mut len = [0u8; 4];
    let mut payload = Vec::new();
    let mut tx = Vec::new();
    let (mut sent, mut recvd) = (0, 0);
    while recvd < count {
        tx.clear();
        while sent < count && sent - recvd < 32 {
            push_frame(&mut tx, &stream.request(first + sent as u64 * stride));
            sent += 1;
        }
        sock.write_all(&tx)?;
        sock.read_exact(&mut len)?;
        payload.resize(u32::from_le_bytes(len) as usize, 0);
        sock.read_exact(&mut payload)?;
        if payload.first() != Some(&OP_OK) {
            return Err(io::Error::other("warm-up request was not answered Ok"));
        }
        recvd += 1;
    }
    Ok(sock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_reassemble_across_split_reads() {
        let mut wire = Vec::new();
        push_frame(&mut wire, b"alpha");
        push_frame(&mut wire, b"");
        push_frame(&mut wire, &[9u8; 300]);
        // Feed the bytes in every fixed piece size, including pieces that
        // split a length prefix and pieces that hold several frames.
        for piece in 1..=wire.len() {
            let mut rx = FrameBuf::default();
            let mut frames: Vec<Vec<u8>> = Vec::new();
            for part in wire.chunks(piece) {
                rx.extend(part);
                while let Some(f) = rx.next_frame() {
                    frames.push(f.to_vec());
                }
            }
            assert_eq!(frames.len(), 3, "piece size {piece}");
            assert_eq!(frames[0], b"alpha");
            assert!(frames[1].is_empty());
            assert_eq!(frames[2], vec![9u8; 300]);
            assert!(rx.next_frame().is_none());
        }
    }

    #[test]
    fn consumed_bytes_are_released() {
        let mut rx = FrameBuf::default();
        let mut one = Vec::new();
        push_frame(&mut one, &[1u8; 1000]);
        for _ in 0..1000 {
            rx.extend(&one);
            assert_eq!(rx.next_frame().map(<[u8]>::len), Some(1000));
        }
        assert!(rx.buf.len() <= 2 * one.len());
    }

    #[test]
    fn response_head_needs_an_id() {
        let mut ok = vec![OP_OK];
        ok.extend_from_slice(&77u64.to_le_bytes());
        ok.extend_from_slice(&[0; 12]);
        assert_eq!(head(&ok), Some((OP_OK, 77)));
        assert_eq!(head(&[0x86]), None);
    }
}
