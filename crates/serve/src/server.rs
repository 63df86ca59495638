//! The `nnq serve` server: thread-per-connection framed readers feeding a
//! bounded inbox, one batcher thread draining what is queued as
//! micro-batches through the work-stealing mixed-query executor, and
//! responses written back in admission order, one socket write per
//! connection per micro-batch. Both engines are forests (one tree is a
//! forest of one): per batch the batcher pins every tree's snapshot at one
//! composed version, and probe, execution, and fill all go through that.
//!
//! Threading layout (all scoped, all joined before [`serve`] returns):
//!
//! ```text
//!            accept loop ──spawns──▶ reader (1 per connection)
//!                                      │ decode → validate → try_admit
//!                                      │   full/closed → fast-reject
//!                                      ▼
//!                              bounded Inbox<Job>
//!                                      │ drain what is queued (≤ batch_max)
//!                                      ▼
//!            batcher (caller's thread): forest snapshot per batch,
//!            Hilbert claim order over `threads` workers
//!                                      │ responses encoded in place, in
//!                                      ▼ admission order, per connection
//!            write-out: one `write_all` per connection per batch (early
//!            past 64 KiB staged); a failed write kills the connection
//! ```
//!
//! Shutdown protocol (graceful, drain-everything): a [`Request::Shutdown`]
//! frame closes the inbox — admission now fast-rejects with
//! `shutting_down` — the batcher drains every already-admitted request
//! (each still gets its response), signals the drain, quiesces every
//! pool's prefetch pipeline, flushes the WAL group-commit window (or the
//! plain dirty set), and [`serve`] returns its [`ServeReport`]. The
//! shutdown requester receives [`Response::Bye`] only after the drain, so
//! "my earlier request was answered" is ordered before "the server is
//! gone".

use crate::inbox::{Admit, Inbox};
use crate::protocol::{
    append_frame, encode_ok, write_frame, Request, Response, MAX_REQUEST_FRAME, MAX_RESULT_HITS,
};
use nnq_core::{
    forest_batch_dedup, BatchQuery, BatchStats, CachedAnswer, JoinOrder, Neighbor, NnOptions,
    PartitionedStats, PrefetchPolicy, Refiner, ResultCache,
};
use nnq_geom::Point;
use nnq_rtree::{snapshot_all, Forest, PartitionedTree, RTree, Snapshot};
use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The back-off hint of an overload rejection (inbox full or over the
/// per-connection cap). 1 ms is a chosen hint, not a measured one: it is
/// roughly the time one full batch of 32 takes at the 35–53 k/s
/// saturation rate measured for all-distinct kNN/radius requests on a
/// 2-thread host, so a client that honours it retries once the batcher
/// has freed a batch's worth of room. No client in this repository acts
/// on the hint.
pub const RETRY_AFTER_US: u32 = 1_000;

/// One executed batch's answers: hits + the recorded stats, per query.
type AnswerList = Vec<(Vec<Neighbor<2>>, PartitionedStats)>;

/// Knobs for one [`serve`] run. All sizes are hard bounds: the inbox
/// never queues more than `inbox_cap`, and a batch never exceeds
/// `batch_max`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads the batch executor fans each micro-batch over.
    pub threads: usize,
    /// Micro-batch size trigger.
    pub batch_max: usize,
    /// Zero (default): a batch is what is queued when the batcher is
    /// free. Nonzero: the deadline-or-size trigger, anchored to the
    /// oldest queued request's arrival, kept for tests that compose
    /// batches by waiting.
    pub batch_deadline: Duration,
    /// Inbox capacity; admission fast-rejects beyond it.
    pub inbox_cap: usize,
    /// Prefetch policy of every batch.
    pub prefetch: PrefetchPolicy,
    /// Result-cache capacity in complete memoized answers; `0` disables
    /// caching (`--result-cache off`). Safe to leave on: hits replay the
    /// recorded answer *and* its `SearchStats`, so responses stay
    /// bit-identical to uncached execution, and snapshot-version keying
    /// makes entries from before any commit unreachable.
    pub result_cache: usize,
    /// Per-connection in-flight request cap: the most admitted-but-not-
    /// yet-answered requests one connection may hold. Over the cap,
    /// admission fast-rejects with `Rejected{retry_after_us}` so one
    /// greedy pipeliner cannot fill the shared inbox and starve every
    /// other connection.
    pub max_in_flight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            batch_max: 32,
            batch_deadline: Duration::ZERO,
            inbox_cap: 1024,
            prefetch: PrefetchPolicy::Off,
            result_cache: 1024,
            // Matches the default inbox capacity: a lone connection may
            // still use the whole inbox when nobody else wants it.
            max_in_flight: 1024,
        }
    }
}

/// What the server serves: one R-tree, or a Hilbert-range partitioned
/// forest behind scatter-gather. Either is served as a forest: each
/// micro-batch runs against one snapshot of every tree, bounded by that
/// snapshot's own root MBR, so reads proceed concurrently with the
/// copy-on-write writer and see wherever it wrote.
pub enum Engine<'a> {
    /// A single paged R-tree: a forest of one.
    Single(&'a RTree<2>),
    /// A partitioned tree: each request runs its own scatter-gather pass
    /// over the partitions, requests fan out across the batch executor's
    /// workers.
    Partitioned(&'a PartitionedTree<2>),
}

impl<'a> Engine<'a> {
    /// The forest every read of the engine runs on.
    pub fn forest(&self) -> Forest<'a, RTree<2>> {
        match *self {
            Engine::Single(tree) => Forest::of_one(tree),
            Engine::Partitioned(tree) => tree.forest(),
        }
    }
}

/// Counters accumulated over one [`serve`] run, returned at shutdown.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Query responses successfully written.
    pub served: u64,
    /// Overload fast-rejections (inbox full).
    pub rejected: u64,
    /// Rejections after the shutdown gate closed.
    pub rejected_shutdown: u64,
    /// Error responses (malformed parameters or execution failure).
    pub errors: u64,
    /// Micro-batches drained.
    pub batches: u64,
    /// Requests drained into micro-batches (excludes pings and
    /// validation errors, which the readers answer directly).
    pub batched: u64,
    /// Largest micro-batch drained.
    pub max_batch: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Responses that could not be written (client went away, or its
    /// socket stayed unwritable past the write timeout); these requests
    /// were executed, not dropped by the server.
    pub write_errors: u64,
    /// Socket writes that carried the batcher's responses (one per
    /// connection per micro-batch); a failed write shows as `write_errors`.
    pub socket_writes: u64,
    /// Transient `accept(2)` failures (e.g. `ECONNABORTED`, fd
    /// exhaustion) the acceptor retried past instead of dying.
    pub accept_errors: u64,
    /// Of `rejected`, how many were per-connection in-flight cap
    /// rejections rather than inbox-full ones.
    pub rejected_overcap: u64,
    /// Result-cache probes answered from a memoized entry (no traversal).
    pub result_hits: u64,
    /// Result-cache probes with no entry for the query.
    pub result_misses: u64,
    /// Result-cache probes that found only an entry from an older commit
    /// version (invalidated by a root swap, never served).
    pub result_stale: u64,
    /// Answers memoized into the result cache.
    pub result_inserts: u64,
    /// Memoized answers the CLOCK hand evicted, for the entry count or
    /// the byte ceiling.
    pub result_evictions: u64,
    /// Duplicate requests inside micro-batches whose traversal was merged
    /// into another identical request's execution.
    pub dedup_merged: u64,
}

impl ServeReport {
    /// Average requests per drained batch.
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched as f64 / self.batches as f64
        }
    }
}

/// One admitted request: what to run and where to write the answer.
struct Job {
    id: u64,
    query: BatchQuery<2>,
    conn: Arc<Conn>,
}

/// The write half of a connection. Both the reader thread (fast
/// rejections, pongs) and the batcher (a micro-batch's staged responses)
/// write here; the mutex keeps frames whole — staged bytes go out under
/// one lock hold, so a reader-thread frame lands before or after them,
/// never inside.
///
/// Writes carry a timeout (set at accept), and the first failed or
/// timed-out write marks the connection dead: a partial write tears the
/// framing, so nothing sent afterwards could be parsed — and more
/// importantly the single batcher thread must never pay the write
/// timeout again and again for one client that stopped reading.
struct Conn {
    wire: Mutex<Wire>,
    dead: AtomicBool,
    /// Admitted-but-unanswered requests on this connection, for the
    /// per-connection fairness cap. Incremented *before* admission and
    /// decremented on rejection or once the response's write returned,
    /// so it can never underflow even when the batcher answers faster
    /// than the reader returns from `try_admit`.
    in_flight: AtomicUsize,
}

/// What a connection's mutex guards: the socket and the responses the
/// batcher has staged for it but not yet written.
struct Wire {
    stream: Box<dyn Write + Send>,
    /// Whole frames in admission order; reused from batch to batch.
    staged: Vec<u8>,
    /// Frames in `staged`; each holds one in-flight slot until written.
    frames: usize,
    /// Of those, `Ok`s: `served` if the write succeeds, else
    /// `write_errors` (staged `Error`s are counted when staged).
    oks: u64,
}

/// Staged bytes past which a connection is written out mid-batch: large
/// radius answers hold this much plus one response, not `batch_max` whole.
const STAGE_FLUSH_BYTES: usize = 64 * 1024;

impl Conn {
    fn new(write_half: impl Write + Send + 'static) -> Arc<Self> {
        Arc::new(Self {
            wire: Mutex::new(Wire {
                stream: Box::new(write_half),
                staged: Vec::new(),
                frames: 0,
                oks: 0,
            }),
            dead: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
        })
    }

    /// Answers one request straight from its reader thread (Pong,
    /// Rejected, validation Error, Bye); the batcher never calls this.
    fn send(&self, resp: &Response) -> io::Result<()> {
        let mut wire = self.wire.lock().expect("writers do not panic");
        self.write(|| write_frame(&mut *wire.stream, &resp.encode()))
    }

    /// Runs one socket write of whole frames, the connection's lock held.
    fn write(&self, write: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "connection marked dead after an earlier write failure",
            ));
        }
        let res = write();
        if res.is_err() {
            self.dead.store(true, Ordering::Relaxed);
        }
        res
    }

    /// The batcher's only write path, half one: encodes a response in
    /// place behind what this batch already staged for the connection.
    fn stage(&self, shared: &Shared, ok: bool, encode: impl FnOnce(&mut Vec<u8>)) {
        let mut wire = self.wire.lock().expect("writers do not panic");
        append_frame(&mut wire.staged, encode);
        wire.frames += 1;
        wire.oks += u64::from(ok);
        if wire.staged.len() >= STAGE_FLUSH_BYTES {
            self.flush(&mut wire, shared);
        }
    }

    /// Half two, once per job at the end of its batch: one write for all
    /// the connection has staged (nothing, if an earlier job's call did it).
    fn finish(&self, shared: &Shared) {
        let mut wire = self.wire.lock().expect("writers do not panic");
        if wire.frames > 0 {
            self.flush(&mut wire, shared);
        }
    }

    /// A failed write leaves the connection dead: later ones fail unissued.
    fn flush(&self, wire: &mut Wire, shared: &Shared) {
        if self.write(|| wire.stream.write_all(&wire.staged)).is_ok() {
            shared.socket_writes.fetch_add(1, Ordering::Relaxed);
            shared.served.fetch_add(wire.oks, Ordering::Relaxed);
        } else {
            shared.write_errors.fetch_add(wire.oks, Ordering::Relaxed);
        }
        self.in_flight.fetch_sub(wire.frames, Ordering::AcqRel);
        wire.staged.clear();
        // An outsized answer's allocation is not worth keeping.
        wire.staged.shrink_to(2 * STAGE_FLUSH_BYTES);
        (wire.frames, wire.oks) = (0, 0);
    }
}

impl Job {
    /// Stages the job's (cached or fresh) answer, replaying the recorded
    /// traversal stats as `logical_reads`.
    fn stage_ok(&self, shared: &Shared, answer: &CachedAnswer<2>) {
        if answer.hits.len() > MAX_RESULT_HITS {
            // An answer that cannot be framed (a radius query matching
            // more than MAX_RESULT_HITS records) is reported as an error;
            // sending the oversize frame would desync the client instead.
            return self.stage_error(shared, "result set exceeds the maximum response frame");
        }
        let hits = answer.hits.iter().map(|n| (n.record.0, n.dist_sq));
        self.conn.stage(shared, true, |out| {
            encode_ok(out, self.id, answer.stats.nodes_visited, hits)
        });
    }

    fn stage_error(&self, shared: &Shared, message: &str) {
        shared.errors.fetch_add(1, Ordering::Relaxed);
        let resp = Response::Error {
            id: self.id,
            message: message.into(),
        };
        self.conn
            .stage(shared, false, |out| out.extend_from_slice(&resp.encode()));
    }
}

struct Shared {
    inbox: Inbox<Job>,
    /// Set once the drain has finished: acceptor and readers wind down.
    stop: AtomicBool,
    drained: Mutex<bool>,
    drained_cv: Condvar,
    served: AtomicU64,
    rejected: AtomicU64,
    rejected_shutdown: AtomicU64,
    errors: AtomicU64,
    batches: AtomicU64,
    batched: AtomicU64,
    max_batch: AtomicU64,
    connections: AtomicU64,
    write_errors: AtomicU64,
    socket_writes: AtomicU64,
    accept_errors: AtomicU64,
    rejected_overcap: AtomicU64,
    max_in_flight: usize,
}

impl Shared {
    fn new(config: &ServeConfig) -> Self {
        Self {
            inbox: Inbox::new(config.inbox_cap),
            stop: AtomicBool::new(false),
            drained: Mutex::new(false),
            drained_cv: Condvar::new(),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            socket_writes: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            rejected_overcap: AtomicU64::new(0),
            max_in_flight: config.max_in_flight.max(1),
        }
    }

    fn mark_drained(&self) {
        *self.drained.lock().unwrap() = true;
        self.drained_cv.notify_all();
    }

    fn wait_drained(&self) {
        let mut done = self.drained.lock().unwrap();
        while !*done {
            done = self.drained_cv.wait(done).unwrap();
        }
    }
}

/// Most hits an answer may hold and still be memoized (≈ 192 KiB of
/// neighbors). Larger answers are served, not cached; the cache bounds
/// its total itself, by a fixed byte ceiling.
const MAX_CACHED_HITS: usize = 4096;

/// How often blocked readers and the acceptor re-check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How long a response write may block on a full socket buffer before
/// the connection is declared dead. The batcher writes responses
/// inline, so without this bound one client that stops reading stalls
/// every other connection's responses indefinitely.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Runs the server until a [`Request::Shutdown`] frame arrives, then
/// drains, quiesces, flushes, and returns the run's [`ServeReport`].
///
/// The caller supplies a bound listener (so it can report the ephemeral
/// port before the server blocks) and keeps ownership of the engine's
/// pools — print their stats after this returns for the shutdown line.
pub fn serve<R: Refiner<2> + Sync>(
    engine: &Engine<'_>,
    refiner: &R,
    listener: TcpListener,
    config: &ServeConfig,
) -> io::Result<ServeReport> {
    assert!(config.threads > 0, "need at least one worker thread");
    assert!(
        config.batch_max > 0,
        "batch size trigger must be at least 1"
    );
    listener.set_nonblocking(true)?;
    let shared = Shared::new(config);
    let forest = engine.forest();

    let loop_out = std::thread::scope(|scope| {
        let shared = &shared;
        scope.spawn(move || {
            loop {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        shared.connections.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_nodelay(true);
                        // Readers poll with a timeout so shutdown never
                        // waits on an idle connection.
                        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                        let Ok(write_half) = stream.try_clone() else {
                            continue;
                        };
                        let _ = write_half.set_write_timeout(Some(WRITE_TIMEOUT));
                        let conn = Conn::new(write_half);
                        scope.spawn(move || reader_loop(stream, conn, shared));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => {
                        // Accept failures (ECONNABORTED, transient fd
                        // exhaustion, ...) are retryable: a server that
                        // silently stops accepting while appearing alive
                        // is worse than one that rides out the spike.
                        // The stop flag remains the only exit.
                        shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(POLL_INTERVAL);
                    }
                }
            }
        });
        batch_loop(forest, refiner, config, shared)
    });

    // Every reader and the acceptor joined: quiesce the I/O pipelines and
    // make the committed state durable before reporting.
    quiesce_and_flush(forest.trees())?;

    Ok(ServeReport {
        served: shared.served.load(Ordering::Relaxed),
        rejected: shared.rejected.load(Ordering::Relaxed),
        rejected_shutdown: shared.rejected_shutdown.load(Ordering::Relaxed),
        errors: shared.errors.load(Ordering::Relaxed),
        batches: shared.batches.load(Ordering::Relaxed),
        batched: shared.batched.load(Ordering::Relaxed),
        max_batch: shared.max_batch.load(Ordering::Relaxed),
        connections: shared.connections.load(Ordering::Relaxed),
        write_errors: shared.write_errors.load(Ordering::Relaxed),
        socket_writes: shared.socket_writes.load(Ordering::Relaxed),
        accept_errors: shared.accept_errors.load(Ordering::Relaxed),
        rejected_overcap: shared.rejected_overcap.load(Ordering::Relaxed),
        result_hits: loop_out.result_cache.hits,
        result_misses: loop_out.result_cache.misses,
        result_stale: loop_out.result_cache.stale,
        result_inserts: loop_out.result_cache.inserts,
        result_evictions: loop_out.result_cache.evictions,
        dedup_merged: loop_out.dedup_merged,
    })
}

/// What [`batch_loop`] hands back to [`serve`] for the final report.
struct BatchLoopOut {
    result_cache: nnq_storage::CacheStats,
    dedup_merged: u64,
}

/// Shutdown's durability step: stop the background prefetchers (every
/// in-flight hint classified, nothing racing the flush) and push the
/// committed state down — through the WAL group-commit window when the
/// pool journals, a plain flush otherwise.
fn quiesce_and_flush(trees: &[RTree<2>]) -> io::Result<()> {
    for pool in trees.iter().map(RTree::pool) {
        pool.prefetch_quiesce();
        let res = if pool.wal().is_some() {
            pool.checkpoint()
        } else {
            pool.flush_all()
        };
        res.map_err(|e| io::Error::other(e.to_string()))?;
    }
    Ok(())
}

/// Incremental frame parser over a read-timeout socket: partial reads
/// accumulate across poll attempts, so a frame split by a timeout
/// boundary is never torn.
struct FramedReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

enum Poll {
    Frame(Vec<u8>),
    Timeout,
    Closed,
}

impl FramedReader {
    fn poll_frame(&mut self) -> io::Result<Poll> {
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
                if len > MAX_REQUEST_FRAME {
                    return Err(crate::protocol::ProtocolError::FrameTooLarge(len).into());
                }
                if self.buf.len() >= 4 + len {
                    let frame = self.buf[4..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok(Poll::Frame(frame));
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Poll::Closed),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Poll::Timeout)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn reader_loop(stream: TcpStream, conn: Arc<Conn>, shared: &Shared) {
    let mut reader = FramedReader {
        stream,
        buf: Vec::new(),
    };
    loop {
        let payload = match reader.poll_frame() {
            Ok(Poll::Frame(payload)) => payload,
            Ok(Poll::Timeout) => {
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            // Peer closed, transport error, or an unframeable byte
            // stream: nothing sensible can be answered.
            Ok(Poll::Closed) | Err(_) => return,
        };
        let req = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                // Can't know the id of a frame that didn't parse; answer
                // on id 0 and drop the connection (framing may be lost).
                shared.errors.fetch_add(1, Ordering::Relaxed);
                let _ = conn.send(&Response::Error {
                    id: 0,
                    message: e.to_string(),
                });
                return;
            }
        };
        match req {
            Request::Ping { id } => {
                let _ = conn.send(&Response::Pong { id });
            }
            Request::Shutdown => {
                // Gate admission now; answer only after the drain so the
                // requester observes all of its earlier responses first.
                shared.inbox.close();
                shared.wait_drained();
                let _ = conn.send(&Response::Bye);
            }
            Request::Knn { .. } | Request::Radius { .. } => {
                let id = req.id().unwrap_or(0);
                if let Err(why) = req.validate() {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                    let _ = conn.send(&Response::Error {
                        id,
                        message: why.into(),
                    });
                    continue;
                }
                let query = match req {
                    Request::Knn { x, y, k, .. } => BatchQuery::Knn {
                        q: Point::new([x, y]),
                        k: k as usize,
                    },
                    Request::Radius { x, y, radius, .. } => BatchQuery::Radius {
                        q: Point::new([x, y]),
                        radius,
                    },
                    _ => unreachable!(),
                };
                // Per-connection fairness gate, checked before the shared
                // inbox: a pipeliner already holding `max_in_flight`
                // unanswered requests is fast-rejected so it cannot
                // monopolize the queue. The increment happens first —
                // the batcher may answer (and decrement) at any moment,
                // so claiming the slot before admission is what keeps the
                // counter from underflowing.
                if conn.in_flight.fetch_add(1, Ordering::AcqRel) >= shared.max_in_flight {
                    conn.in_flight.fetch_sub(1, Ordering::AcqRel);
                    shared.rejected.fetch_add(1, Ordering::Relaxed);
                    shared.rejected_overcap.fetch_add(1, Ordering::Relaxed);
                    let _ = conn.send(&Response::Rejected {
                        id,
                        retry_after_us: RETRY_AFTER_US,
                        shutting_down: false,
                    });
                    continue;
                }
                let job = Job {
                    id,
                    query,
                    conn: Arc::clone(&conn),
                };
                match shared.inbox.try_admit(job) {
                    Admit::Admitted => {}
                    Admit::Full => {
                        conn.in_flight.fetch_sub(1, Ordering::AcqRel);
                        shared.rejected.fetch_add(1, Ordering::Relaxed);
                        let _ = conn.send(&Response::Rejected {
                            id,
                            retry_after_us: RETRY_AFTER_US,
                            shutting_down: false,
                        });
                    }
                    Admit::Closed => {
                        conn.in_flight.fetch_sub(1, Ordering::AcqRel);
                        shared.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                        let _ = conn.send(&Response::Rejected {
                            id,
                            retry_after_us: 0,
                            shutting_down: true,
                        });
                    }
                }
            }
        }
    }
}

/// Drains micro-batches until the inbox closes and empties, executing
/// each through the result cache and the deduplicating mixed-query
/// executor and writing responses back in admission order. Runs on the
/// caller's thread; returns the run's cache/dedup telemetry.
///
/// Per batch, the answer pipeline runs on the engine's forest:
///
/// 1. **Pin.** [`snapshot_all`] pins every tree's snapshot at one composed
///    version; probe, execution, and fill all share it, so every answer is
///    exactly the one that committed state gives.
/// 2. **Probe.** Each request's canonical key (request id excluded — the
///    same query from any client hits) is looked up at that version;
///    hits are answered from the memoized `CachedAnswer`, replaying the
///    recorded `SearchStats` so `logical_reads` on the wire is identical
///    to fresh execution. Version-mismatched entries count as stale and
///    never serve.
/// 3. **Execute misses, once per unique query** ([`forest_batch_dedup`]
///    over the snapshots, in Hilbert claim order).
/// 4. **Fill.** Fresh answers are memoized at the pinned version.
/// 5. **Respond in admission order**, cache hits and fresh answers
///    alike: each response is staged on its connection, then every
///    connection gets one write. If execution failed, hit jobs still get
///    their Ok responses; only the jobs that needed the traversal get
///    Errors.
fn batch_loop<R: Refiner<2> + Sync>(
    forest: Forest<'_, RTree<2>>,
    refiner: &R,
    config: &ServeConfig,
    shared: &Shared,
) -> BatchLoopOut {
    let trees = forest.trees();
    let opts = NnOptions::with_prefetch(config.prefetch);
    let cache = ResultCache::<2>::new(config.result_cache);
    let mut dedup_merged: u64 = 0;
    while let Some(batch) = shared
        .inbox
        .drain_batch(config.batch_max, config.batch_deadline)
    {
        if batch.is_empty() {
            continue;
        }
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .batched
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        shared
            .max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);

        // Pinned for the whole probe → execute → fill pipeline; a
        // concurrent COW writer can publish freely underneath.
        let snaps = snapshot_all(trees);
        let version = snaps.iter().map(Snapshot::version).sum();

        let keys: Vec<Vec<u8>> = batch.iter().map(|j| j.query.canonical_key()).collect();
        let mut answers: Vec<Option<CachedAnswer<2>>> = (0..batch.len()).map(|_| None).collect();
        let mut miss_idx: Vec<usize> = Vec::new();
        if cache.is_enabled() {
            for (i, key) in keys.iter().enumerate() {
                match cache.lookup(key, version) {
                    Some(answer) => answers[i] = Some(answer),
                    None => miss_idx.push(i),
                }
            }
        } else {
            miss_idx.extend(0..batch.len());
        }
        let miss_reqs: Vec<BatchQuery<2>> = miss_idx.iter().map(|&i| batch[i].query).collect();

        // The batcher is the server's single drain: if it dies, admitted
        // requests are never answered and shutdown waiters block
        // forever. So a panicking worker (unexpected by construction —
        // validate() bounds every parameter — but fatal if it escapes)
        // is caught and converted into Error responses for the batch,
        // and the loop keeps draining.
        type Executed = Result<(AnswerList, BatchStats), String>;
        let outcome: Executed = if miss_reqs.is_empty() {
            Ok((Vec::new(), BatchStats::default()))
        } else {
            let forest = Forest::new(&snaps);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let (threads, order) = (config.threads, JoinOrder::Hilbert);
                forest_batch_dedup(forest, &miss_reqs, opts, refiner, threads, order, None)
                    .map_err(|e| e.to_string())
            }))
            .unwrap_or_else(|panic| Err(panic_message(&panic)))
        };

        let failure = match outcome {
            Ok((results, bstats)) => {
                dedup_merged += (miss_reqs.len() - bstats.executed) as u64;
                // Within the batch, duplicates share one execution but
                // need only one insert.
                let mut filled: HashSet<&[u8]> = HashSet::new();
                for (&i, (hits, stats)) in miss_idx.iter().zip(results) {
                    let answer = CachedAnswer {
                        hits,
                        stats: stats.search,
                    };
                    if cache.is_enabled()
                        && answer.hits.len() <= MAX_CACHED_HITS
                        && filled.insert(keys[i].as_slice())
                    {
                        cache.insert(&keys[i], version, answer.clone());
                    }
                    answers[i] = Some(answer);
                }
                None
            }
            Err(message) => Some(message),
        };
        // Cache hits owe nothing to a failed traversal: they are answered
        // normally, only the jobs that needed it get Errors — all staged
        // in admission order, then one write per connection.
        let failure = failure.as_deref().unwrap_or("query was not executed");
        for (job, answer) in batch.iter().zip(&answers) {
            match answer {
                Some(answer) => job.stage_ok(shared, answer),
                None => job.stage_error(shared, failure),
            }
        }
        batch.iter().for_each(|job| job.conn.finish(shared));
    }
    // Inbox closed and fully drained: release waiting shutdown
    // requesters, then stop the acceptor and readers.
    shared.mark_drained();
    shared.stop.store(true, Ordering::Release);
    BatchLoopOut {
        result_cache: cache.stats(),
        dedup_merged,
    }
}

/// Renders a caught panic payload into an error message for the
/// affected batch's Error responses.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    let what = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic");
    format!("query execution panicked: {what}")
}

/// The batcher's write-out against a scripted socket: what reaches the
/// wire, in how many writes, and what the counters say when it fails.
#[cfg(test)]
mod write_out {
    use super::*;
    use crate::protocol::read_frame;
    use nnq_core::SearchStats;

    /// A socket double: accepts at most `chunk` bytes per `write` call
    /// (short writes) and `budget` bytes in total, then fails with
    /// `fail`. Records the bytes accepted and every call's size.
    struct Script {
        wire: Arc<Mutex<Vec<u8>>>,
        calls: Arc<Mutex<Vec<usize>>>,
        chunk: usize,
        budget: usize,
        fail: io::ErrorKind,
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(self.fail.into());
            }
            let n = buf.len().min(self.chunk).min(self.budget);
            self.budget -= n;
            self.wire.lock().unwrap().extend_from_slice(&buf[..n]);
            self.calls.lock().unwrap().push(n);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    type Tap = (Arc<Mutex<Vec<u8>>>, Arc<Mutex<Vec<usize>>>);

    fn scripted(chunk: usize, budget: usize, fail: io::ErrorKind) -> (Arc<Conn>, Tap) {
        let tap: Tap = Default::default();
        let conn = Conn::new(Script {
            wire: Arc::clone(&tap.0),
            calls: Arc::clone(&tap.1),
            chunk,
            budget,
            fail,
        });
        (conn, tap)
    }

    /// An admitted job on `conn` (its in-flight slot claimed, as the
    /// reader does) and an answer of `hits` rows that names `id`.
    fn admitted(conn: &Arc<Conn>, id: u64, hits: usize) -> (Job, CachedAnswer<2>) {
        conn.in_flight.fetch_add(1, Ordering::AcqRel);
        let job = Job {
            id,
            query: BatchQuery::Knn {
                q: Point::new([0.0, 0.0]),
                k: 1,
            },
            conn: Arc::clone(conn),
        };
        let neighbor = Neighbor {
            record: nnq_rtree::RecordId(id),
            dist_sq: id as f64,
            mbr: nnq_geom::Rect::from_point(Point::new([0.0, 0.0])),
        };
        let answer = CachedAnswer {
            hits: vec![neighbor; hits],
            stats: SearchStats {
                nodes_visited: id + 1,
                ..SearchStats::default()
            },
        };
        (job, answer)
    }

    /// Stages `jobs` in order and ends the batch, as `batch_loop` does.
    fn run_batch(shared: &Shared, jobs: &[(Job, CachedAnswer<2>)]) {
        for (job, answer) in jobs {
            job.stage_ok(shared, answer);
        }
        jobs.iter().for_each(|(job, _)| job.conn.finish(shared));
    }

    /// Every whole frame on the wire, decoded; panics on a torn one.
    fn frames_on(tap: &Tap) -> Vec<Response> {
        let wire = tap.0.lock().unwrap();
        let mut rest = wire.as_slice();
        let mut out = Vec::new();
        while !rest.is_empty() {
            let payload = read_frame(&mut rest, usize::MAX).expect("whole frame");
            out.push(Response::decode(&payload).expect("valid response"));
        }
        out
    }

    fn load(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    #[test]
    fn frames_arrive_whole_and_in_staging_order_one_write_per_connection() {
        let shared = Shared::new(&ServeConfig::default());
        // Short writes: 7 bytes at a time never align with a frame.
        let (a, tap_a) = scripted(7, usize::MAX, io::ErrorKind::BrokenPipe);
        let (b, tap_b) = scripted(usize::MAX, usize::MAX, io::ErrorKind::BrokenPipe);
        let jobs: Vec<_> = (0..20u64)
            .map(|id| admitted(if id % 3 == 0 { &b } else { &a }, id, (id % 4) as usize))
            .collect();
        run_batch(&shared, &jobs);

        for (tap, conn) in [(&tap_a, &a), (&tap_b, &b)] {
            let want: Vec<Response> = jobs
                .iter()
                .filter(|(job, _)| Arc::ptr_eq(&job.conn, conn))
                .map(|(job, answer)| Response::Ok {
                    id: job.id,
                    logical_reads: answer.stats.nodes_visited,
                    hits: answer
                        .hits
                        .iter()
                        .map(|n| crate::protocol::Hit {
                            record: n.record.0,
                            dist_sq: n.dist_sq,
                        })
                        .collect(),
                })
                .collect();
            assert_eq!(frames_on(tap), want);
            assert_eq!(conn.in_flight.load(Ordering::Acquire), 0);
        }
        // B's whole share went out in one `write` call; A's one
        // `write_all` needed many short ones, and still counts once.
        assert_eq!(tap_b.1.lock().unwrap().len(), 1);
        assert!(tap_a.1.lock().unwrap().len() > 1);
        assert_eq!(load(&shared.socket_writes), 2);
        assert_eq!(load(&shared.served), 20);
        assert_eq!(load(&shared.write_errors), 0);
    }

    #[test]
    fn early_flush_bounds_the_staging_buffer_and_keeps_order() {
        let shared = Shared::new(&ServeConfig::default());
        let (conn, tap) = scripted(usize::MAX, usize::MAX, io::ErrorKind::BrokenPipe);
        // 1 000 hits ≈ 16 KiB a frame: the fifth crosses 64 KiB.
        let jobs: Vec<_> = (0..12u64).map(|id| admitted(&conn, id, 1_000)).collect();
        let frame = 4 + 21 + 16 * 1_000;
        run_batch(&shared, &jobs);

        let calls = tap.1.lock().unwrap().clone();
        assert_eq!(calls, [5 * frame, 5 * frame, 2 * frame]);
        assert!(calls.iter().all(|&n| n < STAGE_FLUSH_BYTES + frame));
        let ids: Vec<u64> = frames_on(&tap)
            .iter()
            .map(|r| match r {
                Response::Ok { id, hits, .. } if hits.len() == 1_000 => *id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>());
        assert_eq!(load(&shared.socket_writes), 3);
        assert_eq!(load(&shared.served), 12);
        assert_eq!(conn.in_flight.load(Ordering::Acquire), 0);
        // The buffer is kept for the next batch, but not an outsized one.
        assert!(conn.wire.lock().unwrap().staged.capacity() <= 2 * STAGE_FLUSH_BYTES);
    }

    #[test]
    fn a_failed_write_counts_every_unwritten_response_and_kills_the_connection() {
        // A timed-out socket (`WouldBlock`) and a closed one alike.
        for fail in [io::ErrorKind::WouldBlock, io::ErrorKind::BrokenPipe] {
            let shared = Shared::new(&ServeConfig::default());
            let frame = 4 + 21 + 16 * 1_000;
            // The first write (5 frames) fits; the second tears midway.
            let (conn, tap) = scripted(usize::MAX, 7 * frame + 100, fail);
            let (healthy, healthy_tap) = scripted(usize::MAX, usize::MAX, fail);
            let mut jobs: Vec<_> = (0..23u64).map(|id| admitted(&conn, id, 1_000)).collect();
            jobs.insert(9, admitted(&healthy, 99, 3));
            run_batch(&shared, &jobs);

            assert!(conn.dead.load(Ordering::Relaxed), "{fail:?}");
            // Write 1 delivered 5 responses; write 2 failed with 5 staged;
            // flushes 3..5 (5 + 5 + 3 responses) found the connection
            // dead and issued no syscall at all.
            assert_eq!(load(&shared.served), 5 + 1, "{fail:?}");
            assert_eq!(load(&shared.write_errors), 18, "{fail:?}");
            assert_eq!(
                load(&shared.served) + load(&shared.write_errors),
                jobs.len() as u64,
                "{fail:?}: every staged response is served or a write error"
            );
            assert_eq!(load(&shared.socket_writes), 2, "{fail:?}");
            assert_eq!(*tap.1.lock().unwrap(), [5 * frame, 2 * frame + 100]);
            // Slots are released whether or not the bytes left.
            assert_eq!(conn.in_flight.load(Ordering::Acquire), 0);
            // The other connection of the batch is untouched by it.
            assert_eq!(frames_on(&healthy_tap).len(), 1);
            assert!(!healthy.dead.load(Ordering::Relaxed));

            // A reader-thread frame after the failure is refused too:
            // nothing may follow a torn frame.
            assert!(conn.send(&Response::Pong { id: 1 }).is_err());
            assert!(healthy.send(&Response::Pong { id: 1 }).is_ok());
        }
    }

    #[test]
    fn staged_errors_keep_their_place_and_count_as_errors_not_writes() {
        let shared = Shared::new(&ServeConfig::default());
        let (conn, tap) = scripted(usize::MAX, usize::MAX, io::ErrorKind::BrokenPipe);
        let jobs: Vec<_> = (0..3u64).map(|id| admitted(&conn, id, 2)).collect();
        jobs[0].0.stage_ok(&shared, &jobs[0].1);
        jobs[1].0.stage_error(&shared, "boom");
        jobs[2].0.stage_ok(&shared, &jobs[2].1);
        jobs.iter().for_each(|(job, _)| job.conn.finish(&shared));

        let got = frames_on(&tap);
        assert!(matches!(got[0], Response::Ok { id: 0, .. }));
        assert_eq!(
            got[1],
            Response::Error {
                id: 1,
                message: "boom".into()
            }
        );
        assert!(matches!(got[2], Response::Ok { id: 2, .. }));
        assert_eq!(load(&shared.served), 2);
        assert_eq!(load(&shared.errors), 1);
        assert_eq!(load(&shared.socket_writes), 1);
        assert_eq!(conn.in_flight.load(Ordering::Acquire), 0);
    }
}
