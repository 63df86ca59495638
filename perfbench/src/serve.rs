//! `serve_uniform` and `serve_zipf`: `nnq serve` over loopback TCP, driven
//! by two connections with one generator thread each.
//!
//! Both workloads serve the same tree (uniform points, Hilbert bulk load,
//! in memory, pool larger than the tree) with `ServeConfig::default()`.
//! `serve_uniform` sends all-distinct queries, so every request runs a
//! traversal and the result cache only costs; `serve_zipf` draws from a
//! pool of 512 requests, so after warm-up nearly every request is a
//! result-cache hit and only the serving plumbing works.
//!
//! Every phase runs against a server of its own, so `ServeReport` covers
//! exactly that phase (plus a warm-up of known size) and the conservation
//! checks are exact. The tree, its pool and its node cache outlive the
//! servers; a server's result cache does not, which is why each phase
//! first sends a warm-up that fills it.

use crate::common::{self, answer, ok_response, Answer, Items, Opts};
use crate::gen::{self, Zipf};
use crate::metrics::RunResult;
use crate::net::{self, ConnOutcome, ConnPlan, Drive, Stream};
use crate::procfs;
use crate::spans::{self, Recorder, Span, NO_PARENT};
use crate::stats::{percentile_us, Cycles};
use crate::{probes, stats};
use nnq_core::{
    par_mixed_batch_dedup, BatchQuery, CachedAnswer, JoinOrder, MbrRefiner, NnOptions, ResultCache,
};
use nnq_rtree::{BulkMethod, RTree, RTreeConfig};
use nnq_serve::{serve, Client, Engine, Inbox, Request, Response, ServeConfig, ServeReport};
use nnq_storage::{BufferPool, MemDisk, PAGE_SIZE};
use nnq_workloads::{default_bounds, points_to_items, uniform_points};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const N: usize = 200_000;
const POOL_FRAMES: usize = 65_536;
const CONNS: u64 = 2;
/// Outstanding requests per connection in the closed-loop `sat` phase:
/// deep enough that the server always has a full batch queued, within the
/// inbox capacity of 1 024.
const WINDOW: usize = 256;
/// Most requests one connection has outstanding in the gated open-loop
/// phases (r1, r2). Two connections stay below the inbox capacity of 1 024,
/// so a host stall cannot turn into rejections: the backlog waits in the
/// generator and shows as latency from the intended send time. r3 is not
/// capped, its rejections are what it reports.
const OPEN_WINDOW: usize = 448;
/// Requests per connection sent before each phase: fills the server's
/// result cache (capacity 1 024), so the phase starts in its steady state.
const PHASE_WARMUP: u64 = 1_024;
/// Requests sent once, during set-up, to warm the node cache.
const SETUP_WARMUP: usize = 10_000;
/// Requests whose served answers are compared bit for bit with the
/// in-process answers, and whose mean page count is `pages_per_query`.
const VERIFY: usize = 4_096;
/// Of those, how many are also compared with brute force.
const BRUTE: usize = 1_000;
const ZIPF_POOL: usize = 512;
const ZIPF_THETA: f64 = 0.9;
/// Open-loop rates in requests per second: r1 < r2 < r3. r3 is past the
/// knee by design and runs only in the traced run.
const RATES_UNIFORM: [f64; 3] = [6_000.0, 15_000.0, 24_000.0];
const RATES_ZIPF: [f64; 3] = [10_000.0, 40_000.0, 70_000.0];
/// The latency limit `rate_ok_qps` holds p99 to.
const LIMIT_P99_US: f64 = 20_000.0;
/// Requests replayed through the layers with spans on in the traced run.
const REPLAY_TRACED: u64 = 20_000;
/// Client-side spans kept per connection and phase in the traced run.
const CLIENT_SPANS: usize = 2_000;
const BATCH: usize = 32;

/// Stream positions: the verification set starts at 0, phase `p` at
/// `(p + 1) << 32`, and the positions just below a phase's start are its
/// warm-up.
fn phase_base(phase: u64) -> u64 {
    (phase + 1) << 32
}

fn is_warmup(i: u64) -> bool {
    i & (1 << 31) != 0
}

/// All-distinct uniform queries: every request runs a traversal.
struct UniformStream {
    seed: u64,
}

impl net::Stream for UniformStream {
    fn query(&self, i: u64) -> BatchQuery<2> {
        gen::request_rule(i, gen::point_at(self.seed, i))
    }

    /// A kNN answer must hold exactly k hits (n > k always); full answers
    /// are checked on the verification set.
    fn check(&self, i: u64, payload: &[u8]) -> bool {
        match self.query(i) {
            BatchQuery::Knn { k, .. } => hit_count(payload) == Some(k),
            BatchQuery::Radius { .. } => hit_count(payload).is_some(),
        }
    }
}

fn hit_count(ok_payload: &[u8]) -> Option<usize> {
    let n = ok_payload.get(17..21)?;
    Some(u32::from_le_bytes(n.try_into().expect("4 bytes")) as usize)
}

/// A pool of 512 requests drawn Zipf(0.9): after warm-up the server's
/// result cache (1 024 entries) answers nearly all of them.
struct ZipfStream {
    seed: u64,
    zipf: Zipf,
    pool: Vec<BatchQuery<2>>,
    /// The Ok payload each pool request must be answered with, without
    /// opcode and id.
    expected: Vec<Vec<u8>>,
}

impl ZipfStream {
    fn new(seed: u64, tree: &RTree<2>) -> Self {
        let pool: Vec<_> = (0..ZIPF_POOL as u64)
            .map(|r| gen::request_rule(r, gen::point_at(gen::mix(seed, 0xF00D), r)))
            .collect();
        let expected = pool
            .iter()
            .map(|q| ok_response(0, &answer(tree, q)).encode()[9..].to_vec())
            .collect();
        Self {
            seed,
            zipf: Zipf::new(ZIPF_POOL, ZIPF_THETA),
            pool,
            expected,
        }
    }

    /// Warm-up positions walk the pool round-robin, so that it is wholly
    /// cached; all others draw from the Zipf distribution.
    fn rank(&self, i: u64) -> usize {
        if is_warmup(i) {
            (i % ZIPF_POOL as u64) as usize
        } else {
            self.zipf.rank(gen::unit(gen::mix(self.seed, i)))
        }
    }
}

impl net::Stream for ZipfStream {
    fn query(&self, i: u64) -> BatchQuery<2> {
        self.pool[self.rank(i)]
    }

    /// Every answer is compared with the in-process answer, byte for byte.
    fn check(&self, i: u64, payload: &[u8]) -> bool {
        payload.get(9..) == Some(&self.expected[self.rank(i)][..])
    }
}

/// Sends Shutdown when dropped, so that the server thread ends (and the
/// scope that joins it returns) however the phase ends.
struct ShutdownOnDrop(SocketAddr);

impl Drop for ShutdownOnDrop {
    fn drop(&mut self) {
        if let Ok(mut client) = Client::connect(self.0) {
            let _ = client.call(&Request::Shutdown);
        }
    }
}

/// Runs `body` against a fresh server on `tree` and returns its result
/// with the server's report.
fn with_server<T>(tree: &RTree<2>, body: impl FnOnce(SocketAddr) -> T) -> (T, ServeReport) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind a loopback port");
    let addr = listener.local_addr().expect("listener address");
    std::thread::scope(|scope| {
        let server = scope.spawn(move || {
            serve(
                &Engine::Single(tree),
                &MbrRefiner,
                listener,
                &ServeConfig::default(),
            )
        });
        let out = {
            let _stop = ShutdownOnDrop(addr);
            body(addr)
        };
        let report = server.join().expect("server thread").expect("serve()");
        (out, report)
    })
}

struct PhaseOut {
    client: ConnOutcome,
    report: ServeReport,
    /// Process CPU during the phase minus the generators' own.
    server_cpu_us: f64,
    spans: Vec<Vec<Span>>,
}

impl PhaseOut {
    /// Accepted answers per second of phase.
    fn qps(&self) -> f64 {
        self.client.ok as f64 / self.client.elapsed.as_secs_f64()
    }
}

/// One phase: a fresh server, `CONNS` generators released together after
/// their warm-up, then shutdown. `rate` = None drives closed loop, else it
/// is the offered rate and the most requests outstanding per connection.
fn run_phase(
    tree: &RTree<2>,
    stream: &dyn Stream,
    opts: &Opts,
    phase: u64,
    length: Duration,
    rate: Option<(f64, usize)>,
    trace: Option<Instant>,
) -> PhaseOut {
    let start = Barrier::new(CONNS as usize + 1);
    let ((outcomes, server_cpu_us), report) = with_server(tree, |addr| {
        std::thread::scope(|scope| {
            let gens: Vec<_> = (0..CONNS)
                .map(|conn| {
                    let drive = match rate {
                        None => Drive::Closed {
                            window: WINDOW,
                            duration: length,
                        },
                        Some((r, max_outstanding)) => Drive::Open {
                            max_outstanding,
                            schedule: gen::poisson_schedule(
                                r / CONNS as f64,
                                length.as_nanos() as u64,
                                opts.sub_seed(0x5C4E_D000 + phase * CONNS + conn),
                            ),
                        },
                    };
                    let plan = ConnPlan {
                        addr,
                        stream,
                        base: phase_base(phase),
                        conn,
                        conns: CONNS,
                        warmup: PHASE_WARMUP,
                        drive,
                        start: &start,
                        trace: trace.map(|epoch| (epoch, CLIENT_SPANS)),
                    };
                    scope.spawn(move || net::run_conn(plan))
                })
                .collect();
            start.wait();
            let cpu0 = procfs::process_cpu_us();
            let outcomes: Vec<ConnOutcome> = gens
                .into_iter()
                .map(|g| g.join().expect("generator thread").expect("generator I/O"))
                .collect();
            let cpu = procfs::process_cpu_us() - cpu0;
            let gen_cpu: f64 = outcomes.iter().map(|o| o.cpu_us).sum();
            (outcomes, cpu - gen_cpu)
        })
    });
    let mut client = ConnOutcome::default();
    let mut spans = Vec::new();
    for mut o in outcomes {
        spans.push(std::mem::take(&mut o.spans));
        client.absorb(o);
    }
    PhaseOut {
        client,
        report,
        server_cpu_us,
        spans,
    }
}

/// What the client saw must be what the server counted.
fn check_conservation(res: &mut RunResult, name: &str, p: &PhaseOut) {
    let c = &p.client;
    let warm = CONNS * PHASE_WARMUP;
    res.check(
        c.sent == c.ok + c.rejected + c.errors + c.wrong + c.unanswered,
        || {
            format!(
                "{name}: sent {} != answers {}+{}+{}+{}+{}",
                c.sent, c.ok, c.rejected, c.errors, c.wrong, c.unanswered
            )
        },
    );
    res.check(c.wrong == 0 && c.errors == 0 && c.unanswered == 0, || {
        format!(
            "{name}: {} wrong, {} error, {} unanswered responses",
            c.wrong, c.errors, c.unanswered
        )
    });
    let r = &p.report;
    res.check(
        r.served == c.ok + c.wrong + warm && r.rejected == c.rejected,
        || {
            format!(
                "{name}: server served {} rejected {}, clients saw {}+{warm} and {}",
                r.served,
                r.rejected,
                c.ok + c.wrong,
                c.rejected
            )
        },
    );
    res.check(r.errors == 0 && r.write_errors == 0, || {
        format!(
            "{name}: server counted {} errors, {} write errors",
            r.errors, r.write_errors
        )
    });
}

/// Serves the verification set and requires every answer to equal the
/// in-process answer bit for bit, and the first `BRUTE` to equal brute
/// force. Returns the mean page count.
fn verify(res: &mut RunResult, tree: &RTree<2>, items: &Items, seed: u64, count: usize) -> f64 {
    let stream = UniformStream { seed };
    let queries: Vec<_> = (0..count as u64).map(|i| stream.query(i)).collect();
    let expected: Vec<Answer> = queries.iter().map(|q| answer(tree, q)).collect();
    let (served, report) = with_server(tree, |addr| -> std::io::Result<Vec<Response>> {
        let mut client = Client::connect(addr)?;
        let mut got = Vec::with_capacity(count);
        let mut sent = 0;
        while got.len() < count {
            while sent < count && sent - got.len() < 32 {
                client.send(&gen::wire_request(sent as u64, &queries[sent]))?;
                sent += 1;
            }
            got.push(client.recv()?);
        }
        Ok(got)
    });
    let served = served.expect("verification I/O");
    let mismatched = served
        .iter()
        .zip(&expected)
        .enumerate()
        .filter(|(i, (got, want))| **got != ok_response(*i as u64, want))
        .count();
    res.check(mismatched == 0, || {
        format!("{mismatched} of {count} served answers differ from the in-process answers")
    });
    res.check(report.served == count as u64 && report.errors == 0, || {
        format!("verification: server served {} of {count}", report.served)
    });
    let brute = BRUTE.min(count);
    let brute_bad = common::brute_force(items, &queries[..brute])
        .iter()
        .zip(&expected)
        .filter(|(want, got)| common::dist_bits(&got.0) != **want)
        .count();
    res.check(brute_bad == 0, || {
        format!("{brute_bad} answers differ from brute force")
    });
    res.attempted += count as u64;
    res.failed += (mismatched + brute_bad) as u64;
    expected
        .iter()
        .map(|a| a.1.nodes_visited as f64)
        .sum::<f64>()
        / count as f64
}

/// The layers in the order the server composes them, called in-process on
/// one thread for batches of 32 requests: decode, admit and drain, pin a
/// snapshot, probe the result cache, execute the misses, fill, encode.
/// Returns requests per second of that pipeline; with a recorder, also a
/// span per call.
struct Replay<'a> {
    tree: &'a RTree<2>,
    stream: &'a dyn Stream,
    config: ServeConfig,
    cache: ResultCache<2>,
    inbox: Inbox<(u64, BatchQuery<2>)>,
    wire: Vec<u8>,
}

impl<'a> Replay<'a> {
    /// A replay whose result cache has seen the warm-up positions below
    /// `first`, like a phase's server.
    fn new(tree: &'a RTree<2>, stream: &'a dyn Stream, first: u64) -> Self {
        let config = ServeConfig::default();
        let mut replay = Self {
            tree,
            stream,
            cache: ResultCache::new(config.result_cache),
            inbox: Inbox::new(config.inbox_cap),
            config,
            wire: Vec::new(),
        };
        let warm = CONNS * PHASE_WARMUP;
        for b in 0..warm / BATCH as u64 {
            replay.batch(first - warm + b * BATCH as u64, None);
        }
        replay
    }

    /// Replays stream positions `first..first + BATCH`. Returns the busy
    /// time in nanoseconds.
    fn batch(&mut self, first: u64, mut rec: Option<&mut Recorder>) -> u64 {
        let frames: Vec<Vec<u8>> = (first..first + BATCH as u64)
            .map(|i| self.stream.request(i))
            .collect();
        let start = Instant::now();
        let root = rec
            .as_deref_mut()
            .map(|r| r.open(NO_PARENT, "replay.batch", first));
        macro_rules! span {
            ($name:expr, $req:expr, $body:expr) => {
                match rec.as_deref_mut() {
                    Some(r) => r.time(root.expect("root span"), $name, $req, || $body),
                    None => $body,
                }
            };
        }
        for (frame, i) in frames.iter().zip(first..) {
            let req = span!(
                "serve.protocol.decode",
                i,
                Request::decode(frame).expect("own frame")
            );
            req.validate().expect("own request is valid");
            let query = match req {
                Request::Knn { x, y, k, .. } => BatchQuery::Knn {
                    q: nnq_geom::Point::new([x, y]),
                    k: k as usize,
                },
                Request::Radius { x, y, radius, .. } => BatchQuery::Radius {
                    q: nnq_geom::Point::new([x, y]),
                    radius,
                },
                other => unreachable!("{other:?} in a query stream"),
            };
            span!("serve.inbox.admit", i, self.inbox.try_admit((i, query)));
        }
        let jobs = span!(
            "serve.inbox.drain",
            first,
            self.inbox
                .drain_batch(self.config.batch_max, self.config.batch_deadline)
                .expect("open inbox")
        );
        let snap = span!("rtree.tree.snapshot", first, self.tree.snapshot());
        let version = snap.version();
        let mut answers: Vec<Option<CachedAnswer<2>>> = Vec::with_capacity(jobs.len());
        let mut keys = Vec::with_capacity(jobs.len());
        let mut miss_idx = Vec::new();
        for (slot, (i, query)) in jobs.iter().enumerate() {
            let found = span!("core.result_cache.probe", *i, {
                let key = query.canonical_key();
                let found = self.cache.lookup(&key, version);
                keys.push(key);
                found
            });
            if found.is_none() {
                miss_idx.push(slot);
            }
            answers.push(found);
        }
        let misses: Vec<BatchQuery<2>> = miss_idx.iter().map(|&s| jobs[s].1).collect();
        if !misses.is_empty() {
            let (results, _) = span!(
                "core.parallel.batch",
                first,
                par_mixed_batch_dedup(
                    &snap,
                    &misses,
                    NnOptions::default(),
                    &MbrRefiner,
                    self.config.threads,
                    JoinOrder::Hilbert,
                    None,
                )
                .expect("batch execution")
            );
            for (&slot, (hits, stats)) in miss_idx.iter().zip(results) {
                let fresh = CachedAnswer { hits, stats };
                span!(
                    "core.result_cache.fill",
                    jobs[slot].0,
                    self.cache.insert(&keys[slot], version, fresh.clone())
                );
                answers[slot] = Some(fresh);
            }
        }
        for ((i, _), found) in jobs.iter().zip(&answers) {
            let a = found.as_ref().expect("every job answered");
            span!("serve.protocol.encode", *i, {
                ok_response(*i, &(a.hits.clone(), a.stats)).encode_into(&mut self.wire)
            });
        }
        let busy = start.elapsed().as_nanos() as u64;
        if let (Some(r), Some(root)) = (rec, root) {
            r.close(root);
        }
        busy
    }

    /// Replays from `first` for `length`; requests per busy second.
    fn run(&mut self, first: u64, length: Duration) -> (f64, u64) {
        let start = Instant::now();
        let (mut busy, mut done) = (0u64, 0u64);
        while start.elapsed() < length {
            busy += self.batch(first + done, None);
            done += BATCH as u64;
        }
        (done as f64 / (busy as f64 / 1e9), done)
    }
}

/// Median over replayed requests of the time the layers spent on one
/// request: its own spans plus an equal share of its batch's spans.
fn replay_self_us(spans: &[Span]) -> f64 {
    let self_ns = spans::self_times(spans);
    let mut per_batch: std::collections::HashMap<u32, (u64, u64)> = Default::default();
    let mut own: std::collections::HashMap<u64, (u32, u64)> = Default::default();
    for (s, &t) in spans.iter().zip(&self_ns) {
        match s.name {
            "replay.batch" => per_batch.entry(s.id).or_default().0 += t,
            "serve.inbox.drain" | "rtree.tree.snapshot" | "core.parallel.batch" => {
                per_batch.entry(s.parent).or_default().0 += t
            }
            _ => {
                let e = own.entry(s.req).or_insert((s.parent, 0));
                e.1 += t;
            }
        }
    }
    for (batch, _) in own.values() {
        per_batch.entry(*batch).or_default().1 += 1;
    }
    let totals: Vec<f64> = own
        .values()
        .map(|(batch, t)| {
            let (shared, members) = per_batch[batch];
            (*t as f64 + shared as f64 / members.max(1) as f64) / 1_000.0
        })
        .collect();
    stats::median(&totals)
}

pub fn run(opts: &Opts, zipf: bool) -> RunResult {
    let mut res = RunResult::default();
    let n = opts.scaled(N);
    let cycles = opts.cycles();
    let rates = if zipf { RATES_ZIPF } else { RATES_UNIFORM };
    let stream_seed = opts.sub_seed(2);

    // Set-up, several times over: generate, build, start a server, warm
    // the node cache with a fixed count of requests.
    let warm_stream = UniformStream {
        seed: opts.sub_seed(3),
    };
    let mut load_s = Vec::new();
    let ((tree, items), setup_s) = common::timed_setups(|| {
        let items = points_to_items(&uniform_points(n, &default_bounds(), opts.sub_seed(1)));
        let pool = Arc::new(BufferPool::new(
            Box::new(MemDisk::new(PAGE_SIZE)),
            POOL_FRAMES,
        ));
        let start = Instant::now();
        let tree = RTree::<2>::bulk_load(
            pool,
            RTreeConfig::default(),
            items.clone(),
            BulkMethod::Hilbert,
            1.0,
        )
        .expect("bulk load");
        load_s.push(start.elapsed().as_secs_f64());
        with_server(&tree, |addr| {
            net::warm_up(addr, &warm_stream, 0, opts.scaled(SETUP_WARMUP), 1)
                .expect("set-up warm-up")
        });
        (tree, items)
    });
    res.cycles("setup_s", Cycles(setup_s));

    let stream: Box<dyn Stream> = if zipf {
        Box::new(ZipfStream::new(stream_seed, &tree))
    } else {
        Box::new(UniformStream { seed: stream_seed })
    };
    let stream = &*stream;
    let pages = verify(&mut res, &tree, &items, stream_seed, opts.scaled(VERIFY));
    res.set("pages_per_query", pages);

    let epoch = Instant::now();
    let tracing = opts.trace.then_some(epoch);
    let length = opts.phase(3.4);
    let mut phase_no = 1u64;
    let mut next_phase = || {
        phase_no += 1;
        phase_no
    };

    let mut qps_sat = Cycles::default();
    let mut qps_sat_traced = Cycles::default();
    let mut alt = Cycles::default();
    let mut cpu = Cycles::default();
    let (mut r1_p50, mut r1_p99, mut r1_p999) = <(Cycles, Cycles, Cycles)>::default();
    let (mut r2_p50, mut r2_p90, mut r2_p99) = <(Cycles, Cycles, Cycles)>::default();
    let mut r3_p50 = Cycles::default();
    let mut late = Cycles::default();
    let mut fail_share = Cycles::default();
    let mut ref_mops = Cycles::default();
    let (mut batch_sat, mut batch_r2) = <(Cycles, Cycles)>::default();
    let mut rate_ok = [0usize; 3];
    let mut r3_reject = Cycles::default();
    let (mut cache_hits, mut cache_probes, mut cache_evictions, mut dedup_merged) = (0, 0, 0, 0);
    let mut served = 0u64;
    let mut all_spans: Vec<Vec<Span>> = Vec::new();
    let node_cache0 = tree.store().cache_stats();
    let pool0 = tree.pool().stats();

    for _ in 0..cycles {
        ref_mops.push(common::ref_mops());
        let mut gated: Vec<(String, PhaseOut)> = Vec::new();
        // The traced run repeats `sat` in short untraced/traced pairs: their
        // difference is the overhead of recording.
        let (sat_reps, sat_length) = if opts.trace && !opts.smoke {
            (3, length / 2)
        } else {
            (1, length)
        };
        for _ in 0..sat_reps {
            let sat = run_phase(&tree, stream, opts, next_phase(), sat_length, None, None);
            qps_sat.push(sat.qps());
            batch_sat.push(sat.report.avg_batch());
            gated.push(("sat".into(), sat));
            if opts.trace {
                let sat = run_phase(&tree, stream, opts, next_phase(), sat_length, None, tracing);
                qps_sat_traced.push(sat.qps());
                check_conservation(&mut res, "sat (traced)", &sat);
                all_spans.extend(sat.spans);
            }
        }
        for (r, &rate) in rates.iter().enumerate() {
            if r == 2 && !opts.trace {
                break;
            }
            let mut p = run_phase(
                &tree,
                stream,
                opts,
                next_phase(),
                length,
                Some((rate, if r == 2 { usize::MAX } else { OPEN_WINDOW })),
                tracing,
            );
            let achieved = p.client.ok as f64 / length.as_secs_f64();
            let p99 = percentile_us(&mut p.client.lat_ns, 0.99);
            if p99 <= LIMIT_P99_US
                && p.client.failed() == 0
                && achieved >= 0.98 * p.client.sent as f64 / length.as_secs_f64()
            {
                rate_ok[r] += 1;
            }
            late.push(percentile_us(&mut p.client.late_ns, 0.99));
            all_spans.extend(std::mem::take(&mut p.spans));
            let l = &mut p.client.lat_ns;
            match r {
                0 => {
                    r1_p50.push(percentile_us(l, 0.50));
                    r1_p99.push(p99);
                    r1_p999.push(percentile_us(l, 0.999));
                }
                1 => {
                    r2_p50.push(percentile_us(l, 0.50));
                    r2_p90.push(percentile_us(l, 0.90));
                    r2_p99.push(p99);
                    cpu.push(p.server_cpu_us / p.client.ok.max(1) as f64);
                    batch_r2.push(p.report.avg_batch());
                }
                _ => {
                    r3_p50.push(percentile_us(l, 0.50));
                    r3_reject.push(p.client.rejected as f64 / p.client.sent.max(1) as f64);
                    check_conservation(&mut res, "r3", &p);
                    continue;
                }
            }
            gated.push((format!("r{} ({rate} qps offered)", r + 1), p));
        }
        let (mut sent, mut failed) = (0, 0);
        for (name, p) in &gated {
            check_conservation(&mut res, name, p);
            sent += p.client.sent;
            failed += p.client.failed();
            // The phase's own probes: the warm-up's are known exactly
            // (on the pool stream its first pass misses, the rest hit;
            // on the distinct stream all miss) and are taken out.
            let warm = CONNS * PHASE_WARMUP;
            let warm_hits = if zipf { warm - ZIPF_POOL as u64 } else { 0 };
            cache_hits += p.report.result_hits - warm_hits;
            cache_probes +=
                p.report.result_hits + p.report.result_misses + p.report.result_stale - warm;
            cache_evictions += p.report.result_evictions;
            dedup_merged += p.report.dedup_merged;
            served += p.report.served;
        }
        fail_share.push(failed as f64 / sent.max(1) as f64);
        res.attempted += sent;
        res.failed += failed;

        let first = phase_base(next_phase());
        let (qps, done) = Replay::new(&tree, stream, first).run(first, length.mul_f64(0.4));
        alt.push(qps);
        res.attempted += done;
    }

    let probes = cache_probes.max(1) as f64;
    let hit_rate = cache_hits as f64 / probes;
    res.notes.push(format!(
        "n={n}, tree {} pages, {cycles} cycles of {:.2} s phases, rates {:?}; result-cache hit rate {:.4}, avg batch sat {:.1} / r2 {:.1}, generator lateness p99 {:.0} us, host reference loop {:.0} Mop/s",
        tree.pool().live_pages(),
        length.as_secs_f64(),
        rates,
        hit_rate,
        batch_sat.median(),
        batch_r2.median(),
        late.median(),
        ref_mops.median(),
    ));
    let lat_r1_p50 = r1_p50.median();
    res.cycles("qps_sat", qps_sat.clone());
    res.cycles("alt_ops_s", alt);
    res.cycles("cpu_us_per_req", cpu);
    res.cycles("lat_a_p50_us", r1_p50);
    res.cycles("lat_a_tail_us", r1_p99);
    res.cycles("lat_b_p50_us", r2_p50);
    res.cycles("lat_b_tail_us", r2_p90);
    res.set("peak_rss_mib", procfs::peak_rss_mib());
    if !opts.trace {
        return res;
    }

    // Per-layer numbers: counts at the boundaries of the phases above,
    // then the layered replay, then unit-cost probes.
    let node_cache = tree.store().cache_stats();
    let pool = tree.pool().stats();
    let node_reads =
        (node_cache.hits + node_cache.misses) - (node_cache0.hits + node_cache0.misses);
    res.set(
        "rtree.store.node_cache_hit_rate",
        (node_cache.hits - node_cache0.hits) as f64 / node_reads.max(1) as f64,
    );
    let reads = pool.logical_reads - pool0.logical_reads;
    res.set(
        "storage.pool.hit_rate",
        (pool.hits - pool0.hits) as f64 / reads.max(1) as f64,
    );
    res.set(
        "storage.pool.phys_reads_per_query",
        (pool.physical_reads - pool0.physical_reads) as f64 / served.max(1) as f64,
    );
    res.set(
        "storage.pool.evictions_per_query",
        (pool.evictions - pool0.evictions) as f64 / served.max(1) as f64,
    );
    res.set("core.result_cache.hit_rate", hit_rate);
    res.set(
        "core.result_cache.evictions_per_req",
        cache_evictions as f64 / probes,
    );
    res.set("serve.server.dedup_share", dedup_merged as f64 / probes);
    res.cycles("serve.server.avg_batch_sat", batch_sat);
    res.cycles("serve.server.avg_batch_r2", batch_r2);
    res.cycles("serve.server.lat_r2_p99_us", r2_p99);
    res.cycles("serve.server.lat_r1_p999_us", r1_p999);
    res.cycles("serve.server.r3_p50_us", r3_p50);
    res.cycles("serve.server.r3_reject_share", r3_reject);
    let need = (2 * cycles).div_ceil(3);
    let ok_rate = (0..3)
        .rev()
        .find(|&r| rate_ok[r] >= need)
        .map_or(0.0, |r| rates[r]);
    res.set("serve.server.rate_ok_qps", ok_rate);
    res.cycles("fail_share", fail_share);
    res.cycles("gen.late_p99_us", late);
    res.cycles("host.ref_mops", ref_mops);
    res.set(
        "trace.overhead_share",
        (qps_sat.median() - qps_sat_traced.median()) / qps_sat.median(),
    );
    res.set("rtree.bulk.load_s", stats::median(&load_s));

    let mut rec = Recorder::new(epoch, 8 * opts.scaled(REPLAY_TRACED as usize));
    let first = phase_base(next_phase());
    let mut replay = Replay::new(&tree, stream, first);
    let mut batch_ns = Vec::new();
    for b in 0..opts.scaled(REPLAY_TRACED as usize) as u64 / BATCH as u64 {
        replay.batch(first + b * BATCH as u64, Some(&mut rec));
    }
    for s in rec.spans.iter().filter(|s| s.name == "core.parallel.batch") {
        batch_ns.push(s.end_ns - s.start_ns);
    }
    let replay_us = replay_self_us(&rec.spans);
    res.set("serve.server.replay_self_us", replay_us);
    res.set(
        "core.parallel.batch32_us",
        percentile_us(&mut batch_ns, 0.5),
    );

    let ping_us = with_server(&tree, |addr| {
        let mut client = Client::connect(addr).expect("connect for ping");
        let mut rtt: Vec<u64> = (0..opts.scaled(5_000) as u64)
            .map(|id| {
                let start = Instant::now();
                let pong = client.call(&Request::Ping { id }).expect("ping");
                assert_eq!(pong, Response::Pong { id });
                start.elapsed().as_nanos() as u64
            })
            .collect();
        percentile_us(&mut rtt, 0.5)
    })
    .0;
    res.set("serve.server.ping_rtt_us", ping_us);
    // What is left of the r1 median after the idle round trip and the
    // layers' own work: queue wait, the batch deadline, thread hand-off
    // and the serial write-out.
    let unattributed = lat_r1_p50 - ping_us - replay_us;
    res.set("serve.server.unattributed_us", unattributed);
    res.check(unattributed >= 0.0, || {
        format!("unattributed {unattributed:.1} us < 0: r1 p50 {lat_r1_p50:.1}, ping {ping_us:.1}, replay {replay_us:.1}")
    });

    // A sequential pass over the same requests gives the traversal's own
    // cost and counts; its spans hang under one root of their own.
    let snap = tree.snapshot();
    let root = rec.open(NO_PARENT, "sequential.pass", first);
    let mut totals = nnq_core::SearchStats::default();
    let replayed = opts.scaled(REPLAY_TRACED as usize) as u64;
    for i in first..first + replayed {
        let query = stream.query(i);
        let name = match query {
            BatchQuery::Knn { .. } => "core.branch_bound.query",
            BatchQuery::Radius { .. } => "core.radius.query",
        };
        let (_, stats) = rec.time(root, name, i, || answer(&snap, &query));
        totals.accumulate(&stats);
    }
    rec.close(root);
    drop(snap);
    let queries = replayed as f64;
    for (metric, name) in [
        (
            "core.branch_bound.knn_us_per_query",
            "core.branch_bound.query",
        ),
        ("core.radius.us_per_query", "core.radius.query"),
    ] {
        let of_kind = rec.spans[root as usize..].iter().filter(|s| s.name == name);
        let (ns, n) = of_kind.fold((0, 0), |(ns, n), s| (ns + s.end_ns - s.start_ns, n + 1));
        res.set(metric, ns as f64 / f64::from(n.max(1)) / 1e3);
    }
    res.set(
        "core.branch_bound.nodes_per_query",
        totals.nodes_visited as f64 / queries,
    );
    res.set(
        "core.branch_bound.pruned_share",
        totals.pruned_total() as f64 / (totals.pruned_total() + totals.nodes_visited).max(1) as f64,
    );
    res.set(
        "geom.kernels.entries_per_query",
        totals.dist_computations as f64 / queries,
    );

    probes::tree_layers(&mut res, &tree, opts);
    probes::serve_layers(
        &mut res,
        &tree,
        (first..first + 1_024).map(|i| stream.query(i)).collect(),
    );

    all_spans.push(rec.spans);
    let merged = spans::merge(all_spans);
    res.notes.push(probes::write_trace(
        if zipf { "serve_zipf" } else { "serve_uniform" },
        &merged,
    ));
    res
}
