//! The three server workloads: seeded command pools, the closed-loop
//! client, set-up, recovery, the per-layer probes and the reply gate.
//!
//! Each connection is its own tenant with its own sessions, so its reply
//! stream is a function of its own commands whatever the interleaving; the
//! gate replays those commands on a [`ReferenceService`] and demands every
//! reply line byte for byte (apart from the server-wide `seq`).

use crate::layers::{TimedService, TimedStorage};
use crate::metrics::{cpu_s, peak_rss_mb, process_cpu_s, reset_peak_rss, steal_ticks, Pass};
use crate::trace::{self, Name, Span, Tracer};
use crate::{Scale, SETUP_GAP, SETUP_REPS};
use mcf0_hashing::Xoshiro256StarStar;
use mcf0_service::net::proto::{decode_request, encode_line};
use mcf0_service::{
    serve, set_algebra_estimates, ApplyService, CommandReply, DurableConfig, DurableSketchService,
    FsStorage, ReferenceService, Request, Response, ServerConfig, ServerHandle, ServiceCommand,
    SessionSketch, SessionSpec, SketchKind, SketchService, TenantDirectory, TenantQuota, WireError,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard worker threads of the service under test.
pub const SHARDS: usize = 2;
/// Client connections (one tenant each): no more client threads than the
/// two cores of the machine the bounds were set on.
pub const CONNS: usize = 2;
/// The timed phase is cut into windows of this many seconds. Windows in
/// which the host stole more than [`STEAL_TICKS_MAX`] are left out of the
/// throughput and latency figures (on a shared two-core VM, steal comes in
/// bursts that would otherwise swamp the program's own changes); if fewer
/// than a quarter of the windows are that clean, the least-stolen quarter
/// is used.
pub const WINDOW_S: f64 = 0.5;
/// Steal allowed in a kept window, in `/proc/stat` ticks summed over CPUs
/// (5 ticks = 50 ms, 5% of two CPUs for half a second).
pub const STEAL_TICKS_MAX: u64 = 5;

/// One pre-encoded request of a connection's cyclic pool.
pub struct Entry {
    /// The unscoped command (for `Advance`, epoch 0: the real epoch is set
    /// when it is sent, see [`Conn::command`]).
    pub cmd: ServiceCommand,
    /// The request line, newline included (empty for `Advance`).
    pub line: Vec<u8>,
    /// Whether the command mutates state.
    pub write: bool,
    /// Items carried.
    pub items: u64,
}

/// One client connection: its tenant, set-up commands, the request pool it
/// cycles through while timed, and the reads that close the run.
pub struct Conn {
    /// Connection index (tenant `c<index>`).
    pub index: usize,
    /// Tenant id.
    pub tenant: String,
    /// Auth token.
    pub token: String,
    /// `Create` commands sent during set-up.
    pub setup: Vec<ServiceCommand>,
    /// The timed request pool, sent cyclically.
    pub pool: Vec<Entry>,
    /// Advances in one pass of the pool.
    advances: u64,
    /// For each pool entry, the advances up to and including it.
    advance_rank: Vec<u64>,
    /// Queries sent after the timed phase, untimed.
    pub finals: Vec<ServiceCommand>,
    /// Sessions whose final `Estimate` must lie within (1+ε) of the exact
    /// distinct count.
    pub f0_sessions: Vec<String>,
}

impl Conn {
    fn new(index: usize, setup: Vec<ServiceCommand>, cmds: Vec<ServiceCommand>) -> Self {
        let tenant = format!("c{index}");
        let token = format!("token-{tenant}");
        let mut rank = 0;
        let mut advance_rank = Vec::with_capacity(cmds.len());
        let pool = cmds
            .into_iter()
            .enumerate()
            .map(|(id, cmd)| {
                let line = match cmd {
                    ServiceCommand::Advance { .. } => {
                        rank += 1;
                        Vec::new()
                    }
                    _ => request_line(id as u64, &token, &cmd),
                };
                advance_rank.push(rank);
                let items = match &cmd {
                    ServiceCommand::Ingest { items, .. } => items.len() as u64,
                    _ => 0,
                };
                Entry {
                    write: cmd.mutates(),
                    cmd,
                    line,
                    items,
                }
            })
            .collect();
        Conn {
            index,
            tenant,
            token,
            setup,
            pool,
            advances: rank,
            advance_rank,
            finals: Vec::new(),
            f0_sessions: Vec::new(),
        }
    }

    /// The wire id and command of the k-th timed request. Advances carry
    /// strictly increasing epochs across pool cycles.
    pub fn command(&self, k: u64) -> (u64, ServiceCommand) {
        let idx = (k % self.pool.len() as u64) as usize;
        let cmd = match &self.pool[idx].cmd {
            ServiceCommand::Advance { name, .. } => ServiceCommand::Advance {
                name: name.clone(),
                epoch: (k / self.pool.len() as u64) * self.advances + self.advance_rank[idx],
            },
            other => other.clone(),
        };
        (idx as u64, cmd)
    }
}

/// One request line, newline included.
pub fn request_line(id: u64, token: &str, command: &ServiceCommand) -> Vec<u8> {
    encode_line(&Request {
        id,
        token: token.to_string(),
        command: command.clone(),
    })
    .into_bytes()
}

/// A server workload's generated inputs.
pub struct WireSpec {
    /// Front a `DurableSketchService` (default config: fsync before every
    /// ack) instead of an in-memory `SketchService`.
    pub durable: bool,
    /// Requests each connection keeps in flight.
    pub window: usize,
    /// The connections.
    pub conns: Vec<Conn>,
}

fn conn_rng(seed: u64, conn: usize) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (conn as u64 + 1))
}

/// A planted stream of `len` items below 2^32 whose distinct count is
/// `len / 4`, shuffled.
fn planted(rng: &mut Xoshiro256StarStar, len: usize) -> Vec<u64> {
    let distinct = (len / 4).max(1);
    let mut seen = HashSet::with_capacity(distinct);
    let mut values = Vec::with_capacity(distinct);
    while values.len() < distinct {
        let v = rng.gen_range(1 << 32);
        if seen.insert(v) {
            values.push(v);
        }
    }
    let mut stream: Vec<u64> = (0..len).map(|i| values[i % distinct]).collect();
    rng.shuffle(&mut stream);
    stream
}

/// `ingest_bulk` / `ingest_small`: each connection owns one Minimum w=32
/// session (Thresh 150, 9 rows) and pipelines `batch`-item `Ingest`s,
/// `window` in flight, over a planted stream.
pub fn ingest_spec(seed: u64, batch: usize, window: usize, pool_items: usize) -> WireSpec {
    let conns = (0..CONNS)
        .map(|c| {
            let mut rng = conn_rng(seed, c);
            let spec = SessionSpec::new(SketchKind::Minimum, 32, 150, 9, rng.next_u64());
            let setup = vec![ServiceCommand::Create {
                name: "s".into(),
                spec,
            }];
            let cmds = planted(&mut rng, pool_items)
                .chunks(batch)
                .map(|items| ServiceCommand::Ingest {
                    name: "s".into(),
                    items: items.to_vec(),
                })
                .collect();
            let mut conn = Conn::new(c, setup, cmds);
            conn.finals = vec![ServiceCommand::Estimate { name: "s".into() }];
            conn.f0_sessions = vec!["s".into()];
            conn
        })
        .collect();
    WireSpec {
        durable: false,
        window,
        conns,
    }
}

/// `query_mix`: each connection owns Minimum twins `a`/`b` (overlapping
/// item ranges, same draw), a Bucketing session `k` and a windowed Minimum
/// `w` (K=4), and runs strict request/response over ~9 writes (64-item
/// `Ingest`, occasional `Advance`) to 1 read (`Estimate`, `EstimateWindow`,
/// `JaccardEstimate`).
pub fn query_mix_spec(seed: u64, pool_len: usize) -> WireSpec {
    const BATCH: usize = 64;
    let conns = (0..CONNS)
        .map(|c| {
            let mut rng = conn_rng(seed, c);
            let twin = SessionSpec::new(SketchKind::Minimum, 32, 150, 9, rng.next_u64());
            let bucketing = SessionSpec::new(SketchKind::Bucketing, 32, 150, 9, rng.next_u64());
            let windowed =
                SessionSpec::new(SketchKind::Minimum, 32, 150, 9, rng.next_u64()).with_window(4);
            let create = |name: &str, spec| ServiceCommand::Create {
                name: name.into(),
                spec,
            };
            let setup = vec![
                create("a", twin),
                create("b", twin),
                create("k", bucketing),
                create("w", windowed),
            ];
            // Item ranges: the twins overlap by half, so Jaccard ≈ 1/3.
            let ranges = [
                ("a", 0, 400_000),
                ("b", 200_000, 600_000),
                ("k", 0, 1 << 32),
            ];
            let cmds = (0..pool_len)
                .map(|_| {
                    if rng.gen_range(10) == 0 {
                        match rng.gen_range(5) {
                            0 => ServiceCommand::Estimate { name: "a".into() },
                            1 => ServiceCommand::Estimate { name: "b".into() },
                            2 => ServiceCommand::Estimate { name: "k".into() },
                            3 => ServiceCommand::EstimateWindow { name: "w".into() },
                            _ => ServiceCommand::JaccardEstimate {
                                a: "a".into(),
                                b: "b".into(),
                            },
                        }
                    } else if rng.gen_range(16) == 0 {
                        ServiceCommand::Advance {
                            name: "w".into(),
                            epoch: 0,
                        }
                    } else {
                        let target = rng.gen_range(4) as usize;
                        let (name, lo, hi) = if target < 3 {
                            ranges[target]
                        } else {
                            ("w", 0, 1 << 32)
                        };
                        ServiceCommand::Ingest {
                            name: name.into(),
                            items: (0..BATCH).map(|_| lo + rng.gen_range(hi - lo)).collect(),
                        }
                    }
                })
                .collect();
            let mut conn = Conn::new(c, setup, cmds);
            conn.finals = vec![
                ServiceCommand::Estimate { name: "a".into() },
                ServiceCommand::Estimate { name: "b".into() },
                ServiceCommand::Estimate { name: "k".into() },
                ServiceCommand::EstimateWindow { name: "w".into() },
                ServiceCommand::JaccardEstimate {
                    a: "a".into(),
                    b: "b".into(),
                },
            ];
            conn.f0_sessions = vec!["a".into(), "b".into(), "k".into()];
            conn
        })
        .collect();
    WireSpec {
        durable: true,
        window: 1,
        conns,
    }
}

/// The workload's inputs at the given scale.
pub fn spec_for(workload: crate::Workload, seed: u64, scale: Scale) -> WireSpec {
    let tiny = scale == Scale::Tiny;
    match workload {
        crate::Workload::IngestBulk => {
            ingest_spec(seed, 1000, 4, if tiny { 8_000 } else { 256_000 })
        }
        crate::Workload::IngestSmall => {
            ingest_spec(seed, 8, 16, if tiny { 2_048 } else { 262_144 })
        }
        crate::Workload::QueryMix => query_mix_spec(seed, if tiny { 200 } else { 4_096 }),
        crate::Workload::CountCnf => unreachable!("count_cnf is not a server workload"),
    }
}

/// The running digest of a connection's reply stream: every reply line
/// folded in order, except the digits of its server-wide `seq`, which no
/// replay can predict. The client keeps this instead of the replies, so its
/// memory does not grow with throughput; the gate folds the lines it
/// expects the same way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a state over the lines so far.
    pub hash: u64,
    /// Lines folded.
    pub lines: u64,
    /// Lines without a numeric `seq`.
    pub no_seq: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            lines: 0,
            no_seq: 0,
        }
    }
}

impl Digest {
    /// Folds in one reply line.
    pub fn fold(&mut self, line: &[u8]) {
        const KEY: &[u8] = b"\"seq\":";
        let (head, tail) = match line.windows(KEY.len()).position(|w| w == KEY) {
            Some(at) => {
                let digits_at = at + KEY.len();
                let digits = line[digits_at..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
                if digits == 0 {
                    self.no_seq += 1;
                }
                (&line[..digits_at], &line[digits_at + digits..])
            }
            None => {
                self.no_seq += 1;
                (line, &[][..])
            }
        };
        let mut h = self.hash;
        for &b in head.iter().chain(tail) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self.hash = h;
        self.lines += 1;
    }
}

/// A connected client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
    /// Every reply received, in order.
    replies: Digest,
}

impl Client {
    fn call(&mut self, line: &[u8]) -> Result<(), String> {
        self.stream.write_all(line).map_err(|e| e.to_string())?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> Result<(), String> {
        self.line.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.line)
            .map_err(|e| e.to_string())?;
        if n == 0 || self.line.last() != Some(&b'\n') {
            return Err("server closed the connection".into());
        }
        self.replies.fold(&self.line);
        Ok(())
    }
}

/// A served service with its clients connected and sessions created.
struct Live {
    handle: ServerHandle,
    clients: Vec<Client>,
}

impl Live {
    fn shutdown(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

fn serve_traced<S: ApplyService>(
    service: S,
    directory: TenantDirectory,
    tracer: Option<&Arc<Tracer>>,
) -> Result<ServerHandle, String> {
    let config = ServerConfig::default();
    match tracer {
        Some(t) => serve(
            "127.0.0.1:0",
            TimedService::new(service, t.clone()),
            directory,
            config,
        ),
        None => serve("127.0.0.1:0", service, directory, config),
    }
    .map_err(|e| e.to_string())
}

fn open_durable(dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<DurableSketchService, String> {
    let opened = match tracer {
        Some(t) => DurableSketchService::open_with(
            Arc::new(TimedStorage::new(Arc::new(FsStorage), t.clone())),
            dir,
            SHARDS,
            DurableConfig::default(),
        ),
        None => DurableSketchService::open(dir, SHARDS, DurableConfig::default()),
    };
    opened
        .map(|(service, _)| service)
        .map_err(|e| e.to_string())
}

/// Set-up: durable open, server bind, connect, and session creation.
fn start(spec: &WireSpec, dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Live, String> {
    let mut directory = TenantDirectory::new();
    for conn in &spec.conns {
        directory.register(&conn.tenant, &conn.token, TenantQuota::unlimited())?;
    }
    let handle = if spec.durable {
        serve_traced(open_durable(dir, tracer)?, directory, tracer)?
    } else {
        serve_traced(SketchService::new(SHARDS), directory, tracer)?
    };
    let mut clients = Vec::with_capacity(spec.conns.len());
    for conn in &spec.conns {
        let stream = TcpStream::connect(handle.local_addr()).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let mut client = Client {
            stream,
            reader,
            line: Vec::new(),
            replies: Digest::default(),
        };
        for (id, cmd) in conn.setup.iter().enumerate() {
            client.call(&request_line(id as u64, &conn.token, cmd))?;
        }
        clients.push(client);
    }
    Ok(Live { handle, clients })
}

/// What one connection did while timed.
#[derive(Default)]
struct Driven {
    sent: u64,
    /// Items acknowledged per [`WINDOW_S`] window since the start.
    items: Vec<u64>,
    /// Send→reply ns of mutating requests, tagged with their window (see
    /// [`tag`]).
    write_ns: Reservoir,
    /// The same for queries.
    read_ns: Reservoir,
    /// Replies received per window.
    windows: Vec<u64>,
    spans: Vec<Span>,
    last_reply: Option<Instant>,
}

/// The closed loop: keep `window` requests in flight until the deadline,
/// then drain.
fn drive(
    conn: &Conn,
    client: &mut Client,
    window: usize,
    begin: Instant,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> Result<Driven, String> {
    let mut out = Driven::default();
    let mut inflight: VecDeque<(Instant, u64)> = VecDeque::with_capacity(window);
    let base = conn.setup.len() as u64;
    let send = |client: &mut Client, k: u64, inflight: &mut VecDeque<(Instant, u64)>| {
        let entry = &conn.pool[(k % conn.pool.len() as u64) as usize];
        let owned;
        let line: &[u8] = if entry.line.is_empty() {
            let (id, cmd) = conn.command(k);
            owned = request_line(id, &conn.token, &cmd);
            &owned
        } else {
            &entry.line
        };
        let t = Instant::now();
        client.stream.write_all(line).map_err(|e| e.to_string())?;
        inflight.push_back((t, k));
        Ok::<(), String>(())
    };
    while out.sent < window as u64 {
        send(client, out.sent, &mut inflight)?;
        out.sent += 1;
    }
    while let Some((sent_at, k)) = inflight.pop_front() {
        client.read_reply()?;
        let now = Instant::now();
        let entry = &conn.pool[(k % conn.pool.len() as u64) as usize];
        let ns = now.duration_since(sent_at).as_nanos() as u64;
        let w = (now.duration_since(begin).as_secs_f64() / WINDOW_S) as usize;
        if entry.write {
            out.write_ns.push(tag(w, ns));
        } else {
            out.read_ns.push(tag(w, ns));
        }
        if out.windows.len() <= w {
            out.windows.resize(w + 1, 0);
            out.items.resize(w + 1, 0);
        }
        out.windows[w] += 1;
        out.items[w] += entry.items;
        if let Some(t) = tracer {
            let req = trace::request_id(conn.index, base + k);
            out.spans.push(Span {
                id: trace::request_span_id(req),
                parent: 0,
                req,
                name: if entry.write {
                    Name::RequestWrite
                } else {
                    Name::RequestRead
                },
                start: t.at(sent_at),
                end: t.at(now),
                n: entry.items,
            });
        }
        out.last_reply = Some(now);
        if now < deadline {
            send(client, out.sent, &mut inflight)?;
            out.sent += 1;
        }
    }
    Ok(out)
}

/// Latency samples kept per connection and kind.
const RESERVOIR: usize = 1 << 16;

/// A uniform sample of at most [`RESERVOIR`] values (Algorithm R, seeded),
/// so the client's memory is the same at any throughput.
struct Reservoir {
    samples: Vec<u64>,
    seen: u64,
    rng: Xoshiro256StarStar,
}

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir {
            samples: Vec::with_capacity(RESERVOIR),
            seen: 0,
            rng: Xoshiro256StarStar::seed_from_u64(0x5A3E_11E5),
        }
    }
}

impl Reservoir {
    fn push(&mut self, value: u64) {
        if self.samples.len() < RESERVOIR {
            self.samples.push(value);
        } else {
            let j = self.rng.gen_range(self.seen + 1) as usize;
            if j < RESERVOIR {
                self.samples[j] = value;
            }
        }
        self.seen += 1;
    }
}

/// A latency sample and its window in one word.
fn tag(window: usize, ns: u64) -> u64 {
    ((window as u64) << 40) | ns.min((1 << 40) - 1)
}

fn untag(sample: u64) -> (usize, u64) {
    ((sample >> 40) as usize, sample & ((1 << 40) - 1))
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// The full windows whose steal stayed within [`STEAL_TICKS_MAX`], or, when
/// fewer than a quarter did, the least-stolen quarter; ascending.
/// `steal[w]` is the cumulative steal at the start of window `w`.
fn clean_windows(steal: &[u64], full: usize) -> Vec<usize> {
    let stolen = |w: usize| match (steal.get(w), steal.get(w + 1)) {
        (Some(a), Some(b)) => b.saturating_sub(*a),
        _ => 0,
    };
    let mut kept: Vec<usize> = (0..full)
        .filter(|&w| stolen(w) <= STEAL_TICKS_MAX)
        .collect();
    if kept.len() < full.div_ceil(4) {
        let mut by_steal: Vec<usize> = (0..full).collect();
        by_steal.sort_by_key(|&w| (stolen(w), w));
        kept = by_steal[..full.div_ceil(4)].to_vec();
        kept.sort_unstable();
    }
    kept
}

/// What the gate needs from a pass.
pub struct WireRun {
    /// Timed requests sent per connection.
    sent: Vec<u64>,
    /// Replies per connection (set-up, timed, finals).
    replies: Vec<Digest>,
    /// Each connection's finals answered in process by the reopened store.
    recovered: Vec<Vec<Result<CommandReply, WireError>>>,
}

/// One pass of a server workload: set-up (repeated), timed phase, finals,
/// shutdown and (durable) reopen. Untraced passes serve the bare service.
pub fn run_pass(
    spec: &WireSpec,
    seconds: f64,
    data_dir: &Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Pass, WireRun), String> {
    let mut pass = Pass::default();
    let rep_dir = |i: usize| -> PathBuf { data_dir.join(format!("store-{i}")) };
    let mut live = None;
    for i in 0..SETUP_REPS {
        let dir = rep_dir(i);
        let _ = std::fs::remove_dir_all(&dir);
        let (c0, t0) = (process_cpu_s(), Instant::now());
        let started = start(spec, &dir, tracer)?;
        let t1 = Instant::now();
        pass.setup_s.push(process_cpu_s() - c0);
        pass.setup_wall_s.push((t1 - t0).as_secs_f64());
        if let Some(t) = tracer {
            t.push(Span {
                id: t.next_id(),
                parent: 0,
                req: 0,
                name: Name::Setup,
                start: t.at(t0),
                end: t.at(t1),
                n: 0,
            });
        }
        if i + 1 < SETUP_REPS {
            started.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            std::thread::sleep(SETUP_GAP);
        } else {
            live = Some(started);
        }
    }
    let live = live.expect("at least one set-up repetition");
    let dir = rep_dir(SETUP_REPS - 1);

    // The timed phase: every connection starts together.
    let Live {
        handle,
        mut clients,
    } = live;
    reset_peak_rss();
    let timing = Duration::from_secs_f64(seconds);
    let full = ((seconds / WINDOW_S) as usize).max(1);
    let begin = Instant::now() + Duration::from_millis(20);
    type Samples = Vec<(u64, f64)>;
    let (results, samples): (Vec<Result<Driven, String>>, Samples) = std::thread::scope(|s| {
        // Steal and process CPU at every window boundary.
        let sampler = s.spawn(move || {
            (0..=full)
                .map(|w| {
                    sleep_until(begin + Duration::from_secs_f64(WINDOW_S * w as f64));
                    (steal_ticks(), cpu_s())
                })
                .collect()
        });
        let handles: Vec<_> = spec
            .conns
            .iter()
            .zip(clients.iter_mut())
            .map(|(conn, client)| {
                let tracer = tracer.map(|t| &**t);
                s.spawn(move || {
                    sleep_until(begin);
                    drive(conn, client, spec.window, begin, begin + timing, tracer)
                })
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect();
        (results, sampler.join().unwrap_or_default())
    });
    let steal: Vec<u64> = samples.iter().map(|s| s.0).collect();
    let kept = clean_windows(&steal, full);
    if let (Some(first), Some(last)) = (samples.first(), samples.get(full)) {
        pass.cpu_s = last.1 - first.1;
    }
    let mut end: Option<Instant> = None;
    let mut sent = Vec::new();
    pass.window_ops = vec![0; kept.len()];
    pass.window_s = WINDOW_S;
    pass.windows = (kept.len(), full);
    for r in results {
        let d = r?;
        if let Some(l) = d.last_reply {
            end = Some(end.map_or(l, |x| x.max(l)));
        }
        pass.ops += d.windows.iter().sum::<u64>();
        pass.cpu_ops += d.windows.iter().take(full).sum::<u64>();
        let keep = |w: usize| kept.binary_search(&w).is_ok();
        pass.items += kept.iter().filter_map(|&w| d.items.get(w)).sum::<u64>();
        let kept_ns = |samples: &[u64]| -> Vec<u64> {
            samples
                .iter()
                .map(|&s| untag(s))
                .filter(|&(w, _)| keep(w))
                .map(|(_, ns)| ns)
                .collect()
        };
        pass.write_ns.extend(kept_ns(&d.write_ns.samples));
        pass.read_ns.extend(kept_ns(&d.read_ns.samples));
        for (total, &w) in pass.window_ops.iter_mut().zip(&kept) {
            *total += d.windows.get(w).copied().unwrap_or(0);
        }
        sent.push(d.sent);
        if let Some(t) = tracer {
            t.extend(d.spans);
        }
    }
    let end = end.ok_or("no reply in the timed phase")?;
    pass.elapsed_s = (end - begin).as_secs_f64();
    if let Some(t) = tracer {
        t.push(Span {
            id: t.next_id(),
            parent: 0,
            req: 0,
            name: Name::Phase,
            start: t.at(begin),
            end: t.at(end),
            n: pass.ops,
        });
    }
    pass.peak_rss_mb = peak_rss_mb();

    // Untimed: the closing reads, then shutdown.
    for (conn, client) in spec.conns.iter().zip(clients.iter_mut()) {
        for (id, cmd) in conn.finals.iter().enumerate() {
            client.call(&request_line(id as u64, &conn.token, cmd))?;
        }
    }
    let replies: Vec<Digest> = clients.iter().map(|c| c.replies).collect();
    Live { handle, clients }.shutdown();

    // Durable: reopen once (recovery replays the whole log) and answer the
    // finals from the recovered state.
    let mut recovered = vec![Vec::new(); spec.conns.len()];
    if spec.durable {
        let t0 = Instant::now();
        let mut service = match tracer {
            Some(t) => t.time(Name::DurableOpen, 0, || open_durable(&dir, tracer))?,
            None => open_durable(&dir, None)?,
        };
        pass.recover_s.push(t0.elapsed().as_secs_f64());
        for (conn, out) in spec.conns.iter().zip(recovered.iter_mut()) {
            for cmd in &conn.finals {
                let scoped = TenantDirectory::scope_command(&conn.tenant, cmd);
                out.push(
                    service
                        .apply(&scoped)
                        .map_err(|e| WireError::from_service(&e)),
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok((
        pass,
        WireRun {
            sent,
            replies,
            recovered,
        },
    ))
}

/// Outcome of the reply gate for one connection.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Gate {
    /// Operations checked (timed requests and finals).
    pub attempted: u64,
    /// Error replies, plus final estimates outside (1+ε) of the truth.
    pub failed: u64,
}

/// Replays a connection's commands on a [`ReferenceService`] and compares
/// every reply line, through the digests; also checks the recovered
/// finals. A mismatch is an `Err`.
pub fn check_conn(
    conn: &Conn,
    sent: u64,
    replies: &Digest,
    recovered: &[Result<CommandReply, WireError>],
) -> Result<Gate, String> {
    let mut reference = ReferenceService::new();
    let mut want = Digest::default();
    let mut gate = Gate::default();
    let mut expect = |id: u64, cmd: &ServiceCommand, counted: bool| {
        let scoped = TenantDirectory::scope_command(&conn.tenant, cmd);
        let body = reference
            .apply(&scoped)
            .map_err(|e| WireError::from_service(&e));
        if counted {
            gate.attempted += 1;
            gate.failed += u64::from(body.is_err());
        }
        let line = encode_line(&Response {
            id: Some(id),
            seq: Some(0),
            body: body.clone(),
        });
        want.fold(line.as_bytes());
        body
    };
    for (id, cmd) in conn.setup.iter().enumerate() {
        let _ = expect(id as u64, cmd, false);
    }
    for k in 0..sent {
        let (id, cmd) = conn.command(k);
        let _ = expect(id, &cmd, true);
    }
    let finals: Vec<_> = conn
        .finals
        .iter()
        .enumerate()
        .map(|(id, cmd)| expect(id as u64, cmd, true))
        .collect();
    if *replies != want {
        return Err(format!(
            "conn {}: the reply stream differs from the reference replay \
             (replies {:?}, reference {:?}; closing reads should answer {finals:?})",
            conn.index, replies, want
        ));
    }
    if !recovered.is_empty() && recovered != finals.as_slice() {
        return Err(format!(
            "conn {}: recovered store answers {recovered:?}, reference {finals:?}",
            conn.index
        ));
    }
    // Accuracy: a final estimate outside (1+ε) of the exact distinct count
    // is a failed operation (the sketch's guarantee is probabilistic).
    let seen = sent.min(conn.pool.len() as u64);
    for (cmd, reply) in conn.finals.iter().zip(&finals) {
        let (ServiceCommand::Estimate { name }, Ok(CommandReply::Estimate(est))) = (cmd, reply)
        else {
            continue;
        };
        if !conn.f0_sessions.contains(name) {
            continue;
        }
        let mut distinct = HashSet::new();
        for e in &conn.pool[..seen as usize] {
            if let ServiceCommand::Ingest { name: n, items } = &e.cmd {
                if n == name {
                    distinct.extend(items.iter().copied());
                }
            }
        }
        let eps = match conn.setup.iter().find_map(|c| match c {
            ServiceCommand::Create { name: n, spec } if n == name => Some(spec.epsilon),
            _ => None,
        }) {
            Some(e) => e,
            None => continue,
        };
        let exact = distinct.len() as f64;
        if *est > exact * (1.0 + eps) || *est < exact / (1.0 + eps) {
            gate.failed += 1;
        }
    }
    Ok(gate)
}

/// Runs the gate over every connection, in parallel.
pub fn check(spec: &WireSpec, run: &WireRun) -> Result<Gate, String> {
    let results: Vec<Result<Gate, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = spec
            .conns
            .iter()
            .enumerate()
            .map(|(i, conn)| {
                s.spawn(move || check_conn(conn, run.sent[i], &run.replies[i], &run.recovered[i]))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("gate thread panicked".into()))
            })
            .collect()
    });
    let mut total = Gate::default();
    for r in results {
        let g = r?;
        total.attempted += g.attempted;
        total.failed += g.failed;
    }
    Ok(total)
}

impl WireRun {
    /// Folds one extra, made-up reply into connection 0's digest, as if
    /// the server had answered differently (self-tests).
    pub fn corrupt_reply(&mut self) {
        self.replies[0].fold(b"{\"id\":0,\"seq\":1,\"ok\":{\"estimate\":0.5}}\n");
        self.replies[0].lines -= 1;
    }
}

/// Per-layer probes over the workload's own inputs, each one span with a
/// work count: wire decode/encode, tenant admission, in-process service
/// ingest, direct single-threaded sketch ingest, and (where the pool has
/// reads) the read path through the service against a direct fold.
/// Connection 0's pool is the sample; one pass of it.
pub fn probes(spec: &WireSpec, run: &WireRun, tracer: &Tracer) -> Result<(), String> {
    let conn = &spec.conns[0];
    let sent = run.sent[0].min(conn.pool.len() as u64);
    let cmds: Vec<ServiceCommand> = (0..sent).map(|k| conn.command(k).1).collect();
    let lines: Vec<Vec<u8>> = (0..sent)
        .map(|k| {
            let (id, cmd) = conn.command(k);
            let mut l = request_line(id, &conn.token, &cmd);
            l.pop();
            l
        })
        .collect();
    tracer.time(Name::ProbeDecode, lines.len() as u64, || {
        for l in &lines {
            black_box(decode_request(black_box(l)).is_ok());
        }
    });
    let mut directory = TenantDirectory::new();
    directory.register(&conn.tenant, &conn.token, TenantQuota::unlimited())?;
    tracer.time(Name::ProbeAdmit, cmds.len() as u64, || {
        for c in &cmds {
            black_box(directory.admit(&conn.tenant, c).is_ok());
            black_box(TenantDirectory::scope_command(&conn.tenant, c));
        }
    });

    let mut service = SketchService::new(SHARDS);
    let mut sketches: HashMap<String, SessionSketch> = HashMap::new();
    for c in &conn.setup {
        if let ServiceCommand::Create { name, spec } = c {
            service
                .create_session(name, *spec)
                .map_err(|e| e.to_string())?;
            sketches.insert(name.clone(), SessionSketch::new(spec));
        }
    }
    let (writes, reads): (Vec<&ServiceCommand>, Vec<&ServiceCommand>) =
        cmds.iter().partition(|c| c.mutates());
    let items: u64 = writes
        .iter()
        .map(|c| match c {
            ServiceCommand::Ingest { items, .. } => items.len() as u64,
            _ => 0,
        })
        .sum();
    let written: Vec<CommandReply> = tracer
        .time(Name::ProbeServiceIngest, writes.len() as u64, || {
            writes
                .iter()
                .map(|c| service.apply(c))
                .collect::<Result<_, _>>()
        })
        .map_err(|e| e.to_string())?;
    tracer
        .time(Name::ProbeSketchIngest, items, || {
            writes.iter().try_for_each(|c| match c {
                ServiceCommand::Ingest { name, items } => {
                    sketch(&mut sketches, name)?.ingest(name, items)
                }
                ServiceCommand::Advance { name, epoch } => {
                    sketch(&mut sketches, name)?.advance(name, *epoch);
                    Ok(())
                }
                _ => Ok(()),
            })
        })
        .map_err(|e| e.to_string())?;
    let read: Vec<CommandReply> = if reads.is_empty() {
        Vec::new()
    } else {
        tracer
            .time(Name::ProbeServiceRead, reads.len() as u64, || {
                reads
                    .iter()
                    .map(|c| service.apply(c))
                    .collect::<Result<_, _>>()
            })
            .map_err(|e| e.to_string())?
    };
    if !reads.is_empty() {
        let direct: Vec<f64> = tracer.time(Name::ProbeSketchFold, reads.len() as u64, || {
            reads
                .iter()
                .map(|c| match c {
                    ServiceCommand::Estimate { name } | ServiceCommand::EstimateWindow { name } => {
                        sketches[name].folded().estimate()
                    }
                    ServiceCommand::JaccardEstimate { a, b } => {
                        set_algebra_estimates(&sketches[a].folded(), &sketches[b].folded()).1
                    }
                    _ => f64::NAN,
                })
                .collect()
        });
        // Sharding is routing, never semantics: the direct fold must agree.
        for (c, (s, d)) in reads.iter().zip(read.iter().zip(&direct)) {
            if *s != CommandReply::Estimate(*d) {
                return Err(format!("probe: {c:?} answers {s:?} sharded, {d} direct"));
            }
        }
    }

    // The reply lines of the same requests, in request order.
    let (mut w, mut r) = (written.into_iter(), read.into_iter());
    let responses: Vec<Response> = cmds
        .iter()
        .enumerate()
        .map(|(k, c)| Response {
            id: Some(k as u64),
            seq: Some(k as u64),
            body: Ok(if c.mutates() { w.next() } else { r.next() }.unwrap_or(CommandReply::Done)),
        })
        .collect();
    tracer.time(Name::ProbeEncode, responses.len() as u64, || {
        for r in &responses {
            black_box(encode_line(black_box(r)));
        }
    });
    Ok(())
}

fn sketch<'a>(
    sketches: &'a mut HashMap<String, SessionSketch>,
    name: &str,
) -> Result<&'a mut SessionSketch, mcf0_service::ServiceError> {
    sketches
        .get_mut(name)
        .ok_or_else(|| mcf0_service::ServiceError::UnknownSession(name.to_string()))
}
