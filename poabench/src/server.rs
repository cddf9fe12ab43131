//! The server workloads: prepare a journal through the public API,
//! cold-start the auditor from it in a child process, and drive it over
//! loopback TCP.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alidrone_core::audit::{verify_consistency, verify_inclusion, SignedTreeHead};
use alidrone_core::journal::{FsBackend, StorageBackend};
use alidrone_core::repl::{Follower, InProcessLink, ReplicationPolicy, Replicator};
use alidrone_core::wire::server::AuditorServer;
use alidrone_core::wire::tcp::{TcpServer, TcpTransport};
use alidrone_core::wire::transport::Transport;
use alidrone_core::wire::{Request, Response};
use alidrone_core::{Auditor, AuditorConfig, Verdict};
use alidrone_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use alidrone_geo::{Distance, GeoPoint, NoFlyZone, Timestamp};
use alidrone_obs::{FlightRecorder, Obs};

use crate::corpus::{self, Corpus, Expect, Expected, Op, Workload};
use crate::rng::SplitMix;
use crate::sys::{self, Dist};
use crate::trace::{self, Stats};

/// Requests completing in the first second are checked but not timed,
/// so connection set-up and lazy state do not count.
pub const WARMUP_S: f64 = 1.0;

/// Cold starts per run, before and after the measured window;
/// `setup_s` is the median of all of them.
pub const SETUPS_BEFORE: usize = 6;
pub const SETUPS_AFTER: usize = 5;

/// Smoke runs are too small to spare a warm-up.
pub fn warmup_s(smoke: bool) -> f64 {
    if smoke {
        0.0
    } else {
        WARMUP_S
    }
}

/// Mean open-loop rates of `audit_mix_1024`, per second: drone-stream
/// submissions (each preceded by a zone query, every eighth followed by
/// a retry) and monitor-stream operations.
pub const MIX_SUBMIT_RATE: f64 = 12.0;
pub const MIX_MONITOR_RATE: f64 = 12.0;

fn drone_op_rate() -> f64 {
    MIX_SUBMIT_RATE * (2.0 + 1.0 / corpus::MIX_RETRY_EVERY as f64)
}

/// `peak_rss_mb` is read when the measured window's `n`-th verdict
/// completes, so it covers the same work however fast the program runs
/// (every stored PoA stays resident). Falls back to the window's end.
pub fn rss_verdicts(w: Workload) -> usize {
    match w {
        Workload::Fleet2048 => 2000,
        Workload::City1024 => 800,
        Workload::AuditMix1024 => 160,
        Workload::Flight2048 => 50,
    }
}

pub fn mix_submissions(seconds: f64, smoke: bool) -> usize {
    if smoke {
        16
    } else {
        (MIX_SUBMIT_RATE * (seconds + WARMUP_S)).ceil() as usize + 2
    }
}

/// The auditor's own key, regenerated from the seed on every run (the
/// journal's checkpoints are signed with it).
pub fn auditor_key(seed: u64, bits: usize) -> RsaPrivateKey {
    RsaPrivateKey::generate(bits, &mut SplitMix::fork(seed, "auditor"))
}

/// The journal `prepare` writes into the work directory.
pub const PREPARED_JOURNAL: &str = "prepared.journal";

/// Everything a run needs that is not timed.
pub struct Prepared {
    pub corpus: Corpus,
    pub cached: bool,
    pub key: RsaPrivateKey,
    pub work: PathBuf,
}

/// Generates (or loads) the corpus and writes the registrations and
/// history into a journal through the public API, checking every reply.
pub fn prepare(
    w: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    root: &Path,
) -> Result<Prepared, String> {
    let (corpus, cached) = corpus::load_or_generate(root, w, seed, seconds, smoke);
    let key = auditor_key(seed, w.key_bits());
    let work = root
        .join("tmp")
        .join(format!("{}-{}", w.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir: {e}"))?;
    let (auditor, _) = Auditor::recover(
        Arc::new(FsBackend::new(work.join(PREPARED_JOURNAL))),
        AuditorConfig::default(),
        key.clone(),
    )
    .map_err(|e| format!("prep recover: {e}"))?;
    let server = AuditorServer::builder(auditor).build();
    for i in 0..corpus.drones.len() {
        let id = server
            .auditor()
            .register_drone_durable(
                corpus::operator_public(&corpus, i),
                corpus::tee_public(&corpus, i),
            )
            .map_err(|e| format!("register drone: {e}"))?;
        if id != corpus::drone_id(i) {
            return Err(format!("drone {i} got id {id:?}"));
        }
    }
    for op in &corpus.history {
        let reply = server.handle(&op.frame, Timestamp::from_secs(op.now));
        if !matches!(
            Response::from_bytes(&reply),
            Ok(Response::Verdict(Verdict::Compliant))
        ) {
            return Err("history submission was not judged compliant".into());
        }
    }
    for (i, &(lat, lon, r)) in corpus.zones.iter().enumerate() {
        let id = server
            .auditor()
            .register_zone_durable(zone(lat, lon, r))
            .map_err(|e| format!("register zone: {e}"))?;
        if id.value() != i as u64 + 1 {
            return Err(format!("zone {i} got id {id:?}"));
        }
    }
    Ok(Prepared {
        corpus,
        cached,
        key,
        work,
    })
}

pub fn zone(lat: f64, lon: f64, r: f64) -> NoFlyZone {
    NoFlyZone::new(
        GeoPoint::new(lat, lon).expect("generated zone centre"),
        Distance::from_meters(r),
    )
}

/// A running primary (and, for the mix, its follower).
struct Live {
    tcp: TcpServer,
    dir: PathBuf,
    /// Seconds spent in `Auditor::recover` alone.
    recover_s: f64,
}

/// One cold start: copy the prepared journal (untimed), then time
/// recovery, server construction, TCP bind, follower catch-up for the
/// mix, and the first answered health check.
fn cold_start(
    work: &Path,
    key: &RsaPrivateKey,
    w: Workload,
    n: usize,
    obs: &Obs,
) -> Result<(Live, f64), String> {
    let dir = work.join(format!("start{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("start dir: {e}"))?;
    let primary = dir.join("primary.journal");
    std::fs::copy(work.join(PREPARED_JOURNAL), &primary)
        .map_err(|e| format!("copy journal: {e}"))?;

    let t0 = Instant::now();
    let (auditor, _) = Auditor::recover_with_obs(
        Arc::new(FsBackend::new(&primary)),
        AuditorConfig::default(),
        key.clone(),
        obs,
    )
    .map_err(|e| format!("recover: {e}"))?;
    let recover_s = t0.elapsed().as_secs_f64();
    if w == Workload::AuditMix1024 {
        let backend: Arc<dyn StorageBackend> =
            Arc::new(FsBackend::new(dir.join("follower.journal")));
        let follower = Arc::new(Follower::with_obs(backend, obs));
        let replicator = Replicator::new(obs, ReplicationPolicy::Quorum(1))
            .with_follower("f0", InProcessLink::new(follower));
        auditor.set_replicator(Arc::new(replicator));
        // Journals an epoch record, which ships the whole history.
        auditor
            .begin_epoch(1)
            .map_err(|e| format!("follower catch-up: {e}"))?;
    }
    let server = Arc::new(AuditorServer::builder(auditor).obs(obs).build());
    let tcp =
        TcpServer::bind("127.0.0.1:0", Arc::clone(&server)).map_err(|e| format!("bind: {e}"))?;
    let reply = TcpTransport::new(tcp.local_addr())
        .call(&Request::HealthCheck.to_bytes(), Timestamp::from_secs(0.0))
        .map_err(|e| format!("health check: {e}"))?;
    if !matches!(Response::from_bytes(&reply), Ok(Response::Healthy { .. })) {
        return Err("health check unanswered".into());
    }
    let setup = t0.elapsed().as_secs_f64();
    Ok((
        Live {
            tcp,
            dir,
            recover_s,
        },
        setup,
    ))
}

/// Spans the traced server keeps in memory (about three per verdict).
const SPAN_CAPACITY: usize = 400_000;

/// The server process (`--serve`): `setups` cold starts from the
/// prepared journal in `work`, each reported on standard output as
/// `setup <seconds> <recover seconds>`, then `ready <addr> <dir>` and
/// one command per line on standard input: `stats` (the `Obs`
/// counters and histograms, ending with `end`), `spans <file>` (writes
/// the recorded spans, answers `ok`) and `quit`. Traced servers run a
/// wall-clock `Obs` with the program's flight recorder subscribed;
/// untraced ones the no-op `Obs` of the seed's defaults.
pub fn serve(
    w: Workload,
    seed: u64,
    work: &Path,
    setups: usize,
    traced: bool,
) -> Result<(), String> {
    let key = auditor_key(seed, w.key_bits());
    let obs = if traced { Obs::wall() } else { Obs::noop() };
    let mut out = std::io::stdout().lock();
    let mut live: Option<Live> = None;
    for n in 0..setups.max(1) {
        if let Some(old) = live.take() {
            old.tcp.shutdown();
            let _ = std::fs::remove_dir_all(&old.dir);
        }
        let (l, t) = cold_start(work, &key, w, n, &obs)?;
        writeln!(out, "setup {t} {}", l.recover_s).map_err(|e| e.to_string())?;
        live = Some(l);
    }
    let live = live.expect("at least one cold start");
    let recorder = Arc::new(FlightRecorder::with_capacities(SPAN_CAPACITY, 16));
    if traced {
        obs.set_subscriber(recorder.clone() as Arc<dyn alidrone_obs::Subscriber>);
    }
    writeln!(
        out,
        "ready {} {}",
        live.tcp.local_addr(),
        live.dir.display()
    )
    .and_then(|()| out.flush())
    .map_err(|e| e.to_string())?;
    for line in std::io::stdin().lines() {
        let line = line.map_err(|e| e.to_string())?;
        match line.split_once(' ').unwrap_or((line.as_str(), "")) {
            ("stats", _) => writeln!(out, "{}end", Stats::render(&obs.snapshot())),
            ("spans", file) => {
                trace::write_spans(&recorder.spans(), Path::new(file))
                    .map_err(|e| format!("span file: {e}"))?;
                writeln!(out, "ok")
            }
            _ => break,
        }
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())?;
    }
    obs.clear_subscriber();
    live.tcp.shutdown();
    Ok(())
}

/// The program under test, run by [`serve`] in a child process of this
/// binary: its CPU time and resident set are read from its own `/proc`
/// entry, apart from the load generator and the corpus it holds.
pub struct Child {
    proc: std::process::Child,
    io: Mutex<(ChildStdin, BufReader<ChildStdout>)>,
    pub addr: SocketAddr,
    /// The live server's directory (its journals).
    pub dir: PathBuf,
    /// Seconds of each cold start, and of `Auditor::recover` within it.
    pub setups: Vec<f64>,
    pub recovers: Vec<f64>,
    /// Runs the traced `Obs`, whose readings [`drive`] takes.
    pub traced: bool,
}

impl Child {
    pub fn spawn(
        p: &Prepared,
        w: Workload,
        seed: u64,
        setups: usize,
        traced: bool,
    ) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own binary: {e}"))?;
        let mut proc = Command::new(exe)
            .args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .arg("--serve")
            .arg(&p.work)
            .args(["--setups", &setups.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("server process: {e}"))?;
        let stdin = proc.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(proc.stdout.take().expect("piped stdout"));
        let mut child = Child {
            proc,
            io: Mutex::new((stdin, stdout)),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            dir: PathBuf::new(),
            setups: Vec::new(),
            recovers: Vec::new(),
            traced,
        };
        loop {
            let line = child.read_line()?;
            let words: Vec<&str> = line.split_whitespace().collect();
            let num = |s: &str| s.parse::<f64>().map_err(|e| format!("`{line}`: {e}"));
            match words.as_slice() {
                ["setup", t, r] => {
                    child.setups.push(num(t)?);
                    child.recovers.push(num(r)?);
                }
                ["ready", addr, dir] => {
                    child.addr = addr.parse().map_err(|e| format!("`{line}`: {e}"))?;
                    child.dir = PathBuf::from(dir);
                    return Ok(child);
                }
                _ => return Err(format!("server process said `{line}`")),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.proc.id()
    }

    fn read_line(&self) -> Result<String, String> {
        let mut io = self.io.lock().expect("server pipes");
        let mut line = String::new();
        match io.1.read_line(&mut line) {
            Ok(0) => Err("server process ended".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("server process: {e}")),
        }
    }

    fn send(&self, command: &str) -> Result<(), String> {
        let mut io = self.io.lock().expect("server pipes");
        writeln!(io.0, "{command}")
            .and_then(|()| io.0.flush())
            .map_err(|e| format!("server process: {e}"))
    }

    /// The server's `Obs` counters and histograms now.
    pub fn stats(&self) -> Result<Stats, String> {
        self.send("stats")?;
        let mut lines = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "end" {
                return Ok(Stats::parse(&lines));
            }
            lines.push(line);
        }
    }

    /// Has the server write the spans it recorded to `file`.
    pub fn write_spans(&self, file: &Path) -> Result<(), String> {
        self.send(&format!("spans {}", file.display()))?;
        match self.read_line()?.as_str() {
            "ok" => Ok(()),
            other => Err(format!("server process said `{other}`")),
        }
    }

    /// Stops the server and waits for the process to end.
    pub fn quit(mut self) -> Result<(), String> {
        self.send("quit")?;
        let status = self
            .proc
            .wait()
            .map_err(|e| format!("server process: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server process ended with {status}"))
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
        }
        let _ = self.proc.wait();
    }
}

/// Outcome of one sent operation.
#[derive(Debug, Clone)]
pub struct Sample {
    pub kind: Kind,
    /// Seconds from phase start to when the op was due (closed loop: sent).
    pub due_s: f64,
    pub latency_ms: f64,
    pub late_ms: f64,
    pub ok: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Verdict,
    Query,
    Proof,
    Consistency,
    Accuse,
}

fn kind_of(e: &Expect) -> Kind {
    match e {
        Expect::Verdict(_) => Kind::Verdict,
        Expect::Zones => Kind::Query,
        Expect::TreeCheck { .. } => Kind::Proof,
        Expect::Consistency => Kind::Consistency,
        Expect::Accuse { .. } => Kind::Accuse,
    }
}

pub fn verdict_matches(v: &Verdict, e: &Expected) -> bool {
    match (v, e) {
        (Verdict::Compliant, Expected::Compliant) => true,
        (Verdict::InsufficientAlibi { pair_indices }, Expected::Insufficient { pair }) => {
            pair_indices == &[*pair]
        }
        (Verdict::InsideZone { index, zone }, Expected::InsideZone { index: i, zone: z }) => {
            index == i && zone.value() == *z
        }
        _ => false,
    }
}

/// Per-connection monitor state: the last verified tree head.
#[derive(Default)]
struct Monitor {
    last: Option<SignedTreeHead>,
}

impl Monitor {
    fn tree_head(&mut self, t: &TcpTransport, key: &RsaPublicKey) -> Option<SignedTreeHead> {
        let reply = t
            .call(
                &Request::FetchTreeHead.to_bytes(),
                Timestamp::from_secs(0.0),
            )
            .ok()?;
        match Response::from_bytes(&reply) {
            Ok(Response::TreeHead(sth)) if sth.verify(key) => Some(sth),
            _ => None,
        }
    }

    /// Runs one op; `true` when the reply is the expected one.
    fn run(&mut self, t: &TcpTransport, op: &Op, key: &RsaPublicKey) -> bool {
        match &op.expect {
            Expect::TreeCheck { drone } => {
                let Some(sth) = self.tree_head(t, key) else {
                    return false;
                };
                let req = Request::FetchInclusionProof {
                    drone_id: alidrone_core::DroneId::new(*drone),
                    tree_size: sth.size,
                };
                let ok = match t
                    .call(&req.to_bytes(), Timestamp::from_secs(0.0))
                    .map(|r| Response::from_bytes(&r))
                {
                    Ok(Ok(Response::InclusionProof(p))) => {
                        p.size == sth.size
                            && verify_inclusion(&p.leaf, p.index, p.size, &p.path, &sth.root)
                    }
                    _ => false,
                };
                self.last = Some(sth);
                ok
            }
            Expect::Consistency => {
                let Some(new) = self.tree_head(t, key) else {
                    return false;
                };
                let ok = match &self.last {
                    None => true,
                    Some(old) if old.size == new.size => old.root == new.root,
                    Some(old) => {
                        let req = Request::FetchConsistencyProof {
                            old_size: old.size,
                            new_size: new.size,
                        };
                        match t
                            .call(&req.to_bytes(), Timestamp::from_secs(0.0))
                            .map(|r| Response::from_bytes(&r))
                        {
                            Ok(Ok(Response::ConsistencyProof(p))) => {
                                p.old_size == old.size
                                    && p.new_size == new.size
                                    && verify_consistency(
                                        old.size, new.size, &p.path, &old.root, &new.root,
                                    )
                            }
                            _ => false,
                        }
                    }
                };
                self.last = Some(new);
                ok
            }
            _ => {
                let Ok(reply) = t.call(&op.frame, Timestamp::from_secs(op.now)) else {
                    return false;
                };
                match (Response::from_bytes(&reply), &op.expect) {
                    (Ok(Response::Verdict(v)), Expect::Verdict(e)) => verdict_matches(&v, e),
                    (Ok(Response::Zones(_)), Expect::Zones) => true,
                    (
                        Ok(Response::Accusation { refuted, .. }),
                        Expect::Accuse { refuted: want },
                    ) => refuted == *want,
                    _ => false,
                }
            }
        }
    }
}

/// Readings taken by the main thread at the edges of the measured window.
#[derive(Debug, Default, Clone)]
pub struct Window {
    /// From the end of warm-up to the last completion of a counted op.
    pub active_s: f64,
    pub cpu_s: f64,
    /// Peak RSS from the window's start to its `rss_verdicts`-th verdict.
    pub peak_rss_mb: f64,
    pub rss_reset: bool,
    pub disk_bytes: u64,
    pub seconds: f64,
    /// The server's `Obs` readings at the window's edges, when asked for.
    pub stats: Option<(Stats, Stats)>,
}

pub struct LoadResult {
    pub warmup_s: f64,
    pub samples: Vec<Sample>,
    pub window: Window,
    /// Closed loop ran out of inputs before the window closed.
    pub exhausted: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// Drives `ops` against the server for warm-up plus `seconds`, reading
/// the server process's CPU time, disk use and peak RSS (and, from a
/// traced server, its `Obs` readings) at the measured window's edges.
pub fn drive(
    w: Workload,
    seed: u64,
    server: &Child,
    ops: &[Op],
    key: &RsaPublicKey,
    seconds: f64,
    warmup_s: f64,
) -> Result<LoadResult, String> {
    let addr = server.addr;
    let pid = Some(server.pid());
    let start = Instant::now();
    let measure_from = start + Duration::from_secs_f64(warmup_s);
    let end = measure_from + Duration::from_secs_f64(seconds);
    let samples = Mutex::new(Vec::<Sample>::new());
    let next = AtomicUsize::new(0);
    let exhausted = Mutex::new(None::<Instant>);
    let counted = AtomicUsize::new(0);
    let rss_at_n = Mutex::new(None::<f64>);
    let open = w == Workload::AuditMix1024;
    // The open loop always has its two streams; the closed loop uses one
    // connection per core, at most two.
    let threads = if open { 2 } else { sys::nproc().clamp(1, 2) };
    let streams: Vec<Vec<&Op>> = if open {
        (0..2u8)
            .map(|s| ops.iter().filter(|o| o.stream == s).collect())
            .collect()
    } else {
        Vec::new()
    };
    let mut window = Window::default();
    let mut stats0 = None;
    let mut stats1 = None;
    std::thread::scope(|s| {
        for t in 0..threads {
            let (samples, next, exhausted, streams) = (&samples, &next, &exhausted, &streams);
            let (counted, rss_at_n) = (&counted, &rss_at_n);
            s.spawn(move || {
                let transport = TcpTransport::new(addr);
                // Connects before the first timed request.
                let _ = transport.call(&Request::HealthCheck.to_bytes(), Timestamp::from_secs(0.0));
                let mut monitor = Monitor::default();
                let mut mine = Vec::new();
                let note_verdict = |sent: Instant, op: &Op| {
                    if sent >= measure_from
                        && matches!(op.expect, Expect::Verdict(_))
                        && counted.fetch_add(1, Ordering::Relaxed) + 1 == rss_verdicts(w)
                    {
                        *rss_at_n.lock().expect("rss reading") = Some(sys::peak_rss_mb(pid));
                    }
                };
                if open {
                    // Fixed rates, each op placed at random within the
                    // middle half of its own slot: consecutive ops stay at
                    // least half a slot apart, so the stream queues behind
                    // itself only when an op overruns, and the two streams
                    // cannot lock into one phase, so whether a submission
                    // meets a proof under the audit lock is sampled, not
                    // fixed by the start times.
                    let (rate, label) = if t == 0 {
                        (drone_op_rate(), "arrivals.drone")
                    } else {
                        (MIX_MONITOR_RATE, "arrivals.monitor")
                    };
                    let mut arrivals = SplitMix::fork(seed, label);
                    for (i, op) in streams[t].iter().enumerate() {
                        let at = (i as f64 + arrivals.range(0.25, 0.75)) / rate;
                        let due = start + Duration::from_secs_f64(at);
                        if due >= end {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let ok = monitor.run(&transport, op, key);
                        let done = Instant::now();
                        note_verdict(due, op);
                        mine.push(Sample {
                            kind: kind_of(&op.expect),
                            due_s: (due - start).as_secs_f64(),
                            latency_ms: (done - due).as_secs_f64() * 1e3,
                            late_ms: (sent - due).as_secs_f64() * 1e3,
                            ok,
                        });
                    }
                } else {
                    loop {
                        let sent = Instant::now();
                        if sent >= end {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(op) = ops.get(i) else {
                            exhausted
                                .lock()
                                .expect("exhaustion flag")
                                .get_or_insert(sent);
                            break;
                        };
                        let ok = monitor.run(&transport, op, key);
                        let done = Instant::now();
                        note_verdict(sent, op);
                        mine.push(Sample {
                            kind: kind_of(&op.expect),
                            due_s: (sent - start).as_secs_f64(),
                            latency_ms: (done - sent).as_secs_f64() * 1e3,
                            late_ms: 0.0,
                            ok,
                        });
                    }
                }
                samples.lock().expect("sample sink").extend(mine);
            });
        }
        // The main thread only reads the server at the window edges.
        std::thread::sleep(measure_from.saturating_duration_since(Instant::now()));
        if server.traced {
            stats0 = Some(server.stats());
        }
        let cpu0 = sys::cpu_s(pid);
        let disk0 = sys::dir_bytes(&server.dir);
        window.rss_reset = sys::reset_peak_rss(pid);
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        window.cpu_s = sys::cpu_s(pid) - cpu0;
        window.disk_bytes = sys::dir_bytes(&server.dir).saturating_sub(disk0);
        if server.traced {
            stats1 = Some(server.stats());
        }
    });
    if let (Some(a), Some(b)) = (stats0, stats1) {
        window.stats = Some((a?, b?));
    }
    window.peak_rss_mb = rss_at_n
        .into_inner()
        .expect("rss reading")
        .unwrap_or_else(|| sys::peak_rss_mb(pid));
    let samples = samples.into_inner().expect("sample sink");
    let ran_out = exhausted.into_inner().expect("exhaustion flag");
    window.seconds = match ran_out {
        Some(t) if t < end => t
            .saturating_duration_since(measure_from)
            .as_secs_f64()
            .max(1e-3),
        _ => seconds,
    };
    let hi = warmup_s + window.seconds;
    window.active_s = samples
        .iter()
        .filter(|s| s.due_s >= warmup_s && s.due_s < hi)
        .map(|s| s.due_s + s.latency_ms / 1e3 - warmup_s)
        .fold(1e-3, f64::max);
    let attempted = samples.len() as u64;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    Ok(LoadResult {
        warmup_s,
        samples,
        window,
        exhausted: ran_out.is_some_and(|t| t < end),
        attempted,
        failed,
    })
}

/// Samples of `kind` that fall in the measured window.
pub fn measured(r: &LoadResult, kind: Kind) -> Vec<&Sample> {
    let hi = r.warmup_s + r.window.seconds;
    r.samples
        .iter()
        .filter(|s| s.kind == kind && s.due_s >= r.warmup_s && s.due_s < hi)
        .collect()
}

/// The tail percentile: the highest of p99, p95, p90, p75 with at
/// least ten samples beyond it. The open-loop mix's sample count is
/// fixed by its rates, so its percentile is the same on every run.
pub const TAIL: f64 = 0.99;

pub fn latency_dist(samples: &[&Sample]) -> Dist {
    Dist::new(samples.iter().map(|s| s.latency_ms).collect())
}
