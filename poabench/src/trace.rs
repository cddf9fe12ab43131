//! The traced run's per-layer readings.
//!
//! A traced run drives the live server twice on the same inputs: once
//! as the untraced run does, and once with a wall-clock `Obs` and the
//! program's flight recorder subscribed. Layer times of the traced
//! phase come from the program's own histograms and counters over its
//! measured window:
//!
//! ```text
//! verdict (client side, traced phase)
//! ├─ core.wire.queue_wait    server.stage.queue_wait
//! ├─ core.wire.decode        server.stage.decode
//! ├─ core.wire.admission     server.stage.admission
//! ├─ core.auditor.verify     auditor.verify_latency_us
//! │  ├─ crypto               auditor.verify_batch.latency_us (the signature batch)
//! │  ├─ geo                  check_alibi_with_gaps, re-run on the same PoAs
//! │  └─ self                 verify minus the two above
//! ├─ core.journal.append     auditor.journal_append_latency_us
//! ├─ core.auditor.handle     server.latency.submit_poa minus every other server layer:
//! │                          audit chain, checkpoint root and signature,
//! │                          replication, storing the PoA
//! └─ core.wire.encode        server.stage.encode
//! ```
//!
//! `Auditor::verify` runs signature checks and geometry internally, so
//! geometry is timed by re-running the program's public kernel on the
//! same inputs; so are `RsaVerifier::verify` per sample, accusations,
//! journal replay, the audit chain's append, root and proofs (on the
//! chain the run left behind) and, for replicated workloads,
//! `Replicator::replicate` (on the journal the run left behind). These
//! kernels are reported beside the request path, never summed into it.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use alidrone_core::audit::AuditChain;
use alidrone_core::journal::{FsBackend, Journal, Record, StorageBackend};
use alidrone_core::repl::{Follower, InProcessLink, ReplicationPolicy, Replicator};
use alidrone_core::wire::Request;
use alidrone_core::{Accusation, Auditor, AuditorConfig, ProofOfAlibi, ZoneId};
use alidrone_crypto::rsa::{RsaPrivateKey, RsaVerifier};
use alidrone_geo::sufficiency::{check_alibi_with_gaps, Criterion};
use alidrone_geo::{Timestamp, ZoneSet, FAA_MAX_SPEED};
use alidrone_obs::{MetricsSnapshot, SpanRecord};

use crate::sys::{Dist, Obj};

/// Largest share of the traced client-side mean verdict latency that
/// the server's layer times may leave unexplained, either way, before
/// the traced run fails its reconciliation...
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// ...or, when larger, this many milliseconds. Moving the request and
/// response frames over loopback TCP and waking the client happen
/// outside every server histogram: 0.5–0.7 ms per verdict on a 2-vCPU
/// VM, 7–11% of `fleet_2048`'s 15 KB submissions.
pub const RECONCILE_FLOOR_MS: f64 = 0.5;

/// Submissions the kernels re-run (fewer when the run sent fewer).
const KERNEL_POAS: usize = 64;

/// Replicated appends the replication kernel times.
const KERNEL_REPLICATES: usize = 16;

// ------------------------------------------------------------ readings

/// Counters and histograms (count, sum in µs) of the server's `Obs`,
/// as the server process prints them: `c <name> <value>` and
/// `h <name> <count> <sum µs>`, one per line.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, (u64, u64)>,
}

impl Stats {
    pub fn render(snap: &MetricsSnapshot) -> String {
        let mut out = String::new();
        for (name, v) in &snap.counters {
            out.push_str(&format!("c {name} {v}\n"));
        }
        for (name, h) in &snap.histograms {
            out.push_str(&format!("h {name} {} {}\n", h.count, h.sum_micros));
        }
        out
    }

    pub fn parse(lines: &[String]) -> Stats {
        let mut s = Stats::default();
        for line in lines {
            let f: Vec<&str> = line.split_whitespace().collect();
            let n = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            match f.first() {
                Some(&"c") if f.len() == 3 => {
                    s.counters.insert(f[1].to_string(), n(2));
                }
                Some(&"h") if f.len() == 4 => {
                    s.histograms.insert(f[1].to_string(), (n(2), n(3)));
                }
                _ => {}
            }
        }
        s
    }

    /// What was recorded between `earlier` and `self`.
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, &(c, s))| {
                    let (c0, s0) = earlier.histograms.get(k).copied().unwrap_or((0, 0));
                    (k.clone(), (c.saturating_sub(c0), s.saturating_sub(s0)))
                })
                .collect(),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.histograms.get(name).map_or(0, |h| h.0)
    }

    pub fn sum_ms(&self, name: &str) -> f64 {
        self.histograms.get(name).map_or(0.0, |h| h.1 as f64 / 1e3)
    }

    pub fn mean_ms(&self, name: &str) -> f64 {
        self.sum_ms(name) / self.count(name).max(1) as f64
    }
}

/// Writes spans as a Chrome trace-event file (Perfetto loads it), with
/// the trace, span and parent ids the program's `Obs` gave them.
pub fn write_spans(spans: &[SpanRecord], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    f.write_all(b"{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let ev = Obj::new()
            .str("name", s.name)
            .str("ph", "X")
            .num("ts", s.start.secs() * 1e6)
            .num("dur", s.duration().secs() * 1e6)
            .int("pid", 1)
            .int("tid", 1)
            .raw(
                "args",
                &Obj::new()
                    .str("trace", &s.context.trace_id_hex())
                    .str("span", &s.context.span_id_hex())
                    .str(
                        "parent",
                        &s.context
                            .parent_id
                            .map_or(String::new(), |p| format!("{p:016x}")),
                    )
                    .finish(),
            );
        if i > 0 {
            f.write_all(b",")?;
        }
        f.write_all(ev.finish().as_bytes())?;
    }
    f.write_all(b"]}")?;
    f.flush()
}

// ------------------------------------------------------------ kernels

/// What the kernels run on.
pub struct KernelInput<'a> {
    pub key: &'a RsaPrivateKey,
    /// TEE verifiers, indexed by drone id − 1.
    pub verifiers: Vec<RsaVerifier>,
    pub zones: ZoneSet,
    /// `SubmitPoa` frames the run sent.
    pub submissions: Vec<&'a [u8]>,
    /// The primary journal the run left behind (it is not modified).
    pub journal: &'a Path,
    /// Scratch directory for the kernels' own journals.
    pub work: &'a Path,
    pub replicate: bool,
}

/// Kernel timings on the run's inputs and final state.
pub struct Kernels {
    pub verify_us: f64,
    pub sufficiency_ms: f64,
    /// Mean, to stand in for geometry's share of a mean verify.
    pub sufficiency_mean_ms: f64,
    pub zone_checks: f64,
    pub accuse_us: f64,
    pub replay_s: f64,
    pub journal_bytes: u64,
    pub audit_append_us: f64,
    pub root_ms: f64,
    pub inclusion_ms: f64,
    pub consistency_ms: f64,
    pub tree_size: u64,
    /// `(replicate_ms, bytes read per replicated append)`.
    pub replicate: Option<(f64, f64)>,
    pub bad_signatures: usize,
}

fn median(v: Vec<f64>) -> f64 {
    Dist::new(v).median()
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

fn rchar() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

pub fn kernels(k: &KernelInput<'_>) -> Result<Kernels, String> {
    let poas: Vec<(u64, f64, f64, ProofOfAlibi)> = k
        .submissions
        .iter()
        .take(KERNEL_POAS)
        .filter_map(|f| match Request::from_bytes(f) {
            Ok(Request::SubmitPoa {
                drone_id,
                window_start,
                window_end,
                poa,
            }) => Some((
                drone_id.value(),
                window_start.secs(),
                window_end.secs(),
                ProofOfAlibi::from_bytes(&poa).ok()?,
            )),
            _ => None,
        })
        .collect();
    if poas.is_empty() {
        return Err("no submissions to re-run the kernels on".into());
    }

    let mut verify_ms = Vec::new();
    let mut bad_signatures = 0;
    let mut geo_ms = Vec::new();
    let mut zone_checks = 0.0;
    for (drone, _, _, poa) in &poas {
        let verifier = &k.verifiers[*drone as usize - 1];
        for e in poa.entries() {
            let (r, ms) =
                time_ms(|| verifier.verify(&e.sample().to_bytes(), e.signature(), e.hash_alg()));
            bad_signatures += usize::from(r.is_err());
            verify_ms.push(ms);
        }
        let alibi = poa.alibi();
        let gaps = poa.gap_windows();
        let (r, ms) = time_ms(|| {
            check_alibi_with_gaps(&alibi, &k.zones, FAA_MAX_SPEED, Criterion::Paper, &gaps)
        });
        std::hint::black_box(r);
        geo_ms.push(ms);
        zone_checks += (alibi.len().saturating_sub(1) * k.zones.len()) as f64;
    }
    let geo_mean = geo_ms.iter().sum::<f64>() / geo_ms.len() as f64;

    // The final journal, copied so the kernels leave the run's own alone.
    let copy = k.work.join("kernel.journal");
    std::fs::copy(k.journal, &copy).map_err(|e| format!("copy journal: {e}"))?;
    let journal_bytes = std::fs::metadata(&copy).map_or(0, |m| m.len());
    let (opened, replay_ms) = time_ms(|| Journal::open(Arc::new(FsBackend::new(&copy))));
    let (journal, records, _) = opened.map_err(|e| format!("journal replay: {e}"))?;

    // Audit chain: rebuilt from the run's audited records; the last
    // appends, then root and proofs at the final size are timed.
    let audited: Vec<Vec<u8>> = records
        .iter()
        .filter(|r| r.is_audited())
        .map(Record::to_payload)
        .collect();
    let mut chain = AuditChain::new();
    let mut append_us = Vec::new();
    let timed_from = audited.len().saturating_sub(256);
    for (i, p) in audited.iter().enumerate() {
        if i >= timed_from {
            let ((), ms) = time_ms(|| chain.append(p));
            append_us.push(ms * 1e3);
        } else {
            chain.append(p);
        }
    }
    let n = chain.size();
    if n < 2 {
        return Err("audit chain too short for proofs".into());
    }
    let reps = |f: &mut dyn FnMut() -> f64| median((0..5).map(|_| f()).collect());
    let root_ms = reps(&mut || time_ms(|| std::hint::black_box(chain.root())).1);
    let inclusion_ms = reps(&mut || time_ms(|| chain.prove_inclusion(n / 2, n).is_ok()).1);
    let consistency_ms = reps(&mut || time_ms(|| chain.prove_consistency(n - 1, n).is_ok()).1);

    // Accusations against an auditor recovered from the run's journal,
    // each inside a stored window.
    let recovered = k.work.join("kernel-accuse.journal");
    std::fs::copy(&copy, &recovered).map_err(|e| format!("copy journal: {e}"))?;
    let (accuser, _) = Auditor::recover(
        Arc::new(FsBackend::new(&recovered)),
        AuditorConfig::default(),
        k.key.clone(),
    )
    .map_err(|e| format!("kernel auditor: {e}"))?;
    let mut accuse_us = Vec::new();
    for (drone, start, end, _) in &poas {
        let a = Accusation {
            zone_id: ZoneId::new(1),
            drone_id: alidrone_core::DroneId::new(*drone),
            time: Timestamp::from_secs((start + end) / 2.0),
        };
        let (r, ms) = time_ms(|| accuser.handle_accusation(&a));
        r.map_err(|e| format!("accuse: {e}"))?;
        accuse_us.push(ms * 1e3);
    }

    // Replication: catch a fresh follower up (untimed), then time each
    // replicated append of the run's own last verdict records.
    let replicate = if k.replicate {
        let backend: Arc<dyn StorageBackend> =
            Arc::new(FsBackend::new(k.work.join("kernel-follower.journal")));
        let r = Replicator::new(&alidrone_obs::Obs::noop(), ReplicationPolicy::Quorum(1))
            .with_follower("f0", InProcessLink::new(Arc::new(Follower::new(backend))));
        r.replicate(&journal)
            .map_err(|e| format!("kernel catch-up: {e}"))?;
        let stored: Vec<&Record> = records
            .iter()
            .filter(|r| matches!(r, Record::PoaStored { .. }))
            .collect();
        let mut ms = Vec::new();
        let mut read = 0u64;
        for rec in stored.iter().rev().take(KERNEL_REPLICATES) {
            journal
                .append_record(rec)
                .map_err(|e| format!("kernel append: {e}"))?;
            let io0 = rchar();
            let (res, t) = time_ms(|| r.replicate(&journal));
            read += rchar().saturating_sub(io0);
            res.map_err(|e| format!("kernel replicate: {e}"))?;
            ms.push(t);
        }
        let count = ms.len().max(1) as f64;
        Some((median(ms), read as f64 / count))
    } else {
        None
    };

    Ok(Kernels {
        verify_us: median(verify_ms) * 1e3,
        sufficiency_ms: median(geo_ms),
        sufficiency_mean_ms: geo_mean,
        zone_checks: zone_checks / poas.len() as f64,
        accuse_us: median(accuse_us),
        replay_s: replay_ms / 1e3,
        journal_bytes,
        audit_append_us: median(append_us),
        root_ms,
        inclusion_ms,
        consistency_ms,
        tree_size: n,
        replicate,
        bad_signatures,
    })
}

// ------------------------------------------------------------ layers

/// What the per-layer decomposition reads.
pub struct LayerInput<'a> {
    /// The server's `Obs` readings over the traced phase's window.
    pub window: &'a Stats,
    /// Verdicts the traced server gave over its whole life.
    pub all_verdicts: u64,
    /// Client-side verdict latencies of the traced and untraced phases.
    pub traced: &'a Dist,
    pub untraced: &'a Dist,
    pub kernels: &'a Kernels,
    pub prepared_bytes: u64,
    pub frame_bytes: f64,
    pub recover_s: f64,
}

pub struct Layers {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub reconciled: bool,
    pub detail: String,
}

/// Per-verdict layer self times from the traced window, checked
/// against the client-side mean verdict latency. Means, because self
/// times add up to a mean and not to a median; the median is reported
/// beside it.
pub fn layers(i: &LayerInput<'_>) -> Layers {
    let w = i.window;
    let k = i.kernels;
    let verdicts = w.count("server.latency.submit_poa").max(1) as f64;
    let per = |x: f64| x / verdicts;
    let submit = w.mean_ms("server.latency.submit_poa");
    let queue = w.mean_ms("server.stage.queue_wait");
    let decode = w.mean_ms("server.stage.decode");
    let admission = w.mean_ms("server.stage.admission");
    let encode = w.mean_ms("server.stage.encode");
    let verify = per(w.sum_ms("auditor.verify_latency_us"));
    let crypto = per(w.sum_ms("auditor.verify_batch.latency_us"));
    let geo = k.sufficiency_mean_ms;
    let verify_self = verify - crypto - geo;
    let journal = per(w.sum_ms("auditor.journal_append_latency_us"));
    let handle_self = submit - decode - admission - encode - verify - journal;
    let selfs = [
        ("core.wire.queue_wait", queue),
        ("core.wire.decode", decode),
        ("core.wire.admission", admission),
        ("crypto", crypto),
        ("geo", geo),
        ("core.auditor.verify", verify_self),
        ("core.journal.append", journal),
        ("core.auditor.handle", handle_self),
        ("core.wire.encode", encode),
    ];
    let sum: f64 = selfs.iter().map(|s| s.1).sum();
    let client = i.traced.mean();
    let unattributed = if client > 0.0 {
        (client - sum) / client
    } else {
        1.0
    };
    let reconciled = (client - sum).abs() <= (RECONCILE_TOLERANCE * client).max(RECONCILE_FLOOR_MS)
        && selfs.iter().all(|s| s.1 >= 0.0)
        && k.bad_signatures == 0
        && w.count("server.latency.submit_poa") > 0;
    let hits = w.counter("auditor.verify_cache.hits") as f64;
    let misses = w.counter("auditor.verify_cache.misses") as f64;
    let mut metrics: Vec<(String, f64, &'static str)> = vec![
        ("crypto.verify_us".into(), k.verify_us, "us"),
        ("crypto.verifies_per_verdict".into(), per(misses), "count"),
        ("geo.sufficiency_ms".into(), k.sufficiency_ms, "ms"),
        ("geo.zone_checks_per_verdict".into(), k.zone_checks, "count"),
        ("core.auditor.verify_ms".into(), verify, "ms"),
        ("core.auditor.verify_self_ms".into(), verify_self, "ms"),
        ("core.auditor.handle_self_ms".into(), handle_self, "ms"),
        ("core.auditor.accuse_us".into(), k.accuse_us, "us"),
        ("core.auditor.recover_s".into(), i.recover_s, "s"),
        (
            "core.cache.verify_hit_ratio".into(),
            hits / (hits + misses).max(1.0),
            "ratio",
        ),
        (
            "core.cache.lookups_per_verdict".into(),
            per(hits + misses),
            "count",
        ),
        (
            "core.verify_pool.batches_per_verdict".into(),
            per(w.counter("auditor.verify_batch.batches") as f64),
            "count",
        ),
        (
            "core.verify_pool.batch_ms".into(),
            w.mean_ms("auditor.verify_batch.latency_us"),
            "ms",
        ),
        (
            "core.journal.append_us".into(),
            w.mean_ms("auditor.journal_append_latency_us") * 1e3,
            "us",
        ),
        (
            "core.journal.bytes_per_verdict".into(),
            k.journal_bytes.saturating_sub(i.prepared_bytes) as f64 / i.all_verdicts.max(1) as f64,
            "bytes",
        ),
        ("core.journal.replay_s".into(), k.replay_s, "s"),
        ("core.audit.append_us".into(), k.audit_append_us, "us"),
        ("core.audit.root_ms".into(), k.root_ms, "ms"),
        ("core.audit.inclusion_ms".into(), k.inclusion_ms, "ms"),
        ("core.audit.consistency_ms".into(), k.consistency_ms, "ms"),
        ("core.audit.tree_size".into(), k.tree_size as f64, "count"),
        ("core.wire.queue_wait_ms".into(), queue, "ms"),
        ("core.wire.decode_us".into(), decode * 1e3, "us"),
        ("core.wire.encode_us".into(), encode * 1e3, "us"),
        ("core.wire.frame_bytes".into(), i.frame_bytes, "bytes"),
        ("trace.request_ms".into(), i.traced.median(), "ms"),
        ("trace.unattributed_frac".into(), unattributed, "ratio"),
        (
            "trace.overhead_ms".into(),
            i.traced.median() - i.untraced.median(),
            "ms",
        ),
    ];
    if let Some((ms, read)) = k.replicate {
        metrics.push(("core.repl.replicate_ms".into(), ms, "ms"));
        metrics.push(("core.repl.bytes_read_per_verdict".into(), read, "bytes"));
    }
    let layer_obj = selfs
        .iter()
        .fold(Obj::new(), |o, (name, v)| o.num(name, *v))
        .finish();
    let detail = Obj::new()
        .int("verdicts_in_window", verdicts as u64)
        .raw("self_ms_per_verdict", &layer_obj)
        .num("sum_of_layers_ms", sum)
        .num("client_mean_ms", client)
        .num("client_median_ms", i.traced.median())
        .num("untraced_client_median_ms", i.untraced.median())
        .num("server_submit_mean_ms", submit)
        .num("unattributed_frac", unattributed)
        .num("reconcile_tolerance", RECONCILE_TOLERANCE)
        .num("reconcile_floor_ms", RECONCILE_FLOOR_MS)
        .bool("reconciled", reconciled)
        .int("kernel_bad_signatures", k.bad_signatures as u64)
        .finish();
    Layers {
        metrics,
        reconciled,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_survive_the_pipe_and_subtract() {
        let obs = alidrone_obs::Obs::noop();
        obs.counter("a.count").add(3);
        obs.histogram("a.latency_us").record_micros(1500);
        let before = Stats::parse(
            &Stats::render(&obs.snapshot())
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        );
        obs.counter("a.count").add(4);
        obs.histogram("a.latency_us").record_micros(2500);
        obs.histogram("a.latency_us").record_micros(3500);
        let after = Stats::parse(
            &Stats::render(&obs.snapshot())
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        );
        let d = after.since(&before);
        assert_eq!(d.counter("a.count"), 4);
        assert_eq!(d.count("a.latency_us"), 2);
        assert_eq!(d.mean_ms("a.latency_us"), 3.0);
        assert_eq!(d.counter("missing"), 0);
    }
}
