//! The AliDrone proof-of-alibi benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path poabench/Cargo.toml -- \
//!     --workload fleet_2048 --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path poabench/Cargo.toml -- --smoke
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object `{correct, attempted, failed, metrics}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it holds the full report. Inputs,
//! journals and traces live under `.poabench/` in the working directory.

mod corpus;
mod flight;
mod rng;
mod server;
mod sign;
mod sys;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use corpus::{Expect, Workload, WORKLOADS};
use server::Kind;
use sys::{Dist, Obj};

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("cpu_ms_per_verdict", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every server workload's traced run reports, as
/// `BENCHMARK.json` lists them. Workload-specific layers (replication,
/// TEE, sampling) are in the full report only.
const PER_LAYER: [(&str, &str); 28] = [
    ("crypto.verify_us", "us"),
    ("crypto.verifies_per_verdict", "count"),
    ("geo.sufficiency_ms", "ms"),
    ("geo.zone_checks_per_verdict", "count"),
    ("core.auditor.verify_ms", "ms"),
    ("core.auditor.verify_self_ms", "ms"),
    ("core.auditor.handle_self_ms", "ms"),
    ("core.auditor.accuse_us", "us"),
    ("core.auditor.recover_s", "s"),
    ("core.cache.verify_hit_ratio", "ratio"),
    ("core.cache.lookups_per_verdict", "count"),
    ("core.verify_pool.batches_per_verdict", "count"),
    ("core.verify_pool.batch_ms", "ms"),
    ("core.journal.append_us", "us"),
    ("core.journal.bytes_per_verdict", "bytes"),
    ("core.journal.replay_s", "s"),
    ("core.audit.append_us", "us"),
    ("core.audit.root_ms", "ms"),
    ("core.audit.inclusion_ms", "ms"),
    ("core.audit.consistency_ms", "ms"),
    ("core.audit.tree_size", "count"),
    ("core.wire.queue_wait_ms", "ms"),
    ("core.wire.decode_us", "us"),
    ("core.wire.encode_us", "us"),
    ("core.wire.frame_bytes", "bytes"),
    ("trace.request_ms", "ms"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer metrics of `flight_2048`'s traced run (the drone side).
const FLIGHT_LAYER: [(&str, &str); 6] = [
    ("tee.gps_auth_ms", "ms"),
    ("tee.world_switches_per_sample", "count"),
    ("crypto.sign_ms", "ms"),
    ("core.sampling.samples_per_flight", "count"),
    ("core.sampling.skip_ratio", "ratio"),
    ("core.flight.self_ms", "ms"),
];

/// One metric with how it was summarised.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    stat: String,
    samples: usize,
}

fn metric(
    name: &str,
    value: f64,
    unit: &'static str,
    stat: impl Into<String>,
    samples: usize,
) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        stat: stat.into(),
        samples,
    }
}

/// What one invocation produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra report fields, as a JSON object.
    detail: String,
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// Run as the server process in this work directory (internal).
    serve: Option<PathBuf>,
    setups: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        serve: None,
        setups: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--smoke" => a.smoke = true,
            "--serve" => a.serve = Some(PathBuf::from(value()?)),
            "--setups" => a.setups = value()?.parse().map_err(|e| format!("--setups: {e}"))?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if a.workload.is_none() && !a.smoke {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn root() -> PathBuf {
    PathBuf::from(".poabench")
}

// ------------------------------------------------------------ servers

fn run_server(w: Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Outcome, String> {
    let t_prep = Instant::now();
    let prep = server::prepare(w, seed, seconds, smoke, &root())?;
    let prep_s = t_prep.elapsed().as_secs_f64();
    let setups = if smoke { 1 } else { server::SETUPS_BEFORE };
    let child = server::Child::spawn(&prep, w, seed, setups, false)?;
    let key = prep.key.public_key().clone();
    let r = server::drive(
        w,
        seed,
        &child,
        &prep.corpus.ops,
        &key,
        seconds,
        server::warmup_s(smoke),
    )?;
    let (mut setups, mut recovers) = (child.setups.clone(), child.recovers.clone());
    child.quit()?;
    if !smoke {
        // More cold starts after the window, so the median spans the run.
        let late = server::Child::spawn(&prep, w, seed, server::SETUPS_AFTER, false)?;
        setups.extend(&late.setups);
        recovers.extend(&late.recovers);
        late.quit()?;
    }
    let setup = Dist::new(setups);
    let recover = Dist::new(recovers);

    let verdicts = server::measured(&r, Kind::Verdict);
    let good = verdicts.iter().filter(|s| s.ok).count();
    let lat = server::latency_dist(&verdicts);
    let (q, tail) = lat.tail(server::TAIL);
    let per = |x: f64| x / good.max(1) as f64;
    let mut detail = Obj::new()
        .num("prep_s", prep_s)
        .bool("corpus_from_cache", prep.cached)
        .int("corpus_ops", prep.corpus.ops.len() as u64)
        .int("history_poas", prep.corpus.history.len() as u64)
        .bool("corpus_exhausted", r.exhausted)
        .num("measured_s", r.window.seconds)
        .num("active_s", r.window.active_s)
        .bool("peak_rss_reset", r.window.rss_reset)
        .raw("setup_quantiles_s", &quantiles_json(&setup))
        .num("recover_p50_s", recover.median())
        .raw("verdict_quantiles_ms", &quantiles_json(&lat))
        .num("error_frac", r.failed as f64 / r.attempted.max(1) as f64)
        .num("disk_bytes_per_verdict", per(r.window.disk_bytes as f64));
    if w == Workload::AuditMix1024 {
        let proofs = server::latency_dist(&server::measured(&r, Kind::Proof));
        let accuse = server::latency_dist(&server::measured(&r, Kind::Accuse));
        let cons = server::latency_dist(&server::measured(&r, Kind::Consistency));
        let (pq, pt) = proofs.tail(server::TAIL);
        let late = r.samples.iter().map(|s| s.late_ms).fold(0.0, f64::max);
        detail = detail
            .raw(
                "proof_p50_ms",
                &stat_json(proofs.median(), "p50", proofs.len()),
            )
            .raw("proof_tail_ms", &stat_json(pt, &pct(pq), proofs.len()))
            .raw(
                "consistency_p50_ms",
                &stat_json(cons.median(), "p50", cons.len()),
            )
            .raw(
                "accuse_p50_ms",
                &stat_json(accuse.median(), "p50", accuse.len()),
            )
            .num("loadgen.late_ms_max", late)
            .num("offered_submissions_per_s", server::MIX_SUBMIT_RATE)
            .num("offered_monitor_ops_per_s", server::MIX_MONITOR_RATE)
            .int("retry_every", corpus::MIX_RETRY_EVERY as u64);
    }
    let _ = std::fs::remove_dir_all(&prep.work);
    Ok(Outcome {
        correct: r.failed == 0 && good > 0,
        attempted: r.attempted,
        failed: r.failed,
        metrics: vec![
            metric(
                "setup_s",
                setup.median(),
                "s",
                format!("median of {}", setup.len()),
                setup.len(),
            ),
            metric(
                "verdicts_per_s",
                good as f64 / r.window.active_s,
                "1/s",
                "count / active time",
                good,
            ),
            metric("verdict_p50_ms", lat.median(), "ms", "p50", lat.len()),
            metric("verdict_tail_ms", tail, "ms", pct(q), lat.len()),
            metric(
                "cpu_ms_per_verdict",
                per(r.window.cpu_s * 1e3),
                "ms",
                "server process CPU over the window / verdicts",
                good,
            ),
            metric(
                "peak_rss_mb",
                r.window.peak_rss_mb,
                "MiB",
                "server process peak to the window's n-th verdict",
                1,
            ),
        ],
        detail: detail.finish(),
    })
}

fn pct(q: f64) -> String {
    format!("p{}", (q * 100.0).round())
}

fn quantiles_json(d: &Dist) -> String {
    [0.5, 0.75, 0.9, 0.95, 0.99]
        .iter()
        .fold(Obj::new(), |o, &q| o.num(&pct(q), d.quantile(q)))
        .int("samples", d.len() as u64)
        .finish()
}

fn stat_json(value: f64, stat: &str, samples: usize) -> String {
    Obj::new()
        .num("value", value)
        .str("stat", stat)
        .int("samples", samples as u64)
        .finish()
}

fn run_server_traced(w: Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Outcome, String> {
    let prep = server::prepare(w, seed, seconds, smoke, &root())?;
    let key = prep.key.public_key().clone();
    let half = seconds / 2.0;
    let phase = |traced: bool| -> Result<(server::LoadResult, server::Child), String> {
        let child = server::Child::spawn(&prep, w, seed, 1, traced)?;
        let r = server::drive(
            w,
            seed,
            &child,
            &prep.corpus.ops,
            &key,
            half,
            server::warmup_s(smoke),
        )?;
        Ok((r, child))
    };
    // The untraced phase runs as the end-to-end run does; the traced one
    // adds the wall-clock `Obs` with the program's recorder subscribed.
    let (plain, child) = phase(false)?;
    child.quit()?;
    let (r, child) = phase(true)?;
    let file = root()
        .join("traces")
        .join(format!("{}-seed{}.json", w.name(), seed));
    child.write_spans(&file)?;
    let end = child.stats()?;
    let journal = child.dir.join("primary.journal");
    let recover_s = child.recovers[0];
    child.quit()?;
    let (s0, s1) = r
        .window
        .stats
        .as_ref()
        .ok_or("traced window has no readings")?;
    let window = s1.since(s0);

    let submissions: Vec<&[u8]> = prep
        .corpus
        .ops
        .iter()
        .filter(|op| matches!(op.expect, Expect::Verdict(_)))
        .map(|op| op.frame.as_slice())
        .collect();
    let frame_bytes =
        submissions.iter().map(|f| f.len() as f64).sum::<f64>() / submissions.len().max(1) as f64;
    let k = trace::kernels(&trace::KernelInput {
        key: &prep.key,
        verifiers: (0..prep.corpus.drones.len())
            .map(|i| corpus::tee_public(&prep.corpus, i).verifier())
            .collect(),
        zones: prep
            .corpus
            .zones
            .iter()
            .map(|&(a, b, c)| server::zone(a, b, c))
            .collect(),
        submissions,
        journal: &journal,
        work: &prep.work,
        replicate: w == Workload::AuditMix1024,
    })?;
    let traced = server::latency_dist(&server::measured(&r, Kind::Verdict));
    let untraced = server::latency_dist(&server::measured(&plain, Kind::Verdict));
    let prepared_bytes =
        std::fs::metadata(prep.work.join(server::PREPARED_JOURNAL)).map_or(0, |m| m.len());
    let layers = trace::layers(&trace::LayerInput {
        window: &window,
        all_verdicts: end.count("server.latency.submit_poa"),
        traced: &traced,
        untraced: &untraced,
        kernels: &k,
        prepared_bytes,
        frame_bytes,
        recover_s,
    });
    let _ = std::fs::remove_dir_all(&prep.work);
    let mut failed = plain.failed + r.failed + k.bad_signatures as u64;
    let mut attempted = plain.attempted + r.attempted;
    let mut metrics: Vec<Metric> = layers
        .metrics
        .into_iter()
        .map(|(n, v, u)| metric(&n, v, u, "traced window", traced.len()))
        .collect();
    if w == Workload::AuditMix1024 {
        let late = r.samples.iter().map(|s| s.late_ms).fold(0.0, f64::max);
        metrics.push(metric(
            "loadgen.late_ms_max",
            late,
            "ms",
            "max",
            r.samples.len(),
        ));
    }
    if w == Workload::Fleet2048 {
        // The drone-side layers (`tee`, `core.sampling`, RSA signing) ride
        // on the 2048-bit workload's traced run: `flight_2048` is too
        // noisy on a small shared host to sit in BENCHMARK.json.
        let (tee_key, _) = flight::provision(seed, true);
        let count = if smoke { 2 } else { DRONE_SIDE_FLIGHTS };
        let (ft, flown) = flight::traced_flights(seed, &tee_key, &prep.key, count);
        attempted += flown.len() as u64;
        failed += flown.iter().filter(|(f, _)| !f.ok).count() as u64;
        metrics.extend(
            ft.metrics
                .into_iter()
                .map(|(n, v, u)| metric(&n, v, u, "traced flights", flown.len())),
        );
    }
    Ok(Outcome {
        correct: failed == 0 && layers.reconciled,
        attempted,
        failed,
        metrics,
        detail: Obj::new()
            .raw("layers", &layers.detail)
            .str("trace_file", &file.display().to_string())
            .finish(),
    })
}

// ------------------------------------------------------------ flights

fn run_flights(seed: u64, seconds: f64, smoke: bool, traced: bool) -> Result<Outcome, String> {
    let (key, provisionings) = flight::provision(seed, smoke);
    let judge = server::auditor_key(seed, 1024);
    if traced {
        return Ok(run_flights_traced(seed, smoke, &key, &judge));
    }
    let obs = alidrone_obs::Obs::noop();
    let start = Instant::now();
    let measure_from = start + std::time::Duration::from_secs_f64(server::warmup_s(smoke));
    let end = measure_from + std::time::Duration::from_secs_f64(seconds);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let (mut cpu0, mut rss_reset) = (None, false);
    let (mut wall, mut samples, mut lat) = (0.0, 0usize, Vec::new());
    let mut cpu1 = 0.0;
    let mut peak = None;
    let mut i = 0;
    loop {
        let now = Instant::now();
        if now >= end && attempted > 0 {
            break;
        }
        let counted = now >= measure_from;
        if counted && cpu0.is_none() {
            cpu0 = Some(sys::cpu_s(None));
            rss_reset = sys::reset_peak_rss(None);
        }
        let f = flight::fly(&flight::plan(seed, i), &key, &obs, &judge);
        i += 1;
        attempted += 1;
        if !f.ok {
            failed += 1;
        }
        if counted {
            cpu1 = sys::cpu_s(None);
            if f.ok {
                wall += f.wall_s;
                samples += f.samples;
                lat.push(f.wall_s * 1e3);
                if lat.len() == server::rss_verdicts(Workload::Flight2048) {
                    peak = Some(sys::peak_rss_mb(None));
                }
            }
        }
    }
    let peak = peak.unwrap_or_else(|| sys::peak_rss_mb(None));
    let n = lat.len();
    let lat = Dist::new(lat);
    let (q, tail) = lat.tail(server::TAIL);
    let setup = Dist::new(provisionings.clone());
    let cpu_ms = (cpu1 - cpu0.unwrap_or(cpu1)) * 1e3;
    Ok(Outcome {
        correct: failed == 0 && n > 0,
        attempted,
        failed,
        metrics: vec![
            metric(
                "setup_s",
                setup.median(),
                "s",
                format!("median of {}", provisionings.len()),
                provisionings.len(),
            ),
            metric(
                "verdicts_per_s",
                n as f64 / wall.max(1e-9),
                "1/s",
                "flights / flight time",
                n,
            ),
            metric("verdict_p50_ms", lat.median(), "ms", "p50", n),
            metric("verdict_tail_ms", tail, "ms", pct(q), n),
            metric(
                "cpu_ms_per_verdict",
                cpu_ms / n.max(1) as f64,
                "ms",
                "window total / verdicts",
                n,
            ),
            metric(
                "peak_rss_mb",
                peak,
                "MiB",
                "peak to the window's n-th verdict",
                1,
            ),
        ],
        detail: Obj::new()
            .num("attest_samples_per_s", samples as f64 / wall.max(1e-9))
            .num("samples_per_flight", samples as f64 / n.max(1) as f64)
            .num("error_frac", failed as f64 / attempted.max(1) as f64)
            .bool("peak_rss_reset", rss_reset)
            .str("sampling", "adaptive, 5 Hz receiver")
            .finish(),
    })
}

/// Flights flown in `flight_2048`'s traced run.
const TRACED_FLIGHTS: usize = 32;

/// Flights `fleet_2048`'s traced run flies for the drone-side layers.
const DRONE_SIDE_FLIGHTS: usize = 16;

fn run_flights_traced(
    seed: u64,
    smoke: bool,
    key: &alidrone_crypto::rsa::RsaPrivateKey,
    judge: &alidrone_crypto::rsa::RsaPrivateKey,
) -> Outcome {
    let count = if smoke { 2 } else { TRACED_FLIGHTS };
    let (ft, flown) = flight::traced_flights(seed, key, judge, count);
    let failed = flown.iter().filter(|(f, _)| !f.ok).count() as u64;
    Outcome {
        correct: failed == 0,
        attempted: flown.len() as u64,
        failed,
        metrics: ft
            .metrics
            .into_iter()
            .map(|(n, v, u)| metric(&n, v, u, "traced flights", flown.len()))
            .collect(),
        detail: Obj::new().finish(),
    }
}

// ------------------------------------------------------------ entry point

fn run(w: Workload, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Result<Outcome, String> {
    match (w, traced) {
        (Workload::Flight2048, _) => run_flights(seed, seconds, smoke, traced),
        (_, false) => run_server(w, seed, seconds, smoke),
        (_, true) => run_server_traced(w, seed, seconds, smoke),
    }
}

/// The metrics the result line carries.
fn wanted_metrics(w: Workload, traced: bool) -> &'static [(&'static str, &'static str)] {
    match (traced, w) {
        (false, _) => &END_TO_END,
        (true, Workload::Flight2048) => &FLIGHT_LAYER,
        (true, _) => &PER_LAYER,
    }
}

/// The full report line and the contract line.
fn render(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    o: &Outcome,
    machine: &str,
) -> (String, String) {
    let wanted = wanted_metrics(w, traced);
    let mut all = Obj::new();
    for m in &o.metrics {
        all = all.raw(
            &m.name,
            &Obj::new()
                .num("value", m.value)
                .str("unit", m.unit)
                .str("stat", &m.stat)
                .int("samples", m.samples as u64)
                .finish(),
        );
    }
    let report = Obj::new()
        .str("workload", w.name())
        .int("seed", seed)
        .num("seconds", seconds)
        .bool("trace", traced)
        .str("flush_policy", "journal appends write and flush to the OS; no fsync (seed default)")
        .str(
            "server",
            "AuditorServer::builder defaults: 4 workers, queue 64, verify pool sized to the machine, no rate limit; own process, glibc mmap threshold held at 128 KiB",
        )
        .raw("machine", machine)
        .raw("metrics", &all.finish())
        .raw("detail", &o.detail)
        .finish();
    let mut contract = Obj::new();
    for (name, unit) in wanted {
        let v = o
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .map_or(f64::NAN, |m| m.value);
        contract = contract.raw(name, &Obj::new().num("value", v).str("unit", unit).finish());
    }
    let last = Obj::new()
        .bool("correct", o.correct)
        .int("attempted", o.attempted)
        .int("failed", o.failed)
        .raw("metrics", &contract.finish())
        .finish();
    (report, last)
}

/// Runs one workload with the machine record around it.
fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<(String, String, Outcome), String> {
    let cal0 = if smoke { 0.0 } else { sys::calibration_ms() };
    let steal0 = sys::steal_ticks();
    let t = Instant::now();
    let o = run(w, seed, seconds, traced, smoke)?;
    let machine = Obj::new()
        .str("cpu_model", &sys::cpu_model())
        .int("nproc", sys::nproc() as u64)
        .num("calibration_before_ms", cal0)
        .num(
            "calibration_after_ms",
            if smoke { 0.0 } else { sys::calibration_ms() },
        )
        .int("steal_ticks", sys::steal_ticks().saturating_sub(steal0))
        .num("run_wall_s", t.elapsed().as_secs_f64())
        .finish();
    let (report, last) = render(w, seed, seconds, traced, &o, &machine);
    Ok((report, last, o))
}

/// Runs every workload end to end at tiny sizes, untraced and traced,
/// and checks outputs, metric names and units, and reconciliation.
fn smoke(seed: u64, seconds: f64) -> bool {
    let declared = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let mut ok = true;
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        if !declared.contains(&entry) {
            eprintln!("smoke: BENCHMARK.json does not declare {name} in {unit}");
            ok = false;
        }
    }
    for w in WORKLOADS {
        for traced in [false, true] {
            match measure(w, seed, seconds, traced, true) {
                Ok((report, last, o)) => {
                    let wanted = wanted_metrics(w, traced);
                    let missing: Vec<&str> = wanted
                        .iter()
                        .filter(|(n, u)| {
                            !o.metrics
                                .iter()
                                .any(|m| m.name == *n && m.unit == *u && m.value.is_finite())
                        })
                        .map(|(n, _)| *n)
                        .collect();
                    let pass = o.correct && o.failed == 0 && missing.is_empty();
                    println!(
                        "smoke {:<15} trace={} {} {}",
                        w.name(),
                        u8::from(traced),
                        if pass { "ok  " } else { "FAIL" },
                        if missing.is_empty() {
                            last
                        } else {
                            format!("missing {missing:?}")
                        }
                    );
                    if !pass {
                        println!("{report}");
                    }
                    ok &= pass;
                }
                Err(e) => {
                    println!("smoke {:<15} trace={} FAIL {e}", w.name(), u8::from(traced));
                    ok = false;
                }
            }
        }
    }
    ok
}

/// glibc's default mmap threshold (128 KiB), held fixed in every
/// process of the benchmark, the server's included. By default glibc
/// raises the threshold to the size of the last large block freed and
/// lets the heap keep that much; `Replicator::replicate` copies the
/// whole journal into a fresh buffer on every append, so the server
/// flips on a seconds timescale between reusing heap pages and faulting
/// in new ones, and `audit_mix_1024`'s verdict p50 between ~5 and
/// ~12 ms. Held fixed, every such buffer is freshly mapped, as the first
/// one is. The kernels of a traced run allocate the same way.
const MALLOC_TUNABLES: &str = "glibc.malloc.mmap_threshold=131072";

/// Runs this binary again with [`MALLOC_TUNABLES`] set, which glibc
/// reads only at start, and waits for it.
fn reexec_with_tunables() -> ExitCode {
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
            .status()
    });
    match status {
        Ok(s) => ExitCode::from(u8::try_from(s.code().unwrap_or(1)).unwrap_or(1)),
        Err(e) => {
            eprintln!("poabench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::var_os("GLIBC_TUNABLES").as_deref() != Some(MALLOC_TUNABLES.as_ref()) {
        return reexec_with_tunables();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("poabench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(work) = &args.serve {
        let w = args.workload.expect("checked in parse_args");
        return match server::serve(w, args.seed, work, args.setups, args.trace) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("poabench server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.smoke {
        return if smoke(args.seed, args.seconds.min(2.0)) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let w = args.workload.expect("checked in parse_args");
    match measure(w, args.seed, args.seconds, args.trace, false) {
        Ok((report, last, o)) => {
            println!("{report}");
            println!("{last}");
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("poabench: {e}");
            ExitCode::FAILURE
        }
    }
}
