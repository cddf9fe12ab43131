//! The persistent PoA performance baseline runner.
//!
//! Measures a fixed list of protocol-critical operations — RSA
//! sign/verify, end-to-end PoA verification, zone queries over the wire
//! codec, journal appends, a real loopback TCP round trip, the metrics
//! exporter — and writes the quantiles to a schema-versioned
//! `BENCH_poa.json` (see [`alidrone_bench::baseline`]). A committed
//! baseline plus `--diff` turns the file into a regression gate:
//!
//! ```text
//! cargo run -p alidrone-bench --release --bin bench_poa             # write BENCH_poa.json
//! cargo run -p alidrone-bench --release --bin bench_poa -- \
//!     --out new.json
//! cargo run -p alidrone-bench --release --bin bench_poa -- \
//!     --diff BENCH_poa.json new.json --threshold 0.25               # exit 1 on regression
//! ```
//!
//! `--samples N` (or `BENCH_POA_SAMPLES=N`) trades precision for wall
//! time. `--gate PREFIX,...` narrows which cases can fail the diff:
//! regressions in matching cases exit non-zero, the rest print as
//! advisory. CI uses a reduced sample count and gates only the
//! CPU-bound crypto cases (`rsa_verify_*`, `poa_verify_e2e_50`), which
//! stay stable on shared runners; the I/O-heavy cases remain advisory.

use std::process::ExitCode;
use std::sync::Arc;

use alidrone_bench::baseline::{diff, Baseline, BenchCase};
use alidrone_bench::bench_key;
use alidrone_bench::harness::{black_box, BatchSize, Bencher};
use alidrone_core::audit::{verify_inclusion, AuditChain};
use alidrone_core::journal::{Journal, MemBackend, Record, StorageBackend};
use alidrone_core::repl::{Follower, InProcessLink, ReplicationPolicy, Replicator};
use alidrone_core::wire::server::AuditorServer;
use alidrone_core::wire::tcp::{TcpServer, TcpTransport};
use alidrone_core::wire::transport::AuditorClient;
use alidrone_core::wire::{Request, Response};
use alidrone_core::{
    Auditor, AuditorConfig, DroneId, PoaSubmission, ProofOfAlibi, Submission, ZoneQuery,
};
use alidrone_crypto::rsa::HashAlg;
use alidrone_geo::{Distance, GeoPoint, GpsSample, NoFlyZone, Timestamp};
use alidrone_obs::{prometheus_text, Obs, ToJson};
use alidrone_tee::SignedSample;

/// Default measurement samples per case (CI overrides this down).
const DEFAULT_SAMPLES: usize = 20;

/// Default regression slack for `--diff`: run-to-run noise on a warm
/// machine stays well inside 25%.
const DEFAULT_THRESHOLD: f64 = 0.25;

fn origin() -> GeoPoint {
    GeoPoint::new(40.1164, -88.2434).expect("valid origin")
}

/// An eastbound 10 m/s trace signed with the cached 512-bit bench key
/// (the same construction the unit-test fixtures use).
fn signed_trace(n: usize) -> ProofOfAlibi {
    let key = bench_key(512);
    (0..n)
        .map(|i| {
            let s = GpsSample::new(
                origin().destination(90.0, Distance::from_meters(10.0 * i as f64)),
                Timestamp::from_secs(i as f64),
            );
            let sig = key
                .sign(&s.to_bytes(), HashAlg::Sha1)
                .expect("bench signing");
            SignedSample::from_parts(s, sig, HashAlg::Sha1)
        })
        .collect()
}

fn case_from(name: &str, b: &Bencher) -> BenchCase {
    let median_ns = b.median_ns();
    BenchCase {
        name: name.to_string(),
        samples: b.sample_count() as u64,
        median_ns,
        p95_ns: b.p95_ns(),
        p99_ns: b.p99_ns(),
        throughput_per_sec: if median_ns > 0.0 {
            1e9 / median_ns
        } else {
            0.0
        },
    }
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

fn report_case(case: &BenchCase) {
    println!(
        "{:<28} median {:>12}  p95 {:>12}  p99 {:>12}  {:>12.1}/s",
        case.name,
        human_time(case.median_ns),
        human_time(case.p95_ns),
        human_time(case.p99_ns),
        case.throughput_per_sec,
    );
}

/// Runs every case at `samples` samples each, in a fixed order so two
/// baseline files are diffable line by line.
fn run_cases(samples: usize) -> Vec<BenchCase> {
    let mut cases = Vec::new();
    let mut run = |name: &str, f: &mut dyn FnMut(&mut Bencher)| {
        let mut b = Bencher::with_samples(samples);
        f(&mut b);
        let case = case_from(name, &b);
        report_case(&case);
        cases.push(case);
    };

    // --- RSA primitives: the per-sample cost floor of the protocol.
    let msg = b"alidrone bench message: one GPS sample's signing payload";
    run("rsa_sign_1024", &mut |b| {
        let key = bench_key(1024);
        b.iter(|| key.sign(msg, HashAlg::Sha1).expect("sign"));
    });
    for bits in [1024usize, 2048] {
        run(&format!("rsa_verify_{bits}"), &mut |b| {
            let key = bench_key(bits);
            let sig = key.sign(msg, HashAlg::Sha1).expect("sign");
            b.iter(|| {
                key.public_key()
                    .verify(msg, &sig, HashAlg::Sha1)
                    .expect("verify")
            });
        });
    }

    // --- The prepared-context fast path: Montgomery parameters are
    // computed once, so this is what a registered key's verify costs.
    run("rsa_verify_prepared_2048", &mut |b| {
        let key = bench_key(2048);
        let sig = key.sign(msg, HashAlg::Sha1).expect("sign");
        let verifier = key.public_key().verifier();
        b.iter(|| verifier.verify(msg, &sig, HashAlg::Sha1).expect("verify"));
    });

    // --- PoA verification end to end: 50 samples, one zone nearby
    // (signatures → monotonicity → feasibility → eq. 1), fresh auditor
    // per sample so stored proofs never accumulate into the timing.
    run("poa_verify_e2e_50", &mut |b| {
        let submission = Submission::plain(PoaSubmission {
            drone_id: DroneId::new(1),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(49.0),
            poa: signed_trace(50),
        });
        b.iter_batched(
            || {
                let a = Auditor::new(AuditorConfig::default(), bench_key(512).clone());
                a.register_zone(NoFlyZone::new(
                    origin().destination(0.0, Distance::from_km(5.0)),
                    Distance::from_meters(100.0),
                ));
                a.register_drone(
                    bench_key(512).public_key().clone(),
                    bench_key(512).public_key().clone(),
                );
                a
            },
            |a| {
                a.verify(&submission, Timestamp::from_secs(0.0))
                    .expect("verify submission")
            },
            BatchSize::SmallInput,
        );
    });

    // --- A signed zone query through the full wire path (decode →
    // admission → signature check → spatial lookup → encode). Each
    // sample consumes a fresh nonce; signing it happens in untimed
    // setup.
    run("zone_query_wire", &mut |b| {
        let obs = Obs::noop();
        let server = AuditorServer::builder(Auditor::new(
            AuditorConfig::default(),
            bench_key(512).clone(),
        ))
        .obs(&obs)
        .build();
        let drone = server.auditor().register_drone(
            bench_key(512).public_key().clone(),
            bench_key(512).public_key().clone(),
        );
        for i in 0..16u64 {
            server.auditor().register_zone(NoFlyZone::new(
                origin().destination((i as f64 * 137.5) % 360.0, Distance::from_km(1.0)),
                Distance::from_meters(50.0),
            ));
        }
        let mut nonce_counter = 0u64;
        let mut next_query = || {
            nonce_counter += 1;
            let mut nonce = [0u8; 16];
            nonce[..8].copy_from_slice(&nonce_counter.to_be_bytes());
            let q = ZoneQuery::new_signed(
                drone,
                origin(),
                origin().destination(45.0, Distance::from_km(3.0)),
                nonce,
                bench_key(512),
            )
            .expect("signed query");
            Request::QueryZones(q).to_bytes()
        };
        // Sanity: the query must actually succeed before it is timed.
        let reply = server.handle(&next_query(), Timestamp::from_secs(0.0));
        assert!(
            matches!(Response::from_bytes(&reply), Ok(Response::Zones(_))),
            "zone query must answer with zones, got {reply:?}"
        );
        b.iter_batched(
            next_query,
            |bytes| server.handle(&bytes, Timestamp::from_secs(0.0)),
            BatchSize::SmallInput,
        );
    });

    // --- One durable journal append (frame + CRC + in-memory backend).
    run("journal_append", &mut |b| {
        let (journal, _, _) = Journal::open(Arc::new(MemBackend::new())).expect("open journal");
        let record = Record::RegisterZone {
            id: 1,
            lat_deg: 40.1164,
            lon_deg: -88.2434,
            radius_m: 120.0,
        };
        b.iter(|| journal.append_record(&record).expect("append"));
    });

    // --- The same append with synchronous Quorum(1) replication to two
    // in-process followers: frame + CRC + ship + durable follower ack.
    // A fresh journal per measurement keeps the shipped tail one record
    // long, so the case times the steady-state per-append cost instead
    // of an ever-growing log.
    run("journal_replicated_append", &mut |b| {
        let obs = Obs::noop();
        let record = Record::RegisterZone {
            id: 1,
            lat_deg: 40.1164,
            lon_deg: -88.2434,
            radius_m: 120.0,
        };
        let fresh = || {
            let (journal, _, _) = Journal::open(Arc::new(MemBackend::new())).expect("open journal");
            let mut replicator = Replicator::new(&obs, ReplicationPolicy::Quorum(1));
            for i in 0..2 {
                let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
                replicator = replicator.with_follower(
                    format!("f{i}"),
                    InProcessLink::new(Arc::new(Follower::new(backend))),
                );
            }
            // First sync ships the journal header so the timed append
            // replicates exactly one record.
            replicator.replicate(&journal).expect("initial sync");
            (journal, replicator)
        };
        b.iter_batched(
            fresh,
            |(journal, replicator)| {
                journal.append_record(&record).expect("append");
                replicator.replicate(&journal).expect("replicate");
            },
            BatchSize::SmallInput,
        );
    });

    // --- The marginal cost the tamper-evident log adds to every
    // audited journal append: encode the record payload, advance the
    // hash chain head, cache the leaf hash.
    run("audit_append_chain", &mut |b| {
        let record = Record::RegisterZone {
            id: 1,
            lat_deg: 40.1164,
            lon_deg: -88.2434,
            radius_m: 120.0,
        };
        let mut chain = AuditChain::new();
        b.iter(|| chain.append(&black_box(record.to_payload())));
    });

    // --- Serving a transparency client at scale: one inclusion proof
    // out of a 64k-leaf audit tree (~log2 n levels of node hashing
    // over the cached leaf hashes).
    run("merkle_proof_64k", &mut |b| {
        let mut chain = AuditChain::new();
        for i in 0..65_536u64 {
            chain.append(&i.to_be_bytes());
        }
        let size = chain.size();
        let root = chain.root();
        // Sanity: the proof must actually verify before it is timed.
        let p = chain.prove_inclusion(12_345, size).expect("inclusion");
        assert!(verify_inclusion(&p.leaf, p.index, p.size, &p.path, &root));
        let mut idx = 1u64;
        b.iter(|| {
            // Deterministic LCG walk over the leaves, so every sample
            // proves a different index.
            idx = (idx.wrapping_mul(48_271) + 11) % size;
            chain.prove_inclusion(idx, size).expect("inclusion proof")
        });
    });

    // --- A full loopback TCP round trip: connect-once client, framed
    // health check through the threaded server.
    run("tcp_round_trip_health", &mut |b| {
        let obs = Obs::noop();
        let server = Arc::new(
            AuditorServer::builder(Auditor::new(
                AuditorConfig::default(),
                bench_key(512).clone(),
            ))
            .obs(&obs)
            .build(),
        );
        let tcp = TcpServer::bind("127.0.0.1:0", Arc::clone(&server)).expect("bind");
        let mut client = AuditorClient::new(TcpTransport::new(tcp.local_addr()));
        b.iter(|| {
            client
                .health_check(Timestamp::from_secs(0.0))
                .expect("health check")
        });
        tcp.shutdown();
    });

    // --- Wire codec round trip of a realistic PoA submission frame.
    run("wire_codec_submit_poa_50", &mut |b| {
        let req = Request::SubmitPoa {
            drone_id: DroneId::new(1),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(49.0),
            poa: signed_trace(50).to_bytes(),
        };
        b.iter(|| Request::from_bytes(&black_box(req.to_bytes())).expect("decode"));
    });

    // --- The exporter behind `GET /metrics`: a populated registry
    // rendered to Prometheus text.
    run("prometheus_export", &mut |b| {
        let obs = Obs::noop();
        for i in 0..64u64 {
            obs.counter(&format!("bench.counter_{i}")).add(i);
        }
        for i in 0..16u64 {
            let h = obs.histogram(&format!("bench.histogram_{i}"));
            for j in 0..100u64 {
                h.record_micros(j * 37 + i);
            }
        }
        let snap = obs.snapshot();
        b.iter(|| prometheus_text(&snap));
    });

    // --- The same exporter at fleet-soak registry scale: the
    // per-drone label series a capped interner admits (plus server
    // counters) put a soak's scrape at thousands of families, and the
    // sampler pays this render every period.
    run("prometheus_export_soak", &mut |b| {
        let obs = Obs::noop();
        for i in 0..2048u64 {
            obs.counter(&format!("fleet.drone.d{i}.ops")).add(i);
        }
        for i in 0..64u64 {
            let h = obs.histogram(&format!("server.latency.kind_{i}"));
            for j in 0..100u64 {
                h.record_micros(j * 37 + i);
            }
        }
        let snap = obs.snapshot();
        b.iter(|| prometheus_text(&snap));
    });

    cases
}

fn write_baseline(path: &str, samples: usize) -> Result<(), String> {
    println!("bench_poa: {samples} samples per case\n");
    let mut baseline = Baseline::new();
    baseline.cases = run_cases(samples);
    let text = baseline.to_json().to_pretty();
    std::fs::write(path, text + "\n").map_err(|e| format!("write {path}: {e}"))?;
    println!("\nwrote {} cases to {path}", baseline.cases.len());
    Ok(())
}

fn read_baseline(path: &str) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Baseline::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn diff_baselines(
    old_path: &str,
    new_path: &str,
    threshold: f64,
    gate: Option<&[String]>,
) -> Result<bool, String> {
    let old = read_baseline(old_path)?;
    let new = read_baseline(new_path)?;
    if old.machine != new.machine {
        println!(
            "note: baselines come from different machines ({}/{} vs {}/{})",
            old.machine.os, old.machine.arch, new.machine.os, new.machine.arch
        );
    }
    // With `--gate`, only cases matching a listed prefix can fail the
    // run; regressions elsewhere print as advisory. Without it every
    // case is gating.
    let gated = |name: &str| match gate {
        None => true,
        Some(prefixes) => prefixes.iter().any(|p| name.starts_with(p.as_str())),
    };
    let report = diff(&old, &new, threshold);
    println!(
        "bench-diff: {old_path} -> {new_path} (threshold {:.0}%)\n",
        threshold * 100.0
    );
    let mut gated_regressions = 0usize;
    for delta in &report.deltas {
        let marker = match (delta.regressed, gated(&delta.name)) {
            (true, true) => {
                gated_regressions += 1;
                "REGRESSED"
            }
            (true, false) => "regressed (advisory)",
            _ => "ok",
        };
        println!(
            "{:<28} {:>12} -> {:>12}  ({:+6.1}%)  {marker}",
            delta.name,
            human_time(delta.old_median_ns),
            human_time(delta.new_median_ns),
            (delta.ratio - 1.0) * 100.0,
        );
    }
    for name in &report.added {
        println!("{name:<28} (new case, no baseline)");
    }
    for name in &report.removed {
        println!("{name:<28} (removed from new run)");
    }
    let regressions = report.regressions().count();
    println!(
        "\n{} case(s) compared, {regressions} regression(s) ({gated_regressions} gating)",
        report.deltas.len()
    );
    Ok(gated_regressions == 0)
}

fn usage() -> String {
    "usage: bench_poa [--out PATH] [--samples N]\n       \
     bench_poa --diff OLD NEW [--threshold F] [--gate PREFIX,PREFIX,...]"
        .to_string()
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_poa.json".to_string();
    let mut samples = std::env::var("BENCH_POA_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SAMPLES);
    let mut threshold = DEFAULT_THRESHOLD;
    let mut diff_paths: Option<(String, String)> = None;
    let mut gate: Option<Vec<String>> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).ok_or_else(usage)?.clone();
            }
            "--samples" => {
                i += 1;
                samples = args.get(i).and_then(|v| v.parse().ok()).ok_or_else(usage)?;
            }
            "--threshold" => {
                i += 1;
                threshold = args.get(i).and_then(|v| v.parse().ok()).ok_or_else(usage)?;
            }
            "--diff" => {
                let old = args.get(i + 1).ok_or_else(usage)?.clone();
                let new = args.get(i + 2).ok_or_else(usage)?.clone();
                diff_paths = Some((old, new));
                i += 2;
            }
            "--gate" => {
                i += 1;
                gate = Some(
                    args.get(i)
                        .ok_or_else(usage)?
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(str::to_string)
                        .collect(),
                );
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
        i += 1;
    }

    match diff_paths {
        Some((old, new)) => diff_baselines(&old, &new, threshold, gate.as_deref()),
        None => {
            write_baseline(&out, samples.max(1))?;
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench_poa: performance regressions detected");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_poa: {msg}");
            ExitCode::FAILURE
        }
    }
}
