//! Auditor-side verification throughput: the full PoA pipeline
//! (signatures → monotonicity → coverage → feasibility → eq. 1) as a
//! function of trace length and zone count, plus encrypted submission.

use alidrone_bench::bench_key;
use alidrone_bench::harness::{BenchmarkId, Criterion};
use alidrone_bench::{criterion_group, criterion_main};
use alidrone_core::{Auditor, AuditorConfig, PoaSubmission, ProofOfAlibi, Submission};
use alidrone_crypto::rng::XorShift64;
use alidrone_crypto::rsa::HashAlg;
use alidrone_geo::{Distance, GeoPoint, GpsSample, NoFlyZone, Timestamp};
use alidrone_tee::SignedSample;

fn origin() -> GeoPoint {
    GeoPoint::new(40.1164, -88.2434).unwrap()
}

fn signed_trace(n: usize) -> ProofOfAlibi {
    let key = bench_key(512);
    (0..n)
        .map(|i| {
            let s = GpsSample::new(
                origin().destination(90.0, Distance::from_meters(i as f64 * 5.0)),
                Timestamp::from_secs(i as f64),
            );
            let sig = key.sign(&s.to_bytes(), HashAlg::Sha1).unwrap();
            SignedSample::from_parts(s, sig, HashAlg::Sha1)
        })
        .collect()
}

fn auditor_with(zones: usize) -> Auditor {
    let a = Auditor::new(AuditorConfig::default(), bench_key(512).clone());
    for i in 0..zones {
        let bearing = (i as f64 * 137.5) % 360.0;
        a.register_zone(NoFlyZone::new(
            origin().destination(bearing, Distance::from_km(20.0 + i as f64)),
            Distance::from_feet(20.0),
        ));
    }
    a
}

fn verify_poa(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_poa");
    group.sample_size(10);
    for (len, zones) in [(50usize, 1usize), (50, 100), (500, 1), (500, 100)] {
        let poa = signed_trace(len);
        let submission = Submission::plain(PoaSubmission {
            drone_id: alidrone_core::DroneId::new(1),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs((len - 1) as f64),
            poa,
        });
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{len}samples_{zones}zones")),
            &(),
            |b, _| {
                b.iter_batched(
                    || {
                        let a = auditor_with(zones);
                        a.register_drone(
                            bench_key(512).public_key().clone(),
                            bench_key(512).public_key().clone(),
                        );
                        a
                    },
                    |a| a.verify(&submission, Timestamp::from_secs(0.0)).unwrap(),
                    alidrone_bench::harness::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn encrypted_round_trip(c: &mut Criterion) {
    // The Adapter-side encryption + auditor-side decryption of a PoA
    // (paper §V-C / §IV-C2).
    let mut group = c.benchmark_group("poa_encryption");
    group.sample_size(10);
    let poa = signed_trace(50);
    let key = bench_key(512);
    let mut rng = XorShift64::seed_from_u64(9);
    group.bench_function("encrypt_50_samples", |b| {
        b.iter(|| poa.encrypt(key.public_key(), &mut rng).unwrap());
    });
    let enc = poa.encrypt(key.public_key(), &mut rng).unwrap();
    group.bench_function("decrypt_50_samples", |b| {
        b.iter(|| enc.decrypt(key).unwrap());
    });
    group.finish();
}

fn wire_codec(c: &mut Criterion) {
    let poa = signed_trace(500);
    let bytes = poa.to_bytes();
    c.bench_function("poa_serialize_500", |b| b.iter(|| poa.to_bytes()));
    c.bench_function("poa_parse_500", |b| {
        b.iter(|| ProofOfAlibi::from_bytes(&bytes).unwrap())
    });
}

criterion_group!(benches, verify_poa, encrypted_round_trip, wire_codec);
criterion_main!(benches);
