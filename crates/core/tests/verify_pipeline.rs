//! Expected signature verdicts for the verification pipeline.
//!
//! Step 2 checks every entry's TEE signature in order and reports the
//! first failure. This campaign drives 50 deterministic seeds, each
//! picking a trace shape and an adversarial mutation, and checks the
//! verdict against what the mutation implies: a forged, tampered or
//! corrupted entry is `BadSignature` at its index, several forgeries
//! report the lowest, an honest trace never fails step 2, and a
//! resubmission gets the same verdict again.

use std::sync::OnceLock;

use alidrone_core::{Auditor, AuditorConfig, PoaSubmission, ProofOfAlibi, Submission, Verdict};
use alidrone_crypto::rng::{Rng, XorShift64};
use alidrone_crypto::rsa::{HashAlg, RsaPrivateKey};
use alidrone_geo::{Distance, GeoPoint, GpsSample, NoFlyZone, Timestamp};
use alidrone_tee::SignedSample;

const SEEDS: u64 = 50;

fn tee_key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(0xBA7C);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

fn forger_key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(0xBA7D);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

fn auditor_key() -> &'static RsaPrivateKey {
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| {
        let mut rng = XorShift64::seed_from_u64(0xBA7E);
        RsaPrivateKey::generate(512, &mut rng)
    })
}

fn origin() -> GeoPoint {
    GeoPoint::new(40.1164, -88.2434).unwrap()
}

fn in_range(rng: &mut XorShift64, lo: f64, hi: f64) -> f64 {
    lo + rng.gen_f64() * (hi - lo)
}

/// A physically plausible honest trace of 8–31 entries.
fn arb_trace(rng: &mut XorShift64) -> Vec<SignedSample> {
    let n = 8 + rng.gen_range_u64(24) as usize;
    let speed = in_range(rng, 0.0, 40.0);
    let dt = in_range(rng, 0.2, 20.0);
    let bearing = in_range(rng, 0.0, 360.0);
    (0..n)
        .map(|i| {
            let s = GpsSample::new(
                origin().destination(bearing, Distance::from_meters(speed * dt * i as f64)),
                Timestamp::from_secs(dt * i as f64),
            );
            let sig = tee_key().sign(&s.to_bytes(), HashAlg::Sha1).unwrap();
            SignedSample::from_parts(s, sig, HashAlg::Sha1)
        })
        .collect()
}

/// The adversarial mutations a dishonest operator can apply without the
/// TEE key. `kind` cycles so the 50 seeds cover each several times.
/// Returns the index step 2 must report, or `None` for an honest trace.
fn mutate(trace: &mut [SignedSample], kind: u64, rng: &mut XorShift64) -> Option<usize> {
    let idx = rng.gen_range_u64(trace.len() as u64) as usize;
    let entry = &trace[idx];
    match kind {
        // Honest: leave the trace alone.
        0 => return None,
        // Forge: re-sign one sample with a non-TEE key.
        1 => {
            let sig = forger_key()
                .sign(&entry.sample().to_bytes(), HashAlg::Sha1)
                .unwrap();
            trace[idx] = SignedSample::from_parts(*entry.sample(), sig, HashAlg::Sha1);
        }
        // Tamper: move a sample but keep its genuine signature.
        2 => {
            let moved = GpsSample::new(
                entry
                    .sample()
                    .point()
                    .destination(180.0, Distance::from_meters(250.0)),
                entry.sample().time(),
            );
            trace[idx] = SignedSample::from_parts(moved, entry.signature().to_vec(), HashAlg::Sha1);
        }
        // Corrupt: flip a byte of the signature itself.
        3 => {
            let mut sig = entry.signature().to_vec();
            let b = rng.gen_range_u64(sig.len() as u64) as usize;
            sig[b] ^= 0x40;
            trace[idx] = SignedSample::from_parts(*entry.sample(), sig, HashAlg::Sha1);
        }
        // Multi-forge: several bad entries — the reported index must be
        // the lowest one.
        _ => {
            let mut lowest = usize::MAX;
            for _ in 0..3 {
                let i = rng.gen_range_u64(trace.len() as u64) as usize;
                let sig = forger_key()
                    .sign(&trace[i].sample().to_bytes(), HashAlg::Sha1)
                    .unwrap();
                trace[i] = SignedSample::from_parts(*trace[i].sample(), sig, HashAlg::Sha1);
                lowest = lowest.min(i);
            }
            return Some(lowest);
        }
    }
    Some(idx)
}

/// Builds an auditor with the TEE key registered and one zone nearby.
fn auditor() -> (Auditor, alidrone_core::DroneId) {
    let a = Auditor::new(AuditorConfig::default(), auditor_key().clone());
    let id = a.register_drone(
        forger_key().public_key().clone(),
        tee_key().public_key().clone(),
    );
    a.register_zone(NoFlyZone::new(
        origin().destination(45.0, Distance::from_km(2.0)),
        Distance::from_meters(80.0),
    ));
    (a, id)
}

#[test]
fn signature_verdicts_match_the_mutation_across_seeds() {
    for seed in 0..SEEDS {
        let mut rng = XorShift64::seed_from_u64(0x50A1 ^ seed);
        let mut trace = arb_trace(&mut rng);
        let bad = mutate(&mut trace, seed % 5, &mut rng);
        let (a, id) = auditor();
        let submission = Submission::plain(PoaSubmission {
            drone_id: id,
            window_start: trace.first().unwrap().sample().time(),
            window_end: trace.last().unwrap().sample().time(),
            poa: ProofOfAlibi::from_entries(trace),
        });

        let first = a.verify(&submission, Timestamp::EPOCH).unwrap();
        match bad {
            Some(index) => assert_eq!(
                first.verdict,
                Verdict::BadSignature { index },
                "seed {seed}: wrong signature verdict"
            ),
            None => assert!(
                !matches!(first.verdict, Verdict::BadSignature { .. }),
                "seed {seed}: honest trace failed step 2: {}",
                first.verdict
            ),
        }

        let again = a.verify(&submission, Timestamp::EPOCH).unwrap();
        assert_eq!(
            first.verdict, again.verdict,
            "seed {seed}: resubmission changed the verdict"
        );
    }
}
