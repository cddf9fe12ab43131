//! Tamper-injection chaos campaign over the tamper-evident audit log.
//!
//! Each seed builds an honest journaled history (registrations,
//! stored verdicts, Merkle checkpoints at interval 2), captures the
//! signed tree head a client would hold, then attacks the at-rest
//! journal or the replication stream with one drawn arm:
//!
//! * **bit-flip** — flip one bit inside an audited record's frame;
//! * **rewrite** — mutate an audited record's payload and *recompute
//!   the CRC* (a deliberate forgery, not random corruption);
//! * **drop** — splice a whole audited frame out of the journal;
//! * **reorder** — swap the byte ranges of two distinct audited frames;
//! * **checkpoint-root** — rewrite a checkpoint's Merkle root, CRC
//!   fixed (forge the commitment itself);
//! * **splice** — ship CRC-intact tampered frames to a follower.
//!
//! Every tampered history must be detected — by a typed recovery error
//! ([`ProtocolError::Storage`] / [`ProtocolError::AuditDivergence`]),
//! by the offline consistency check against the honest signed tree
//! head, or (for splices) by the follower's typed
//! [`ReplError::ChainDivergence`] refusal — with **zero silent
//! acceptances**, deterministically per seed. Untampered histories
//! must verify end-to-end: tree-head signature, inclusion proofs,
//! consistency proofs.
//!
//! `TAMPER_SEEDS=<n>` reduces the campaign (the `make tamper` / CI
//! fast path); the default is 40 seeds.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use alidrone::core::audit::{verify_consistency, verify_inclusion, Hash};
use alidrone::core::journal::{crc32, MemBackend, Record, StorageBackend, HEADER_LEN};
use alidrone::core::repl::{Follower, ReplError, ReplFrame};
use alidrone::core::{
    Auditor, AuditorConfig, DroneId, PoaSubmission, ProofOfAlibi, ProtocolError, Submission,
};
use alidrone::crypto::rng::{Rng, XorShift64};
use alidrone::crypto::rsa::{HashAlg, RsaPrivateKey};
use alidrone::geo::{Distance, GeoPoint, GpsSample, NoFlyZone, Timestamp};
use alidrone::obs::Obs;
use alidrone::tee::SignedSample;

/// Per-seed key cache (512-bit keygen in debug builds is slow).
fn key(seed: u64) -> RsaPrivateKey {
    static KEYS: OnceLock<Mutex<HashMap<u64, RsaPrivateKey>>> = OnceLock::new();
    let cache = KEYS.get_or_init(Default::default);
    let mut map = cache.lock().unwrap();
    map.entry(seed)
        .or_insert_with(|| {
            let mut rng = XorShift64::seed_from_u64(seed);
            RsaPrivateKey::generate(512, &mut rng)
        })
        .clone()
}

fn auditor_key() -> RsaPrivateKey {
    key(1)
}

fn tee_key() -> RsaPrivateKey {
    key(2)
}

fn zone(i: usize) -> NoFlyZone {
    NoFlyZone::new(
        GeoPoint::new(40.0 + i as f64 * 0.02, -88.2 + (i % 7) as f64 * 0.01).unwrap(),
        Distance::from_meters(60.0 + i as f64),
    )
}

/// Seeds to run: `TAMPER_SEEDS` for the reduced `make tamper` sweep,
/// 40 (the acceptance floor) by default.
fn campaign_seeds() -> u64 {
    std::env::var("TAMPER_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

fn config() -> AuditorConfig {
    AuditorConfig {
        checkpoint_interval: 2,
        ..AuditorConfig::default()
    }
}

/// A small compliant PoA: samples signed directly under the cached TEE
/// key (what a real enclave would emit), far from every zone.
fn submission(drone_id: DroneId, base_t: f64, n: usize) -> Submission {
    let entries = (0..n)
        .map(|i| {
            let sample = GpsSample::new(
                GeoPoint::new(38.5 + i as f64 * 1e-5, -90.0).unwrap(),
                Timestamp::from_secs(base_t + i as f64),
            );
            let sig = tee_key()
                .sign(&sample.to_bytes(), HashAlg::Sha1)
                .expect("tee sign");
            SignedSample::from_parts(sample, sig, HashAlg::Sha1)
        })
        .collect();
    Submission::Plain(PoaSubmission {
        drone_id,
        window_start: Timestamp::from_secs(base_t),
        window_end: Timestamp::from_secs(base_t + (n - 1) as f64),
        poa: ProofOfAlibi::from_entries(entries),
    })
}

/// What an honest client retains: the final signed tree head plus the
/// journal image it was built over.
struct HonestRun {
    bytes: Vec<u8>,
    drone: DroneId,
    /// `(size, root, chain_head)` of the final signed tree head.
    head: (u64, Hash, Hash),
    /// An earlier observed head, for consistency-proof checks.
    earlier: (u64, Hash),
}

/// Builds the honest history: one drone, a mix of zone registrations
/// and stored verdicts, checkpoints every 2 audited records.
fn honest_run(n_ops: usize) -> HonestRun {
    let backend = Arc::new(MemBackend::new());
    let (a, _) = Auditor::recover(
        backend.clone() as Arc<dyn StorageBackend>,
        config(),
        auditor_key(),
    )
    .expect("fresh recovery");
    let drone = a
        .register_drone_durable(key(3).public_key().clone(), tee_key().public_key().clone())
        .expect("register drone");
    let mut earlier = None;
    for i in 0..n_ops {
        if i % 4 == 1 {
            let rep = a
                .verify(&submission(drone, i as f64 * 10.0, 4), Timestamp::EPOCH)
                .expect("submission");
            assert!(
                rep.is_compliant(),
                "fixture PoA must store: {}",
                rep.verdict
            );
        } else {
            a.register_zone_durable(zone(i)).expect("register zone");
        }
        if i == n_ops / 2 {
            let sth = a.signed_tree_head().expect("mid tree head");
            earlier = Some((sth.size, sth.root));
        }
    }
    let sth = a.signed_tree_head().expect("final tree head");
    assert!(sth.verify(auditor_key().public_key()));
    HonestRun {
        bytes: backend.bytes(),
        drone,
        head: (sth.size, sth.root, sth.chain_head),
        earlier: earlier.expect("n_ops >= 2"),
    }
}

/// `(frame_start, payload_len, record)` for every decodable journal
/// frame; `frame_start` points at the 8-byte length/CRC header.
fn frames(bytes: &[u8]) -> Vec<(usize, usize, Record)> {
    let mut out = Vec::new();
    let mut pos = HEADER_LEN;
    while pos + 8 <= bytes.len() {
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + 8 + len > bytes.len() {
            break;
        }
        let record = Record::from_payload(&bytes[pos + 8..pos + 8 + len]).expect("honest record");
        out.push((pos, len, record));
        pos += 8 + len;
    }
    out
}

/// Recomputes a frame's CRC after a payload edit, keeping it wire-valid.
fn fix_crc(bytes: &mut [u8], frame_start: usize, payload_len: usize) {
    let crc = crc32(&bytes[frame_start + 8..frame_start + 8 + payload_len]);
    bytes[frame_start + 4..frame_start + 8].copy_from_slice(&crc.to_be_bytes());
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Arm {
    BitFlip,
    Rewrite,
    Drop,
    Reorder,
    CheckpointRoot,
    Splice,
}

const ARMS: [Arm; 6] = [
    Arm::BitFlip,
    Arm::Rewrite,
    Arm::Drop,
    Arm::Reorder,
    Arm::CheckpointRoot,
    Arm::Splice,
];

/// Applies the drawn journal tamper; returns the tampered image and a
/// label. `Splice` reuses `Rewrite`'s forgery but delivers it over the
/// replication stream instead of the at-rest journal.
fn tamper(arm: Arm, bytes: &[u8], rng: &mut XorShift64) -> (Vec<u8>, String) {
    let mut out = bytes.to_vec();
    let all = frames(bytes);
    let audited: Vec<&(usize, usize, Record)> =
        all.iter().filter(|(_, _, r)| r.is_audited()).collect();
    assert!(!audited.is_empty(), "honest run journals audited records");
    match arm {
        Arm::BitFlip => {
            let &&(start, len, _) = &audited[(rng.next_u64() as usize) % audited.len()];
            let off = start + (rng.next_u64() as usize) % (8 + len);
            let bit = 1u8 << (rng.next_u64() % 8);
            out[off] ^= bit;
            (out, format!("bit-flip @{off} mask {bit:#04x}"))
        }
        Arm::Rewrite | Arm::Splice => {
            let &&(start, len, _) = &audited[(rng.next_u64() as usize) % audited.len()];
            // Mutate the payload's final byte (always inside the record
            // body) and forge a matching CRC.
            let off = start + 8 + len - 1;
            out[off] ^= 0x01;
            fix_crc(&mut out, start, len);
            (out, format!("crc-intact rewrite @{off}"))
        }
        Arm::Drop => {
            let &&(start, len, _) = &audited[(rng.next_u64() as usize) % audited.len()];
            out.drain(start..start + 8 + len);
            (out, format!("dropped frame @{start}"))
        }
        Arm::Reorder => {
            // Swap two byte-distinct audited frames (registrations and
            // verdicts all differ, so a pair always exists).
            let i = (rng.next_u64() as usize) % (audited.len() - 1);
            let (j, _) = audited
                .iter()
                .enumerate()
                .skip(i + 1)
                .find(|(_, (s, l, _))| {
                    let (si, li, _) = *audited[i];
                    bytes[*s..*s + 8 + *l] != bytes[si..si + 8 + li]
                })
                .expect("a distinct frame pair exists");
            let (si, li, _) = *audited[i];
            let (sj, lj, _) = *audited[j];
            let mut swapped = bytes[..si].to_vec();
            swapped.extend_from_slice(&bytes[sj..sj + 8 + lj]);
            swapped.extend_from_slice(&bytes[si + 8 + li..sj]);
            swapped.extend_from_slice(&bytes[si..si + 8 + li]);
            swapped.extend_from_slice(&bytes[sj + 8 + lj..]);
            (swapped, format!("reordered frames @{si} <-> @{sj}"))
        }
        Arm::CheckpointRoot => {
            let checkpoints: Vec<&(usize, usize, Record)> = all
                .iter()
                .filter(|(_, _, r)| matches!(r, Record::AuditCheckpoint { .. }))
                .collect();
            assert!(!checkpoints.is_empty(), "interval 2 must checkpoint");
            let &&(start, len, _) = &checkpoints[(rng.next_u64() as usize) % checkpoints.len()];
            // Checkpoint payload: tag u8 | size u64 | root[32] | sigs.
            let off = start + 8 + 9 + (rng.next_u64() as usize) % 32;
            out[off] ^= 0x80;
            fix_crc(&mut out, start, len);
            (out, format!("checkpoint root forged @{off}"))
        }
    }
}

/// One full campaign run; the returned log replays bit-for-bit.
fn campaign_run(seed: u64) -> Vec<String> {
    let mut log = Vec::new();
    let mut rng = XorShift64::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let n_ops = 6 + (rng.next_u64() % 8) as usize;
    let arm = ARMS[(rng.next_u64() as usize) % ARMS.len()];
    log.push(format!("seed {seed}: n_ops {n_ops} arm {arm:?}"));
    let honest = honest_run(n_ops);
    let (size_h, root_h, head_h) = honest.head;

    // --- untampered control: everything verifies end-to-end ----------
    {
        let backend = Arc::new(MemBackend::with_bytes(honest.bytes.clone()));
        let (a, _) = Auditor::recover(backend as Arc<dyn StorageBackend>, config(), auditor_key())
            .expect("untampered journal recovers");
        let sth = a.signed_tree_head().expect("tree head");
        assert_eq!(
            (sth.size, sth.root, sth.chain_head),
            (size_h, root_h, head_h),
            "seed {seed}: untampered recovery must restore the exact head"
        );
        assert!(sth.verify(auditor_key().public_key()), "seed {seed}");
        let proof = a.audit_inclusion_proof(honest.drone, 0).expect("inclusion");
        assert!(
            verify_inclusion(&proof.leaf, proof.index, proof.size, &proof.path, &sth.root),
            "seed {seed}: honest inclusion proof must verify"
        );
        let (old_size, old_root) = honest.earlier;
        let cons = a.audit_consistency_proof(old_size, 0).expect("consistency");
        assert!(
            verify_consistency(
                cons.old_size,
                cons.new_size,
                &cons.path,
                &old_root,
                &sth.root
            ),
            "seed {seed}: honest consistency proof must verify"
        );
        let follower = Follower::new(Arc::new(MemBackend::new()));
        follower
            .apply(&ReplFrame::Append {
                epoch: 1,
                offset: 0,
                bytes: honest.bytes.clone(),
            })
            .expect("honest shipment accepted");
        assert_eq!(follower.acked_offset(), honest.bytes.len() as u64);
        log.push("control: verified".into());
    }

    // --- the attack --------------------------------------------------
    let (tampered, what) = tamper(arm, &honest.bytes, &mut rng);
    log.push(what);

    if arm == Arm::Splice {
        // Replication-stream splice: the follower must refuse with a
        // typed divergence and persist nothing.
        let obs = Obs::noop();
        let follower = Follower::with_obs(Arc::new(MemBackend::new()), &obs);
        let err = follower
            .apply(&ReplFrame::Append {
                epoch: 1,
                offset: 0,
                bytes: tampered,
            })
            .expect_err("spliced shipment must be refused");
        assert!(
            matches!(err, ReplError::ChainDivergence { .. }),
            "seed {seed}: got {err}"
        );
        assert_eq!(follower.acked_offset(), 0, "seed {seed}");
        assert!(
            follower.image().expect("readable").is_empty(),
            "seed {seed}: refused frames must not persist"
        );
        assert_eq!(
            obs.snapshot().counter("repl.chain_divergence"),
            1,
            "seed {seed}"
        );
        log.push(format!("detected: follower {err}"));
        return log;
    }

    // At-rest journal tamper: detection is either a typed recovery
    // error or a recovered head the honest signed tree head refutes.
    let backend = Arc::new(MemBackend::with_bytes(tampered));
    match Auditor::recover(backend as Arc<dyn StorageBackend>, config(), auditor_key()) {
        Err(e) => {
            assert!(
                matches!(
                    e,
                    ProtocolError::Storage(_) | ProtocolError::AuditDivergence { .. }
                ),
                "seed {seed}: tampered recovery must fail typed, got {e}"
            );
            log.push(format!("detected: recovery {e}"));
        }
        Ok((a, _)) => {
            let sth = a.signed_tree_head().expect("tree head");
            assert_ne!(
                (sth.size, sth.root, sth.chain_head),
                (size_h, root_h, head_h),
                "seed {seed}: SILENT ACCEPTANCE — tampered history \
                 reproduced the honest head"
            );
            // The client-side check that fires in the field: the honest
            // signed head cannot be consistent with the tampered log.
            let refuted = if sth.size < size_h {
                // The tampered log is shorter than the head the client
                // holds: no consistency proof can exist.
                a.audit_consistency_proof(size_h, 0).is_err()
            } else {
                let cons = a.audit_consistency_proof(size_h, size_h).expect("proof");
                !verify_consistency(cons.old_size, cons.new_size, &cons.path, &root_h, &sth.root)
            };
            assert!(
                refuted,
                "seed {seed}: offline consistency check failed to refute \
                 the tampered log"
            );
            log.push(format!(
                "detected: head mismatch (size {} vs {size_h})",
                sth.size
            ));
        }
    }
    log
}

/// The acceptance campaign: ≥40 seeds by default, every arm drawn,
/// every tampered history detected with zero silent acceptances (the
/// assertions live in [`campaign_run`]).
#[test]
fn tamper_campaign() {
    let seeds = campaign_seeds();
    let mut arms_hit: Vec<&str> = Vec::new();
    let mut typed = 0usize;
    let mut mismatch = 0usize;
    let mut spliced = 0usize;
    for seed in 0..seeds {
        for line in campaign_run(seed) {
            for arm in ["BitFlip", "Rewrite", "Drop", "Reorder", "CheckpointRoot"] {
                if line.contains(arm) && !arms_hit.contains(&arm) {
                    arms_hit.push(arm);
                }
            }
            if line.contains("detected: recovery") {
                typed += 1;
            }
            if line.contains("detected: head mismatch") {
                mismatch += 1;
            }
            if line.contains("detected: follower") {
                spliced += 1;
            }
        }
    }
    // The arm space must actually cover every attack and both
    // detection modes once the full campaign runs.
    if seeds >= 30 {
        assert_eq!(arms_hit.len(), 5, "arms hit: {arms_hit:?}");
        assert!(typed > 0, "no seed detected via a typed recovery error");
        assert!(mismatch > 0, "no seed detected via head mismatch");
        assert!(spliced > 0, "no seed exercised the replication splice");
    }
}

/// A failing (or any) seed replays its exact outcome log.
#[test]
fn tamper_seeds_replay_deterministically() {
    for seed in [3u64, 19, 31] {
        assert_eq!(campaign_run(seed), campaign_run(seed), "seed {seed}");
    }
}

/// Consistency proofs survive a compaction boundary end-to-end at the
/// integration level: a client head observed before `compact_journal`
/// verifies against heads served from the compacted (and re-recovered)
/// log.
#[test]
fn consistency_survives_compaction() {
    let backend = Arc::new(MemBackend::new());
    let (a, _) = Auditor::recover(
        backend.clone() as Arc<dyn StorageBackend>,
        config(),
        auditor_key(),
    )
    .unwrap();
    let drone = a
        .register_drone_durable(key(3).public_key().clone(), tee_key().public_key().clone())
        .unwrap();
    a.register_zone_durable(zone(0)).unwrap();
    a.verify(&submission(drone, 0.0, 4), Timestamp::EPOCH)
        .unwrap();
    let sth1 = a.signed_tree_head().unwrap();

    a.compact_journal().unwrap();
    a.register_zone_durable(zone(1)).unwrap();
    a.verify(&submission(drone, 50.0, 4), Timestamp::EPOCH)
        .unwrap();

    let (b, rep) =
        Auditor::recover(backend as Arc<dyn StorageBackend>, config(), auditor_key()).unwrap();
    assert!(rep.snapshot_loaded);
    let sth2 = b.signed_tree_head().unwrap();
    assert!(sth2.verify(auditor_key().public_key()));
    let cons = b.audit_consistency_proof(sth1.size, 0).unwrap();
    assert!(verify_consistency(
        cons.old_size,
        cons.new_size,
        &cons.path,
        &sth1.root,
        &sth2.root,
    ));
    let proof = b.audit_inclusion_proof(drone, 0).unwrap();
    assert!(verify_inclusion(
        &proof.leaf,
        proof.index,
        proof.size,
        &proof.path,
        &sth2.root,
    ));
}
