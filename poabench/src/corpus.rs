//! Seeded inputs for the server workloads, with expected outputs fixed
//! by construction, and an on-disk cache keyed by seed and generator
//! version.
//!
//! Geometry. Drone `i` flies due east along its own lane at 10 m/s, one
//! GPS fix per second; lanes start 1 km apart. Its `j`-th PoA owns the
//! block of route indices `[BLOCK·j, BLOCK·j + BLOCK)` and signs 50 of
//! them, so no sample ever repeats. Every zone's boundary keeps at least
//! `MIN_CLEARANCE_M` from every lane, so with 1-s sample spacing the
//! paper criterion `d₁ + d₂ > v_max·Δt` holds with room to spare (70 m
//! against 44.7 m): a plain PoA is `Compliant` by construction. The
//! other verdicts are built in:
//! - *insufficient*: samples `k` and `k+1` sit `GAP_S` seconds apart,
//!   with a witness zone 40 m off the lane in the gap, so exactly pair
//!   `k` fails;
//! - *inside*: a 4 m intrusion zone is centred on sample `INSIDE_AT`,
//!   whose neighbours lie 10 m away, outside it.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use alidrone_core::wire::Request;
use alidrone_core::{Accusation, DroneId, ProofOfAlibi, ZoneId, ZoneQuery};
use alidrone_crypto::bigint::BigUint;
use alidrone_crypto::rsa::{HashAlg, RsaPrivateKey, RsaPublicKey};
use alidrone_geo::{Distance, GeoPoint, GpsSample, Timestamp};
use alidrone_tee::SignedSample;

use crate::rng::SplitMix;
use crate::sign::FastKey;

/// Bump whenever generated inputs change, so stale caches are ignored.
pub const GENERATOR_VERSION: u32 = 2;

pub const SAMPLES_PER_POA: usize = 50;
const BLOCK: usize = 120;
const GAP_S: usize = 60;
const INSIDE_AT: usize = 25;
const LANE_SPACING_M: f64 = 1000.0;
const SPEED_MPS: f64 = 10.0;
const MIN_CLEARANCE_M: f64 = 35.0;

pub fn origin() -> GeoPoint {
    GeoPoint::new(40.1164, -88.2434).expect("valid origin")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fleet2048,
    City1024,
    AuditMix1024,
    Flight2048,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::Fleet2048,
    Workload::City1024,
    Workload::AuditMix1024,
    Workload::Flight2048,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet2048 => "fleet_2048",
            Workload::City1024 => "city_1024",
            Workload::AuditMix1024 => "audit_mix_1024",
            Workload::Flight2048 => "flight_2048",
        }
    }

    /// Key size of the workload's drones and auditor.
    pub fn key_bits(self) -> usize {
        match self {
            Workload::Fleet2048 | Workload::Flight2048 => 2048,
            Workload::City1024 | Workload::AuditMix1024 => 1024,
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of one server workload's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub key_bits: usize,
    pub drones: usize,
    /// Zones near the lanes, witness and intrusion zones included.
    pub zones: usize,
    pub zone_radius_m: (f64, f64),
    /// Boundary distance from the lane.
    pub zone_clearance_m: (f64, f64),
    pub history_per_drone: usize,
    /// Measured-phase PoAs.
    pub poas: usize,
    /// Every `n`-th measured PoA is insufficient / inside a zone (0: none).
    pub insufficient_every: usize,
    pub inside_every: usize,
}

impl Shape {
    /// Closed-loop corpora hold `rate × (seconds + warm-up)` PoAs, with
    /// `rate` about twice what the seed sustains on a 2-core host; an
    /// exhausted corpus ends the measured phase early and says so.
    pub fn of(w: Workload, seconds: f64, smoke: bool) -> Shape {
        let span = seconds + crate::server::WARMUP_S;
        match w {
            Workload::Fleet2048 => Shape {
                key_bits: w.key_bits(),
                drones: 64,
                zones: 16,
                zone_radius_m: (20.0, 40.0),
                zone_clearance_m: (MIN_CLEARANCE_M, 200.0),
                history_per_drone: if smoke { 1 } else { 32 },
                poas: if smoke {
                    24
                } else {
                    (500.0 * span).ceil() as usize
                },
                insufficient_every: 0,
                inside_every: 0,
            },
            Workload::City1024 => Shape {
                key_bits: w.key_bits(),
                drones: 32,
                zones: if smoke { 200 } else { 2000 },
                zone_radius_m: (5.0, 15.0),
                zone_clearance_m: (MIN_CLEARANCE_M, 120.0),
                history_per_drone: if smoke { 1 } else { 24 },
                poas: if smoke {
                    30
                } else {
                    (200.0 * span).ceil() as usize
                },
                insufficient_every: 10,
                inside_every: 10,
            },
            Workload::AuditMix1024 => Shape {
                key_bits: w.key_bits(),
                drones: 16,
                zones: 16,
                zone_radius_m: (20.0, 40.0),
                zone_clearance_m: (MIN_CLEARANCE_M, 200.0),
                history_per_drone: if smoke { 2 } else { 96 },
                poas: crate::server::mix_submissions(seconds, smoke),
                insufficient_every: 0,
                inside_every: 0,
            },
            Workload::Flight2048 => unreachable!("flight_2048 has no server corpus"),
        }
    }
}

/// The verdict a submission must receive.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Compliant,
    Insufficient { pair: usize },
    InsideZone { index: usize, zone: u64 },
}

/// What one measured-phase operation must return.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Verdict(Expected),
    /// A signed zone query, answered with the zone list.
    Zones,
    /// Fetch the signed tree head and the drone's inclusion proof;
    /// verify both offline. The frame is built at run time.
    TreeCheck {
        drone: u64,
    },
    /// Fetch a tree head and its consistency proof from the last one.
    Consistency,
    Accuse {
        refuted: bool,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Which load stream sends it (open loop: 0 drones, 1 monitor).
    pub stream: u8,
    pub frame: Vec<u8>,
    pub expect: Expect,
    /// Sim-clock time the request is sent at.
    pub now: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    pub workload: &'static str,
    pub seed: u64,
    pub key_bits: usize,
    /// Per drone: TEE and operator key moduli (`e = 65537`).
    pub drones: Vec<(Vec<u8>, Vec<u8>)>,
    /// `(lat, lon, radius_m)`, registered after the history, in order.
    pub zones: Vec<(f64, f64, f64)>,
    /// Preloaded `SubmitPoa` frames, all `Compliant`.
    pub history: Vec<Op>,
    pub ops: Vec<Op>,
}

fn lane_point(drone: usize, route_index: usize) -> GeoPoint {
    origin()
        .destination(0.0, Distance::from_meters(LANE_SPACING_M * drone as f64))
        .destination(90.0, Distance::from_meters(SPEED_MPS * route_index as f64))
}

/// The route indices a PoA in `block` samples.
fn sample_indices(block: usize, kind: &Expected) -> Vec<usize> {
    let base = block * BLOCK;
    match kind {
        Expected::Insufficient { pair } => (0..=*pair)
            .chain(pair + GAP_S..pair + GAP_S + SAMPLES_PER_POA - pair - 1)
            .map(|i| base + i)
            .collect(),
        _ => (base..base + SAMPLES_PER_POA).collect(),
    }
}

fn public_from(modulus: &[u8]) -> RsaPublicKey {
    RsaPublicKey::new(BigUint::from_bytes_be(modulus), BigUint::from_u64(65_537))
        .expect("generated modulus is odd")
}

pub fn tee_public(c: &Corpus, drone: usize) -> RsaPublicKey {
    public_from(&c.drones[drone].0)
}

pub fn operator_public(c: &Corpus, drone: usize) -> RsaPublicKey {
    public_from(&c.drones[drone].1)
}

/// Drone ids are issued from 1 in registration order; zone ids likewise.
pub fn drone_id(index: usize) -> DroneId {
    DroneId::new(index as u64 + 1)
}

fn signed_poa(key: &FastKey, drone: usize, indices: &[usize]) -> ProofOfAlibi {
    indices
        .iter()
        .map(|&r| {
            let s = GpsSample::new(lane_point(drone, r), Timestamp::from_secs(r as f64));
            SignedSample::from_parts(s, key.sign(&s.to_bytes()), HashAlg::Sha1)
        })
        .collect()
}

fn submit_frame(key: &FastKey, drone: usize, indices: &[usize]) -> (Vec<u8>, f64) {
    let poa = signed_poa(key, drone, indices);
    let first = *indices.first().expect("non-empty") as f64;
    let last = *indices.last().expect("non-empty") as f64;
    let frame = Request::SubmitPoa {
        drone_id: drone_id(drone),
        window_start: Timestamp::from_secs(first),
        window_end: Timestamp::from_secs(last),
        poa: poa.to_bytes(),
    }
    .to_bytes();
    (frame, last + 1.0)
}

/// The operator key of the drones that send zone queries in
/// `audit_mix_1024`, regenerated from the seed on every run.
pub fn query_operator_key(seed: u64, bits: usize) -> RsaPrivateKey {
    RsaPrivateKey::generate(bits, &mut SplitMix::fork(seed, "operator"))
}

/// Drones of `audit_mix_1024` that submit during the measured phase;
/// the rest only have history, so monitors can prove a stable leaf.
pub const MIX_STREAM_DRONES: usize = 4;

/// Builds the corpus for a server workload.
pub fn generate(w: Workload, seed: u64, seconds: f64, smoke: bool) -> Corpus {
    let shape = Shape::of(w, seconds, smoke);
    let mut rng = SplitMix::fork(seed, w.name());
    let keys: Vec<FastKey> = (0..shape.drones)
        .map(|_| FastKey::generate(shape.key_bits, &mut rng))
        .collect();
    let operator = (w == Workload::AuditMix1024).then(|| query_operator_key(seed, shape.key_bits));
    let drones = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let tee = k.public_key().modulus().to_bytes_be();
            let op = match &operator {
                Some(op) if i >= shape.drones - MIX_STREAM_DRONES => {
                    op.public_key().modulus().to_bytes_be()
                }
                _ => tee.clone(),
            };
            (tee, op)
        })
        .collect();

    // Measured PoAs: round-robin over drones (over the stream drones in
    // the open-loop mix), each in the drone's next block.
    let submitters: Vec<usize> = if w == Workload::AuditMix1024 {
        (shape.drones - MIX_STREAM_DRONES..shape.drones).collect()
    } else {
        (0..shape.drones).collect()
    };
    let h = shape.history_per_drone;
    let plan: Vec<(usize, usize, Expected)> = (0..shape.poas)
        .map(|m| {
            let drone = submitters[m % submitters.len()];
            let block = h + m / submitters.len();
            let kind = if shape.insufficient_every > 0 && m % shape.insufficient_every == 3 {
                Expected::Insufficient {
                    pair: 5 + rng.below(SAMPLES_PER_POA - 10),
                }
            } else if shape.inside_every > 0 && m % shape.inside_every == 7 {
                // Zone id filled in once the zone list is laid out.
                Expected::InsideZone {
                    index: INSIDE_AT,
                    zone: 0,
                }
            } else {
                Expected::Compliant
            };
            (drone, block, kind)
        })
        .collect();
    let blocks_per_drone = h + shape.poas.div_ceil(submitters.len()) + 1;

    // Zones: witness and intrusion zones first (their ids are in the
    // expected verdicts), the rest scattered along the used lanes.
    let mut zones: Vec<(GeoPoint, f64)> = Vec::with_capacity(shape.zones);
    let mut plan = plan;
    for (drone, block, kind) in plan.iter_mut() {
        match kind {
            Expected::Insufficient { pair } => {
                let mid = *block * BLOCK + *pair + GAP_S / 2;
                let side = if rng.unit() < 0.5 { 0.0 } else { 180.0 };
                let radius = 10.0;
                let c =
                    lane_point(*drone, mid).destination(side, Distance::from_meters(40.0 + radius));
                zones.push((c, radius));
            }
            Expected::InsideZone { index, zone } => {
                let at = *block * BLOCK + *index;
                zones.push((lane_point(*drone, at), 4.0));
                *zone = zones.len() as u64;
            }
            Expected::Compliant => {}
        }
    }
    assert!(
        zones.len() <= shape.zones,
        "zone budget too small for the mix"
    );
    while zones.len() < shape.zones {
        let drone = submitters[rng.below(submitters.len())];
        let at = rng.below(blocks_per_drone * BLOCK);
        let radius = rng.range(shape.zone_radius_m.0, shape.zone_radius_m.1);
        let clearance = rng.range(shape.zone_clearance_m.0, shape.zone_clearance_m.1);
        let side = if rng.unit() < 0.5 { 0.0 } else { 180.0 };
        let c = lane_point(drone, at).destination(side, Distance::from_meters(clearance + radius));
        zones.push((c, radius));
    }

    // Sign in parallel: inputs are a pure function of (drone, indices).
    let history_plan: Vec<(usize, usize)> = (0..h)
        .flat_map(|block| (0..shape.drones).map(move |d| (d, block)))
        .collect();
    let history = parallel_map(&history_plan, |&(d, block)| {
        let (frame, now) = submit_frame(&keys[d], d, &sample_indices(block, &Expected::Compliant));
        Op {
            stream: 0,
            frame,
            expect: Expect::Verdict(Expected::Compliant),
            now,
        }
    });
    let submissions = parallel_map(&plan, |(d, block, kind)| {
        let (frame, now) = submit_frame(&keys[*d], *d, &sample_indices(*block, kind));
        Op {
            stream: 0,
            frame,
            expect: Expect::Verdict(kind.clone()),
            now,
        }
    });

    let ops = match (w, &operator) {
        (Workload::AuditMix1024, Some(op)) => mix_ops(&shape, submissions, &plan, op, &mut rng),
        _ => submissions,
    };
    Corpus {
        workload: w.name(),
        seed,
        key_bits: shape.key_bits,
        drones,
        zones: zones
            .iter()
            .map(|(c, r)| (c.lat_deg(), c.lon_deg(), *r))
            .collect(),
        history,
        ops,
    }
}

/// Every eighth submission of the mix is resent once, byte for byte, as
/// a drone does after a lost response.
pub const MIX_RETRY_EVERY: usize = 8;

/// Interleaves the open-loop mix: the drone stream sends a zone query
/// before each submission (plus declared retries); the monitor stream
/// cycles tree-head + inclusion checks, consistency checks and
/// accusations against history-only drones.
fn mix_ops(
    shape: &Shape,
    submissions: Vec<Op>,
    plan: &[(usize, usize, Expected)],
    operator: &RsaPrivateKey,
    rng: &mut SplitMix,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for (m, (sub, (drone, block, _))) in submissions.into_iter().zip(plan).enumerate() {
        let a = lane_point(*drone, block * BLOCK);
        let b = lane_point(*drone, block * BLOCK + BLOCK).destination(0.0, Distance::from_km(0.5));
        let mut nonce = [0u8; 16];
        nonce[..8].copy_from_slice(&(m as u64).to_be_bytes());
        nonce[8..].copy_from_slice(&rng.next_u64().to_be_bytes());
        let q = ZoneQuery::new_signed(drone_id(*drone), a, b, nonce, operator).expect("sign query");
        ops.push(Op {
            stream: 0,
            frame: Request::QueryZones(q).to_bytes(),
            expect: Expect::Zones,
            now: sub.now,
        });
        let retry = (m % MIX_RETRY_EVERY == MIX_RETRY_EVERY - 1).then(|| sub.clone());
        ops.push(sub);
        ops.extend(retry);
    }
    let monitored = shape.drones - MIX_STREAM_DRONES;
    let monitor_ops = ops.len();
    for m in 0..monitor_ops {
        let target = rng.below(monitored);
        let expect = match m % 3 {
            0 => Expect::TreeCheck {
                drone: drone_id(target).value(),
            },
            1 => Expect::Consistency,
            _ => Expect::Accuse {
                refuted: m % 2 == 0,
            },
        };
        let frame = match &expect {
            Expect::Accuse { refuted } => {
                let block = rng.below(shape.history_per_drone);
                let time = if *refuted {
                    (block * BLOCK) as f64 + 20.5
                } else {
                    1.0e6 + m as f64
                };
                Request::Accuse(Accusation {
                    zone_id: ZoneId::new(1 + rng.below(shape.zones) as u64),
                    drone_id: drone_id(target),
                    time: Timestamp::from_secs(time),
                })
                .to_bytes()
            }
            _ => Vec::new(),
        };
        ops.push(Op {
            stream: 1,
            frame,
            expect,
            now: 0.0,
        });
    }
    ops
}

fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = crate::sys::nproc().clamp(1, 2);
    let chunk = items.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

// ------------------------------------------------------------ encoding

struct Enc(Vec<u8>);

impl Enc {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_be_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }
    fn op(&mut self, op: &Op) {
        self.0.push(op.stream);
        self.bytes(&op.frame);
        self.f64(op.now);
        let (tag, a, b) = match &op.expect {
            Expect::Verdict(Expected::Compliant) => (0u8, 0, 0),
            Expect::Verdict(Expected::Insufficient { pair }) => (1, *pair as u64, 0),
            Expect::Verdict(Expected::InsideZone { index, zone }) => (2, *index as u64, *zone),
            Expect::Zones => (3, 0, 0),
            Expect::TreeCheck { drone } => (4, *drone, 0),
            Expect::Consistency => (5, 0, 0),
            Expect::Accuse { refuted } => (6, u64::from(*refuted), 0),
        };
        self.0.push(tag);
        self.u64(a);
        self.u64(b);
    }
}

struct Dec<'a>(&'a [u8]);

impl Dec<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.0.len() < n {
            return None;
        }
        let (a, b) = self.0.split_at(n);
        self.0 = b;
        Some(a)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }
    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = usize::try_from(self.u64()?).ok()?;
        self.take(n).map(<[u8]>::to_vec)
    }
    fn op(&mut self) -> Option<Op> {
        let stream = self.u8()?;
        let frame = self.bytes()?;
        let now = self.f64()?;
        let (tag, a, b) = (self.u8()?, self.u64()?, self.u64()?);
        let expect = match tag {
            0 => Expect::Verdict(Expected::Compliant),
            1 => Expect::Verdict(Expected::Insufficient { pair: a as usize }),
            2 => Expect::Verdict(Expected::InsideZone {
                index: a as usize,
                zone: b,
            }),
            3 => Expect::Zones,
            4 => Expect::TreeCheck { drone: a },
            5 => Expect::Consistency,
            6 => Expect::Accuse { refuted: a == 1 },
            _ => return None,
        };
        Some(Op {
            stream,
            frame,
            expect,
            now,
        })
    }
}

const MAGIC: &[u8; 8] = b"POABENCH";

impl Corpus {
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc(MAGIC.to_vec());
        e.u64(u64::from(GENERATOR_VERSION));
        e.bytes(self.workload.as_bytes());
        e.u64(self.seed);
        e.u64(self.key_bits as u64);
        e.u64(self.drones.len() as u64);
        for (tee, op) in &self.drones {
            e.bytes(tee);
            e.bytes(op);
        }
        e.u64(self.zones.len() as u64);
        for &(lat, lon, r) in &self.zones {
            e.f64(lat);
            e.f64(lon);
            e.f64(r);
        }
        for list in [&self.history, &self.ops] {
            e.u64(list.len() as u64);
            for op in list {
                e.op(op);
            }
        }
        e.0
    }

    pub fn from_bytes(bytes: &[u8], w: Workload) -> Option<Corpus> {
        let mut d = Dec(bytes);
        if d.take(8)? != MAGIC || d.u64()? != u64::from(GENERATOR_VERSION) {
            return None;
        }
        if d.bytes()? != w.name().as_bytes() {
            return None;
        }
        let seed = d.u64()?;
        let key_bits = usize::try_from(d.u64()?).ok()?;
        let n = d.u64()?;
        let drones = (0..n)
            .map(|_| Some((d.bytes()?, d.bytes()?)))
            .collect::<Option<Vec<_>>>()?;
        let n = d.u64()?;
        let zones = (0..n)
            .map(|_| Some((d.f64()?, d.f64()?, d.f64()?)))
            .collect::<Option<Vec<_>>>()?;
        let mut lists = Vec::new();
        for _ in 0..2 {
            let n = d.u64()?;
            lists.push((0..n).map(|_| d.op()).collect::<Option<Vec<_>>>()?);
        }
        let ops = lists.pop()?;
        let history = lists.pop()?;
        d.0.is_empty().then_some(Corpus {
            workload: w.name(),
            seed,
            key_bits,
            drones,
            zones,
            history,
            ops,
        })
    }
}

pub fn cache_path(root: &Path, w: Workload, seed: u64, seconds: f64, smoke: bool) -> PathBuf {
    let size = if smoke {
        "smoke".to_string()
    } else {
        format!("{seconds}s")
    };
    root.join("cache").join(format!(
        "{}-seed{}-{}-v{}.bin",
        w.name(),
        seed,
        size,
        GENERATOR_VERSION
    ))
}

/// Loads the cached corpus or generates and caches it. Returns the
/// corpus and whether it came from the cache.
pub fn load_or_generate(
    root: &Path,
    w: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> (Corpus, bool) {
    let path = cache_path(root, w, seed, seconds, smoke);
    if let Some(c) = std::fs::read(&path)
        .ok()
        .and_then(|b| Corpus::from_bytes(&b, w))
        .filter(|c| c.seed == seed)
    {
        return (c, true);
    }
    let c = generate(w, seed, seconds, smoke);
    // A failed cache write only costs the next run a regeneration.
    let _ = std::fs::create_dir_all(path.parent().expect("cache dir"));
    let tmp = path.with_extension(format!("tmp{}", std::process::id()));
    if std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(&c.to_bytes()))
        .is_ok()
    {
        let _ = std::fs::rename(&tmp, &path);
    }
    evict(&path, w);
    (c, false)
}

/// Cached corpora kept per workload (the largest is ~180 MB).
const CACHE_KEEP: usize = 2;

/// Removes all but the newest `CACHE_KEEP` cached corpora of `w`.
fn evict(path: &Path, w: Workload) {
    let Some(dir) = path.parent() else { return };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let prefix = format!("{}-", w.name());
    let mut files: Vec<(std::time::SystemTime, PathBuf)> = entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
        .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
        .collect();
    files.sort_by_key(|f| std::cmp::Reverse(f.0));
    for (_, old) in files.into_iter().skip(CACHE_KEEP) {
        let _ = std::fs::remove_file(old);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_generates_byte_identical_corpora() {
        for w in [Workload::City1024, Workload::AuditMix1024] {
            let a = generate(w, 7, 1.0, true).to_bytes();
            let b = generate(w, 7, 1.0, true).to_bytes();
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, generate(w, 8, 1.0, true).to_bytes());
            let back = Corpus::from_bytes(&a, w).expect("decodes");
            assert_eq!(back.to_bytes(), a);
        }
    }

    #[test]
    fn no_sample_is_submitted_twice_except_declared_retries() {
        let c = generate(Workload::City1024, 3, 1.0, true);
        let mut seen = std::collections::BTreeSet::new();
        for op in c.history.iter().chain(&c.ops) {
            let Ok(Request::SubmitPoa { poa, .. }) = Request::from_bytes(&op.frame) else {
                continue;
            };
            for e in ProofOfAlibi::from_bytes(&poa).expect("poa").entries() {
                assert!(seen.insert(e.signature().to_vec()), "repeated sample");
            }
        }
        assert!(seen.len() >= c.ops.len() * SAMPLES_PER_POA);
    }
}
