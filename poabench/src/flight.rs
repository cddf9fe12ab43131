//! `flight_2048`: the drone side. Seeded residential flights through
//! `run_flight` (receiver → pairwise-safe adaptive sampler → TEE
//! `GetGPSAuth`) with a
//! standard 2048-bit TEE key; each PoA is then judged by an in-process
//! auditor holding that flight's zones.
//!
//! Each flight flies 400 m due east at 10 m/s with a 5 Hz receiver.
//! Houses (6 m radius) line the street from 150 m on, alternating sides,
//! their boundaries 10–30 m from the route. One 1.2 s receiver dropout
//! in the house-free first stretch must yield exactly one signed gap
//! marker. Adaptive sampling records each sample just before the pair
//! would stop being sufficient, so the travel budget a declared gap adds
//! costs exactly the pair that spans it (the paper's §VI-A3 field
//! observation): the expected verdict is `InsufficientAlibi` naming only
//! that pair, located from the PoA's own gap marker. The sampler is the
//! pairwise-safe variant: the literal Algorithm 1 consults only the zone
//! nearest the newest fix and on some layouts leaves a second
//! insufficient pair, so its verdict could not be fixed in advance.

use std::sync::Arc;
use std::time::Instant;

use alidrone_core::{
    run_flight_with_obs, Auditor, AuditorConfig, PoaSubmission, SamplingStrategy, Submission,
    Verdict,
};
use alidrone_crypto::rsa::{HashAlg, RsaPrivateKey};
use alidrone_geo::trajectory::TrajectoryBuilder;
use alidrone_geo::{Distance, GeoPoint, NoFlyZone, Speed, ZoneSet};
use alidrone_gps::{SimClock, SimulatedReceiver};
use alidrone_obs::{FlightRecorder, Obs};
use alidrone_tee::{SecureWorldBuilder, TeeSession, GPS_SAMPLER_UUID};

use crate::corpus::origin;
use crate::rng::SplitMix;

pub const KEY_BITS: usize = 2048;
const HW_RATE_HZ: f64 = 5.0;
const ROUTE_M: f64 = 400.0;
const SPEED_MPS: f64 = 10.0;
const HOUSES_FROM_M: f64 = 150.0;
const HOUSE_RADIUS_M: f64 = 6.0;
/// Receiver updates lost in a row (1.2 s at 5 Hz: over the three-period
/// staleness threshold, so the TEE signs one gap marker).
const DROPOUT_UPDATES: u64 = 6;
const DROPOUT_FIRST: u64 = 15;
/// TEE provisionings per run; `setup_s` is their median. Key generation
/// time varies widely with the prime search, so take many.
const PROVISIONINGS: usize = 11;

/// One flight's inputs, a pure function of `(seed, index)`.
pub struct FlightPlan {
    pub start: GeoPoint,
    pub zones: ZoneSet,
}

pub fn plan(seed: u64, index: usize) -> FlightPlan {
    let mut rng = SplitMix::fork(
        seed.wrapping_mul(1 << 20).wrapping_add(index as u64),
        "flight",
    );
    // Flights sit 2 km apart on a grid, so zone sets never interact.
    let start = origin()
        .destination(0.0, Distance::from_km(2.0 * (index / 16) as f64))
        .destination(90.0, Distance::from_km(2.0 * (index % 16) as f64));
    let mut zones = ZoneSet::new();
    let mut along = HOUSES_FROM_M + rng.range(0.0, 10.0);
    let mut north = rng.unit() < 0.5;
    while along < ROUTE_M - 10.0 {
        let boundary = rng.range(10.0, 30.0);
        let house = start
            .destination(90.0, Distance::from_meters(along))
            .destination(
                if north { 0.0 } else { 180.0 },
                Distance::from_meters(boundary + HOUSE_RADIUS_M),
            );
        zones.push(NoFlyZone::new(house, Distance::from_meters(HOUSE_RADIUS_M)));
        along += rng.range(12.0, 30.0);
        north = !north;
    }
    FlightPlan { start, zones }
}

/// The drone's TEE key for run `seed` (provisioning sample `i`).
fn tee_key(seed: u64, i: usize) -> RsaPrivateKey {
    RsaPrivateKey::generate(
        KEY_BITS,
        &mut SplitMix::fork(seed.wrapping_mul(64).wrapping_add(i as u64), "tee"),
    )
}

/// Times TEE provisioning: key generation from the seed plus secure-world
/// boot and session open. Returns the first key and every timing.
pub fn provision(seed: u64, smoke: bool) -> (RsaPrivateKey, Vec<f64>) {
    let mut first = None;
    let mut times = Vec::new();
    for i in 0..if smoke { 1 } else { PROVISIONINGS } {
        let t = Instant::now();
        let key = tee_key(seed, i);
        let clock = SimClock::new();
        let receiver = SimulatedReceiver::from_trace(Vec::new(), clock, HW_RATE_HZ);
        let world = SecureWorldBuilder::new()
            .with_sign_key(key.clone())
            .with_gps_device(Box::new(receiver))
            .build()
            .expect("secure world boots");
        let _session = world
            .client()
            .open_session(GPS_SAMPLER_UUID)
            .expect("session");
        times.push(t.elapsed().as_secs_f64());
        first.get_or_insert(key);
    }
    (first.expect("at least one provisioning"), times)
}

/// A finished, checked flight.
pub struct Flown {
    pub wall_s: f64,
    pub fly_s: f64,
    pub samples: usize,
    pub ok: bool,
    pub poa: alidrone_core::ProofOfAlibi,
}

/// Index of the sample pair whose interval spans the PoA's single gap.
fn spanning_pair(poa: &alidrone_core::ProofOfAlibi) -> Option<usize> {
    let [gap] = poa.gaps() else {
        return None;
    };
    let alibi = poa.alibi();
    alibi.windows(2).position(|w| {
        w[0].time().secs() <= gap.start().secs() && gap.end().secs() <= w[1].time().secs()
    })
}

pub fn fly(plan: &FlightPlan, key: &RsaPrivateKey, obs: &Obs, judge_key: &RsaPrivateKey) -> Flown {
    let t0 = Instant::now();
    let clock = SimClock::new();
    let traj = TrajectoryBuilder::start_at(plan.start)
        .travel_to(
            plan.start.destination(90.0, Distance::from_meters(ROUTE_M)),
            Speed::from_mps(SPEED_MPS),
        )
        .build()
        .expect("flight trajectory");
    let duration = traj.total_duration();
    let mut receiver = SimulatedReceiver::from_trajectory(traj, clock.clone(), HW_RATE_HZ);
    for k in DROPOUT_FIRST..DROPOUT_FIRST + DROPOUT_UPDATES {
        receiver.drop_update(k);
    }
    let receiver = Arc::new(receiver);
    let world = SecureWorldBuilder::new()
        .with_sign_key(key.clone())
        .with_gps_device(Box::new(Arc::clone(&receiver)))
        .with_obs(obs)
        .build()
        .expect("secure world boots");
    let session: TeeSession = world
        .client()
        .open_session(GPS_SAMPLER_UUID)
        .expect("session");
    let record = run_flight_with_obs(
        &clock,
        receiver.as_ref(),
        &session,
        &plan.zones,
        SamplingStrategy::AdaptivePairwise,
        duration,
        obs,
    );
    let fly_s = t0.elapsed().as_secs_f64();
    let updates = (duration.secs() * HW_RATE_HZ).round() as usize + 1;
    let Ok(record) = record else {
        return Flown {
            wall_s: t0.elapsed().as_secs_f64(),
            fly_s,
            samples: 0,
            ok: false,
            poa: alidrone_core::ProofOfAlibi::new(),
        };
    };
    // The auditor's judgement, with exactly this flight's zones.
    let auditor = Auditor::new(AuditorConfig::default(), judge_key.clone());
    let drone = auditor.register_drone(key.public_key().clone(), key.public_key().clone());
    for z in plan.zones.iter() {
        auditor.register_zone(*z);
    }
    let verdict = auditor
        .verify(
            &Submission::plain(PoaSubmission {
                drone_id: drone,
                window_start: record.window_start,
                window_end: record.window_end,
                poa: record.poa.clone(),
            }),
            record.window_end,
        )
        .map(|r| r.verdict);
    let samples = record.sample_count();
    let gap_pair = spanning_pair(&record.poa);
    let ok = match (&verdict, gap_pair) {
        (Ok(Verdict::InsufficientAlibi { pair_indices }), Some(k)) => pair_indices == &[k],
        _ => false,
    } && (10..=updates).contains(&samples);
    Flown {
        wall_s: t0.elapsed().as_secs_f64(),
        fly_s,
        samples,
        ok,
        poa: record.poa,
    }
}

/// Flight-layer readings from one traced flight sequence.
pub struct FlightTrace {
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Flies `count` flights with a wall-clock `Obs` and a recorder
/// attached, reading the program's own `drone.sample` spans and TEE /
/// sampler counters. A fixed count keeps the work the same however
/// fast the host is.
pub fn traced_flights(
    seed: u64,
    key: &RsaPrivateKey,
    judge_key: &RsaPrivateKey,
    count: usize,
) -> (FlightTrace, Vec<(Flown, FlightPlan)>) {
    let obs = Obs::wall();
    let recorder = Arc::new(FlightRecorder::with_capacities(200_000, 16));
    obs.set_subscriber(recorder.clone() as Arc<dyn alidrone_obs::Subscriber>);
    let mut flown = Vec::new();
    let mut self_ms = Vec::new();
    for i in 0..count {
        let p = plan(seed, i);
        let before = recorder.spans().len();
        let f = fly(&p, key, &obs, judge_key);
        let spans = recorder.spans();
        let sampled: f64 = spans[before.min(spans.len())..]
            .iter()
            .filter(|s| s.name == "drone.sample")
            .map(|s| s.duration().secs() * 1e3)
            .sum();
        self_ms.push((f.fly_s * 1e3 - sampled).max(0.0));
        flown.push((f, p));
    }
    let spans = recorder.spans();
    let gps_auth: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "drone.sample")
        .map(|s| s.duration().secs() * 1e3)
        .collect();
    let snap = obs.snapshot();
    let samples = snap.counter("sampler.decisions.sample") as f64;
    let skips = snap.counter("sampler.decisions.skip") as f64;
    let signatures = snap.counter("tee.signatures") as f64;
    let switches = snap.counter("tee.world_switches") as f64;
    // The signing kernel alone, on samples of the first flight.
    let mut sign_ms = Vec::new();
    for e in flown[0].0.poa.entries().iter().take(64) {
        let t = Instant::now();
        std::hint::black_box(
            key.sign(&e.sample().to_bytes(), HashAlg::Sha1)
                .expect("sign"),
        );
        sign_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let n = flown.len() as f64;
    let med = |v: Vec<f64>| crate::sys::Dist::new(v).median();
    let metrics = vec![
        ("tee.gps_auth_ms".to_string(), med(gps_auth), "ms"),
        (
            "tee.world_switches_per_sample".to_string(),
            switches / signatures.max(1.0),
            "count",
        ),
        ("crypto.sign_ms".to_string(), med(sign_ms), "ms"),
        (
            "core.sampling.samples_per_flight".to_string(),
            samples / n,
            "count",
        ),
        (
            "core.sampling.skip_ratio".to_string(),
            skips / (samples + skips).max(1.0),
            "ratio",
        ),
        ("core.flight.self_ms".to_string(), med(self_ms), "ms"),
    ];
    (FlightTrace { metrics }, flown)
}
