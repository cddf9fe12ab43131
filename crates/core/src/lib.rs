//! The AliDrone Proof-of-Alibi protocol.
//!
//! This crate is the paper's primary contribution (ICDCS 2018, §III–§IV):
//! a protocol by which a drone proves to a third-party **Auditor** that it
//! never entered any no-fly zone (NFZ) during a flight, even though the
//! **Drone Operator** — who controls every piece of software outside the
//! TEE — is the adversary.
//!
//! # Roles
//!
//! * [`Auditor`] — registers drones and zones, answers zone queries,
//!   verifies submitted Proofs-of-Alibi, and retains them for later
//!   accusations by zone owners.
//! * [`DroneOperator`] — owns the operator keypair `D = (D⁺, D⁻)` and the
//!   drone's TEE handle; queries zones before flying, runs the Adapter
//!   sampling loop during flight, submits the PoA afterwards.
//! * [`ZoneOwner`] — registers a (circular or polygonal) NFZ over their
//!   property and may report sighted drones.
//!
//! # Protocol steps (paper §IV-B)
//!
//! * Step 0 — **drone registration**: operator submits `D⁺` and the TEE
//!   verification key `T⁺`; auditor issues `id_drone`.
//! * Step 1 — **zone registration**: zone owner submits `z = (lat, lon, r)`;
//!   auditor issues `id_zone`.
//! * Steps 2–3 — **zone query/response**: operator sends a signed-nonce
//!   query for a rectangular navigation area; auditor returns the NFZs
//!   inside it.
//! * Step 4 — **PoA submission**: after the flight the operator submits
//!   `PoA = {(Sᵢ, Sig(Sᵢ, T⁻))}`; the auditor verifies signatures,
//!   timestamps, physical feasibility, and alibi sufficiency (eq. 1).
//!
//! # Sampling
//!
//! [`sampling`] implements both the paper's Algorithm 1
//! ([`sampling::AdaptiveSampler`]) and the fixed-rate baseline with
//! wait-for-update semantics ([`sampling::FixedRateSampler`]);
//! [`run_flight`] drives either against a simulated receiver + TEE and
//! produces the metrics the evaluation section plots.
//!
//! # Extensions (paper §VII)
//!
//! * [`privacy`] — one-time-key encrypted PoAs with selective disclosure.
//! * [`symmetric`] — per-flight DH-established HMAC keys instead of
//!   per-sample RSA.
//! * Batch signing lives in the TEE crate
//!   ([`alidrone_tee::SignedTrace`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod auditor;
mod error;
mod flight;
mod identity;
mod messages;
mod operator;
mod poa;
#[cfg(test)]
mod test_support;
mod zone_owner;

pub mod audit;
pub mod journal;
pub mod privacy;
pub mod repl;
pub mod sampling;
pub mod symmetric;
pub mod wire;

pub use auditor::{
    AccusationOutcome, Auditor, AuditorConfig, RecoveryReport, StoredPoa, Verdict,
    VerificationReport,
};
pub use error::ProtocolError;
pub use flight::{
    run_flight, run_flight_with_hook, run_flight_with_obs, FlightRecord, SampleEvent,
    SamplingStrategy,
};
pub use identity::{DroneId, ZoneId};
pub use messages::{Accusation, PoaSubmission, Submission, ZoneQuery, ZoneResponse};
pub use operator::DroneOperator;
pub use poa::{EncryptedPoa, ProofOfAlibi};
pub use zone_owner::ZoneOwner;
