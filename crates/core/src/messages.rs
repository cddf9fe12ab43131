//! Protocol messages exchanged with the auditor (paper §IV-B).

use std::fmt;

use alidrone_crypto::rsa::{HashAlg, RsaPrivateKey, RsaPublicKey, RsaVerifier};
use alidrone_geo::{GeoPoint, Timestamp};

use crate::poa::{EncryptedPoa, ProofOfAlibi};
use crate::{DroneId, ProtocolError, ZoneId};

/// Step 2 — a zone query: "the drone id, two GPS coordinates …
/// indicating a rectangular navigation area, and a random nonce signed by
/// the drone sign key D⁻".
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneQuery {
    /// The querying drone.
    pub drone_id: DroneId,
    /// One corner of the navigation rectangle.
    pub corner1: GeoPoint,
    /// The opposite corner.
    pub corner2: GeoPoint,
    /// Anti-replay nonce.
    pub nonce: [u8; 16],
    /// `Sig(nonce, D⁻)`.
    pub signature: Vec<u8>,
}

impl ZoneQuery {
    /// Builds and signs a query with the operator key `D⁻`.
    ///
    /// # Errors
    ///
    /// Propagates signing failures.
    pub fn new_signed(
        drone_id: DroneId,
        corner1: GeoPoint,
        corner2: GeoPoint,
        nonce: [u8; 16],
        operator_key: &RsaPrivateKey,
    ) -> Result<Self, ProtocolError> {
        let signature = operator_key.sign(&nonce, HashAlg::Sha256)?;
        Ok(ZoneQuery {
            drone_id,
            corner1,
            corner2,
            nonce,
            signature,
        })
    }

    /// Verifies the nonce signature under the registered `D⁺`.
    ///
    /// One-shot convenience over [`verify_with`](Self::verify_with).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::QuerySignatureInvalid`] on mismatch.
    pub fn verify(&self, operator_public: &RsaPublicKey) -> Result<(), ProtocolError> {
        self.verify_with(&operator_public.verifier())
    }

    /// Verifies the nonce signature with a prepared `D⁺` verifier,
    /// skipping the per-key precomputation.
    ///
    /// # Errors
    ///
    /// Same as [`verify`](Self::verify).
    pub fn verify_with(&self, operator: &RsaVerifier) -> Result<(), ProtocolError> {
        operator
            .verify(&self.nonce, &self.signature, HashAlg::Sha256)
            .map_err(|_| ProtocolError::QuerySignatureInvalid)
    }
}

/// Step 3 — the auditor's reply: zone ids with their geometry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ZoneResponse {
    /// Registered zones whose centres fall inside the query rectangle.
    pub zones: Vec<(ZoneId, alidrone_geo::NoFlyZone)>,
}

impl ZoneResponse {
    /// Just the geometry, as a [`ZoneSet`](alidrone_geo::ZoneSet) for the
    /// sampler.
    pub fn zone_set(&self) -> alidrone_geo::ZoneSet {
        self.zones.iter().map(|(_, z)| *z).collect()
    }
}

/// Step 4 — a Proof-of-Alibi submission covering a claimed flight window.
#[derive(Debug, Clone, PartialEq)]
pub struct PoaSubmission {
    /// The submitting drone.
    pub drone_id: DroneId,
    /// Claimed takeoff time.
    pub window_start: Timestamp,
    /// Claimed landing time.
    pub window_end: Timestamp,
    /// The proof.
    pub poa: ProofOfAlibi,
}

impl fmt::Display for PoaSubmission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} flight [{} → {}] with {}",
            self.drone_id, self.window_start, self.window_end, self.poa
        )
    }
}

/// A step-4 submission in either transport form — the typed entry point
/// for [`Auditor::verify`](crate::Auditor::verify).
///
/// Both protocol variants (plaintext PoA and the §V-C
/// encrypted-under-the-server-key form) funnel through one verification
/// path; this enum is the seam.
#[derive(Debug, Clone, PartialEq)]
pub enum Submission {
    /// A plaintext Proof-of-Alibi submission.
    Plain(PoaSubmission),
    /// A PoA encrypted under the auditor's public key (paper §V-C).
    Encrypted {
        /// The submitting drone.
        drone_id: DroneId,
        /// Claimed takeoff time.
        window_start: Timestamp,
        /// Claimed landing time.
        window_end: Timestamp,
        /// The encrypted proof.
        poa: EncryptedPoa,
    },
}

impl Submission {
    /// Wraps a plaintext submission.
    pub fn plain(submission: PoaSubmission) -> Self {
        Submission::Plain(submission)
    }

    /// Wraps an encrypted submission with its claimed flight window.
    pub fn encrypted(
        drone_id: DroneId,
        window_start: Timestamp,
        window_end: Timestamp,
        poa: EncryptedPoa,
    ) -> Self {
        Submission::Encrypted {
            drone_id,
            window_start,
            window_end,
            poa,
        }
    }

    /// The submitting drone, in either form.
    pub fn drone_id(&self) -> DroneId {
        match self {
            Submission::Plain(s) => s.drone_id,
            Submission::Encrypted { drone_id, .. } => *drone_id,
        }
    }

    /// The claimed flight window, in either form.
    pub fn window(&self) -> (Timestamp, Timestamp) {
        match self {
            Submission::Plain(s) => (s.window_start, s.window_end),
            Submission::Encrypted {
                window_start,
                window_end,
                ..
            } => (*window_start, *window_end),
        }
    }
}

impl From<PoaSubmission> for Submission {
    fn from(s: PoaSubmission) -> Self {
        Submission::Plain(s)
    }
}

/// A zone owner's report: "I saw drone X near my zone at time T"
/// (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accusation {
    /// The reporting owner's zone.
    pub zone_id: ZoneId,
    /// The drone id read off the aircraft.
    pub drone_id: DroneId,
    /// Time of the sighting.
    pub time: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{operator_key, origin, signed_samples, tee_key};

    #[test]
    fn zone_query_signature_round_trip() {
        let q = ZoneQuery::new_signed(
            DroneId::new(1),
            origin(),
            origin().destination(45.0, alidrone_geo::Distance::from_km(10.0)),
            [7u8; 16],
            operator_key(),
        )
        .unwrap();
        q.verify(operator_key().public_key()).unwrap();
    }

    #[test]
    fn zone_query_wrong_key_rejected() {
        let q = ZoneQuery::new_signed(
            DroneId::new(1),
            origin(),
            origin(),
            [7u8; 16],
            operator_key(),
        )
        .unwrap();
        // The TEE key is not the operator key.
        assert_eq!(
            q.verify(tee_key().public_key()),
            Err(ProtocolError::QuerySignatureInvalid)
        );
    }

    #[test]
    fn zone_query_tampered_nonce_rejected() {
        let mut q = ZoneQuery::new_signed(
            DroneId::new(1),
            origin(),
            origin(),
            [7u8; 16],
            operator_key(),
        )
        .unwrap();
        q.nonce[0] ^= 1;
        assert!(q.verify(operator_key().public_key()).is_err());
    }

    #[test]
    fn zone_response_to_zone_set() {
        let z = alidrone_geo::NoFlyZone::new(origin(), alidrone_geo::Distance::from_meters(50.0));
        let r = ZoneResponse {
            zones: vec![(ZoneId::new(1), z), (ZoneId::new(2), z)],
        };
        assert_eq!(r.zone_set().len(), 2);
    }

    #[test]
    fn submission_display() {
        let s = PoaSubmission {
            drone_id: DroneId::new(3),
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs(10.0),
            poa: ProofOfAlibi::from_entries(signed_samples(2)),
        };
        let text = s.to_string();
        assert!(text.contains("drone-000003"));
        assert!(text.contains("2 samples"));
    }
}
