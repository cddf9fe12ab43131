//! The Auditor: registration authority, zone directory, and PoA verifier.
//!
//! # Concurrency
//!
//! Every protocol entry point takes `&self`: the auditor's mutable state
//! is sharded behind interior locks (one lock per registry — drones,
//! zones, anti-replay nonces, the PoA log — plus atomic id counters), so
//! one instance can serve many threads through an
//! `Arc<AuditorServer>`. The expensive work — RSA signature checks,
//! reachable-set geometry — runs on snapshots taken under a read lock
//! and released before verification starts, so verification never
//! serialises behind registrations.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use alidrone_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use alidrone_geo::polygon::PolygonZone;
use alidrone_geo::sufficiency::{check_alibi_with_gaps, Criterion, SufficiencyReport};
use alidrone_geo::{
    check_monotonic, Duration, GeoError, NoFlyZone, ReachableSet, Speed, Timestamp, ZoneSet,
    FAA_MAX_SPEED,
};
use alidrone_obs::{Histogram, Level, Obs};

use crate::audit::{AuditChain, ConsistencyProof, InclusionProof, SignedTreeHead};
use crate::identity::Registration;
use crate::journal::{Journal, JournalError, Record, StorageBackend};
use crate::messages::{Accusation, PoaSubmission, Submission, ZoneQuery, ZoneResponse};
use crate::poa::{EncryptedPoa, ProofOfAlibi};
use crate::repl::Replicator;
use crate::{DroneId, ProtocolError, ZoneId};

/// Auditor policy knobs.
#[derive(Debug, Clone)]
pub struct AuditorConfig {
    /// Maximum drone speed used in reachable-set computations (the FAA's
    /// 100 mph by default, paper §IV-C1).
    pub v_max: Speed,
    /// Which sufficiency criterion verification applies.
    pub criterion: Criterion,
    /// How far the first/last sample may sit inside the claimed flight
    /// window before coverage is rejected.
    pub coverage_slack: Duration,
    /// How long verified PoAs are retained for later accusations
    /// ("a couple of days", paper §IV-C2).
    pub retention: Duration,
    /// How many audited records may accumulate between journaled
    /// Merkle checkpoints (see [`crate::audit`]). Smaller intervals
    /// tighten tamper detection at the cost of one RSA signature and
    /// one extra journal record per interval.
    pub checkpoint_interval: u64,
}

impl Default for AuditorConfig {
    fn default() -> Self {
        AuditorConfig {
            v_max: FAA_MAX_SPEED,
            criterion: Criterion::Paper,
            coverage_slack: Duration::from_secs(5.0),
            retention: Duration::from_secs(2.0 * 86_400.0),
            checkpoint_interval: 32,
        }
    }
}

/// Produces a TEE countersignature over a checkpoint's signing bytes,
/// or `None` when the enclave declines (see
/// [`Auditor::set_checkpoint_countersigner`]).
pub type CheckpointCountersigner = Arc<dyn Fn(&[u8]) -> Option<Vec<u8>> + Send + Sync>;

/// The tamper-evidence state (see [`crate::audit`]): the hash chain and
/// Merkle leaves over every audited record, plus proof-serving caches.
struct AuditState {
    chain: AuditChain,
    /// Tree size covered by the last journaled checkpoint.
    checkpoint_size: u64,
    /// Latest `PoaStored` leaf index per drone — what an inclusion
    /// proof for "my verdict" resolves to.
    verdict_leaves: BTreeMap<DroneId, u64>,
    /// Cached signed tree head (signing is RSA-priced); invalidated by
    /// size on every chain append.
    sth: Option<SignedTreeHead>,
}

impl AuditState {
    fn empty() -> AuditState {
        AuditState {
            chain: AuditChain::new(),
            checkpoint_size: 0,
            verdict_leaves: BTreeMap::new(),
            sth: None,
        }
    }
}

/// The verification outcome for one submission.
///
/// `Compliant` is the only accepting verdict; everything else causes the
/// auditor to "initiate punitive measures" (paper §III-A) — including an
/// insufficient alibi, because the burden of proof rests on the operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The PoA proves the drone stayed clear of every registered zone for
    /// the whole flight window.
    Compliant,
    /// The PoA contains no samples.
    EmptyPoa,
    /// A TEE signature failed to verify (forged or tampered sample).
    BadSignature {
        /// Index of the first offending entry.
        index: usize,
    },
    /// Sample timestamps are not strictly increasing (spliced or replayed
    /// trace).
    NonMonotonic {
        /// Index of the first offending entry.
        index: usize,
    },
    /// The PoA does not cover the claimed flight window.
    WindowNotCovered,
    /// A consecutive pair implies motion faster than `v_max` — the trace
    /// is physically impossible, indicating forgery or relay splicing.
    ImpossibleTrace {
        /// Index of the first sample of the impossible pair.
        index: usize,
    },
    /// A signed sample lies inside a registered zone — a proven privacy
    /// violation.
    InsideZone {
        /// Index of the offending sample.
        index: usize,
        /// Which zone was entered.
        zone: ZoneId,
    },
    /// Some pair fails eq. (1): the drone *may* have entered a zone.
    InsufficientAlibi {
        /// Indices of the first samples of the insufficient pairs.
        pair_indices: Vec<usize>,
    },
    /// A declared GPS-gap marker failed to verify under `T⁺` (forged or
    /// tampered outage declaration).
    BadGapMarker {
        /// Index of the first offending gap marker.
        index: usize,
    },
    /// A signed sample's timestamp lies strictly inside a declared
    /// outage window — the trace contradicts its own gap declaration.
    GapContradiction {
        /// Index of the offending sample.
        index: usize,
    },
}

impl Verdict {
    /// `true` only for [`Verdict::Compliant`].
    pub fn is_compliant(&self) -> bool {
        matches!(self, Verdict::Compliant)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Compliant => write!(f, "compliant"),
            Verdict::EmptyPoa => write!(f, "empty proof-of-alibi"),
            Verdict::BadSignature { index } => write!(f, "bad signature at sample {index}"),
            Verdict::NonMonotonic { index } => {
                write!(f, "non-monotonic timestamps at sample {index}")
            }
            Verdict::WindowNotCovered => write!(f, "flight window not covered"),
            Verdict::ImpossibleTrace { index } => {
                write!(f, "physically impossible pair at sample {index}")
            }
            Verdict::InsideZone { index, zone } => {
                write!(f, "sample {index} inside {zone}")
            }
            Verdict::InsufficientAlibi { pair_indices } => {
                write!(f, "{} insufficient pair(s)", pair_indices.len())
            }
            Verdict::BadGapMarker { index } => {
                write!(f, "bad signature on gap marker {index}")
            }
            Verdict::GapContradiction { index } => {
                write!(f, "sample {index} inside a declared GPS gap")
            }
        }
    }
}

/// Full verification output: the verdict plus the per-pair sufficiency
/// detail when the pipeline got that far.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// The final verdict.
    pub verdict: Verdict,
    /// Per-pair sufficiency detail (present when signatures, timestamps,
    /// coverage, and feasibility all passed).
    pub sufficiency: Option<SufficiencyReport>,
}

impl VerificationReport {
    /// `true` when the submission was accepted.
    pub fn is_compliant(&self) -> bool {
        self.verdict.is_compliant()
    }
}

/// A retained PoA, kept so that a later [`Accusation`] can be checked
/// against it.
#[derive(Debug, Clone)]
pub struct StoredPoa {
    /// Submitting drone.
    pub drone_id: DroneId,
    /// Claimed flight window.
    pub window: (Timestamp, Timestamp),
    /// The proof itself.
    pub poa: ProofOfAlibi,
    /// Verdict it received at submission time.
    pub verdict: Verdict,
    /// When it was stored (drives retention purging).
    pub stored_at: Timestamp,
}

/// The outcome of checking an accusation against stored evidence.
#[derive(Debug, Clone, PartialEq)]
pub enum AccusationOutcome {
    /// The stored PoA proves the drone could not have been in the zone at
    /// the accused time.
    Refuted,
    /// The evidence does not exonerate the drone (insufficient pair, a
    /// sample inside the zone, or no coverage) — punitive measures follow.
    Upheld {
        /// Human-readable reason.
        reason: String,
    },
}

/// The AliDrone Server run by the auditor (paper §IV-C2).
///
/// Shareable: all methods take `&self` (see the module docs for the
/// locking layout), so wrap one in an `Arc` to drive it from many
/// threads.
pub struct Auditor {
    config: AuditorConfig,
    encryption_key: RsaPrivateKey,
    /// Records are `Arc`ed so verification can clone a handle out and
    /// release the registry lock before the RSA work starts; each holds
    /// the *prepared* verifiers (see [`Registration`]).
    drones: RwLock<BTreeMap<DroneId, Arc<Registration>>>,
    zones: RwLock<BTreeMap<ZoneId, NoFlyZone>>,
    used_nonces: Mutex<BTreeSet<(DroneId, [u8; 16])>>,
    stored: RwLock<Vec<StoredPoa>>,
    next_drone: AtomicU64,
    next_zone: AtomicU64,
    obs: Obs,
    verify_latency: Arc<Histogram>,
    /// Wall time of step 2, the per-entry signature loop
    /// (`auditor.verify_batch.latency_us`, one sample per non-empty PoA).
    verify_batch_latency: Arc<Histogram>,
    decrypt_latency: Arc<Histogram>,
    /// Wall time spent in journal appends
    /// (`auditor.journal_append_latency_us`) — the one I/O-bound step
    /// on the verification path, so its tail is worth watching
    /// separately from verify CPU.
    journal_append_latency: Arc<Histogram>,
    /// Write-ahead journal for durable state mutations. `None` when the
    /// auditor runs in-memory only, or after an append failure disabled
    /// journaling (see [`journal_append`](Self::journal_append)).
    journal: Mutex<Option<Journal>>,
    /// The error that disabled journaling, if any.
    journal_error: Mutex<Option<JournalError>>,
    /// Leadership epoch this auditor writes under (0 = never part of a
    /// cluster). Replayed from [`Record::Epoch`] records; promotion
    /// bumps it via [`begin_epoch`](Self::begin_epoch).
    epoch: AtomicU64,
    /// Log shipper gating journal appends on follower durability, when
    /// this auditor is a cluster primary (see [`crate::repl`]).
    replicator: OnceLock<Arc<Replicator>>,
    /// Tamper-evident audit chain over every durable mutation (see
    /// [`crate::audit`]). Advanced under the journal lock so chain
    /// order always matches journal append order.
    audit: Mutex<AuditState>,
    /// Optional TEE countersigner for Merkle checkpoints, installed
    /// once (normally by the server builder from an enclave client).
    checkpoint_countersigner: OnceLock<CheckpointCountersigner>,
}

/// What [`Auditor::recover`] found in the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Journal records replayed (including the snapshot, when present).
    pub records_applied: usize,
    /// `true` when replay started from a compaction snapshot.
    pub snapshot_loaded: bool,
    /// `true` when a torn (partially written) final record was found and
    /// discarded — the expected signature of a crash mid-append.
    pub torn_tail: bool,
    /// Bytes of torn tail discarded.
    pub torn_bytes: usize,
}

impl Auditor {
    /// Creates an auditor with the given policy and its PoA-decryption
    /// keypair. Observability is a no-op; use
    /// [`with_obs`](Self::with_obs) to trace and time verification.
    pub fn new(config: AuditorConfig, encryption_key: RsaPrivateKey) -> Self {
        Auditor::with_obs(config, encryption_key, &Obs::noop())
    }

    /// Creates an auditor whose verification and decryption steps are
    /// recorded as spans (and latency histograms) on `obs`. Spans open
    /// under whatever span is current on the handle, so an
    /// [`AuditorServer`](crate::wire::server::AuditorServer) sharing the handle
    /// stitches `auditor.verify` under its own request span.
    pub fn with_obs(config: AuditorConfig, encryption_key: RsaPrivateKey, obs: &Obs) -> Self {
        Auditor {
            config,
            encryption_key,
            drones: RwLock::new(BTreeMap::new()),
            zones: RwLock::new(BTreeMap::new()),
            used_nonces: Mutex::new(BTreeSet::new()),
            stored: RwLock::new(Vec::new()),
            next_drone: AtomicU64::new(1),
            next_zone: AtomicU64::new(1),
            obs: obs.clone(),
            verify_latency: obs.histogram("auditor.verify_latency_us"),
            verify_batch_latency: obs.histogram("auditor.verify_batch.latency_us"),
            decrypt_latency: obs.histogram("auditor.decrypt_latency_us"),
            journal_append_latency: obs.histogram("auditor.journal_append_latency_us"),
            journal: Mutex::new(None),
            journal_error: Mutex::new(None),
            epoch: AtomicU64::new(0),
            replicator: OnceLock::new(),
            audit: Mutex::new(AuditState::empty()),
            checkpoint_countersigner: OnceLock::new(),
        }
    }

    /// Recovers an auditor from a journal on `backend` and arms it to
    /// keep journaling. See [`recover_with_obs`](Self::recover_with_obs).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] for I/O failures or mid-journal
    /// corruption (a torn *tail* is tolerated and reported instead), and
    /// [`ProtocolError::Malformed`] when a replayed record decodes but
    /// cannot be applied.
    pub fn recover(
        backend: Arc<dyn StorageBackend>,
        config: AuditorConfig,
        encryption_key: RsaPrivateKey,
    ) -> Result<(Self, RecoveryReport), ProtocolError> {
        Auditor::recover_with_obs(backend, config, encryption_key, &Obs::noop())
    }

    /// Recovers an auditor by replaying the write-ahead journal on
    /// `backend`: a fresh backend yields an empty auditor, a journal
    /// whose final record was torn by a crash is truncated to its clean
    /// prefix (logged on `obs`), and the returned auditor appends every
    /// later durable mutation to the same journal.
    ///
    /// # Errors
    ///
    /// See [`recover`](Self::recover).
    pub fn recover_with_obs(
        backend: Arc<dyn StorageBackend>,
        config: AuditorConfig,
        encryption_key: RsaPrivateKey,
        obs: &Obs,
    ) -> Result<(Self, RecoveryReport), ProtocolError> {
        let (journal, records, replay) = Journal::open(backend)?;
        let mut report = RecoveryReport {
            records_applied: replay.records_applied,
            snapshot_loaded: false,
            torn_tail: replay.torn_tail,
            torn_bytes: replay.torn_bytes,
        };
        let mut auditor = Auditor::with_obs(config, encryption_key, obs);
        for record in &records {
            auditor.apply_record(record)?;
            if matches!(record, Record::Snapshot(_)) {
                report.snapshot_loaded = true;
            }
        }
        if replay.torn_tail {
            obs.emit(Level::Warn, "auditor.journal", "torn tail discarded", |f| {
                f.field("torn_bytes", replay.torn_bytes);
                f.field("records_applied", replay.records_applied);
            });
        }
        obs.emit(Level::Info, "auditor.journal", "recovered", |f| {
            f.field("records_applied", report.records_applied);
            f.field("snapshot_loaded", report.snapshot_loaded);
        });
        *auditor.journal.lock().unwrap_or_else(|p| p.into_inner()) = Some(journal);
        Ok((auditor, report))
    }

    /// Applies one replayed journal record to in-memory state *without*
    /// re-journaling it. Id counters advance past every replayed id so
    /// new registrations never collide with recovered ones.
    fn apply_record(&mut self, record: &Record) -> Result<(), ProtocolError> {
        use alidrone_crypto::bigint::BigUint;
        use alidrone_geo::{Distance, GeoPoint};
        if record.is_audited() {
            // Replay recomputes the same chain the live auditor built,
            // so the checkpoint arm below can catch rewritten history.
            self.audit_extend(record);
        }
        match record {
            Record::RegisterDrone {
                id,
                op_modulus,
                op_exponent,
                tee_modulus,
                tee_exponent,
            } => {
                let key = |n: &[u8], e: &[u8]| {
                    RsaPublicKey::new(BigUint::from_bytes_be(n), BigUint::from_bytes_be(e))
                        .map_err(ProtocolError::Crypto)
                };
                let record = Registration::new(
                    key(op_modulus, op_exponent)?,
                    key(tee_modulus, tee_exponent)?,
                );
                self.drones
                    .write()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(DroneId::new(*id), Arc::new(record));
                self.next_drone.fetch_max(id + 1, Ordering::Relaxed);
            }
            Record::RegisterZone {
                id,
                lat_deg,
                lon_deg,
                radius_m,
            } => {
                let center = GeoPoint::new(*lat_deg, *lon_deg).map_err(ProtocolError::Geo)?;
                let zone = NoFlyZone::try_new(center, Distance::from_meters(*radius_m))
                    .map_err(ProtocolError::Geo)?;
                self.zones
                    .write()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert(ZoneId::new(*id), zone);
                self.next_zone.fetch_max(id + 1, Ordering::Relaxed);
            }
            Record::NonceUsed { drone, nonce } => {
                self.used_nonces
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .insert((DroneId::new(*drone), *nonce));
            }
            Record::PoaStored {
                drone,
                window_start,
                window_end,
                poa,
                verdict,
                stored_at,
            } => {
                let poa = ProofOfAlibi::from_bytes(poa)?;
                let mut r = crate::wire::codec::Reader::new(verdict);
                let verdict = crate::wire::get_verdict(&mut r)?;
                r.finish()?;
                self.stored
                    .write()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(StoredPoa {
                        drone_id: DroneId::new(*drone),
                        window: (
                            Timestamp::from_secs(*window_start),
                            Timestamp::from_secs(*window_end),
                        ),
                        poa,
                        verdict,
                        stored_at: Timestamp::from_secs(*stored_at),
                    });
            }
            Record::Snapshot(bytes) => {
                // Replace wholesale from the compaction snapshot, keeping
                // this auditor's config/key/obs (the snapshot format
                // carries state only). The epoch survives: it rides in
                // its own records, not the snapshot.
                let restored =
                    Auditor::restore(bytes, self.config.clone(), self.encryption_key.clone())?;
                self.drones = restored.drones;
                self.zones = restored.zones;
                self.used_nonces = restored.used_nonces;
                self.stored = restored.stored;
                self.next_drone = restored.next_drone;
                self.next_zone = restored.next_zone;
                self.audit = restored.audit;
            }
            Record::Epoch(epoch) => {
                // Epochs only move forward; a replayed log may carry
                // several boundaries and the newest one wins.
                self.epoch.fetch_max(*epoch, Ordering::AcqRel);
            }
            Record::AuditCheckpoint { size, root, .. } => {
                // The recorded root must match the root this replay
                // recomputed from the preceding records — any rewrite,
                // drop, or reorder of chained history lands here.
                let mut audit = self.audit.lock().unwrap_or_else(|p| p.into_inner());
                audit
                    .chain
                    .check_checkpoint(*size, root)
                    .map_err(|_| ProtocolError::AuditDivergence { size: *size })?;
                audit.checkpoint_size = (*size).max(audit.checkpoint_size);
            }
        }
        Ok(())
    }

    /// Advances the audit chain by one audited record (live append and
    /// replay share this, so both build the identical chain).
    fn audit_extend(&self, record: &Record) {
        let mut audit = self.audit.lock().unwrap_or_else(|p| p.into_inner());
        let index = audit.chain.size();
        audit.chain.append(&record.to_payload());
        audit.sth = None;
        if let Record::PoaStored { drone, .. } = record {
            audit.verdict_leaves.insert(DroneId::new(*drone), index);
        }
    }

    /// Builds a Merkle checkpoint record when the configured interval
    /// has elapsed since the last one. A signing failure skips the
    /// checkpoint (logged; the next audited append retries) rather than
    /// failing the mutation that triggered it.
    fn due_checkpoint(&self) -> Option<Record> {
        let mut audit = self.audit.lock().unwrap_or_else(|p| p.into_inner());
        let size = audit.chain.size();
        if size.saturating_sub(audit.checkpoint_size) < self.config.checkpoint_interval.max(1) {
            return None;
        }
        match self.sign_tree_head(&mut audit) {
            Ok(sth) => {
                audit.checkpoint_size = size;
                Some(Record::AuditCheckpoint {
                    size: sth.size,
                    root: sth.root,
                    sig: sth.signature.clone(),
                    tee_sig: sth.tee_signature.clone(),
                })
            }
            Err(err) => {
                self.obs.emit(
                    Level::Error,
                    "auditor.audit",
                    "checkpoint signing failed; skipped",
                    |f| {
                        f.field("size", size);
                        f.field("error", err.to_string());
                    },
                );
                None
            }
        }
    }

    /// Signs (and caches) the tree head over the current chain state,
    /// countersigning through the installed TEE hook when present.
    fn sign_tree_head(&self, audit: &mut AuditState) -> Result<SignedTreeHead, ProtocolError> {
        let size = audit.chain.size();
        if let Some(sth) = &audit.sth {
            if sth.size == size {
                return Ok(sth.clone());
            }
        }
        let root = audit.chain.root();
        let head = audit.chain.head();
        let mut sth = SignedTreeHead::sign(size, root, head, &self.encryption_key)
            .map_err(ProtocolError::Crypto)?;
        if let Some(countersign) = self.checkpoint_countersigner.get() {
            let msg = SignedTreeHead::signing_bytes(size, &root, &head);
            if let Some(sig) = countersign(&msg) {
                sth.tee_signature = sig;
            }
        }
        audit.sth = Some(sth.clone());
        Ok(sth)
    }

    /// Installs the TEE checkpoint countersigner: every subsequent
    /// signed tree head (and journaled checkpoint) carries the
    /// enclave's signature alongside the auditor's. Returns `false`
    /// (leaving the existing hook) if one was already installed.
    pub fn set_checkpoint_countersigner(&self, hook: CheckpointCountersigner) -> bool {
        self.checkpoint_countersigner.set(hook).is_ok()
    }

    /// The signed tree head over the current audit chain: the auditor's
    /// commitment to its whole mutation history. Verifiable offline via
    /// [`SignedTreeHead::verify`] and the [`crate::audit`] proof
    /// functions.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Crypto`] when signing fails.
    pub fn signed_tree_head(&self) -> Result<SignedTreeHead, ProtocolError> {
        let mut audit = self.audit.lock().unwrap_or_else(|p| p.into_inner());
        self.sign_tree_head(&mut audit)
    }

    /// Number of entries in the audit chain.
    pub fn audit_tree_size(&self) -> u64 {
        self.audit
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .chain
            .size()
    }

    /// Inclusion proof for `drone`'s latest stored verdict against the
    /// tree of `tree_size` entries (0 = the current size). Clients
    /// check it offline with [`crate::audit::verify_inclusion`] against
    /// a tree head they already hold.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::PoaNotFound`] when the drone has no stored
    /// verdict, [`ProtocolError::Malformed`] when the verdict lies
    /// outside the requested tree size.
    pub fn audit_inclusion_proof(
        &self,
        drone: DroneId,
        tree_size: u64,
    ) -> Result<InclusionProof, ProtocolError> {
        let audit = self.audit.lock().unwrap_or_else(|p| p.into_inner());
        let index = *audit
            .verdict_leaves
            .get(&drone)
            .ok_or(ProtocolError::PoaNotFound)?;
        let size = if tree_size == 0 {
            audit.chain.size()
        } else {
            tree_size
        };
        audit
            .chain
            .prove_inclusion(index, size)
            .map_err(|_| ProtocolError::Malformed("audit proof range"))
    }

    /// Consistency proof between the trees of `old_size` and `new_size`
    /// entries (`new_size` 0 = the current size): evidence that the
    /// newer head extends the older one append-only. Checked offline
    /// with [`crate::audit::verify_consistency`].
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Malformed`] for invalid ranges.
    pub fn audit_consistency_proof(
        &self,
        old_size: u64,
        new_size: u64,
    ) -> Result<ConsistencyProof, ProtocolError> {
        let audit = self.audit.lock().unwrap_or_else(|p| p.into_inner());
        let new_size = if new_size == 0 {
            audit.chain.size()
        } else {
            new_size
        };
        audit
            .chain
            .prove_consistency(old_size, new_size)
            .map_err(|_| ProtocolError::Malformed("audit proof range"))
    }

    /// The leadership epoch this auditor last saw (0 when it has never
    /// been part of a replicated cluster).
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Starts a new leadership epoch: records it durably (and ships it
    /// to followers, fencing any stale primary that still holds an
    /// older epoch). Called by promotion — see [`crate::repl`].
    ///
    /// # Errors
    ///
    /// Journal/replication failures, as for any durable mutation.
    pub fn begin_epoch(&self, epoch: u64) -> Result<(), ProtocolError> {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
        if let Some(replicator) = self.replicator.get() {
            replicator.set_epoch(epoch);
        }
        self.journal_append(&Record::Epoch(epoch))
    }

    /// Installs the log shipper: every subsequent durable mutation is
    /// replicated to its followers before the caller's response is
    /// acknowledged (under `Quorum` policies). Returns `false` if one
    /// was already installed.
    pub fn set_replicator(&self, replicator: Arc<Replicator>) -> bool {
        replicator.set_epoch(self.current_epoch());
        self.replicator.set(replicator).is_ok()
    }

    /// The installed log shipper, if any.
    pub fn replicator(&self) -> Option<&Arc<Replicator>> {
        self.replicator.get()
    }

    /// Appends one record to the journal, if armed, then ships it to
    /// any installed [`Replicator`]. A failed append *disables* the
    /// journal (recorded via
    /// [`last_journal_error`](Self::last_journal_error) and the obs
    /// stream) rather than poisoning in-memory state: the auditor keeps
    /// serving, but durability is gone until an operator intervenes —
    /// better than silently diverging the journal from memory.
    ///
    /// # Errors
    ///
    /// Without a replicator this never fails — the pre-replication
    /// contract. Under
    /// [`ReplicationPolicy::Async`](crate::repl::ReplicationPolicy::Async)
    /// only epoch fencing errors (a deposed primary must stop
    /// acknowledging under *any* policy); shipping failures are
    /// absorbed into the lag metrics. Under a `Quorum` policy, an
    /// append or replication failure is returned so the caller's
    /// response is gated on durability instead of acknowledging what
    /// may be lost.
    fn journal_append(&self, record: &Record) -> Result<(), ProtocolError> {
        let mut slot = self.journal.lock().unwrap_or_else(|p| p.into_inner());
        // The chain advances under the journal lock so chain order
        // always matches append order — and even with journaling
        // disabled, so an in-memory auditor still serves verifiable
        // tree heads and proofs.
        if record.is_audited() {
            self.audit_extend(record);
        }
        let Some(journal) = slot.as_ref() else {
            // No journal means nothing can replicate: under a quorum
            // policy acknowledging here would be an acked-then-lost
            // record waiting to happen, so the durability loss stays
            // a typed error until an operator intervenes.
            if self.replicator.get().is_some_and(|r| r.requires_quorum()) {
                let err = self
                    .last_journal_error()
                    .map(ProtocolError::from)
                    .unwrap_or(ProtocolError::Storage(
                        "quorum replication requires a journal".to_string(),
                    ));
                return Err(err);
            }
            return Ok(());
        };
        // A due Merkle checkpoint rides the same lock hold as the
        // record that triggered it, so the chained prefix it covers is
        // exactly the records physically before it in the journal.
        let checkpoint = if record.is_audited() {
            self.due_checkpoint()
        } else {
            None
        };
        for rec in std::iter::once(record).chain(checkpoint.as_ref()) {
            let t0 = std::time::Instant::now();
            let result = journal.append_record(rec);
            self.journal_append_latency
                .record_micros(t0.elapsed().as_micros() as u64);
            if let Err(err) = result {
                self.obs.emit(
                    Level::Error,
                    "auditor.journal",
                    "append failed; journaling disabled",
                    |f| {
                        f.field("error", err.to_string());
                    },
                );
                self.obs.counter("auditor.journal_append_failures").inc();
                let quorum = self.replicator.get().is_some_and(|r| r.requires_quorum());
                *self.journal_error.lock().unwrap_or_else(|p| p.into_inner()) = Some(err.clone());
                *slot = None;
                if quorum {
                    return Err(err.into());
                }
                return Ok(());
            }
        }
        if let Some(replicator) = self.replicator.get() {
            // Shipping under the journal lock serializes frames in
            // append order, so follower images are always a prefix of
            // the primary's. Quorum failures propagate; Async failures
            // were already absorbed into the lag metrics.
            replicator.replicate(journal).map_err(ProtocolError::from)?;
        }
        Ok(())
    }

    /// `true` while a journal is attached and healthy.
    pub fn journal_enabled(&self) -> bool {
        self.journal
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_some()
    }

    /// The append error that disabled journaling, if one occurred.
    pub fn last_journal_error(&self) -> Option<JournalError> {
        self.journal_error
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Compacts the journal to a single snapshot record, bounding replay
    /// cost at the next [`recover`](Self::recover). No-op without a
    /// journal.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Storage`] when the atomic replace fails; the old
    /// journal image stays intact in that case.
    pub fn compact_journal(&self) -> Result<(), ProtocolError> {
        let snapshot = self.snapshot();
        let slot = self.journal.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(journal) = slot.as_ref() {
            journal.compact(&snapshot)?;
            // The snapshot format carries state only; re-append the
            // epoch boundary so the fresh image still fences stale
            // primaries after a recovery from it.
            let epoch = self.epoch.load(Ordering::Acquire);
            if epoch > 0 {
                journal.append_record(&Record::Epoch(epoch))?;
            }
            self.obs
                .emit(Level::Info, "auditor.journal", "compacted", |f| {
                    f.field("snapshot_bytes", snapshot.len());
                });
            if let Some(replicator) = self.replicator.get() {
                // Push the re-based image promptly so followers don't
                // discover the rebase only on the next mutation.
                replicator.replicate(journal).map_err(ProtocolError::from)?;
            }
        }
        Ok(())
    }

    /// The policy in force.
    pub fn config(&self) -> &AuditorConfig {
        &self.config
    }

    /// The public key drones encrypt PoAs to.
    pub fn public_encryption_key(&self) -> &RsaPublicKey {
        self.encryption_key.public_key()
    }

    /// Step 0 — registers a drone: records `(id_drone, D⁺, T⁺)` and
    /// issues the id.
    ///
    /// Idempotent by construction: resending a registration whose
    /// response was lost issues a second id for the same key pair, and
    /// the orphaned record is inert — it never matches a query,
    /// submission, or accusation, so a retry can never corrupt state.
    pub fn register_drone(
        &self,
        operator_public: RsaPublicKey,
        tee_public: RsaPublicKey,
    ) -> DroneId {
        // Replication-agnostic contract: the id is issued even when a
        // Quorum policy could not replicate (visible via
        // `last_journal_error` / repl metrics). The wire server uses
        // [`register_drone_durable`](Self::register_drone_durable).
        self.register_drone_inner(operator_public, tee_public).0
    }

    /// [`register_drone`](Self::register_drone), but the response is
    /// gated on replication durability: under a `Quorum` policy the id
    /// is only returned once enough followers hold the record. The
    /// local registration still happened on error — retrying is
    /// idempotent by construction.
    ///
    /// # Errors
    ///
    /// Journal or replication failures under a `Quorum` policy.
    pub fn register_drone_durable(
        &self,
        operator_public: RsaPublicKey,
        tee_public: RsaPublicKey,
    ) -> Result<DroneId, ProtocolError> {
        let (id, durable) = self.register_drone_inner(operator_public, tee_public);
        durable.map(|()| id)
    }

    fn register_drone_inner(
        &self,
        operator_public: RsaPublicKey,
        tee_public: RsaPublicKey,
    ) -> (DroneId, Result<(), ProtocolError>) {
        let id = DroneId::new(self.next_drone.fetch_add(1, Ordering::Relaxed));
        let record = Record::RegisterDrone {
            id: id.value(),
            op_modulus: operator_public.modulus().to_bytes_be(),
            op_exponent: operator_public.exponent().to_bytes_be(),
            tee_modulus: tee_public.modulus().to_bytes_be(),
            tee_exponent: tee_public.exponent().to_bytes_be(),
        };
        // Single insert on one lock: a panic cannot leave the map
        // structurally broken, so a poisoned lock is still sound to read.
        self.drones
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, Arc::new(Registration::new(operator_public, tee_public)));
        (id, self.journal_append(&record))
    }

    /// Step 1 — registers a circular zone, issuing its id. Idempotent
    /// under retry for the same reason as
    /// [`register_drone`](Self::register_drone): a duplicate zone is a
    /// second id over identical geometry, which only *strengthens* what
    /// a PoA must prove.
    pub fn register_zone(&self, zone: NoFlyZone) -> ZoneId {
        // Same replication-agnostic contract as `register_drone`.
        self.register_zone_inner(zone).0
    }

    /// [`register_zone`](Self::register_zone) gated on replication
    /// durability, as [`register_drone_durable`](Self::register_drone_durable).
    ///
    /// # Errors
    ///
    /// Journal or replication failures under a `Quorum` policy.
    pub fn register_zone_durable(&self, zone: NoFlyZone) -> Result<ZoneId, ProtocolError> {
        let (id, durable) = self.register_zone_inner(zone);
        durable.map(|()| id)
    }

    fn register_zone_inner(&self, zone: NoFlyZone) -> (ZoneId, Result<(), ProtocolError>) {
        let id = ZoneId::new(self.next_zone.fetch_add(1, Ordering::Relaxed));
        // Single insert on one lock: poisoning cannot corrupt the map.
        self.zones
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .insert(id, zone);
        let durable = self.journal_append(&Record::RegisterZone {
            id: id.value(),
            lat_deg: zone.center().lat_deg(),
            lon_deg: zone.center().lon_deg(),
            radius_m: zone.radius().meters(),
        });
        (id, durable)
    }

    /// §VII-B2 — registers a polygonal zone by covering it with its
    /// smallest enclosing circle (computed once, here).
    ///
    /// # Errors
    ///
    /// Propagates degenerate-polygon errors.
    pub fn register_polygon_zone(&self, polygon: &PolygonZone) -> Result<ZoneId, GeoError> {
        Ok(self.register_zone(polygon.enclosing_zone()))
    }

    // Read-only accessors recover from a poisoned lock instead of
    // panicking: every write section is a single non-panicking BTreeMap
    // or Vec operation, so poisoning can only mean a *reader* panicked —
    // the data underneath is structurally sound.

    /// Look up a zone's geometry.
    pub fn zone(&self, id: ZoneId) -> Option<NoFlyZone> {
        self.zones
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&id)
            .copied()
    }

    /// All registered zones as a set.
    pub fn zone_set(&self) -> ZoneSet {
        self.zones
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .copied()
            .collect()
    }

    /// Number of registered drones.
    pub fn drone_count(&self) -> usize {
        self.drones.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Number of registered zones.
    pub fn zone_count(&self) -> usize {
        self.zones.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// The registered TEE verification key for a drone.
    pub fn tee_public_key(&self, id: DroneId) -> Option<RsaPublicKey> {
        self.drones
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&id)
            .map(|d| d.tee_public().clone())
    }

    /// Steps 2–3 — answers a zone query after verifying the signed nonce
    /// and its freshness.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnknownDrone`] for unregistered ids,
    /// [`ProtocolError::QuerySignatureInvalid`] for bad signatures,
    /// [`ProtocolError::NonceReplayed`] for nonce reuse, and
    /// [`ProtocolError::LockPoisoned`] if a registry lock was poisoned.
    pub fn handle_zone_query(&self, query: &ZoneQuery) -> Result<ZoneResponse, ProtocolError> {
        let record = self
            .drones
            .read()
            .map_err(|_| ProtocolError::LockPoisoned("drone registry"))?
            .get(&query.drone_id)
            .cloned()
            .ok_or(ProtocolError::UnknownDrone(query.drone_id))?;
        // Signature verification runs outside every lock, against the
        // prepared verifier held in the registration record.
        query.verify_with(record.operator())?;
        if !self
            .used_nonces
            .lock()
            .map_err(|_| ProtocolError::LockPoisoned("nonce set"))?
            .insert((query.drone_id, query.nonce))
        {
            return Err(ProtocolError::NonceReplayed);
        }
        self.journal_append(&Record::NonceUsed {
            drone: query.drone_id.value(),
            nonce: query.nonce,
        })?;
        let zones = self
            .zones
            .read()
            .map_err(|_| ProtocolError::LockPoisoned("zone registry"))?;
        let all: ZoneSet = zones.values().copied().collect();
        let within = all.within_rect(&query.corner1, &query.corner2);
        Ok(ZoneResponse {
            zones: zones
                .iter()
                .filter(|(_, z)| within.as_slice().contains(z))
                .map(|(id, z)| (*id, *z))
                .collect(),
        })
    }

    /// Step 4 — the typed verification entry point: verifies a
    /// [`Submission`] (plaintext or encrypted) and retains it.
    ///
    /// This is the single funnel every transport lands in. The
    /// encrypted arm is decrypted with the auditor key first (paper
    /// §V-C — the Adapter persists the PoA encrypted under the server's
    /// public key).
    ///
    /// Idempotent by construction: verification is a pure function of
    /// the PoA and the zone registry, so a resubmission after a lost
    /// response receives the same verdict and appends a byte-identical
    /// [`StoredPoa`]; accusation handling scans for the *latest*
    /// covering proof, so duplicates cannot change any later outcome.
    ///
    /// # Errors
    ///
    /// Transport-level problems only — unknown drone, or (for the
    /// encrypted arm) decryption failure; every judgement about the PoA
    /// itself is expressed in the returned [`VerificationReport`].
    pub fn verify(
        &self,
        submission: &Submission,
        now: Timestamp,
    ) -> Result<VerificationReport, ProtocolError> {
        match submission {
            Submission::Plain(sub) => self.verify_plain(sub, now),
            Submission::Encrypted {
                drone_id,
                window_start,
                window_end,
                poa,
            } => self.decrypt_then_verify(*drone_id, *window_start, *window_end, poa, now),
        }
    }

    fn verify_plain(
        &self,
        submission: &PoaSubmission,
        now: Timestamp,
    ) -> Result<VerificationReport, ProtocolError> {
        let span = self
            .obs
            .enter_span_recording("auditor.verify", &self.verify_latency);
        let record = match self
            .drones
            .read()
            .map_err(|_| ProtocolError::LockPoisoned("drone registry"))?
            .get(&submission.drone_id)
            .cloned()
        {
            Some(record) => record,
            None => {
                drop(span);
                return Err(ProtocolError::UnknownDrone(submission.drone_id));
            }
        };
        // Verify against a point-in-time copy of the zone registry: the
        // lock is released before the RSA/geometry work begins.
        let zones: Vec<(ZoneId, NoFlyZone)> = self
            .zones
            .read()
            .map_err(|_| ProtocolError::LockPoisoned("zone registry"))?
            .iter()
            .map(|(id, z)| (*id, *z))
            .collect();
        let report = self.verify_poa_inner(&submission.poa, &record, submission, &zones);
        drop(span);
        self.stored
            .write()
            .map_err(|_| ProtocolError::LockPoisoned("poa log"))?
            .push(StoredPoa {
                drone_id: submission.drone_id,
                window: (submission.window_start, submission.window_end),
                poa: submission.poa.clone(),
                verdict: report.verdict.clone(),
                stored_at: now,
            });
        let verdict_bytes = {
            let mut w = crate::wire::codec::Writer::new();
            crate::wire::put_verdict(&mut w, &report.verdict);
            w.into_bytes()
        };
        // Under a `Quorum` replication policy this gates the verdict
        // response on follower durability — the caller never learns a
        // verdict that a failover could lose.
        self.journal_append(&Record::PoaStored {
            drone: submission.drone_id.value(),
            window_start: submission.window_start.secs(),
            window_end: submission.window_end.secs(),
            poa: submission.poa.to_bytes(),
            verdict: verdict_bytes,
            stored_at: now.secs(),
        })?;
        Ok(report)
    }

    fn decrypt_then_verify(
        &self,
        drone_id: DroneId,
        window_start: Timestamp,
        window_end: Timestamp,
        encrypted: &EncryptedPoa,
        now: Timestamp,
    ) -> Result<VerificationReport, ProtocolError> {
        let span = self
            .obs
            .enter_span_recording("auditor.decrypt", &self.decrypt_latency);
        let poa = encrypted.decrypt(&self.encryption_key);
        drop(span);
        let poa = poa?;
        self.verify_plain(
            &PoaSubmission {
                drone_id,
                window_start,
                window_end,
                poa,
            },
            now,
        )
    }

    /// The 7-step verification pipeline, run against a `zones` snapshot
    /// taken by the caller — no auditor lock is held while this executes.
    fn verify_poa_inner(
        &self,
        poa: &ProofOfAlibi,
        record: &Arc<Registration>,
        submission: &PoaSubmission,
        zones: &[(ZoneId, NoFlyZone)],
    ) -> VerificationReport {
        // 1. Non-empty.
        if poa.is_empty() {
            return VerificationReport {
                verdict: Verdict::EmptyPoa,
                sufficiency: None,
            };
        }
        // 2. Every signature verifies under the registered T⁺, checked in
        // order against the prepared verifier; the first failure is the
        // reported index.
        let span = self
            .obs
            .enter_span_recording("auditor.verify_batch", &self.verify_batch_latency);
        let bad_entry = poa.entries().iter().position(|entry| {
            record
                .tee()
                .verify(
                    &entry.sample().to_bytes(),
                    entry.signature(),
                    entry.hash_alg(),
                )
                .is_err()
        });
        drop(span);
        if let Some(index) = bad_entry {
            return VerificationReport {
                verdict: Verdict::BadSignature { index },
                sufficiency: None,
            };
        }
        // 2b. Declared GPS gaps verify under the same key — degraded-mode
        // outage declarations are evidence too, and must be TEE-attested.
        for (i, gap) in poa.gaps().iter().enumerate() {
            let msg = alidrone_tee::SignedGapMarker::signing_bytes(gap.start(), gap.end());
            if record
                .tee()
                .verify(&msg, gap.signature(), gap.hash_alg())
                .is_err()
            {
                return VerificationReport {
                    verdict: Verdict::BadGapMarker { index: i },
                    sufficiency: None,
                };
            }
        }
        let alibi = poa.alibi();
        // 3. Strictly increasing timestamps.
        if let Err(GeoError::NonMonotonicTime { index }) = check_monotonic(&alibi) {
            return VerificationReport {
                verdict: Verdict::NonMonotonic { index },
                sufficiency: None,
            };
        }
        // 3b. No sample may sit strictly inside a declared outage: the
        // sampler attested it had no fix there, so such a trace
        // contradicts itself.
        let gap_windows = poa.gap_windows();
        for (i, s) in alibi.iter().enumerate() {
            if gap_windows.iter().any(|g| g.contains_strict(s.time())) {
                return VerificationReport {
                    verdict: Verdict::GapContradiction { index: i },
                    sufficiency: None,
                };
            }
        }
        // 4. Window coverage.
        let slack = self.config.coverage_slack;
        // Invariant: step 1 returned early on an empty PoA, so the alibi
        // has at least one sample here.
        let first = alibi.first().expect("non-empty").time();
        let last = alibi.last().expect("non-empty").time();
        if first.secs() > (submission.window_start + slack).secs()
            || last.secs() < (submission.window_end - slack).secs()
        {
            return VerificationReport {
                verdict: Verdict::WindowNotCovered,
                sufficiency: None,
            };
        }
        // 5. Physical feasibility of every pair.
        for (i, w) in alibi.windows(2).enumerate() {
            match ReachableSet::from_samples(&w[0], &w[1], self.config.v_max) {
                Some(e) if !e.is_empty() => {}
                _ => {
                    return VerificationReport {
                        verdict: Verdict::ImpossibleTrace { index: i },
                        sufficiency: None,
                    }
                }
            }
        }
        // 6. No sample inside any zone.
        for (i, s) in alibi.iter().enumerate() {
            for (zid, z) in zones {
                if z.contains(&s.point()) {
                    return VerificationReport {
                        verdict: Verdict::InsideZone {
                            index: i,
                            zone: *zid,
                        },
                        sufficiency: None,
                    };
                }
            }
        }
        // 7. Alibi sufficiency, eq. (1) — declared gaps inflate the
        // travel budget of overlapping pairs, so outages weaken the
        // alibi instead of disappearing.
        let zone_set: ZoneSet = zones.iter().map(|(_, z)| *z).collect();
        let suff = check_alibi_with_gaps(
            &alibi,
            &zone_set,
            self.config.v_max,
            self.config.criterion,
            &gap_windows,
        );
        let verdict = if suff.is_sufficient() {
            Verdict::Compliant
        } else {
            Verdict::InsufficientAlibi {
                pair_indices: suff.insufficient_indices(),
            }
        };
        VerificationReport {
            verdict,
            sufficiency: Some(suff),
        }
    }

    /// Handles a zone owner's accusation against stored evidence
    /// (paper §III-A: the burden of proof is on the operator, so missing
    /// or non-exonerating evidence upholds the accusation).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownZone`] when the accused zone does
    /// not exist and [`ProtocolError::LockPoisoned`] if a registry lock
    /// was poisoned.
    pub fn handle_accusation(
        &self,
        accusation: &Accusation,
    ) -> Result<AccusationOutcome, ProtocolError> {
        let zone = self
            .zones
            .read()
            .map_err(|_| ProtocolError::LockPoisoned("zone registry"))?
            .get(&accusation.zone_id)
            .copied()
            .ok_or(ProtocolError::UnknownZone(accusation.zone_id))?;
        // Find a stored PoA from this drone whose window covers the time.
        let log = self
            .stored
            .read()
            .map_err(|_| ProtocolError::LockPoisoned("poa log"))?;
        let stored = log.iter().rev().find(|s| {
            s.drone_id == accusation.drone_id
                && s.window.0.secs() <= accusation.time.secs()
                && accusation.time.secs() <= s.window.1.secs()
        });
        let Some(stored) = stored else {
            return Ok(AccusationOutcome::Upheld {
                reason: "no stored proof-of-alibi covers the accused time".into(),
            });
        };
        if !stored.verdict.is_compliant() {
            return Ok(AccusationOutcome::Upheld {
                reason: format!("stored proof was already judged: {}", stored.verdict),
            });
        }
        // Find the sample pair bracketing the accused time.
        let alibi = stored.poa.alibi();
        let pair = alibi.windows(2).find(|w| {
            w[0].time().secs() <= accusation.time.secs()
                && accusation.time.secs() <= w[1].time().secs()
        });
        let Some(pair) = pair else {
            return Ok(AccusationOutcome::Upheld {
                reason: "accused time falls outside the recorded trace".into(),
            });
        };
        let sufficient = alidrone_geo::sufficiency::pair_is_sufficient(
            &pair[0],
            &pair[1],
            &zone,
            self.config.v_max,
        );
        if sufficient {
            Ok(AccusationOutcome::Refuted)
        } else {
            Ok(AccusationOutcome::Upheld {
                reason: "bracketing sample pair does not prove alibi for the zone".into(),
            })
        }
    }

    /// Number of retained PoAs.
    pub fn stored_poa_count(&self) -> usize {
        self.stored.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// The most recent stored PoA for a drone, if any (cloned out of the
    /// log, so no lock is held by the caller).
    pub fn latest_stored(&self, drone: DroneId) -> Option<StoredPoa> {
        self.stored
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .rev()
            .find(|s| s.drone_id == drone)
            .cloned()
    }

    /// Drops stored PoAs older than the retention window.
    ///
    /// Not journaled: retention is a pure function of `now` and the
    /// stored-at times, so replaying an unpurged journal merely restores
    /// entries the next purge drops again. Compact after purging to
    /// shrink the journal image.
    pub fn purge_expired(&self, now: Timestamp) {
        let retention = self.config.retention;
        self.stored
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|s| (now - s.stored_at).secs() <= retention.secs());
    }
}

impl fmt::Debug for Auditor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Auditor")
            .field("drones", &self.drone_count())
            .field("zones", &self.zone_count())
            .field("stored_poas", &self.stored_poa_count())
            .finish_non_exhaustive()
    }
}

// ------------------------------------------------------------- snapshots
//
// The AliDrone Server must survive restarts without losing its drone
// registry, zone database, anti-replay state, or retained PoAs (a lost
// nonce set would reopen query replay; lost PoAs would turn every
// pending accusation into a punishment). The snapshot format reuses the
// wire codec.

const SNAPSHOT_MAGIC: u32 = 0x414C_4432; // "ALD2" — v2 added the audit-chain section

/// Parses the audit-chain section of a snapshot (head, checkpoint
/// size, Merkle leaves, per-drone verdict leaf indexes). The reader
/// must be positioned just past the id counters.
#[allow(clippy::type_complexity)]
fn read_audit_section(
    r: &mut crate::wire::codec::Reader<'_>,
) -> Result<([u8; 32], u64, Vec<[u8; 32]>, BTreeMap<DroneId, u64>), ProtocolError> {
    let head: [u8; 32] = r.get_array()?;
    let checkpoint_size = r.get_u64()?;
    let n = r.get_u32()? as usize;
    if n > 1 << 26 {
        return Err(ProtocolError::Malformed("too many audit leaves"));
    }
    let mut leaves = Vec::with_capacity(n);
    for _ in 0..n {
        leaves.push(r.get_array()?);
    }
    let n = r.get_u32()? as usize;
    if n > 1 << 20 {
        return Err(ProtocolError::Malformed("too many verdict leaves"));
    }
    let mut verdict_leaves = BTreeMap::new();
    for _ in 0..n {
        let drone = DroneId::new(r.get_u64()?);
        verdict_leaves.insert(drone, r.get_u64()?);
    }
    Ok((head, checkpoint_size, leaves, verdict_leaves))
}

/// Recovers just the audit-chain state `(chain, checkpoint_size)` from
/// snapshot bytes, without decoding the registries behind it. Used by
/// replication followers to re-seed their verification chain when a
/// full image ships.
pub(crate) fn snapshot_audit_state(bytes: &[u8]) -> Result<(AuditChain, u64), ProtocolError> {
    let mut r = crate::wire::codec::Reader::new(bytes);
    if r.get_u32()? != SNAPSHOT_MAGIC {
        return Err(ProtocolError::Malformed("snapshot magic"));
    }
    let _next_drone = r.get_u64()?;
    let _next_zone = r.get_u64()?;
    let (head, checkpoint_size, leaves, _) = read_audit_section(&mut r)?;
    Ok((AuditChain::from_parts(head, leaves), checkpoint_size))
}

impl Auditor {
    /// Serialises the auditor's durable state: registries, anti-replay
    /// nonces, retained PoAs, and id counters. The encryption *private*
    /// key is deliberately **not** included — key storage is a separate
    /// concern (an HSM in deployment); [`Auditor::restore`] takes it as
    /// an argument.
    pub fn snapshot(&self) -> Vec<u8> {
        use crate::wire::codec::Writer;
        let mut w = Writer::new();
        w.put_u32(SNAPSHOT_MAGIC);
        w.put_u64(self.next_drone.load(Ordering::Relaxed));
        w.put_u64(self.next_zone.load(Ordering::Relaxed));

        // Audit-chain section first, so replication followers can
        // recover the chain state from an image prefix without decoding
        // the (much larger) registries behind it.
        let audit = self.audit.lock().unwrap_or_else(|p| p.into_inner());
        for b in audit.chain.head() {
            w.put_u8(b);
        }
        w.put_u64(audit.checkpoint_size);
        w.put_u32(audit.chain.size() as u32);
        for leaf in audit.chain.leaves() {
            for b in leaf {
                w.put_u8(*b);
            }
        }
        w.put_u32(audit.verdict_leaves.len() as u32);
        for (drone, index) in audit.verdict_leaves.iter() {
            w.put_u64(drone.value());
            w.put_u64(*index);
        }
        drop(audit);

        // Snapshots recover from poisoned locks (see the accessor note
        // above): a panicked reader must not block making a backup.
        let drones = self.drones.read().unwrap_or_else(|p| p.into_inner());
        w.put_u32(drones.len() as u32);
        for (id, rec) in drones.iter() {
            w.put_u64(id.value());
            w.put_bytes(&rec.operator_public().modulus().to_bytes_be());
            w.put_bytes(&rec.operator_public().exponent().to_bytes_be());
            w.put_bytes(&rec.tee_public().modulus().to_bytes_be());
            w.put_bytes(&rec.tee_public().exponent().to_bytes_be());
        }
        drop(drones);

        let zones = self.zones.read().unwrap_or_else(|p| p.into_inner());
        w.put_u32(zones.len() as u32);
        for (id, z) in zones.iter() {
            w.put_u64(id.value());
            w.put_f64(z.center().lat_deg());
            w.put_f64(z.center().lon_deg());
            w.put_f64(z.radius().meters());
        }
        drop(zones);

        let nonces = self.used_nonces.lock().unwrap_or_else(|p| p.into_inner());
        w.put_u32(nonces.len() as u32);
        for (drone, nonce) in nonces.iter() {
            w.put_u64(drone.value());
            for b in nonce {
                w.put_u8(*b);
            }
        }
        drop(nonces);

        let stored = self.stored.read().unwrap_or_else(|p| p.into_inner());
        w.put_u32(stored.len() as u32);
        for s in stored.iter() {
            w.put_u64(s.drone_id.value());
            w.put_f64(s.window.0.secs());
            w.put_f64(s.window.1.secs());
            w.put_bytes(&s.poa.to_bytes());
            crate::wire::put_verdict(&mut w, &s.verdict);
            w.put_f64(s.stored_at.secs());
        }
        w.into_bytes()
    }

    /// Rebuilds an auditor from a [`snapshot`](Auditor::snapshot), the
    /// (externally stored) encryption key, and the policy config.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::Malformed`] for corrupted snapshots.
    pub fn restore(
        bytes: &[u8],
        config: AuditorConfig,
        encryption_key: RsaPrivateKey,
    ) -> Result<Self, ProtocolError> {
        use crate::wire::codec::Reader;
        use alidrone_crypto::bigint::BigUint;
        use alidrone_geo::GeoPoint;

        let mut r = Reader::new(bytes);
        if r.get_u32()? != SNAPSHOT_MAGIC {
            return Err(ProtocolError::Malformed("snapshot magic"));
        }
        let next_drone = r.get_u64()?;
        let next_zone = r.get_u64()?;
        let (audit_head, audit_checkpoint_size, audit_leaves, verdict_leaves) =
            read_audit_section(&mut r)?;

        let read_key = |r: &mut Reader<'_>| -> Result<RsaPublicKey, ProtocolError> {
            let n = BigUint::from_bytes_be(r.get_bytes()?);
            let e = BigUint::from_bytes_be(r.get_bytes()?);
            RsaPublicKey::new(n, e).map_err(ProtocolError::Crypto)
        };

        let n = r.get_u32()? as usize;
        if n > 1 << 20 {
            return Err(ProtocolError::Malformed("too many drones"));
        }
        let mut drones = BTreeMap::new();
        for _ in 0..n {
            let id = DroneId::new(r.get_u64()?);
            let operator_public = read_key(&mut r)?;
            let tee_public = read_key(&mut r)?;
            drones.insert(id, Arc::new(Registration::new(operator_public, tee_public)));
        }

        let n = r.get_u32()? as usize;
        if n > 1 << 24 {
            return Err(ProtocolError::Malformed("too many zones"));
        }
        let mut zones = BTreeMap::new();
        for _ in 0..n {
            let id = ZoneId::new(r.get_u64()?);
            let lat = r.get_f64()?;
            let lon = r.get_f64()?;
            let radius = r.get_f64()?;
            let center = GeoPoint::new(lat, lon).map_err(ProtocolError::Geo)?;
            zones.insert(
                id,
                NoFlyZone::try_new(center, alidrone_geo::Distance::from_meters(radius))
                    .map_err(ProtocolError::Geo)?,
            );
        }

        let n = r.get_u32()? as usize;
        if n > 1 << 24 {
            return Err(ProtocolError::Malformed("too many nonces"));
        }
        let mut used_nonces = BTreeSet::new();
        for _ in 0..n {
            let drone = DroneId::new(r.get_u64()?);
            let nonce: [u8; 16] = r.get_array()?;
            used_nonces.insert((drone, nonce));
        }

        let n = r.get_u32()? as usize;
        if n > 1 << 20 {
            return Err(ProtocolError::Malformed("too many stored poas"));
        }
        let mut stored = Vec::with_capacity(n);
        for _ in 0..n {
            let drone_id = DroneId::new(r.get_u64()?);
            let ws = Timestamp::from_secs(r.get_f64()?);
            let we = Timestamp::from_secs(r.get_f64()?);
            let poa = ProofOfAlibi::from_bytes(r.get_bytes()?)?;
            let verdict = crate::wire::get_verdict(&mut r)?;
            let stored_at = Timestamp::from_secs(r.get_f64()?);
            stored.push(StoredPoa {
                drone_id,
                window: (ws, we),
                poa,
                verdict,
                stored_at,
            });
        }
        r.finish()?;

        // Observability handles are process-local, not durable state: a
        // restored auditor starts with a no-op handle (re-attach via
        // `with_obs` at construction of the replacement process).
        Ok(Auditor {
            drones: RwLock::new(drones),
            zones: RwLock::new(zones),
            used_nonces: Mutex::new(used_nonces),
            stored: RwLock::new(stored),
            next_drone: AtomicU64::new(next_drone),
            next_zone: AtomicU64::new(next_zone),
            audit: Mutex::new(AuditState {
                chain: AuditChain::from_parts(audit_head, audit_leaves),
                checkpoint_size: audit_checkpoint_size,
                verdict_leaves,
                sth: None,
            }),
            ..Auditor::with_obs(config, encryption_key, &Obs::noop())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{auditor_key, operator_key, origin, signed_samples, tee_key};
    use alidrone_crypto::rsa::HashAlg;
    use alidrone_geo::{Distance, GeoPoint, GpsSample};
    use alidrone_tee::SignedSample;

    fn auditor() -> Auditor {
        Auditor::new(AuditorConfig::default(), auditor_key().clone())
    }

    fn registered(auditor: &Auditor) -> DroneId {
        auditor.register_drone(
            operator_key().public_key().clone(),
            tee_key().public_key().clone(),
        )
    }

    fn far_zone() -> NoFlyZone {
        NoFlyZone::new(
            origin().destination(0.0, Distance::from_km(50.0)),
            Distance::from_meters(100.0),
        )
    }

    fn poa_submission(drone_id: DroneId, n: usize) -> PoaSubmission {
        PoaSubmission {
            drone_id,
            window_start: Timestamp::from_secs(0.0),
            window_end: Timestamp::from_secs((n - 1) as f64),
            poa: ProofOfAlibi::from_entries(signed_samples(n)),
        }
    }

    fn submission(drone_id: DroneId, n: usize) -> Submission {
        Submission::Plain(poa_submission(drone_id, n))
    }

    #[test]
    fn registration_issues_sequential_ids() {
        let a = auditor();
        let d1 = registered(&a);
        let d2 = registered(&a);
        assert_ne!(d1, d2);
        assert_eq!(a.drone_count(), 2);
        let z1 = a.register_zone(far_zone());
        let z2 = a.register_zone(far_zone());
        assert_ne!(z1, z2);
        assert!(a.zone(z1).is_some());
        assert!(a.zone(ZoneId::new(999)).is_none());
    }

    #[test]
    fn compliant_flight_accepted_and_stored() {
        let a = auditor();
        let d = registered(&a);
        a.register_zone(far_zone());
        let rep = a
            .verify(&submission(d, 10), Timestamp::from_secs(100.0))
            .unwrap();
        assert!(rep.is_compliant(), "verdict: {}", rep.verdict);
        assert!(rep.sufficiency.is_some());
        assert_eq!(a.stored_poa_count(), 1);
        assert!(a.latest_stored(d).is_some());
    }

    #[test]
    fn unknown_drone_is_error() {
        let a = auditor();
        let err = a
            .verify(&submission(DroneId::new(9), 3), Timestamp::EPOCH)
            .unwrap_err();
        assert!(matches!(err, ProtocolError::UnknownDrone(_)));
    }

    #[test]
    fn empty_poa_rejected() {
        let a = auditor();
        let d = registered(&a);
        let s = PoaSubmission {
            drone_id: d,
            window_start: Timestamp::EPOCH,
            window_end: Timestamp::from_secs(1.0),
            poa: ProofOfAlibi::new(),
        };
        let rep = a.verify(&Submission::Plain(s), Timestamp::EPOCH).unwrap();
        assert_eq!(rep.verdict, Verdict::EmptyPoa);
    }

    #[test]
    fn forged_signature_detected() {
        let a = auditor();
        let d = registered(&a);
        let mut entries = signed_samples(5);
        // Attacker swaps in a different position, keeping the signature.
        let forged = GpsSample::new(
            GeoPoint::new(41.0, -88.2).unwrap(),
            entries[2].sample().time(),
        );
        entries[2] = SignedSample::from_parts(
            forged,
            entries[2].signature().to_vec(),
            entries[2].hash_alg(),
        );
        let s = PoaSubmission {
            drone_id: d,
            window_start: Timestamp::EPOCH,
            window_end: Timestamp::from_secs(4.0),
            poa: ProofOfAlibi::from_entries(entries),
        };
        let rep = a.verify(&Submission::Plain(s), Timestamp::EPOCH).unwrap();
        assert_eq!(rep.verdict, Verdict::BadSignature { index: 2 });
    }

    #[test]
    fn relay_attack_detected() {
        // PoA signed by a *different* drone's TEE: signatures valid under
        // the wrong key.
        let a = auditor();
        let other_tee = {
            use alidrone_crypto::rng::XorShift64;
            let mut rng = XorShift64::seed_from_u64(0xE1E);
            alidrone_crypto::rsa::RsaPrivateKey::generate(512, &mut rng)
        };
        let d = a.register_drone(
            operator_key().public_key().clone(),
            other_tee.public_key().clone(),
        );
        // signed_samples() signs with tee_key(), not other_tee.
        let rep = a.verify(&submission(d, 3), Timestamp::EPOCH).unwrap();
        assert_eq!(rep.verdict, Verdict::BadSignature { index: 0 });
    }

    #[test]
    fn replayed_trace_nonmonotonic_detected() {
        let a = auditor();
        let d = registered(&a);
        let mut entries = signed_samples(4);
        let replayed = entries[1].clone();
        entries.push(replayed); // appending an old signed sample
        let s = PoaSubmission {
            drone_id: d,
            window_start: Timestamp::EPOCH,
            window_end: Timestamp::from_secs(3.0),
            poa: ProofOfAlibi::from_entries(entries),
        };
        let rep = a.verify(&Submission::Plain(s), Timestamp::EPOCH).unwrap();
        assert_eq!(rep.verdict, Verdict::NonMonotonic { index: 4 });
    }

    #[test]
    fn window_coverage_enforced() {
        let a = auditor();
        let d = registered(&a);
        // Claim a window that extends far beyond the trace.
        let s = PoaSubmission {
            drone_id: d,
            window_start: Timestamp::EPOCH,
            window_end: Timestamp::from_secs(1_000.0),
            poa: ProofOfAlibi::from_entries(signed_samples(5)),
        };
        let rep = a.verify(&Submission::Plain(s), Timestamp::EPOCH).unwrap();
        assert_eq!(rep.verdict, Verdict::WindowNotCovered);
        // Window starting before the first sample likewise.
        let s2 = PoaSubmission {
            drone_id: d,
            window_start: Timestamp::from_secs(-100.0),
            window_end: Timestamp::from_secs(4.0),
            poa: ProofOfAlibi::from_entries(signed_samples(5)),
        };
        let rep2 = a.verify(&Submission::Plain(s2), Timestamp::EPOCH).unwrap();
        assert_eq!(rep2.verdict, Verdict::WindowNotCovered);
    }

    #[test]
    fn impossible_trace_detected() {
        let a = auditor();
        let d = registered(&a);
        // Two samples 0.5 s apart but 5 km apart in space, individually
        // well-signed: a spliced/forged trace.
        let s1 = GpsSample::new(origin(), Timestamp::from_secs(0.0));
        let s2 = GpsSample::new(
            origin().destination(90.0, Distance::from_km(5.0)),
            Timestamp::from_secs(0.5),
        );
        let entries: Vec<SignedSample> = [s1, s2]
            .into_iter()
            .map(|smp| {
                let sig = tee_key().sign(&smp.to_bytes(), HashAlg::Sha1).unwrap();
                SignedSample::from_parts(smp, sig, HashAlg::Sha1)
            })
            .collect();
        let s = PoaSubmission {
            drone_id: d,
            window_start: Timestamp::EPOCH,
            window_end: Timestamp::from_secs(0.5),
            poa: ProofOfAlibi::from_entries(entries),
        };
        let rep = a.verify(&Submission::Plain(s), Timestamp::EPOCH).unwrap();
        assert_eq!(rep.verdict, Verdict::ImpossibleTrace { index: 0 });
    }

    #[test]
    fn violation_inside_zone_detected() {
        let a = auditor();
        let d = registered(&a);
        // Zone sits right on the trace.
        let zid = a.register_zone(NoFlyZone::new(
            origin().destination(90.0, Distance::from_meters(20.0)),
            Distance::from_meters(15.0),
        ));
        let rep = a.verify(&submission(d, 5), Timestamp::EPOCH).unwrap();
        match rep.verdict {
            Verdict::InsideZone { zone, .. } => assert_eq!(zone, zid),
            other => panic!("expected InsideZone, got {other}"),
        }
    }

    #[test]
    fn insufficient_alibi_detected() {
        let a = auditor();
        let d = registered(&a);
        // Zone near the path but not containing any sample; samples 1 s
        // apart → budget ~44.7 m; zone boundary within reach.
        a.register_zone(NoFlyZone::new(
            origin().destination(0.0, Distance::from_meters(25.0)),
            Distance::from_meters(10.0),
        ));
        let rep = a.verify(&submission(d, 5), Timestamp::EPOCH).unwrap();
        match &rep.verdict {
            Verdict::InsufficientAlibi { pair_indices } => {
                assert!(!pair_indices.is_empty());
            }
            other => panic!("expected InsufficientAlibi, got {other}"),
        }
        assert!(rep.sufficiency.is_some());
    }

    #[test]
    fn zone_query_flow() {
        let a = auditor();
        let d = registered(&a);
        let near = a.register_zone(NoFlyZone::new(
            origin().destination(45.0, Distance::from_km(2.0)),
            Distance::from_meters(100.0),
        ));
        let _far = a.register_zone(NoFlyZone::new(
            origin().destination(45.0, Distance::from_km(500.0)),
            Distance::from_meters(100.0),
        ));
        let q = ZoneQuery::new_signed(
            d,
            origin().destination(225.0, Distance::from_km(5.0)),
            origin().destination(45.0, Distance::from_km(5.0)),
            [1u8; 16],
            operator_key(),
        )
        .unwrap();
        let resp = a.handle_zone_query(&q).unwrap();
        assert_eq!(resp.zones.len(), 1);
        assert_eq!(resp.zones[0].0, near);
    }

    #[test]
    fn zone_query_nonce_replay_rejected() {
        let a = auditor();
        let d = registered(&a);
        let q = ZoneQuery::new_signed(d, origin(), origin(), [2u8; 16], operator_key()).unwrap();
        a.handle_zone_query(&q).unwrap();
        assert_eq!(a.handle_zone_query(&q), Err(ProtocolError::NonceReplayed));
    }

    #[test]
    fn zone_query_bad_signature_rejected() {
        let a = auditor();
        let d = registered(&a);
        let mut q =
            ZoneQuery::new_signed(d, origin(), origin(), [3u8; 16], operator_key()).unwrap();
        q.signature[0] ^= 1;
        assert_eq!(
            a.handle_zone_query(&q),
            Err(ProtocolError::QuerySignatureInvalid)
        );
    }

    #[test]
    fn zone_query_unknown_drone_rejected() {
        let a = auditor();
        let q = ZoneQuery::new_signed(
            DroneId::new(77),
            origin(),
            origin(),
            [4u8; 16],
            operator_key(),
        )
        .unwrap();
        assert!(matches!(
            a.handle_zone_query(&q),
            Err(ProtocolError::UnknownDrone(_))
        ));
    }

    /// A zone registered between two queries over the same rectangle,
    /// and between two verifies of the same PoA, is seen by the second
    /// of each.
    #[test]
    fn zone_registered_between_requests_is_seen_by_the_next() {
        let a = auditor();
        let d = registered(&a);
        let query = |nonce: u8| {
            ZoneQuery::new_signed(
                d,
                origin().destination(225.0, Distance::from_km(5.0)),
                origin().destination(45.0, Distance::from_km(5.0)),
                [nonce; 16],
                operator_key(),
            )
            .unwrap()
        };
        assert!(a.handle_zone_query(&query(5)).unwrap().zones.is_empty());
        let before = a.verify(&submission(d, 5), Timestamp::EPOCH).unwrap();
        assert!(before.is_compliant());

        // Sits right on the trace.
        let zid = a.register_zone(NoFlyZone::new(
            origin().destination(90.0, Distance::from_meters(20.0)),
            Distance::from_meters(15.0),
        ));
        let zones = a.handle_zone_query(&query(6)).unwrap().zones;
        assert_eq!(zones.len(), 1);
        assert_eq!(zones[0].0, zid);
        let after = a.verify(&submission(d, 5), Timestamp::EPOCH).unwrap();
        assert!(
            matches!(after.verdict, Verdict::InsideZone { zone, .. } if zone == zid),
            "got {}",
            after.verdict
        );
    }

    #[test]
    fn encrypted_submission_round_trip() {
        use alidrone_crypto::rng::XorShift64;
        let mut rng = XorShift64::seed_from_u64(31);
        let a = auditor();
        let d = registered(&a);
        a.register_zone(far_zone());
        let poa = ProofOfAlibi::from_entries(signed_samples(6));
        let enc = poa.encrypt(a.public_encryption_key(), &mut rng).unwrap();
        let rep = a
            .verify(
                &Submission::Encrypted {
                    drone_id: d,
                    window_start: Timestamp::EPOCH,
                    window_end: Timestamp::from_secs(5.0),
                    poa: enc,
                },
                Timestamp::EPOCH,
            )
            .unwrap();
        assert!(rep.is_compliant());
    }

    #[test]
    fn accusation_refuted_by_good_alibi() {
        let a = auditor();
        let d = registered(&a);
        let zid = a.register_zone(far_zone());
        a.verify(&submission(d, 10), Timestamp::EPOCH).unwrap();
        let outcome = a
            .handle_accusation(&Accusation {
                zone_id: zid,
                drone_id: d,
                time: Timestamp::from_secs(4.5),
            })
            .unwrap();
        assert_eq!(outcome, AccusationOutcome::Refuted);
    }

    #[test]
    fn accusation_upheld_without_stored_poa() {
        let a = auditor();
        let d = registered(&a);
        let zid = a.register_zone(far_zone());
        let outcome = a
            .handle_accusation(&Accusation {
                zone_id: zid,
                drone_id: d,
                time: Timestamp::from_secs(4.5),
            })
            .unwrap();
        assert!(matches!(outcome, AccusationOutcome::Upheld { .. }));
    }

    #[test]
    fn accusation_on_unknown_zone_is_error() {
        let a = auditor();
        assert!(matches!(
            a.handle_accusation(&Accusation {
                zone_id: ZoneId::new(404),
                drone_id: DroneId::new(1),
                time: Timestamp::EPOCH,
            }),
            Err(ProtocolError::UnknownZone(_))
        ));
    }

    #[test]
    fn accusation_upheld_when_pair_cannot_exonerate() {
        let a = auditor();
        let d = registered(&a);
        // Register a zone close enough that 1 s pairs cannot prove alibi,
        // but which contains no sample (so submission verdict is
        // InsufficientAlibi → stored as judged).
        let zid = a.register_zone(NoFlyZone::new(
            origin().destination(0.0, Distance::from_meters(25.0)),
            Distance::from_meters(10.0),
        ));
        a.verify(&submission(d, 10), Timestamp::EPOCH).unwrap();
        let outcome = a
            .handle_accusation(&Accusation {
                zone_id: zid,
                drone_id: d,
                time: Timestamp::from_secs(3.2),
            })
            .unwrap();
        assert!(matches!(outcome, AccusationOutcome::Upheld { .. }));
    }

    #[test]
    fn retention_purges_old_poas() {
        let a = auditor();
        let d = registered(&a);
        a.verify(&submission(d, 3), Timestamp::from_secs(0.0))
            .unwrap();
        a.verify(&submission(d, 3), Timestamp::from_secs(86_400.0))
            .unwrap();
        assert_eq!(a.stored_poa_count(), 2);
        // Three days later, only the second survives the 2-day retention.
        a.purge_expired(Timestamp::from_secs(3.0 * 86_400.0));
        assert_eq!(a.stored_poa_count(), 1);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let a = auditor();
        let d = registered(&a);
        let z = a.register_zone(far_zone());
        // One completed flight + one consumed nonce.
        a.verify(&submission(d, 5), Timestamp::from_secs(7.0))
            .unwrap();
        let q = ZoneQuery::new_signed(d, origin(), origin(), [8u8; 16], operator_key()).unwrap();
        a.handle_zone_query(&q).unwrap();

        let bytes = a.snapshot();
        let restored =
            Auditor::restore(&bytes, AuditorConfig::default(), auditor_key().clone()).unwrap();

        // Registries intact.
        assert_eq!(restored.drone_count(), 1);
        assert_eq!(restored.zone(z), a.zone(z));
        assert_eq!(restored.stored_poa_count(), 1);
        // Anti-replay state survives: the old nonce is still burned.
        assert_eq!(
            restored.handle_zone_query(&q),
            Err(ProtocolError::NonceReplayed)
        );
        // Id counters continue, not restart.
        let d2 = registered(&restored);
        assert!(d2 > d);
        // Stored PoA still answers accusations.
        let outcome = restored
            .handle_accusation(&crate::Accusation {
                zone_id: z,
                drone_id: d,
                time: Timestamp::from_secs(2.0),
            })
            .unwrap();
        assert_eq!(outcome, AccusationOutcome::Refuted);
    }

    #[test]
    fn snapshot_restore_rejects_corruption() {
        let a = auditor();
        registered(&a);
        a.register_zone(far_zone());
        let bytes = a.snapshot();
        // Magic corruption.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(Auditor::restore(&bad, AuditorConfig::default(), auditor_key().clone()).is_err());
        // Truncation.
        assert!(Auditor::restore(
            &bytes[..bytes.len() - 3],
            AuditorConfig::default(),
            auditor_key().clone()
        )
        .is_err());
        // Trailing garbage.
        let mut trailing = bytes;
        trailing.push(0);
        assert!(
            Auditor::restore(&trailing, AuditorConfig::default(), auditor_key().clone()).is_err()
        );
    }

    #[test]
    fn snapshot_excludes_private_key_material() {
        let a = auditor();
        registered(&a);
        let bytes = a.snapshot();
        // The private exponent/primes must not appear in the snapshot.
        // (The public modulus legitimately does.) We can't read the
        // private fields here, so check a proxy: restoring with a
        // *different* encryption key still works — the key is external.
        use alidrone_crypto::rng::XorShift64;
        let mut rng = XorShift64::seed_from_u64(0x5EC);
        let other = alidrone_crypto::rsa::RsaPrivateKey::generate(512, &mut rng);
        let restored = Auditor::restore(&bytes, AuditorConfig::default(), other.clone()).unwrap();
        assert_eq!(
            restored.public_encryption_key().modulus(),
            other.public_key().modulus()
        );
    }

    #[test]
    fn exact_criterion_accepts_more_than_paper() {
        // Same marginal geometry under both criteria: exact must accept
        // at least whenever paper accepts.
        let zone = NoFlyZone::new(
            origin().destination(0.0, Distance::from_meters(40.0)),
            Distance::from_meters(12.0),
        );
        for criterion in [Criterion::Paper, Criterion::Exact] {
            let a = Auditor::new(
                AuditorConfig {
                    criterion,
                    ..AuditorConfig::default()
                },
                auditor_key().clone(),
            );
            let d = registered(&a);
            a.register_zone(zone);
            let rep = a.verify(&submission(d, 5), Timestamp::EPOCH).unwrap();
            if criterion == Criterion::Exact {
                // If paper accepted, exact must too — checked by running
                // paper first and remembering; here we simply require the
                // exact run not to be *stricter*.
                let paper_rep = {
                    let ap = Auditor::new(AuditorConfig::default(), auditor_key().clone());
                    let dp = registered(&ap);
                    ap.register_zone(zone);
                    ap.verify(&submission(dp, 5), Timestamp::EPOCH).unwrap()
                };
                if paper_rep.is_compliant() {
                    assert!(rep.is_compliant());
                }
            }
        }
    }

    // --------------------------------------------------- journal recovery

    use crate::journal::MemBackend;

    fn recovered(backend: Arc<MemBackend>) -> (Auditor, RecoveryReport) {
        Auditor::recover(backend, AuditorConfig::default(), auditor_key().clone()).unwrap()
    }

    #[test]
    fn journal_recovery_round_trips_state() {
        let backend = Arc::new(MemBackend::new());
        let (a, rep) = recovered(Arc::clone(&backend));
        assert_eq!(rep.records_applied, 0);
        assert!(a.journal_enabled());
        let d = registered(&a);
        let z = a.register_zone(far_zone());
        a.verify(&submission(d, 5), Timestamp::from_secs(50.0))
            .unwrap();

        let (b, rep) = recovered(backend);
        assert_eq!(rep.records_applied, 3);
        assert!(!rep.torn_tail);
        assert!(!rep.snapshot_loaded);
        assert_eq!(b.snapshot(), a.snapshot());
        assert!(b.zone(z).is_some());
        assert_eq!(b.stored_poa_count(), 1);
        // Fresh registrations continue past every recovered id.
        let d2 = registered(&b);
        assert!(d2.value() > d.value());
    }

    #[test]
    fn nonce_replay_still_rejected_after_recovery() {
        use crate::messages::ZoneQuery;
        let backend = Arc::new(MemBackend::new());
        let (a, _) = recovered(Arc::clone(&backend));
        let d = registered(&a);
        let corner1 = GeoPoint::new(39.0, -89.0).unwrap();
        let corner2 = GeoPoint::new(41.0, -87.0).unwrap();
        let query = ZoneQuery::new_signed(d, corner1, corner2, [7; 16], operator_key()).unwrap();
        a.handle_zone_query(&query).unwrap();

        // The consumed nonce must survive the crash.
        let (b, _) = recovered(backend);
        let err = b.handle_zone_query(&query).unwrap_err();
        assert!(matches!(err, ProtocolError::NonceReplayed));
    }

    #[test]
    fn compaction_bounds_replay_and_preserves_state() {
        let backend = Arc::new(MemBackend::new());
        let (a, _) = recovered(Arc::clone(&backend));
        let d = registered(&a);
        a.register_zone(far_zone());
        a.verify(&submission(d, 5), Timestamp::from_secs(10.0))
            .unwrap();
        let before = backend.len();
        a.compact_journal().unwrap();
        // Post-compaction appends still land after the snapshot record.
        let z2 = a.register_zone(far_zone());

        let (b, rep) = recovered(backend);
        assert!(rep.snapshot_loaded);
        assert_eq!(rep.records_applied, 2, "snapshot + one zone");
        assert_eq!(b.snapshot(), a.snapshot());
        assert!(b.zone(z2).is_some());
        let _ = before; // journal size depends on key sizes; equivalence is what matters
    }

    #[test]
    fn torn_tail_is_discarded_and_prefix_recovered() {
        let backend = Arc::new(MemBackend::new());
        let (a, _) = recovered(Arc::clone(&backend));
        let d = registered(&a);
        a.register_zone(far_zone());
        drop(a);
        // Crash mid-append: shear a few bytes off the final record.
        let len = backend.len();
        backend.truncate(len - 3);

        let (b, rep) = recovered(backend);
        assert!(rep.torn_tail);
        assert_eq!(rep.records_applied, 1);
        assert_eq!(b.drone_count(), 1);
        assert_eq!(b.zone_count(), 0, "torn zone record must not apply");
        // The drone record survived intact.
        assert!(b.tee_public_key(d).is_some());
    }

    #[test]
    fn mid_journal_corruption_is_typed_storage_error() {
        let backend = Arc::new(MemBackend::new());
        let (a, _) = recovered(Arc::clone(&backend));
        registered(&a);
        a.register_zone(far_zone());
        drop(a);
        // Flip a bit inside the *first* record's payload: not a torn
        // tail, so recovery must refuse with a typed error.
        backend.flip_bits(16, 0x01);
        let err =
            Auditor::recover(backend, AuditorConfig::default(), auditor_key().clone()).unwrap_err();
        assert!(matches!(err, ProtocolError::Storage(_)), "got {err}");
    }

    #[test]
    fn failed_append_disables_journal_but_keeps_serving() {
        let backend = Arc::new(MemBackend::new());
        let (a, _) = recovered(Arc::clone(&backend));
        registered(&a);
        backend.fail_next_append();
        let z = a.register_zone(far_zone());
        assert!(a.zone(z).is_some(), "in-memory state must not be poisoned");
        assert!(!a.journal_enabled());
        assert!(a.last_journal_error().is_some());
        // Replay sees only what was durably appended before the fault.
        let (b, rep) = recovered(backend);
        assert_eq!(rep.records_applied, 1);
        assert_eq!(b.zone_count(), 0);
    }

    // ------------------------------------------------------- gap verdicts

    #[test]
    fn forged_gap_marker_is_rejected() {
        use alidrone_tee::SignedGapMarker;
        let a = auditor();
        let d = registered(&a);
        let mut sub = poa_submission(d, 5);
        // Signature by the wrong key: verification under T⁺ must fail.
        let sig = operator_key()
            .sign(
                &SignedGapMarker::signing_bytes(
                    Timestamp::from_secs(1.2),
                    Timestamp::from_secs(1.8),
                ),
                HashAlg::Sha1,
            )
            .unwrap();
        sub.poa.push_gap(SignedGapMarker::from_parts(
            Timestamp::from_secs(1.2),
            Timestamp::from_secs(1.8),
            sig,
            HashAlg::Sha1,
        ));
        let rep = a.verify(&Submission::Plain(sub), Timestamp::EPOCH).unwrap();
        assert_eq!(rep.verdict, Verdict::BadGapMarker { index: 0 });
    }

    #[test]
    fn sample_inside_declared_gap_is_a_contradiction() {
        let a = auditor();
        let d = registered(&a);
        let mut sub = poa_submission(d, 5);
        // Samples sit at t = 0..4; a declared outage over (1.5, 2.5)
        // contains the t = 2 sample.
        sub.poa.push_gap(crate::test_support::signed_gap(1.5, 2.5));
        let rep = a.verify(&Submission::Plain(sub), Timestamp::EPOCH).unwrap();
        assert_eq!(rep.verdict, Verdict::GapContradiction { index: 2 });
    }

    #[test]
    fn declared_gap_weakens_sufficiency_margin() {
        let a = auditor();
        let d = registered(&a);
        a.register_zone(far_zone());
        // The gap (1.1, 1.9) lies inside pair 1's interval [1, 2].
        let pair1_margin = |rep: &VerificationReport| {
            rep.sufficiency
                .as_ref()
                .expect("pipeline reached step 7")
                .pairs[1]
                .margin_m
        };
        let clean = a.verify(&submission(d, 5), Timestamp::EPOCH).unwrap();
        assert!(clean.is_compliant());
        // Same trace with a declared outage strictly between two samples:
        // the overlapping pair's budget inflates by v_max · 0.8 s.
        let mut sub = poa_submission(d, 5);
        sub.poa.push_gap(crate::test_support::signed_gap(1.1, 1.9));
        let gapped = a.verify(&Submission::Plain(sub), Timestamp::EPOCH).unwrap();
        let penalty = pair1_margin(&clean) - pair1_margin(&gapped);
        let expected = FAA_MAX_SPEED.mps() * 0.8;
        assert!(
            (penalty - expected).abs() < 1e-6,
            "margin penalty {penalty} m, expected {expected} m"
        );
    }

    // -------------------------------------------------- audit transparency

    use crate::audit::{verify_consistency, verify_inclusion};

    #[test]
    fn tree_head_and_proofs_verify_offline() {
        let a = auditor();
        let d1 = registered(&a);
        let d2 = registered(&a);
        a.register_zone(far_zone());
        a.verify(&submission(d1, 5), Timestamp::EPOCH).unwrap();
        let sth1 = a.signed_tree_head().unwrap();
        assert!(sth1.verify(auditor_key().public_key()));
        assert_eq!(sth1.size, a.audit_tree_size());

        a.verify(&submission(d2, 5), Timestamp::EPOCH).unwrap();
        a.verify(&submission(d1, 6), Timestamp::EPOCH).unwrap();
        let sth2 = a.signed_tree_head().unwrap();
        assert!(sth2.verify(auditor_key().public_key()));
        assert!(sth2.size > sth1.size);
        // A tree head from the wrong key must not verify.
        assert!(!sth2.verify(operator_key().public_key()));

        // Inclusion of each drone's latest verdict, checked with the
        // pure offline verifier — no auditor trust involved.
        for d in [d1, d2] {
            let proof = a.audit_inclusion_proof(d, 0).unwrap();
            assert_eq!(proof.size, sth2.size);
            assert!(verify_inclusion(
                &proof.leaf,
                proof.index,
                proof.size,
                &proof.path,
                &sth2.root,
            ));
            // Same proof against the wrong root must fail.
            assert!(!verify_inclusion(
                &proof.leaf,
                proof.index,
                proof.size,
                &proof.path,
                &sth1.root,
            ));
        }

        // Append-only ordering between the two observed heads.
        let cons = a.audit_consistency_proof(sth1.size, sth2.size).unwrap();
        assert!(verify_consistency(
            cons.old_size,
            cons.new_size,
            &cons.path,
            &sth1.root,
            &sth2.root,
        ));

        // No verdict stored for a fresh drone: typed error.
        let d3 = registered(&a);
        assert!(matches!(
            a.audit_inclusion_proof(d3, 0),
            Err(ProtocolError::PoaNotFound)
        ));
    }

    #[test]
    fn tee_countersigned_tree_head_verifies() {
        use alidrone_tee::{CostModel, SecureWorldBuilder, GPS_SAMPLER_UUID};
        let world = SecureWorldBuilder::new()
            .with_sign_key(tee_key().clone())
            .with_cost_model(CostModel::free())
            .with_hash_alg(HashAlg::Sha256)
            .build()
            .unwrap();
        let client = world.client();

        let a = auditor();
        let session = client.open_session(GPS_SAMPLER_UUID).unwrap();
        assert!(
            a.set_checkpoint_countersigner(Arc::new(move |bytes: &[u8]| {
                session.sign_checkpoint(bytes).ok()
            }))
        );

        let d = registered(&a);
        a.verify(&submission(d, 5), Timestamp::EPOCH).unwrap();
        let sth = a.signed_tree_head().unwrap();
        assert!(sth.verify(auditor_key().public_key()));
        assert!(
            sth.verify_countersignature(&client.tee_public_key()),
            "enclave countersignature must verify under T⁺"
        );
        // The countersignature binds this exact head: not some other key.
        assert!(!sth.verify_countersignature(operator_key().public_key()));
    }

    fn checkpoint_config() -> AuditorConfig {
        AuditorConfig {
            checkpoint_interval: 2,
            ..AuditorConfig::default()
        }
    }

    #[test]
    fn checkpoints_are_journaled_and_survive_recovery() {
        let backend = Arc::new(MemBackend::new());
        let (a, _) =
            Auditor::recover(backend.clone(), checkpoint_config(), auditor_key().clone()).unwrap();
        let d = registered(&a);
        a.register_zone(far_zone());
        for i in 0..4 {
            a.verify(&submission(d, 5 + i), Timestamp::EPOCH).unwrap();
        }
        let sth = a.signed_tree_head().unwrap();

        let (b, rep) =
            Auditor::recover(backend.clone(), checkpoint_config(), auditor_key().clone()).unwrap();
        // Checkpoint records were journaled alongside the six audited
        // records (2 registrations + 4 verdicts, interval 2 → 3 due).
        assert!(rep.records_applied > 6, "applied {}", rep.records_applied);
        let sth_b = b.signed_tree_head().unwrap();
        assert_eq!(sth_b.size, sth.size);
        assert_eq!(sth_b.root, sth.root);
        assert_eq!(sth_b.chain_head, sth.chain_head);
    }

    #[test]
    fn crash_at_every_offset_around_checkpoint_restores_exact_chain_head() {
        let backend = Arc::new(MemBackend::new());
        let (a, _) =
            Auditor::recover(backend.clone(), checkpoint_config(), auditor_key().clone()).unwrap();
        let d = registered(&a);
        a.register_zone(far_zone());
        // Record the (size, chain head) frontier after every audited
        // append so any recovered prefix can be checked exactly.
        let mut frontier = vec![{
            let sth = a.signed_tree_head().unwrap();
            (sth.size, sth.chain_head)
        }];
        let before_checkpoint = backend.len();
        // Third audited record: crosses interval 2, so this append
        // carries a Merkle checkpoint record in the same batch.
        a.verify(&submission(d, 5), Timestamp::EPOCH).unwrap();
        let sth = a.signed_tree_head().unwrap();
        frontier.push((sth.size, sth.chain_head));
        let after_checkpoint = backend.len();
        drop(a);

        let bytes = backend.bytes();
        for cut in before_checkpoint..=after_checkpoint {
            let truncated = Arc::new(MemBackend::with_bytes(bytes[..cut].to_vec()));
            let (b, rep) = Auditor::recover(truncated, checkpoint_config(), auditor_key().clone())
                .unwrap_or_else(|e| panic!("recovery at cut {cut} failed: {e}"));
            let sth = b.signed_tree_head().unwrap();
            assert!(
                frontier.contains(&(sth.size, sth.chain_head)),
                "cut {cut}: recovered head (size {}) not on the honest frontier \
                 (torn_tail={})",
                sth.size,
                rep.torn_tail,
            );
        }
    }

    #[test]
    fn consistency_proofs_span_compaction() {
        let backend = Arc::new(MemBackend::new());
        let (a, _) =
            Auditor::recover(backend.clone(), checkpoint_config(), auditor_key().clone()).unwrap();
        let d = registered(&a);
        a.register_zone(far_zone());
        a.verify(&submission(d, 5), Timestamp::EPOCH).unwrap();
        let sth1 = a.signed_tree_head().unwrap();

        a.compact_journal().unwrap();
        a.verify(&submission(d, 6), Timestamp::EPOCH).unwrap();
        let sth2 = a.signed_tree_head().unwrap();

        // The chain spans the snapshot: a consistency proof between a
        // pre-compaction head and a post-compaction head still verifies.
        let cons = a.audit_consistency_proof(sth1.size, sth2.size).unwrap();
        assert!(verify_consistency(
            cons.old_size,
            cons.new_size,
            &cons.path,
            &sth1.root,
            &sth2.root,
        ));

        // And the whole audit state survives recovery from the
        // compacted journal — including the verdict index.
        let (b, rep) =
            Auditor::recover(backend, checkpoint_config(), auditor_key().clone()).unwrap();
        assert!(rep.snapshot_loaded);
        let sth_b = b.signed_tree_head().unwrap();
        assert_eq!((sth_b.size, sth_b.root), (sth2.size, sth2.root));
        let cons = b.audit_consistency_proof(sth1.size, 0).unwrap();
        assert!(verify_consistency(
            cons.old_size,
            cons.new_size,
            &cons.path,
            &sth1.root,
            &sth_b.root,
        ));
        let proof = b.audit_inclusion_proof(d, 0).unwrap();
        assert!(verify_inclusion(
            &proof.leaf,
            proof.index,
            proof.size,
            &proof.path,
            &sth_b.root,
        ));
    }
}
