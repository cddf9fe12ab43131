//! RSA with PKCS#1 v1.5 padding — the algorithms named by the paper.
//!
//! The AliDrone prototype signs GPS tuples inside the TEE with
//! `TEE_ALG_RSASSA_PKCS1_V1_5_SHA1` and encrypts the Proof-of-Alibi for
//! the auditor with `RSAES_PKCS1_v1_5` (paper §V-B/§V-C). This module
//! implements both, plus SHA-256 signing for modern callers, over the
//! from-scratch [`BigUint`] arithmetic.
//!
//! Private-key operations use the Chinese Remainder Theorem, which is
//! also what real TEE crypto stacks do; this matters for the benchmarks
//! because CRT makes the 2048-bit/1024-bit signing cost ratio realistic.

use std::cell::RefCell;
use std::sync::Arc;

use crate::rng::Rng;

use crate::bigint::{BigUint, MontgomeryContext};
use crate::error::CryptoError;
use crate::prime::gen_prime;
use crate::sha1::sha1;
use crate::sha256::sha256;

/// ASN.1 DER `DigestInfo` prefix for SHA-1 (RFC 8017 §9.2 note 1).
const SHA1_PREFIX: [u8; 15] = [
    0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14,
];

/// ASN.1 DER `DigestInfo` prefix for SHA-256.
const SHA256_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// Hash algorithm used inside an RSASSA-PKCS1-v1.5 signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlg {
    /// SHA-1 — what the paper's prototype uses
    /// (`TEE_ALG_RSASSA_PKCS1_V1_5_SHA1`). Broken for collisions; kept
    /// for fidelity and benchmarks.
    Sha1,
    /// SHA-256 — the default for new code.
    Sha256,
}

impl HashAlg {
    fn digest_info(&self, msg: &[u8]) -> Vec<u8> {
        match self {
            HashAlg::Sha1 => {
                let mut v = SHA1_PREFIX.to_vec();
                v.extend_from_slice(&sha1(msg));
                v
            }
            HashAlg::Sha256 => {
                let mut v = SHA256_PREFIX.to_vec();
                v.extend_from_slice(&sha256(msg));
                v
            }
        }
    }
}

/// An RSA public key `(n, e)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

impl RsaPublicKey {
    /// Constructs a public key from modulus and exponent.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] for a zero or even modulus
    /// (an RSA modulus is a product of odd primes; rejecting even `n`
    /// here also guarantees the Montgomery fast path applies to every
    /// wire-supplied key) or an exponent less than 3.
    pub fn new(n: BigUint, e: BigUint) -> Result<Self, CryptoError> {
        if n.is_zero() {
            return Err(CryptoError::InvalidKey("zero modulus"));
        }
        if n.is_even() {
            return Err(CryptoError::InvalidKey("even modulus"));
        }
        if e < BigUint::from_u64(3) {
            return Err(CryptoError::InvalidKey("public exponent below 3"));
        }
        Ok(RsaPublicKey { n, e })
    }

    /// Builds the precomputed-context verifier for this key. Prefer
    /// holding an [`RsaVerifier`] wherever the same key verifies more
    /// than once — [`verify`](Self::verify) rebuilds the Montgomery
    /// parameters on every call.
    pub fn verifier(&self) -> RsaVerifier {
        RsaVerifier::new(self.clone())
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// The modulus size in whole bytes (`k` in RFC 8017).
    pub fn modulus_len(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// The key size in bits.
    pub fn bits(&self) -> usize {
        self.n.bits()
    }

    /// Verifies an RSASSA-PKCS1-v1.5 signature over `msg`.
    ///
    /// One-shot convenience: delegates to a throwaway [`RsaVerifier`],
    /// paying the per-key Montgomery precomputation on every call. Hot
    /// paths should build the verifier once via
    /// [`verifier`](Self::verifier) and reuse it.
    pub fn verify(&self, msg: &[u8], signature: &[u8], alg: HashAlg) -> Result<(), CryptoError> {
        self.verifier().verify(msg, signature, alg)
    }

    /// Encrypts up to `k − 11` bytes with RSAES-PKCS1-v1.5.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] when `msg` exceeds the
    /// key's capacity.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        msg: &[u8],
        rng: &mut R,
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if msg.len() + 11 > k {
            return Err(CryptoError::MessageTooLong {
                max: k.saturating_sub(11),
                got: msg.len(),
            });
        }
        // EM = 0x00 || 0x02 || PS (nonzero random) || 0x00 || M.
        let mut em = vec![0u8; k];
        em[1] = 0x02;
        let ps_len = k - msg.len() - 3;
        for b in &mut em[2..2 + ps_len] {
            loop {
                let v = rng.gen_u8();
                if v != 0 {
                    *b = v;
                    break;
                }
            }
        }
        em[2 + ps_len] = 0x00;
        em[3 + ps_len..].copy_from_slice(msg);
        let m = BigUint::from_bytes_be(&em);
        let c = m.mod_pow(&self.e, &self.n);
        c.to_bytes_be_padded(k).ok_or(CryptoError::DecryptionFailed)
    }
}

/// How many prepared contexts each thread's modulus cache retains.
const CTX_CACHE_CAP: usize = 8;

/// Per-thread MRU cache of prepared Montgomery contexts, keyed by
/// modulus. One-shot verifies that repeat a key without holding an
/// [`RsaVerifier`] hit this instead of re-deriving `R² mod n` per call;
/// thread-local storage keeps the hit path lock-free. Returns `None`
/// for an even modulus (no Montgomery context exists), without caching
/// the miss.
fn cached_context(n: &BigUint) -> Option<Arc<MontgomeryContext>> {
    thread_local! {
        static CTX_CACHE: RefCell<Vec<Arc<MontgomeryContext>>> =
            const { RefCell::new(Vec::new()) };
    }
    CTX_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if let Some(i) = cache.iter().position(|c| c.modulus() == n) {
            let ctx = cache.remove(i);
            cache.push(Arc::clone(&ctx));
            return Some(ctx);
        }
        let ctx = Arc::new(MontgomeryContext::new(n)?);
        if cache.len() == CTX_CACHE_CAP {
            cache.remove(0);
        }
        cache.push(Arc::clone(&ctx));
        Some(ctx)
    })
}

/// A verification context with per-key precomputation done once.
///
/// Holds the Montgomery parameters (`n' = -n⁻¹ mod 2⁶⁴`, `R² mod n`,
/// `R mod n`) for the key's modulus, so repeated verifies under the same
/// key skip both the parameter setup and every Knuth division the
/// classic path pays per multiplication.
/// This is the type registration records and long-lived services should
/// hold; [`RsaPublicKey::verify`] builds a throwaway one per call
/// (softened by a small per-thread context cache for repeated keys).
#[derive(Debug, Clone)]
pub struct RsaVerifier {
    key: RsaPublicKey,
    /// `None` only for a (never-valid-RSA) even modulus, which falls
    /// back to the classic exponentiation path.
    ctx: Option<Arc<MontgomeryContext>>,
}

impl RsaVerifier {
    /// Prepares a verifier for `key`, computing the Montgomery
    /// parameters once (or adopting this thread's cached copy).
    pub fn new(key: RsaPublicKey) -> Self {
        RsaVerifier {
            ctx: cached_context(&key.n),
            key,
        }
    }

    /// The underlying public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.key
    }

    /// Verifies an RSASSA-PKCS1-v1.5 signature over `msg` using the
    /// precomputed context.
    pub fn verify(&self, msg: &[u8], signature: &[u8], alg: HashAlg) -> Result<(), CryptoError> {
        let k = self.key.modulus_len();
        if signature.len() != k {
            return Err(CryptoError::InvalidLength {
                expected: k,
                got: signature.len(),
            });
        }
        let s = BigUint::from_bytes_be(signature);
        if s.cmp_val(&self.key.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::InvalidSignature);
        }
        let em = match &self.ctx {
            Some(ctx) => ctx.mod_pow(&s, &self.key.e),
            None => s.mod_pow_classic(&self.key.e, &self.key.n),
        }
        .to_bytes_be_padded(k)
        .ok_or(CryptoError::InvalidSignature)?;
        let expected = emsa_pkcs1_v15_encode(msg, k, alg)?;
        if em == expected {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }
}

/// An RSA private key with CRT parameters.
#[derive(Debug, Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// Montgomery contexts for the CRT primes, prepared at key
    /// construction so every sign/decrypt reuses them (`None` never
    /// happens for real primes; kept as a fallback for robustness).
    mont_p: Option<MontgomeryContext>,
    mont_q: Option<MontgomeryContext>,
}

impl RsaPrivateKey {
    /// Generates a fresh keypair with a modulus of `bits` bits and
    /// `e = 65537`.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 32` (each prime needs ≥ 16 bits) or `bits` is odd.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(
            bits >= 32 && bits.is_multiple_of(2),
            "invalid RSA key size {bits}"
        );
        let e = BigUint::from_u64(65_537);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let p1 = p.sub(&BigUint::one());
            let q1 = q.sub(&BigUint::one());
            let phi = p1.mul(&q1);
            let d = match e.mod_inverse(&phi) {
                Some(d) => d,
                None => continue, // gcd(e, phi) != 1; pick new primes
            };
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let qinv = match q.mod_inverse(&p) {
                Some(v) => v,
                None => continue,
            };
            // Keep p > q so the CRT recombination below never underflows
            // ambiguously.
            let (p, q, dp, dq, qinv) = if p > q {
                (p, q, dp, dq, qinv)
            } else {
                let qinv2 = match p.mod_inverse(&q) {
                    Some(v) => v,
                    None => continue,
                };
                (q.clone(), p.clone(), dq, dp, qinv2)
            };
            let mont_p = MontgomeryContext::new(&p);
            let mont_q = MontgomeryContext::new(&q);
            return RsaPrivateKey {
                public: RsaPublicKey { n, e },
                d,
                p,
                q,
                dp,
                dq,
                qinv,
                mont_p,
                mont_q,
            };
        }
    }

    /// The corresponding public key.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Checks internal key consistency: `(m^e)^d ≡ m (mod n)` for a fixed
    /// probe, and that the CRT parameters agree with the plain private
    /// exponent.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] if the key is inconsistent.
    pub fn validate(&self) -> Result<(), CryptoError> {
        let m = BigUint::from_u64(0x5AFE);
        let c = m.mod_pow(&self.public.e, &self.public.n);
        if c.mod_pow(&self.d, &self.public.n) != m {
            return Err(CryptoError::InvalidKey("d does not invert e"));
        }
        if self.crt_exp(&c) != m {
            return Err(CryptoError::InvalidKey("CRT parameters inconsistent"));
        }
        Ok(())
    }

    /// The key size in bits.
    pub fn bits(&self) -> usize {
        self.public.bits()
    }

    /// Private-key operation `c^d mod n` via CRT, over the prepared
    /// per-prime Montgomery contexts.
    fn crt_exp(&self, c: &BigUint) -> BigUint {
        let m1 = match &self.mont_p {
            Some(ctx) => ctx.mod_pow(c, &self.dp),
            None => c.rem(&self.p).mod_pow_classic(&self.dp, &self.p),
        };
        let m2 = match &self.mont_q {
            Some(ctx) => ctx.mod_pow(c, &self.dq),
            None => c.rem(&self.q).mod_pow_classic(&self.dq, &self.q),
        };
        // h = qinv · (m1 − m2) mod p.
        let diff = if m1 >= m2 {
            m1.sub(&m2)
        } else {
            // (m1 - m2) mod p with m2 possibly larger.
            self.p.sub(&m2.sub(&m1).rem(&self.p))
        };
        let h = self.qinv.mul_mod(&diff.rem(&self.p), &self.p);
        m2.add(&h.mul(&self.q))
    }

    /// Signs `msg` with RSASSA-PKCS1-v1.5 under the chosen hash.
    ///
    /// The returned signature is exactly `modulus_len()` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKey`] when the modulus is too small
    /// to hold the `DigestInfo` encoding (keys below ~360 bits for SHA-1).
    pub fn sign(&self, msg: &[u8], alg: HashAlg) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15_encode(msg, k, alg)?;
        let m = BigUint::from_bytes_be(&em);
        let s = self.crt_exp(&m);
        s.to_bytes_be_padded(k)
            .ok_or(CryptoError::InvalidKey("signature exceeded modulus"))
    }

    /// Decrypts an RSAES-PKCS1-v1.5 ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::DecryptionFailed`] for malformed padding or
    /// ciphertext length. (Callers should treat all decryption failures
    /// identically — Bleichenbacher — though this research implementation
    /// makes no constant-time claims anywhere.)
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k || k < 11 {
            return Err(CryptoError::DecryptionFailed);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c.cmp_val(&self.public.n) != std::cmp::Ordering::Less {
            return Err(CryptoError::DecryptionFailed);
        }
        let em = self
            .crt_exp(&c)
            .to_bytes_be_padded(k)
            .ok_or(CryptoError::DecryptionFailed)?;
        if em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::DecryptionFailed);
        }
        // Find the 0x00 separator after at least 8 bytes of padding.
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::DecryptionFailed)?;
        if sep < 8 {
            return Err(CryptoError::DecryptionFailed);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

/// EMSA-PKCS1-v1.5 encoding: `0x00 || 0x01 || 0xFF… || 0x00 || DigestInfo`.
fn emsa_pkcs1_v15_encode(msg: &[u8], k: usize, alg: HashAlg) -> Result<Vec<u8>, CryptoError> {
    let t = alg.digest_info(msg);
    if k < t.len() + 11 {
        return Err(CryptoError::InvalidKey("modulus too small for digest"));
    }
    let mut em = vec![0xFFu8; k];
    em[0] = 0x00;
    em[1] = 0x01;
    em[k - t.len() - 1] = 0x00;
    em[k - t.len()..].copy_from_slice(&t);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShift64;
    use std::sync::OnceLock;

    /// A cached 512-bit test key: keygen in debug builds is slow enough
    /// that regenerating per test would dominate the suite.
    fn test_key() -> &'static RsaPrivateKey {
        static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
        KEY.get_or_init(|| {
            let mut rng = XorShift64::seed_from_u64(7);
            RsaPrivateKey::generate(512, &mut rng)
        })
    }

    #[test]
    fn keypair_has_requested_size() {
        let key = test_key();
        assert_eq!(key.bits(), 512);
        assert_eq!(key.public_key().modulus_len(), 64);
    }

    #[test]
    fn sign_verify_sha1_round_trip() {
        let key = test_key();
        let msg = b"GPS sample (40.1, -88.2) @ t=12.0";
        let sig = key.sign(msg, HashAlg::Sha1).unwrap();
        assert_eq!(sig.len(), 64);
        key.public_key().verify(msg, &sig, HashAlg::Sha1).unwrap();
    }

    #[test]
    fn sign_verify_sha256_round_trip() {
        let key = test_key();
        let msg = b"hello alidrone";
        let sig = key.sign(msg, HashAlg::Sha256).unwrap();
        key.public_key().verify(msg, &sig, HashAlg::Sha256).unwrap();
    }

    #[test]
    fn verify_rejects_tampered_message() {
        let key = test_key();
        let sig = key.sign(b"original", HashAlg::Sha1).unwrap();
        assert_eq!(
            key.public_key().verify(b"tampered", &sig, HashAlg::Sha1),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = test_key();
        let mut sig = key.sign(b"msg", HashAlg::Sha1).unwrap();
        sig[10] ^= 0x01;
        assert!(key
            .public_key()
            .verify(b"msg", &sig, HashAlg::Sha1)
            .is_err());
    }

    #[test]
    fn verify_rejects_wrong_hash_alg() {
        let key = test_key();
        let sig = key.sign(b"msg", HashAlg::Sha1).unwrap();
        assert!(key
            .public_key()
            .verify(b"msg", &sig, HashAlg::Sha256)
            .is_err());
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let key = test_key();
        let sig = key.sign(b"msg", HashAlg::Sha1).unwrap();
        assert_eq!(
            key.public_key().verify(b"msg", &sig[1..], HashAlg::Sha1),
            Err(CryptoError::InvalidLength {
                expected: 64,
                got: 63
            })
        );
    }

    #[test]
    fn verify_with_different_key_fails() {
        let key = test_key();
        let mut rng = XorShift64::seed_from_u64(99);
        let other = RsaPrivateKey::generate(512, &mut rng);
        let sig = key.sign(b"msg", HashAlg::Sha1).unwrap();
        assert!(other
            .public_key()
            .verify(b"msg", &sig, HashAlg::Sha1)
            .is_err());
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let key = test_key();
        let mut rng = XorShift64::seed_from_u64(3);
        let msg = b"alibi payload bytes";
        let ct = key.public_key().encrypt(msg, &mut rng).unwrap();
        assert_eq!(ct.len(), 64);
        assert_eq!(key.decrypt(&ct).unwrap(), msg);
    }

    #[test]
    fn encrypt_empty_message() {
        let key = test_key();
        let mut rng = XorShift64::seed_from_u64(4);
        let ct = key.public_key().encrypt(b"", &mut rng).unwrap();
        assert_eq!(key.decrypt(&ct).unwrap(), b"");
    }

    #[test]
    fn encrypt_max_length_message() {
        let key = test_key();
        let mut rng = XorShift64::seed_from_u64(5);
        let msg = vec![0x42u8; 64 - 11];
        let ct = key.public_key().encrypt(&msg, &mut rng).unwrap();
        assert_eq!(key.decrypt(&ct).unwrap(), msg);
    }

    #[test]
    fn encrypt_too_long_fails() {
        let key = test_key();
        let mut rng = XorShift64::seed_from_u64(6);
        let msg = vec![0u8; 64 - 10];
        assert_eq!(
            key.public_key().encrypt(&msg, &mut rng),
            Err(CryptoError::MessageTooLong { max: 53, got: 54 })
        );
    }

    #[test]
    fn decrypt_rejects_garbage() {
        let key = test_key();
        assert_eq!(key.decrypt(&[0u8; 64]), Err(CryptoError::DecryptionFailed));
        assert_eq!(key.decrypt(&[1u8; 10]), Err(CryptoError::DecryptionFailed));
    }

    #[test]
    fn decrypt_rejects_bitflipped_ciphertext() {
        let key = test_key();
        let mut rng = XorShift64::seed_from_u64(8);
        let mut ct = key.public_key().encrypt(b"payload", &mut rng).unwrap();
        ct[20] ^= 0xFF;
        // Overwhelmingly likely to break padding; a silent wrong-plaintext
        // would still differ from the original.
        match key.decrypt(&ct) {
            Err(CryptoError::DecryptionFailed) => {}
            Ok(pt) => assert_ne!(pt, b"payload"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn ciphertexts_are_randomised() {
        let key = test_key();
        let mut rng = XorShift64::seed_from_u64(9);
        let c1 = key.public_key().encrypt(b"same", &mut rng).unwrap();
        let c2 = key.public_key().encrypt(b"same", &mut rng).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn public_key_validation() {
        assert!(RsaPublicKey::new(BigUint::zero(), BigUint::from_u64(65537)).is_err());
        assert!(RsaPublicKey::new(BigUint::from_u64(15), BigUint::from_u64(2)).is_err());
        // An RSA modulus is a product of odd primes; even n is rejected
        // at construction so every accepted key takes the Montgomery path.
        assert!(RsaPublicKey::new(BigUint::from_u64(16), BigUint::from_u64(3)).is_err());
        assert!(RsaPublicKey::new(BigUint::from_u64(15), BigUint::from_u64(3)).is_ok());
    }

    #[test]
    fn generated_key_validates() {
        test_key().validate().unwrap();
    }

    #[test]
    fn prepared_verifier_matches_one_shot() {
        let key = test_key();
        let verifier = key.public_key().verifier();
        let msg = b"GPS sample (40.1, -88.2) @ t=12.0";
        for alg in [HashAlg::Sha1, HashAlg::Sha256] {
            let sig = key.sign(msg, alg).unwrap();
            verifier.verify(msg, &sig, alg).unwrap();
            key.public_key().verify(msg, &sig, alg).unwrap();
            let mut bad = sig.clone();
            bad[5] ^= 0x80;
            assert_eq!(
                verifier.verify(msg, &bad, alg),
                key.public_key().verify(msg, &bad, alg)
            );
            assert_eq!(
                verifier.verify(b"other", &sig, alg),
                Err(CryptoError::InvalidSignature)
            );
        }
    }

    #[test]
    fn verifier_holds_its_key() {
        let key = test_key();
        assert_eq!(key.public_key().verifier().public_key(), key.public_key());
    }

    #[test]
    fn prepared_verifier_rejects_wrong_length() {
        let key = test_key();
        let verifier = key.public_key().verifier();
        let sig = key.sign(b"msg", HashAlg::Sha1).unwrap();
        assert_eq!(
            verifier.verify(b"msg", &sig[..63], HashAlg::Sha1),
            Err(CryptoError::InvalidLength {
                expected: 64,
                got: 63
            })
        );
    }

    #[test]
    fn signature_deterministic() {
        // PKCS#1 v1.5 signing is deterministic (unlike PSS).
        let key = test_key();
        let s1 = key.sign(b"det", HashAlg::Sha256).unwrap();
        let s2 = key.sign(b"det", HashAlg::Sha256).unwrap();
        assert_eq!(s1, s2);
    }
}
