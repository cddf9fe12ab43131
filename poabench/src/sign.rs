//! Input-side signing: drone keys whose private operation is cheap.
//!
//! The auditor's cost per sample is one RSA verification with
//! `e = 65537`, which depends only on the modulus size. A drone's
//! standard two-prime CRT signature costs 30–50× that, so a corpus of
//! distinct signed samples would cost far more to make than the
//! auditor work it loads. The server workloads therefore give each
//! drone a modulus of the paper's size (1024 or 2048 bits) built from
//! many 64-bit primes: signing is then one short exponentiation per
//! prime plus a CRT recombination, while the auditor sees an ordinary
//! `(n, e)` key and verifies exactly as it would any other.
//!
//! Such keys are trivially factorable; they exist only to make inputs.
//! The drone-side signing cost itself is measured by `flight_2048`,
//! which signs through the program's TEE with a standard key.

use alidrone_crypto::bigint::BigUint;
use alidrone_crypto::rsa::RsaPublicKey;
use alidrone_crypto::sha1::sha1;

use crate::rng::SplitMix;

const E: u64 = 65_537;

/// ASN.1 DER `DigestInfo` prefix for SHA-1 (RFC 8017 §9.2 note 1).
const SHA1_PREFIX: [u8; 15] = [
    0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14,
];

/// One 64-bit prime factor with its Montgomery and CRT constants.
struct Factor {
    p: u64,
    /// `-p⁻¹ mod 2⁶⁴`.
    p_neg_inv: u64,
    /// `R² mod p` with `R = 2⁶⁴`, for entering Montgomery form.
    r2: u64,
    /// `e⁻¹ mod (p − 1)`.
    d: u64,
    /// The fixed part of the PKCS#1 encoding, reduced mod `p`.
    base: u64,
    /// `2¹²⁸ mod p`.
    two128: u64,
    /// CRT coefficient `(n/p) · ((n/p)⁻¹ mod p) mod n`.
    coef: BigUint,
}

/// A drone signing key of `bits` bits made of `bits / 64` primes.
pub struct FastKey {
    public: RsaPublicKey,
    n: BigUint,
    k: usize,
    factors: Vec<Factor>,
}

fn mul_mod(a: u64, b: u64, p: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(p)) as u64
}

fn pow_mod(mut b: u64, mut e: u64, p: u64) -> u64 {
    let mut acc = 1u64;
    b %= p;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, b, p);
        }
        b = mul_mod(b, b, p);
        e >>= 1;
    }
    acc
}

/// Deterministic Miller–Rabin for 64-bit integers.
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    const BASES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    for &b in &BASES {
        if n.is_multiple_of(b) {
            return n == b;
        }
    }
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    'bases: for &a in &BASES {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'bases;
            }
        }
        return false;
    }
    true
}

/// `a⁻¹ mod m` for coprime `a`, `m`.
fn inv_mod(a: u64, m: u64) -> u64 {
    let (mut t, mut new_t) = (0i128, 1i128);
    let (mut r, mut new_r) = (i128::from(m), i128::from(a % m));
    while new_r != 0 {
        let q = r / new_r;
        (t, new_t) = (new_t, t - q * new_t);
        (r, new_r) = (new_r, r - q * new_r);
    }
    assert_eq!(r, 1, "inverse of a non-unit");
    t.rem_euclid(i128::from(m)) as u64
}

impl Factor {
    /// Montgomery reduction of `t < p·2⁶⁴`.
    fn redc(&self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.p_neg_inv);
        let mp = u128::from(m) * u128::from(self.p);
        // The low halves of `t` and `m·p` sum to 0 mod 2⁶⁴ by the choice
        // of `m`, so they carry exactly when the low half of `t` is set.
        let carry = u128::from(t as u64 != 0);
        let u = (t >> 64) + (mp >> 64) + carry;
        let p = u128::from(self.p);
        (if u >= p { u - p } else { u }) as u64
    }

    fn mont_mul(&self, a: u64, b: u64) -> u64 {
        self.redc(u128::from(a) * u128::from(b))
    }

    /// `m^d mod p` for `m < p`.
    fn private_op(&self, m: u64) -> u64 {
        let mut base = self.mont_mul(m, self.r2);
        let mut acc = self.mont_mul(1, self.r2);
        let mut e = self.d;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mont_mul(acc, base);
            }
            base = self.mont_mul(base, base);
            e >>= 1;
        }
        self.redc(u128::from(acc))
    }
}

impl FastKey {
    /// Generates a key of exactly `bits` bits (a multiple of 64).
    pub fn generate(bits: usize, rng: &mut SplitMix) -> FastKey {
        assert!(
            bits >= 512 && bits.is_multiple_of(64),
            "unsupported key size {bits}"
        );
        let count = bits / 64;
        // Primes in [2⁶⁴ − 2⁵⁷, 2⁶⁴): the product of `count ≤ 32` of
        // them always has exactly 64·count bits.
        let mut primes: Vec<u64> = Vec::with_capacity(count);
        while primes.len() < count {
            let p = (rng.next_u64() | (u64::MAX << 57)) | 1;
            if !(p - 1).is_multiple_of(E) && !primes.contains(&p) && is_prime(p) {
                primes.push(p);
            }
        }
        let n = primes
            .iter()
            .fold(BigUint::one(), |acc, &p| acc.mul(&BigUint::from_u64(p)));
        assert_eq!(n.bits(), bits, "modulus size");
        let public = RsaPublicKey::new(n.clone(), BigUint::from_u64(E)).expect("odd modulus");
        let k = public.modulus_len();
        let fixed = BigUint::from_bytes_be(&encode(&[0u8; 20], k));
        let factors = primes
            .iter()
            .map(|&p| {
                let bp = BigUint::from_u64(p);
                let (cofactor, _) = n.divrem(&bp);
                let cof_mod_p = cofactor.rem(&bp).low_u64();
                let coef = cofactor
                    .mul(&BigUint::from_u64(inv_mod(cof_mod_p, p)))
                    .rem(&n);
                let p_inv = {
                    // Newton iteration for p⁻¹ mod 2⁶⁴ (p odd).
                    let mut x = p;
                    for _ in 0..6 {
                        x = x.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(x)));
                    }
                    x
                };
                let r = (u128::from(u64::MAX) + 1) % u128::from(p);
                let r2 = ((r * r) % u128::from(p)) as u64;
                Factor {
                    p,
                    p_neg_inv: p_inv.wrapping_neg(),
                    r2,
                    d: inv_mod(E % (p - 1), p - 1),
                    base: fixed.rem(&bp).low_u64(),
                    two128: mul_mod(r as u64, r as u64, p),
                    coef,
                }
            })
            .collect();
        FastKey {
            public,
            n,
            k,
            factors,
        }
    }

    /// The verification key the auditor registers.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// RSASSA-PKCS1-v1.5 / SHA-1 signature over `msg`, byte-identical to
    /// what a standard private key for the same modulus produces.
    pub fn sign(&self, msg: &[u8]) -> Vec<u8> {
        let h = sha1(msg);
        let hi = u64::from(u32::from_be_bytes(h[..4].try_into().expect("4 bytes")));
        let lo = u128::from_be_bytes(h[4..].try_into().expect("16 bytes"));
        let mut s = BigUint::zero();
        for f in &self.factors {
            let p = u128::from(f.p);
            let h_mod = (u128::from(mul_mod(hi, f.two128, f.p)) + lo % p) % p;
            let m = ((u128::from(f.base) + h_mod) % p) as u64;
            let si = f.private_op(m);
            s = s.add(&f.coef.mul(&BigUint::from_u64(si)));
        }
        s.rem(&self.n)
            .to_bytes_be_padded(self.k)
            .expect("signature below modulus")
    }
}

/// `0x00 ‖ 0x01 ‖ 0xFF… ‖ 0x00 ‖ DigestInfo(SHA-1)` with the given digest.
fn encode(digest: &[u8; 20], k: usize) -> Vec<u8> {
    let mut em = vec![0xFFu8; k];
    em[0] = 0x00;
    em[1] = 0x01;
    let t = SHA1_PREFIX.len() + digest.len();
    em[k - t - 1] = 0x00;
    em[k - t..k - digest.len()].copy_from_slice(&SHA1_PREFIX);
    em[k - digest.len()..].copy_from_slice(digest);
    em
}

#[cfg(test)]
mod tests {
    use super::*;
    use alidrone_crypto::rsa::HashAlg;

    #[test]
    fn signatures_verify_under_the_program_verifier() {
        for bits in [1024, 2048] {
            let key = FastKey::generate(bits, &mut SplitMix::new(bits as u64));
            assert_eq!(key.public_key().bits(), bits);
            let verifier = key.public_key().verifier();
            for i in 0..8u32 {
                let msg = i.to_be_bytes();
                let sig = key.sign(&msg);
                assert_eq!(sig.len(), bits / 8);
                verifier
                    .verify(&msg, &sig, HashAlg::Sha1)
                    .expect("verifies");
                assert!(verifier.verify(b"other", &sig, HashAlg::Sha1).is_err());
            }
        }
    }
}
