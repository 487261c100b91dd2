//! AES-128-GCM authenticated encryption (NIST SP 800-38D).
//!
//! This is the paper's transport ("session") encryption: control data is
//! sealed under the per-client `K_session` with the request's AAD, giving
//! confidentiality, integrity and client authenticity in one pass (§3.4, §4).
//!
//! # Key contexts
//!
//! A [`GcmKey`] is the expanded form of one key: the AES round keys and the
//! GHASH key `H = E_K(0¹²⁸)`, 192 bytes in all. Every long-lived key
//! holds one, built once when the key is established — the client's and
//! the server's `K_session` at connect and reconnect, the server's storage
//! key, the journal's epoch key (and one per recovery walk), the cluster's
//! transfer key, the ShieldStore keys — so a seal or open pays for neither
//! the key expansion nor the `H` block. The free
//! [`seal`] and [`open`] build a context per call and are meant for
//! one-shot keys (enclave sealing, tests).
//!
//! GHASH multiplies with Shoup's 4-bit method. Its 16-entry table of
//! multiples of `H` (256 bytes) is rebuilt on the stack per call, three
//! doublings and eleven XORs, rather than stored in the context: a stored
//! table would make every session key 448 bytes, which the 10k-client
//! workloads pay for in resident memory.

use crate::aes::Aes128;
use crate::ct::ct_eq;
use crate::error::CryptoError;
use crate::keys::{Key128, Nonce12};

/// GCM tag length in bytes.
pub const TAG_LEN: usize = 16;

// GCM's reduction constant `x¹²⁸ = x⁷ + x² + x + 1`, in the spec's bit
// order (bit 0, the x⁰ coefficient, is the most significant bit).
const R: u128 = 0xE1 << 120;

// Reduction of the four coefficients a multiplication by x⁴ shifts past
// x¹²⁷: entry `r` folds the low nibble `r` back in. The folded terms land
// in the top 16 bits, so the table holds only the high 64-bit half.
const REDUCE4: [u64; 16] = {
    let mut t = [0u64; 16];
    let mut r = 0usize;
    while r < 16 {
        let mut i = 0;
        while i < 4 {
            if (r >> i) & 1 == 1 {
                t[r] ^= ((R >> (3 - i)) >> 64) as u64;
            }
            i += 1;
        }
        r += 1;
    }
    t
};

// `v · x`.
fn mul_x(v: u128) -> u128 {
    (v >> 1) ^ (R & 0u128.wrapping_sub(v & 1))
}

// Shoup's table: `m[n] = n · H`, reading the nibble `n` in GCM bit order
// (its bit 3 is the lowest power of x), so `m[8] = H` and `m[1] = H · x³`.
fn nibble_table(h: u128) -> [u128; 16] {
    let mut m = [0u128; 16];
    m[8] = h;
    m[4] = mul_x(h);
    m[2] = mul_x(m[4]);
    m[1] = mul_x(m[2]);
    m[3] = m[2] ^ m[1];
    m[5] = m[4] ^ m[1];
    m[6] = m[4] ^ m[2];
    m[7] = m[4] ^ m[3];
    for n in 9..16 {
        m[n] = m[8] ^ m[n - 8];
    }
    m
}

// `x · H` by Horner's rule over the 32 nibbles of `x`, highest power of x
// (the least significant nibble) first; `z` is kept as two 64-bit halves.
fn mul_table(x: u128, m: &[u128; 16]) -> u128 {
    let (mut hi, mut lo) = (0u64, 0u64);
    for byte in x.to_le_bytes() {
        for nibble in [byte & 0xf, byte >> 4] {
            let rem = (lo & 0xf) as usize;
            lo = (lo >> 4) | (hi << 60);
            hi = (hi >> 4) ^ REDUCE4[rem];
            let e = m[nibble as usize];
            hi ^= (e >> 64) as u64;
            lo ^= e as u64;
        }
    }
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Multiplies `x` by `h` in GF(2¹²⁸) with GCM's bit order and reduction
/// polynomial — the GHASH step, by the same 4-bit table method [`GcmKey`]
/// uses.
pub fn ghash_mul(x: u128, h: u128) -> u128 {
    mul_table(x, &nibble_table(h))
}

fn block_to_u128(b: &[u8]) -> u128 {
    let mut arr = [0u8; 16];
    arr[..b.len()].copy_from_slice(b);
    u128::from_be_bytes(arr)
}

fn ghash(h: u128, aad: &[u8], ct: &[u8]) -> u128 {
    let m = nibble_table(h);
    let mut y = 0u128;
    for chunk in aad.chunks(16).chain(ct.chunks(16)) {
        y = mul_table(y ^ block_to_u128(chunk), &m);
    }
    let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
    mul_table(y ^ lens, &m)
}

fn j0(nonce: &Nonce12) -> [u8; 16] {
    let mut j0 = [0u8; 16];
    j0[..12].copy_from_slice(nonce.as_bytes());
    j0[15] = 1;
    j0
}

/// The precomputed state of one AES-128-GCM key: the expanded AES key and
/// the GHASH key `H`. Build it once per key with [`GcmKey::new`] and keep
/// it beside (or instead of) the key; see the [module docs](self).
///
/// # Example
///
/// ```
/// use precursor_crypto::gcm::GcmKey;
/// use precursor_crypto::keys::{Key128, Nonce12};
///
/// let ctx = GcmKey::new(&Key128::from_bytes([7u8; 16]));
/// let nonce = Nonce12::from_counter(1);
/// let sealed = ctx.seal(&nonce, b"header", b"secret");
/// assert_eq!(ctx.open(&nonce, b"header", &sealed).unwrap(), b"secret");
/// ```
#[derive(Clone)]
pub struct GcmKey {
    cipher: Aes128,
    h: u128,
}

impl std::fmt::Debug for GcmKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug.
        f.write_str("GcmKey { <redacted> }")
    }
}

impl GcmKey {
    /// Expands `key`: the AES key schedule plus `H = E_K(0¹²⁸)`.
    pub fn new(key: &Key128) -> GcmKey {
        let cipher = Aes128::new(key);
        let h = u128::from_be_bytes(cipher.encrypt_block([0u8; 16]));
        GcmKey { cipher, h }
    }

    // CTR-mode keystream from `inc32(j0)` on, XORed into `data`.
    fn ctr_xor(&self, j0: &[u8; 16], data: &mut [u8]) {
        let mut ctr = u32::from_be_bytes([j0[12], j0[13], j0[14], j0[15]]);
        let mut counter = *j0;
        for chunk in data.chunks_mut(16) {
            ctr = ctr.wrapping_add(1);
            counter[12..].copy_from_slice(&ctr.to_be_bytes());
            let ks = self.cipher.encrypt_block(counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    fn tag(&self, j0: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        let s = ghash(self.h, aad, ct);
        (s ^ u128::from_be_bytes(self.cipher.encrypt_block(*j0))).to_be_bytes()
    }

    /// Encrypts `plaintext` and authenticates it together with `aad`.
    ///
    /// Returns `ciphertext ‖ tag` (tag is the trailing [`TAG_LEN`] bytes).
    pub fn seal(&self, nonce: &Nonce12, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let j0 = j0(nonce);
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.ctr_xor(&j0, &mut out);
        let tag = self.tag(&j0, aad, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts `sealed` (`ciphertext ‖ tag`) and verifies the tag over the
    /// ciphertext and `aad`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidLength`] if `sealed` is shorter than a
    /// tag and [`CryptoError::InvalidTag`] if authentication fails (wrong
    /// key, wrong nonce, tampered ciphertext or tampered AAD).
    pub fn open(&self, nonce: &Nonce12, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::InvalidLength);
        }
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let j0 = j0(nonce);
        if !ct_eq(&self.tag(&j0, aad, ct), tag) {
            return Err(CryptoError::InvalidTag);
        }
        let mut pt = ct.to_vec();
        self.ctr_xor(&j0, &mut pt);
        Ok(pt)
    }
}

/// One-shot [`GcmKey::seal`]: expands `key` for this call only.
///
/// # Example
///
/// ```
/// use precursor_crypto::gcm;
/// use precursor_crypto::keys::{Key128, Nonce12};
/// let key = Key128::from_bytes([0; 16]);
/// let nonce = Nonce12::from_bytes([0; 12]);
/// let sealed = gcm::seal(&key, &nonce, b"", b"hello");
/// assert_eq!(sealed.len(), 5 + gcm::TAG_LEN);
/// ```
pub fn seal(key: &Key128, nonce: &Nonce12, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    GcmKey::new(key).seal(nonce, aad, plaintext)
}

/// One-shot [`GcmKey::open`]: expands `key` for this call only.
///
/// # Errors
///
/// As [`GcmKey::open`].
pub fn open(
    key: &Key128,
    nonce: &Nonce12,
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    GcmKey::new(key).open(nonce, aad, sealed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h2b(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
            .collect()
    }

    fn key(s: &str) -> Key128 {
        Key128::try_from(h2b(s).as_slice()).unwrap()
    }

    fn nonce(s: &str) -> Nonce12 {
        Nonce12::try_from(h2b(s).as_slice()).unwrap()
    }

    #[test]
    fn nist_test_case_1_empty() {
        // GCM spec test case 1: zero key/IV, empty everything.
        let sealed = seal(
            &key("00000000000000000000000000000000"),
            &nonce("000000000000000000000000"),
            b"",
            b"",
        );
        assert_eq!(sealed, h2b("58e2fccefa7e3061367f1d57a4e7455a"));
    }

    #[test]
    fn nist_test_case_2_one_block() {
        let k = key("00000000000000000000000000000000");
        let n = nonce("000000000000000000000000");
        let pt = h2b("00000000000000000000000000000000");
        let sealed = seal(&k, &n, b"", &pt);
        assert_eq!(
            sealed,
            h2b("0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf")
        );
        assert_eq!(open(&k, &n, b"", &sealed).unwrap(), pt);
    }

    #[test]
    fn nist_test_case_3_four_blocks() {
        let k = key("feffe9928665731c6d6a8f9467308308");
        let n = nonce("cafebabefacedbaddecaf888");
        let pt = h2b(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let sealed = seal(&k, &n, b"", &pt);
        let expected_ct = h2b(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        );
        assert_eq!(&sealed[..64], &expected_ct[..]);
        assert_eq!(&sealed[64..], &h2b("4d5c2af327cd64a62cf35abd2ba6fab4")[..]);
    }

    #[test]
    fn roundtrip_with_aad_various_lengths() {
        let k = Key128::from_bytes([9; 16]);
        for len in [0usize, 1, 15, 16, 17, 32, 100, 1000] {
            let n = Nonce12::from_counter(len as u64);
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let aad = b"control header";
            let sealed = seal(&k, &n, aad, &pt);
            assert_eq!(open(&k, &n, aad, &sealed).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        let mut sealed = seal(&k, &n, b"a", b"payload");
        sealed[0] ^= 1;
        assert_eq!(open(&k, &n, b"a", &sealed), Err(CryptoError::InvalidTag));
    }

    #[test]
    fn tampered_tag_rejected() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        let mut sealed = seal(&k, &n, b"", b"payload");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert_eq!(open(&k, &n, b"", &sealed), Err(CryptoError::InvalidTag));
    }

    #[test]
    fn wrong_aad_rejected() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        let sealed = seal(&k, &n, b"aad-1", b"payload");
        assert_eq!(
            open(&k, &n, b"aad-2", &sealed),
            Err(CryptoError::InvalidTag)
        );
    }

    #[test]
    fn wrong_key_or_nonce_rejected() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        let sealed = seal(&k, &n, b"", b"payload");
        assert!(open(&Key128::from_bytes([2; 16]), &n, b"", &sealed).is_err());
        assert!(open(&k, &Nonce12::from_counter(2), b"", &sealed).is_err());
    }

    #[test]
    fn short_input_is_invalid_length() {
        let k = Key128::from_bytes([1; 16]);
        let n = Nonce12::from_counter(1);
        assert_eq!(
            open(&k, &n, b"", &[0u8; 15]),
            Err(CryptoError::InvalidLength)
        );
    }

    #[test]
    fn different_nonces_give_different_ciphertexts() {
        let k = Key128::from_bytes([3; 16]);
        let a = seal(&k, &Nonce12::from_counter(1), b"", b"same plaintext");
        let b = seal(&k, &Nonce12::from_counter(2), b"", b"same plaintext");
        assert_ne!(a, b);
    }
}
