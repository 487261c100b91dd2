//! AES-128 block cipher (FIPS 197).
//!
//! The S-box and its inverse are derived *algebraically* at compile time —
//! multiplicative inverse in GF(2⁸) followed by the affine transform — rather
//! than transcribed, which removes an entire class of table-typo bugs; the
//! FIPS 197 appendix vectors in the tests pin the result.
//!
//! Encryption is the classic 32-bit T-table construction: the key schedule
//! is 44 big-endian words, and each of the nine full rounds is sixteen
//! lookups into four 1 KiB tables that fuse SubBytes, ShiftRows and
//! MixColumns. The tables are derived at compile time from the same
//! algebraic S-box. Decryption stays byte-oriented (no hot path uses it).
//!
//! The table lookups are indexed by key-dependent bytes, so they leak
//! through the cache like every other primitive here: constant-time crypto
//! is a non-goal of the reproduction (see the crate-level security note).

use crate::keys::Key128;

const fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

const fn gf_mul(a: u8, b: u8) -> u8 {
    let mut p = 0u8;
    let mut aa = a;
    let mut bb = b;
    let mut i = 0;
    while i < 8 {
        if bb & 1 == 1 {
            p ^= aa;
        }
        aa = xtime(aa);
        bb >>= 1;
        i += 1;
    }
    p
}

const fn gf_inv(a: u8) -> u8 {
    if a == 0 {
        return 0;
    }
    // a^254 = a^-1 in GF(2^8)
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u32;
    while exp > 0 {
        if exp & 1 == 1 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn affine(b: u8) -> u8 {
    b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63
}

const fn build_sbox() -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        t[i] = affine(gf_inv(i as u8));
        i += 1;
    }
    t
}

const fn build_inv_sbox(sbox: &[u8; 256]) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut i = 0usize;
    while i < 256 {
        t[sbox[i] as usize] = i as u8;
        i += 1;
    }
    t
}

/// The AES S-box, derived at compile time.
pub const SBOX: [u8; 256] = build_sbox();
/// The inverse AES S-box.
pub const INV_SBOX: [u8; 256] = build_inv_sbox(&SBOX);

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

// T-table for row 0: `(2·S[a], S[a], S[a], 3·S[a])` as a big-endian word,
// the MixColumns column a substituted row-0 byte contributes. Rows 1–3 use
// the same column rotated right by 8, 16 and 24 bits.
const fn build_te(rot: u32) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let s = SBOX[i];
        let w = (xtime(s) as u32) << 24 | (s as u32) << 16 | (s as u32) << 8 | gf_mul(s, 3) as u32;
        t[i] = w.rotate_right(rot);
        i += 1;
    }
    t
}

const TE0: [u32; 256] = build_te(0);
const TE1: [u32; 256] = build_te(8);
const TE2: [u32; 256] = build_te(16);
const TE3: [u32; 256] = build_te(24);

fn sub_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[a as usize],
        SBOX[b as usize],
        SBOX[c as usize],
        SBOX[d as usize],
    ])
}

/// An expanded AES-128 key ready to encrypt or decrypt 16-byte blocks.
///
/// # Example
///
/// ```
/// use precursor_crypto::aes::Aes128;
/// use precursor_crypto::keys::Key128;
///
/// let cipher = Aes128::new(&Key128::from_bytes([0u8; 16]));
/// let block = [0u8; 16];
/// let ct = cipher.encrypt_block(block);
/// assert_eq!(cipher.decrypt_block(ct), block);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    // FIPS 197 §5.2 key schedule `w[0..44]`; round `r` uses `w[4r..4r + 4]`.
    round_keys: [u32; 44],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug.
        f.write_str("Aes128 { round_keys: <redacted> }")
    }
}

impl Aes128 {
    /// Expands `key` into the 44-word key schedule (FIPS 197 §5.2).
    pub fn new(key: &Key128) -> Aes128 {
        let kb = key.as_bytes();
        let mut w = [0u32; 44];
        for (i, word) in w.iter_mut().take(4).enumerate() {
            *word = u32::from_be_bytes([kb[4 * i], kb[4 * i + 1], kb[4 * i + 2], kb[4 * i + 3]]);
        }
        for (r, &rcon) in RCON.iter().enumerate() {
            let i = 4 * (r + 1);
            w[i] = w[i - 4] ^ sub_word(w[i - 1].rotate_left(8)) ^ ((rcon as u32) << 24);
            w[i + 1] = w[i - 3] ^ w[i];
            w[i + 2] = w[i - 2] ^ w[i + 1];
            w[i + 3] = w[i - 1] ^ w[i + 2];
        }
        Aes128 { round_keys: w }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let rk = &self.round_keys;
        let col = |c: usize| {
            u32::from_be_bytes([
                block[4 * c],
                block[4 * c + 1],
                block[4 * c + 2],
                block[4 * c + 3],
            ]) ^ rk[c]
        };
        let mut s = [col(0), col(1), col(2), col(3)];
        for round in 1..10 {
            let k = &rk[4 * round..4 * round + 4];
            s = [
                TE0[(s[0] >> 24) as usize]
                    ^ TE1[(s[1] >> 16) as u8 as usize]
                    ^ TE2[(s[2] >> 8) as u8 as usize]
                    ^ TE3[s[3] as u8 as usize]
                    ^ k[0],
                TE0[(s[1] >> 24) as usize]
                    ^ TE1[(s[2] >> 16) as u8 as usize]
                    ^ TE2[(s[3] >> 8) as u8 as usize]
                    ^ TE3[s[0] as u8 as usize]
                    ^ k[1],
                TE0[(s[2] >> 24) as usize]
                    ^ TE1[(s[3] >> 16) as u8 as usize]
                    ^ TE2[(s[0] >> 8) as u8 as usize]
                    ^ TE3[s[1] as u8 as usize]
                    ^ k[2],
                TE0[(s[3] >> 24) as usize]
                    ^ TE1[(s[0] >> 16) as u8 as usize]
                    ^ TE2[(s[1] >> 8) as u8 as usize]
                    ^ TE3[s[2] as u8 as usize]
                    ^ k[3],
            ];
        }
        // Final round: SubBytes + ShiftRows only.
        let mut out = [0u8; 16];
        for c in 0..4 {
            let w = u32::from_be_bytes([
                SBOX[(s[c] >> 24) as usize],
                SBOX[(s[(c + 1) % 4] >> 16) as u8 as usize],
                SBOX[(s[(c + 2) % 4] >> 8) as u8 as usize],
                SBOX[s[(c + 3) % 4] as u8 as usize],
            ]) ^ rk[40 + c];
            out[4 * c..4 * c + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        let mut s = block;
        add_round_key(&mut s, &self.round_key_bytes(10));
        for round in (1..10).rev() {
            inv_shift_rows(&mut s);
            inv_sub_bytes(&mut s);
            add_round_key(&mut s, &self.round_key_bytes(round));
            inv_mix_columns(&mut s);
        }
        inv_shift_rows(&mut s);
        inv_sub_bytes(&mut s);
        add_round_key(&mut s, &self.round_key_bytes(0));
        s
    }

    // The 16 bytes of round key `round` in state order.
    fn round_key_bytes(&self, round: usize) -> [u8; 16] {
        let mut out = [0u8; 16];
        for c in 0..4 {
            out[4 * c..4 * c + 4].copy_from_slice(&self.round_keys[4 * round + c].to_be_bytes());
        }
        out
    }
}

fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        s[i] ^= rk[i];
    }
}

fn inv_sub_bytes(s: &mut [u8; 16]) {
    for b in s.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

// State layout: s[r + 4c] is row r, column c (FIPS 197 §3.4).
fn inv_shift_rows(s: &mut [u8; 16]) {
    let orig = *s;
    for r in 1..4 {
        for c in 0..4 {
            s[r + 4 * ((c + r) % 4)] = orig[r + 4 * c];
        }
    }
}

fn inv_mix_columns(s: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
        s[4 * c] = gf_mul(col[0], 0x0e)
            ^ gf_mul(col[1], 0x0b)
            ^ gf_mul(col[2], 0x0d)
            ^ gf_mul(col[3], 0x09);
        s[4 * c + 1] = gf_mul(col[0], 0x09)
            ^ gf_mul(col[1], 0x0e)
            ^ gf_mul(col[2], 0x0b)
            ^ gf_mul(col[3], 0x0d);
        s[4 * c + 2] = gf_mul(col[0], 0x0d)
            ^ gf_mul(col[1], 0x09)
            ^ gf_mul(col[2], 0x0e)
            ^ gf_mul(col[3], 0x0b);
        s[4 * c + 3] = gf_mul(col[0], 0x0b)
            ^ gf_mul(col[1], 0x0d)
            ^ gf_mul(col[2], 0x09)
            ^ gf_mul(col[3], 0x0e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn sbox_known_entries() {
        // Spot values from the FIPS 197 table.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn inv_sbox_inverts() {
        for i in 0..=255u8 {
            assert_eq!(INV_SBOX[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn sbox_is_permutation() {
        let mut seen = [false; 256];
        for &v in SBOX.iter() {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
    }

    #[test]
    fn fips197_appendix_b() {
        // FIPS 197 Appendix B worked example.
        let key = Key128::from_bytes(hex16("2b7e151628aed2a6abf7158809cf4f3c"));
        let pt = hex16("3243f6a8885a308d313198a2e0370734");
        let expected = hex16("3925841d02dc09fbdc118597196a0b32");
        let c = Aes128::new(&key);
        assert_eq!(c.encrypt_block(pt), expected);
        assert_eq!(c.decrypt_block(expected), pt);
    }

    #[test]
    fn fips197_appendix_c1() {
        // FIPS 197 Appendix C.1 (AES-128).
        let key = Key128::from_bytes(hex16("000102030405060708090a0b0c0d0e0f"));
        let pt = hex16("00112233445566778899aabbccddeeff");
        let expected = hex16("69c4e0d86a7b0430d8cdb78070b4c55a");
        let c = Aes128::new(&key);
        assert_eq!(c.encrypt_block(pt), expected);
        assert_eq!(c.decrypt_block(expected), pt);
    }

    #[test]
    fn encrypt_decrypt_roundtrip_random() {
        let c = Aes128::new(&Key128::from_bytes([0xA5; 16]));
        let mut block = [0u8; 16];
        for round in 0..100u32 {
            for (i, b) in block.iter_mut().enumerate() {
                *b = (round as u8).wrapping_mul(31).wrapping_add(i as u8);
            }
            assert_eq!(c.decrypt_block(c.encrypt_block(block)), block);
        }
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(&Key128::from_bytes([0; 16]));
        let b = Aes128::new(&Key128::from_bytes([1; 16]));
        assert_ne!(a.encrypt_block([0; 16]), b.encrypt_block([0; 16]));
    }

    #[test]
    fn debug_redacts_keys() {
        let c = Aes128::new(&Key128::from_bytes([9; 16]));
        assert!(!format!("{c:?}").contains('9'));
    }
}
