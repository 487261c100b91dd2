//! Property-based tests over the crypto primitives, driven by the in-repo
//! deterministic RNG (seeded loops instead of an external proptest engine).
//!
//! The `differential_*` tests check the table-driven AES and GHASH against
//! the textbook byte-wise AES rounds and the bit-serial GF(2¹²⁸) multiply
//! kept below as test-only references.
//!
//! `PRECURSOR_FUZZ_CASES` sets the cases per property (default 64; the
//! AES and GHASH differential loops run 160× that).

use precursor_crypto::chain::MacChain;
use precursor_crypto::gcm::GcmKey;
use precursor_crypto::keys::{Key128, Key256, Nonce12, Nonce8, Tag};
use precursor_crypto::{aes::Aes128, cmac, ct::ct_eq, gcm, hmac::hmac_sha256, salsa20, sha256};
use precursor_sim::rng::SimRng;

fn cases() -> usize {
    std::env::var("PRECURSOR_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

// Cases per AES and GHASH differential loop: ≥10k at the default.
fn differential_cases() -> usize {
    cases() * 160
}

fn rand_array<const N: usize>(rng: &mut SimRng) -> [u8; N] {
    let mut b = [0u8; N];
    rng.fill_bytes(&mut b);
    b
}

fn rand_vec(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(max_len as u64 + 1) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn aes_roundtrip() {
    let mut rng = SimRng::seed_from(0xa001);
    for _ in 0..cases() {
        let c = Aes128::new(&Key128::from_bytes(rand_array(&mut rng)));
        let block: [u8; 16] = rand_array(&mut rng);
        assert_eq!(c.decrypt_block(c.encrypt_block(block)), block);
    }
}

#[test]
fn aes_is_a_permutation() {
    let mut rng = SimRng::seed_from(0xa002);
    for _ in 0..cases() {
        let c = Aes128::new(&Key128::from_bytes(rand_array(&mut rng)));
        let a: [u8; 16] = rand_array(&mut rng);
        let b: [u8; 16] = rand_array(&mut rng);
        assert_eq!(a == b, c.encrypt_block(a) == c.encrypt_block(b));
    }
}

#[test]
fn gcm_roundtrip() {
    let mut rng = SimRng::seed_from(0xa003);
    for _ in 0..cases() {
        let k = Key128::from_bytes(rand_array(&mut rng));
        let n = Nonce12::from_bytes(rand_array(&mut rng));
        let aad = rand_vec(&mut rng, 63);
        let pt = rand_vec(&mut rng, 511);
        let sealed = gcm::seal(&k, &n, &aad, &pt);
        assert_eq!(sealed.len(), pt.len() + gcm::TAG_LEN);
        assert_eq!(gcm::open(&k, &n, &aad, &sealed).unwrap(), pt);
    }
}

#[test]
fn gcm_detects_any_single_bit_flip() {
    let mut rng = SimRng::seed_from(0xa004);
    for _ in 0..cases() {
        let k = Key128::from_bytes(rand_array(&mut rng));
        let n = Nonce12::from_counter(7);
        let mut pt = rand_vec(&mut rng, 62);
        pt.push(rng.next_u64() as u8); // never empty
        let mut sealed = gcm::seal(&k, &n, b"", &pt);
        let pos = rng.gen_range(sealed.len() as u64) as usize;
        let bit = rng.gen_range(8) as u8;
        sealed[pos] ^= 1 << bit;
        assert!(gcm::open(&k, &n, b"", &sealed).is_err());
    }
}

#[test]
fn cmac_tamper_detection() {
    let mut rng = SimRng::seed_from(0xa005);
    for _ in 0..cases() {
        let k = Key128::from_bytes(rand_array(&mut rng));
        let mut msg = rand_vec(&mut rng, 126);
        msg.push(rng.next_u64() as u8); // never empty
        let tag = cmac::mac(&k, &msg);
        let mut tampered = msg.clone();
        let pos = rng.gen_range(tampered.len() as u64) as usize;
        let bit = rng.gen_range(8) as u8;
        tampered[pos] ^= 1 << bit;
        assert!(!cmac::verify(&k, &tampered, &tag));
        assert!(cmac::verify(&k, &msg, &tag));
    }
}

#[test]
fn salsa20_roundtrip() {
    let mut rng = SimRng::seed_from(0xa006);
    for _ in 0..cases() {
        let k = Key256::from_bytes(rand_array(&mut rng));
        let n = Nonce8::from_bytes(rand_array(&mut rng));
        let data = rand_vec(&mut rng, 1023);
        let ct = salsa20::encrypt(&k, &n, &data);
        assert_eq!(salsa20::decrypt(&k, &n, &ct), data);
    }
}

#[test]
fn salsa20_keystream_seek_consistency() {
    let mut rng = SimRng::seed_from(0xa007);
    for _ in 0..cases() {
        let k = Key256::from_bytes(rand_array(&mut rng));
        let n = Nonce8::from_bytes(rand_array(&mut rng));
        let blocks = 1 + rng.gen_range(7);
        let len = blocks as usize * 64;
        let mut whole = vec![0u8; len + 64];
        salsa20::xor_keystream(&k, &n, 0, &mut whole);
        let mut tail = vec![0u8; 64];
        salsa20::xor_keystream(&k, &n, blocks, &mut tail);
        assert_eq!(&whole[len..], &tail[..]);
    }
}

#[test]
fn sha256_streaming_equals_oneshot() {
    let mut rng = SimRng::seed_from(0xa008);
    for _ in 0..cases() {
        let data = rand_vec(&mut rng, 4095);
        let split = if data.is_empty() {
            0
        } else {
            rng.gen_range(data.len() as u64) as usize
        };
        let mut h = sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finish(), sha256::digest(&data));
    }
}

#[test]
fn hmac_distinguishes_keys() {
    let mut rng = SimRng::seed_from(0xa009);
    for _ in 0..cases() {
        let mut k1 = rand_vec(&mut rng, 62);
        k1.push(rng.next_u64() as u8);
        let mut k2 = rand_vec(&mut rng, 62);
        k2.push(rng.next_u64() as u8);
        if k1 == k2 {
            continue;
        }
        let msg = rand_vec(&mut rng, 127);
        assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }
}

#[test]
fn ct_eq_matches_plain_eq() {
    let mut rng = SimRng::seed_from(0xa00a);
    for _ in 0..cases() {
        let a = rand_vec(&mut rng, 63);
        let b = if rng.gen_bool(0.5) {
            a.clone()
        } else {
            rand_vec(&mut rng, 63)
        };
        assert_eq!(ct_eq(&a, &b), a == b);
    }
}

#[test]
fn tag_verify_matches_eq() {
    let mut rng = SimRng::seed_from(0xa00b);
    for _ in 0..cases() {
        let a: [u8; 16] = rand_array(&mut rng);
        let b: [u8; 16] = if rng.gen_bool(0.5) {
            a
        } else {
            rand_array(&mut rng)
        };
        assert_eq!(Tag::from_bytes(a).verify(&Tag::from_bytes(b)), a == b);
    }
}

/// Test-only references: AES-128 exactly as FIPS 197 §5.1 spells it (one
/// byte at a time: S-box, ShiftRows, MixColumns, with its own byte-wise key
/// expansion) and GF(2¹²⁸) multiplication one bit at a time as
/// SP 800-38D Algorithm 1 spells it.
mod reference {
    use precursor_crypto::aes::SBOX;

    const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

    fn xtime(a: u8) -> u8 {
        (a << 1) ^ (((a >> 7) & 1) * 0x1b)
    }

    fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
        let mut w = [[0u8; 4]; 44];
        for (i, word) in w.iter_mut().take(4).enumerate() {
            word.copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        round_keys
    }

    fn add_round_key(s: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            s[i] ^= rk[i];
        }
    }

    fn sub_bytes(s: &mut [u8; 16]) {
        for b in s.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    // State layout: s[r + 4c] is row r, column c (FIPS 197 §3.4).
    fn shift_rows(s: &mut [u8; 16]) {
        let orig = *s;
        for r in 1..4 {
            for c in 0..4 {
                s[r + 4 * c] = orig[r + 4 * ((c + r) % 4)];
            }
        }
    }

    fn mix_columns(s: &mut [u8; 16]) {
        let mul3 = |a: u8| xtime(a) ^ a;
        for c in 0..4 {
            let col = [s[4 * c], s[4 * c + 1], s[4 * c + 2], s[4 * c + 3]];
            s[4 * c] = xtime(col[0]) ^ mul3(col[1]) ^ col[2] ^ col[3];
            s[4 * c + 1] = col[0] ^ xtime(col[1]) ^ mul3(col[2]) ^ col[3];
            s[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ mul3(col[3]);
            s[4 * c + 3] = mul3(col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }

    pub fn aes_encrypt(key: &[u8; 16], block: [u8; 16]) -> [u8; 16] {
        let round_keys = expand_key(key);
        let mut s = block;
        add_round_key(&mut s, &round_keys[0]);
        for rk in &round_keys[1..10] {
            sub_bytes(&mut s);
            shift_rows(&mut s);
            mix_columns(&mut s);
            add_round_key(&mut s, rk);
        }
        sub_bytes(&mut s);
        shift_rows(&mut s);
        add_round_key(&mut s, &round_keys[10]);
        s
    }

    pub fn gf_mult(x: u128, y: u128) -> u128 {
        // Bit 0 is the most significant bit per the GCM spec.
        let mut z = 0u128;
        let mut v = y;
        for i in 0..128 {
            if (x >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= 0xE1u128 << 120;
            }
        }
        z
    }

    fn block(b: &[u8]) -> u128 {
        let mut arr = [0u8; 16];
        arr[..b.len()].copy_from_slice(b);
        u128::from_be_bytes(arr)
    }

    /// AES-128-GCM seal (SP 800-38D §7.1) built on the two references.
    pub fn gcm_seal(key: &[u8; 16], nonce: &[u8; 12], aad: &[u8], pt: &[u8]) -> Vec<u8> {
        let h = u128::from_be_bytes(aes_encrypt(key, [0; 16]));
        let mut j0 = [0u8; 16];
        j0[..12].copy_from_slice(nonce);
        j0[15] = 1;
        let mut out = pt.to_vec();
        let mut counter = j0;
        for chunk in out.chunks_mut(16) {
            let ctr = u32::from_be_bytes(counter[12..].try_into().unwrap()).wrapping_add(1);
            counter[12..].copy_from_slice(&ctr.to_be_bytes());
            let ks = aes_encrypt(key, counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
        let mut y = 0u128;
        for chunk in aad.chunks(16).chain(out.chunks(16)) {
            y = gf_mult(y ^ block(chunk), h);
        }
        let lens = ((aad.len() as u128 * 8) << 64) | (out.len() as u128 * 8);
        let s = gf_mult(y ^ lens, h);
        let tag = s ^ u128::from_be_bytes(aes_encrypt(key, j0));
        out.extend_from_slice(&tag.to_be_bytes());
        out
    }
}

#[test]
fn differential_aes_matches_bytewise_reference() {
    let mut rng = SimRng::seed_from(0xd001);
    for _ in 0..differential_cases() {
        let key: [u8; 16] = rand_array(&mut rng);
        let block: [u8; 16] = rand_array(&mut rng);
        let c = Aes128::new(&Key128::from_bytes(key));
        assert_eq!(
            c.encrypt_block(block),
            reference::aes_encrypt(&key, block),
            "key {key:02x?} block {block:02x?}"
        );
    }
}

#[test]
fn differential_ghash_multiply_matches_bit_serial() {
    let mut rng = SimRng::seed_from(0xd002);
    for i in 0..differential_cases() {
        let x = u128::from_be_bytes(rand_array(&mut rng));
        // Every 16th case uses a one-bit H, a sparse operand random draws
        // almost never produce.
        let h = if i % 16 == 0 {
            1u128 << rng.gen_range(128)
        } else {
            u128::from_be_bytes(rand_array(&mut rng))
        };
        assert_eq!(
            gcm::ghash_mul(x, h),
            reference::gf_mult(x, h),
            "x {x:#034x} h {h:#034x}"
        );
    }
}

#[test]
fn differential_gcm_key_matches_free_functions_and_reference() {
    let mut rng = SimRng::seed_from(0xd003);
    for _ in 0..cases() {
        let key: [u8; 16] = rand_array(&mut rng);
        let k = Key128::from_bytes(key);
        // One context, reused across several messages as a session does.
        let ctx = GcmKey::new(&k);
        for _ in 0..8 {
            let nonce: [u8; 12] = rand_array(&mut rng);
            let n = Nonce12::from_bytes(nonce);
            let aad = rand_vec(&mut rng, 40);
            let pt = rand_vec(&mut rng, 300);
            let sealed = ctx.seal(&n, &aad, &pt);
            assert_eq!(sealed, gcm::seal(&k, &n, &aad, &pt));
            assert_eq!(sealed, reference::gcm_seal(&key, &nonce, &aad, &pt));
            assert_eq!(ctx.open(&n, &aad, &sealed).unwrap(), pt);
            assert_eq!(gcm::open(&k, &n, &aad, &sealed).unwrap(), pt);

            let mut tampered = sealed.clone();
            let pos = rng.gen_range(tampered.len() as u64) as usize;
            tampered[pos] ^= 1 << rng.gen_range(8);
            assert!(ctx.open(&n, &aad, &tampered).is_err());
            assert!(gcm::open(&k, &n, &aad, &tampered).is_err());
        }
    }
}

#[test]
fn differential_mac_chain_matches_hmac_over_state_and_message() {
    let mut rng = SimRng::seed_from(0xd004);
    for round in 0..cases().div_ceil(16) {
        let k = Key128::from_bytes(rand_array(&mut rng));
        let context = rand_vec(&mut rng, 80);
        let mut chain = MacChain::new(&k, &context);
        let seed = hmac_sha256(k.as_bytes(), &context);
        assert_eq!(chain.state(), seed[..16], "round {round}: starting state");
        // Every length 0..=200: with the 16-byte state in front, the
        // inner hash crosses SHA-256's 55/56/64-byte padding edges.
        for len in 0..=200usize {
            let mut msg = vec![0u8; len];
            rng.fill_bytes(&mut msg);
            let mut input = chain.state().to_vec();
            input.extend_from_slice(&msg);
            let expected = hmac_sha256(k.as_bytes(), &input);
            let tag = chain.advance(&msg);
            assert_eq!(
                tag.as_bytes()[..],
                expected[..16],
                "round {round} len {len}"
            );
            assert_eq!(chain.state(), expected[..16]);
        }
    }
}

#[test]
fn gcm_key_context_fits_in_192_bytes() {
    assert!(std::mem::size_of::<GcmKey>() <= 192);
}
