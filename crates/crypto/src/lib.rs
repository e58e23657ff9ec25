//! Stream cipher and keyed MAC for the SFS secure file server.
//!
//! SFS spends "more than 60% of its time performing cryptographic
//! operations" (paper Section V-C2): every response is encrypted and
//! authenticated over a persistent session. This crate supplies that
//! CPU-bound workload with a from-scratch ChaCha20-style ARX stream
//! cipher ([`StreamCipher`]) and a keyed block MAC ([`Mac`]). They are
//! real, data-dependent computations — not sleeps — so the cost profile
//! (cycles per byte) matches the role crypto plays in the paper's
//! evaluation.
//!
//! **Security note:** this is a workload generator for a scheduling
//! study, not an audited cryptographic library. Do not use it to protect
//! data.
//!
//! # Sealing and opening in one pass
//!
//! SFS uses the two as encrypt-then-MAC: [`seal`] encrypts a buffer in
//! place and returns the tag of the ciphertext; [`open`] checks the tag
//! over the ciphertext and decrypts in place. Each returns exactly what
//! `StreamCipher::apply` + `Mac::compute` (respectively `Mac::verify` +
//! `StreamCipher::apply`) return, but walks the buffer once, one 64-byte
//! chunk at a time, instead of twice.
//!
//! That saves more than a loop. The MAC is one serial dependency chain:
//! each chunk's MAC keystream block is keyed by the running accumulator,
//! and each byte is one multiply-rotate-add step on it, about five
//! cycles of latency that leave most ALU ports idle. The MAC is
//! therefore the floor. A cipher block depends only on `(nonce,
//! counter)`, so the one-pass kernel spreads the next chunk's ten cipher
//! double rounds through the current chunk's MAC chain, where they fill
//! those idle slots. Measured on a 2-vCPU Intel Xeon (x86-64 baseline
//! build) with 8 KB buffers: `Mac::compute` ≈3 500 ns/KB and
//! `StreamCipher::apply` ≈1 950 ns/KB, so two passes cost ≈5 500 ns/KB,
//! while `seal` or `open` costs ≈4 100 ns/KB. The `crypto_seal` bench of
//! `mely-bench` reproduces the ratio and fails above 0.85.
//!
//! # Examples
//!
//! ```
//! use mely_crypto::{open, seal, Mac, SessionKey, StreamCipher};
//!
//! let key = SessionKey::from_seed(42);
//! let mut buf = b"hello, secure world".to_vec();
//! let tag = Mac::new(&key).compute(&buf);
//!
//! StreamCipher::new(&key, 7).apply(&mut buf);
//! assert_ne!(&buf, b"hello, secure world");
//! StreamCipher::new(&key, 7).apply(&mut buf);
//! assert_eq!(&buf, b"hello, secure world");
//! assert!(Mac::new(&key).verify(&buf, tag));
//!
//! let tag = seal(&key, 7, &mut buf);
//! assert!(open(&key, 7, &mut buf, tag));
//! assert_eq!(&buf, b"hello, secure world");
//! ```

/// A 256-bit session key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionKey {
    words: [u32; 8],
}

impl SessionKey {
    /// Derives a key deterministically from a seed (clients and server
    /// share seeds per session in the SFS workload).
    pub fn from_seed(seed: u64) -> Self {
        let mut words = [0u32; 8];
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for w in &mut words {
            // splitmix64 expansion.
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *w = (z ^ (z >> 31)) as u32;
        }
        SessionKey { words }
    }

    /// The raw key words.
    pub fn words(&self) -> &[u32; 8] {
        &self.words
    }
}

const DOUBLE_ROUNDS: usize = 10;

/// The 16-word ChaCha state.
type State = [u32; 16];

/// Starting value of the MAC accumulator, before the message length is
/// folded in.
const MAC_IV: u64 = 0x5851_F42D_4C95_7F2D;

#[inline(always)]
fn init(key: &SessionKey, nonce: u64, counter: u64) -> State {
    let k = &key.words;
    [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        k[0],
        k[1],
        k[2],
        k[3],
        k[4],
        k[5],
        k[6],
        k[7],
        counter as u32,
        (counter >> 32) as u32,
        nonce as u32,
        (nonce >> 32) as u32,
    ]
}

#[inline(always)]
fn quarter_round(s: &mut State, a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// One column round and one diagonal round.
#[inline(always)]
fn double_round(s: &mut State) {
    quarter_round(s, 0, 4, 8, 12);
    quarter_round(s, 1, 5, 9, 13);
    quarter_round(s, 2, 6, 10, 14);
    quarter_round(s, 3, 7, 11, 15);
    quarter_round(s, 0, 5, 10, 15);
    quarter_round(s, 1, 6, 11, 12);
    quarter_round(s, 2, 7, 8, 13);
    quarter_round(s, 3, 4, 9, 14);
}

/// The feed-forward that turns the rounds' output into a 64-byte
/// keystream block.
#[inline(always)]
fn finish(s: &State, initial: &State) -> [u8; 64] {
    let mut out = [0; 64];
    for ((o, w), i) in out.chunks_exact_mut(4).zip(s).zip(initial) {
        o.copy_from_slice(&w.wrapping_add(*i).to_le_bytes());
    }
    out
}

/// One keystream block (ChaCha20-style ARX core).
fn block(key: &SessionKey, nonce: u64, counter: u64) -> [u8; 64] {
    let initial = init(key, nonce, counter);
    let mut s = initial;
    for _ in 0..DOUBLE_ROUNDS {
        double_round(&mut s);
    }
    finish(&s, &initial)
}

/// One step of the MAC's per-chunk chain.
#[inline(always)]
fn mix(m: u64, x: u8) -> u64 {
    m.rotate_left(7)
        .wrapping_add(x as u64)
        .wrapping_mul(0x100_0000_01B3)
}

/// The tag: the accumulator squeezed through one more block.
fn squeeze(key: &SessionKey, acc: u64, counter: u64) -> Tag {
    let fin = block(key, acc, counter);
    u64::from_le_bytes(fin[..8].try_into().expect("block is 64 bytes"))
}

/// A ChaCha20-style stream cipher: XORs the keystream over a buffer.
/// Encryption and decryption are the same operation.
#[derive(Debug, Clone)]
pub struct StreamCipher {
    key: SessionKey,
    nonce: u64,
}

impl StreamCipher {
    /// Creates a cipher for `key` and a per-message `nonce`.
    pub fn new(key: &SessionKey, nonce: u64) -> Self {
        StreamCipher { key: *key, nonce }
    }

    /// Encrypts/decrypts `buf` in place, starting at keystream block 0.
    pub fn apply(&self, buf: &mut [u8]) {
        self.apply_at(buf, 0);
    }

    /// Encrypts/decrypts `buf` in place as if it started `offset` bytes
    /// into the message (for chunked processing).
    pub fn apply_at(&self, buf: &mut [u8], offset: u64) {
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = offset + pos as u64;
            let in_block = (abs % 64) as usize;
            let ks = block(&self.key, self.nonce, abs / 64);
            let n = (64 - in_block).min(buf.len() - pos);
            for (b, k) in buf[pos..pos + n].iter_mut().zip(&ks[in_block..]) {
                *b ^= k;
            }
            pos += n;
        }
    }
}

/// A MAC tag.
pub type Tag = u64;

/// A keyed MAC built from the same ARX core in a sponge-like mode: the
/// message is absorbed block-wise and the final state is squeezed into a
/// 64-bit tag.
#[derive(Debug, Clone)]
pub struct Mac {
    key: SessionKey,
}

impl Mac {
    /// Creates a MAC instance for `key`.
    pub fn new(key: &SessionKey) -> Self {
        Mac { key: *key }
    }

    /// Computes the tag of `data`.
    pub fn compute(&self, data: &[u8]) -> Tag {
        let mut acc = MAC_IV ^ data.len() as u64;
        let mut counter = 0;
        for chunk in data.chunks(64) {
            let ks = block(&self.key, acc, counter);
            let mut m = 0;
            for (b, k) in chunk.iter().zip(ks) {
                m = mix(m, b ^ k);
            }
            acc ^= m;
            counter += 1;
        }
        squeeze(&self.key, acc, counter)
    }

    /// Verifies `data` against `tag`.
    pub fn verify(&self, data: &[u8], tag: Tag) -> bool {
        self.compute(data) == tag
    }
}

/// Encrypts `buf` in place under `(key, nonce)` and returns the MAC tag
/// of the ciphertext: what `StreamCipher::new(key, nonce).apply(buf)`
/// followed by `Mac::new(key).compute(buf)` return, in one pass.
pub fn seal(key: &SessionKey, nonce: u64, buf: &mut [u8]) -> Tag {
    fused::<false>(key, nonce, buf)
}

/// The receiving end of [`seal`]: checks `tag` over the ciphertext in
/// `buf` and decrypts `buf` in place, in one pass. The buffer is
/// decrypted whatever the verdict, exactly as `Mac::verify` followed by
/// `StreamCipher::apply` would leave it.
pub fn open(key: &SessionKey, nonce: u64, buf: &mut [u8], tag: Tag) -> bool {
    fused::<true>(key, nonce, buf) == tag
}

/// XORs the cipher keystream over `buf` and MACs the ciphertext — the
/// bytes written when sealing, the bytes read when opening — one 64-byte
/// chunk at a time. Cipher block `i + 1` is computed during chunk `i`'s
/// MAC chain, its double rounds spread over the chain's eight-byte
/// groups. The partial last chunk, if any, has no next block to hide.
#[inline(always)]
fn fused<const OPEN: bool>(key: &SessionKey, nonce: u64, buf: &mut [u8]) -> Tag {
    let mut acc = MAC_IV ^ buf.len() as u64;
    let mut cipher = block(key, nonce, 0);
    let mut counter = 0;
    let mut chunks = buf.chunks_exact_mut(64);
    for chunk in &mut chunks {
        let input = xor_chunk::<OPEN>(chunk, &cipher, &block(key, acc, counter));
        counter += 1;
        let initial = init(key, nonce, counter);
        let mut next = initial;
        let mut m = 0;
        for (g, group) in input.chunks_exact(8).enumerate() {
            // Ten double rounds over eight groups.
            double_round(&mut next);
            if g % 4 == 0 {
                double_round(&mut next);
            }
            for &x in group {
                m = mix(m, x);
            }
        }
        cipher = finish(&next, &initial);
        acc ^= m;
    }
    let rest = chunks.into_remainder();
    if !rest.is_empty() {
        let input = xor_chunk::<OPEN>(rest, &cipher, &block(key, acc, counter));
        counter += 1;
        acc ^= input[..rest.len()].iter().fold(0, |m, &x| mix(m, x));
    }
    squeeze(key, acc, counter)
}

/// XORs cipher keystream `cipher` over `chunk` and returns the MAC's
/// input: the ciphertext (read when opening, written when sealing)
/// XORed with MAC keystream `mac`.
#[inline(always)]
fn xor_chunk<const OPEN: bool>(chunk: &mut [u8], cipher: &[u8; 64], mac: &[u8; 64]) -> [u8; 64] {
    let mut input = [0; 64];
    for (((b, i), c), k) in chunk.iter_mut().zip(&mut input).zip(cipher).zip(mac) {
        let x = *b;
        *b ^= c;
        *i = if OPEN { x } else { *b } ^ k;
    }
    input
}

/// Rough cost model: cycles per encrypted/MACed byte, used by the
/// simulation executor to charge virtual time for crypto work. With the
/// paper's SFS profile (coarse-grain handlers, ~1200 Kcycles of stolen
/// work per set) this matches ~50 KB processed per handler invocation.
pub const CYCLES_PER_BYTE: u64 = 12;

/// Virtual cycles to encrypt + MAC `len` bytes (simulation accounting).
///
/// This is the paper machine's declared cost, not this crate's measured
/// one, and it stays two walks of the data although [`seal`] makes one:
/// the simulated figures are the paper's, and every golden rests on
/// them. Calibrating the simulator to a measured host is a separate
/// machine model (ROADMAP item 6), not a change to this one.
pub fn crypto_cost_cycles(len: u64) -> u64 {
    // Encrypt + MAC both walk the data once.
    2 * CYCLES_PER_BYTE * len + 2_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_lengths() {
        let key = SessionKey::from_seed(1);
        for len in [0usize, 1, 63, 64, 65, 500, 4096] {
            let mut buf: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let orig = buf.clone();
            StreamCipher::new(&key, 9).apply(&mut buf);
            if len > 0 {
                assert_ne!(buf, orig, "len {len} must change");
            }
            StreamCipher::new(&key, 9).apply(&mut buf);
            assert_eq!(buf, orig, "len {len} must round-trip");
        }
    }

    #[test]
    fn chunked_equals_whole() {
        let key = SessionKey::from_seed(2);
        let mut whole: Vec<u8> = (0..1000).map(|i| (i * 7) as u8).collect();
        let mut chunked = whole.clone();
        StreamCipher::new(&key, 5).apply(&mut whole);
        let c = StreamCipher::new(&key, 5);
        c.apply_at(&mut chunked[..100], 0);
        c.apply_at(&mut chunked[100..777], 100);
        c.apply_at(&mut chunked[777..], 777);
        assert_eq!(whole, chunked);
    }

    #[test]
    fn different_keys_and_nonces_differ() {
        let k1 = SessionKey::from_seed(1);
        let k2 = SessionKey::from_seed(2);
        let msg = vec![0u8; 64];
        let enc = |k: &SessionKey, n: u64| {
            let mut b = msg.clone();
            StreamCipher::new(k, n).apply(&mut b);
            b
        };
        assert_ne!(enc(&k1, 0), enc(&k2, 0));
        assert_ne!(enc(&k1, 0), enc(&k1, 1));
    }

    #[test]
    fn keystream_is_not_trivially_biased() {
        let key = SessionKey::from_seed(3);
        let mut buf = vec![0u8; 4096];
        StreamCipher::new(&key, 0).apply(&mut buf);
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        let total = 4096 * 8;
        let ratio = ones as f64 / total as f64;
        assert!((0.47..0.53).contains(&ratio), "bit ratio {ratio}");
    }

    #[test]
    fn mac_detects_tampering() {
        let key = SessionKey::from_seed(4);
        let mac = Mac::new(&key);
        let mut data = b"the quick brown fox".to_vec();
        let tag = mac.compute(&data);
        assert!(mac.verify(&data, tag));
        data[3] ^= 1;
        assert!(!mac.verify(&data, tag));
        data[3] ^= 1;
        assert!(mac.verify(&data, tag));
        assert!(!mac.verify(&data[..data.len() - 1], tag));
    }

    #[test]
    fn mac_differs_per_key() {
        let data = b"payload";
        let t1 = Mac::new(&SessionKey::from_seed(1)).compute(data);
        let t2 = Mac::new(&SessionKey::from_seed(2)).compute(data);
        assert_ne!(t1, t2);
    }

    #[test]
    fn mac_is_deterministic() {
        let key = SessionKey::from_seed(9);
        let data = vec![7u8; 300];
        assert_eq!(Mac::new(&key).compute(&data), Mac::new(&key).compute(&data));
    }

    /// `(seed, nonce, len, tag, FNV-1a of the ciphertext)` of
    /// `(i * 31 + 7) as u8` plaintexts, captured from the two-pass
    /// `StreamCipher::apply` + `Mac::compute` before `seal` existed.
    const KNOWN_ANSWERS: [(u64, u64, usize, Tag, u64); 28] = [
        (0, 0, 0, 0x6c05b2fd9dd5cff0, 0xcbf29ce484222325),
        (0, 0, 1, 0x9f96ac3912086341, 0xaf64064c860233ea),
        (0, 0, 63, 0x3d530f6be3830738, 0x60779e48da2c76f1),
        (0, 0, 64, 0x8fe1285cf827429c, 0x17b815cab98cb860),
        (0, 0, 65, 0x55e2c2069b760709, 0xda85b0794a1dc72b),
        (0, 0, 4096, 0xe6b66d8b69da719b, 0x160a4df178be672b),
        (0, 0, 8192, 0xf0a7df41fbd20328, 0x1cbba7f1a2f77519),
        (0, 8192, 0, 0x6c05b2fd9dd5cff0, 0xcbf29ce484222325),
        (0, 8192, 1, 0x3b05870aefa02d83, 0xaf64014c86022b6b),
        (0, 8192, 63, 0x6db073e7f3e8fd43, 0xfcfb22b91592388c),
        (0, 8192, 64, 0x439b036f03549f04, 0x70f42d7fa7757477),
        (0, 8192, 65, 0xbdd368b96d59cd93, 0x645dd0e98c94f733),
        (0, 8192, 4096, 0xab6316dedf6294b4, 0x71120e4ecfcd13ac),
        (0, 8192, 8192, 0xaa8204b250e9f663, 0x9df40afd872d2441),
        (7, 0, 0, 0x24f5e433865262ff, 0xcbf29ce484222325),
        (7, 0, 1, 0xdeca5fb0d6e226dc, 0xaf64814c860304eb),
        (7, 0, 63, 0x454879886406e168, 0xa1894aa6a4d8e917),
        (7, 0, 64, 0x2700b9b079fc48b7, 0x5533462a1c94a437),
        (7, 0, 65, 0x66e6debe8ccd87ec, 0x5ac4ba8e90938733),
        (7, 0, 4096, 0x1b555d4e787f16b2, 0x6e8fa99e644c0497),
        (7, 0, 8192, 0xad5eaaff0f22c977, 0x4f9f01d720bd0fab),
        (7, 8192, 0, 0x24f5e433865262ff, 0xcbf29ce484222325),
        (7, 8192, 1, 0x95e25fe9b856784f, 0xaf63ff4c86022805),
        (7, 8192, 63, 0xa9efb5f28d7f0729, 0xa343077b37d613f6),
        (7, 8192, 64, 0xc6176b68995e2fdf, 0x40f96d5fe0c37ff5),
        (7, 8192, 65, 0x0b6fb5091cad2c2e, 0x2b541deaec31408c),
        (7, 8192, 4096, 0xd9d79d85d371cf32, 0x9403035ea5d4dcf8),
        (7, 8192, 8192, 0x86122736e1087a5e, 0xa7e87308ceca875a),
    ];

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn known_answers_hold_for_both_paths() {
        for (seed, nonce, len, tag, ct) in KNOWN_ANSWERS {
            let key = SessionKey::from_seed(seed);
            let plain: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let case = format!("seed {seed} nonce {nonce} len {len}");

            let mut two_pass = plain.clone();
            StreamCipher::new(&key, nonce).apply(&mut two_pass);
            assert_eq!(fnv1a(&two_pass), ct, "apply: {case}");
            assert_eq!(Mac::new(&key).compute(&two_pass), tag, "compute: {case}");

            let mut fused = plain.clone();
            assert_eq!(seal(&key, nonce, &mut fused), tag, "seal: {case}");
            assert_eq!(fused, two_pass, "seal: {case}");
            assert!(open(&key, nonce, &mut fused, tag), "open: {case}");
            assert_eq!(fused, plain, "open: {case}");
            assert!(!open(&key, nonce, &mut two_pass, tag ^ 1), "open: {case}");
            assert_eq!(
                two_pass, plain,
                "open decrypts whatever the verdict: {case}"
            );
        }
    }

    #[test]
    fn cost_model_is_linear() {
        assert!(crypto_cost_cycles(200_000) > crypto_cost_cycles(1_000));
        assert_eq!(
            crypto_cost_cycles(100) - crypto_cost_cycles(0),
            2 * CYCLES_PER_BYTE * 100
        );
    }

    #[test]
    fn key_from_seed_deterministic_and_spread() {
        assert_eq!(SessionKey::from_seed(5), SessionKey::from_seed(5));
        assert_ne!(SessionKey::from_seed(5), SessionKey::from_seed(6));
        let w = SessionKey::from_seed(5);
        assert!(w.words().iter().any(|&x| x != 0));
    }
}
