//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! Implemented locally so the workspace carries no external cryptography
//! dependency; correctness is checked against the published NIST test vectors
//! in the unit tests below, on the hardware path and on the portable one.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots of
/// the first 64 primes.
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Computes the SHA-256 digest of `data`.
///
/// # Example
///
/// ```
/// let digest = bamboo_crypto::sha256(b"abc");
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(bytes: &[u8]) -> String {
///     bytes.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Incremental SHA-256 hasher.
///
/// Supports feeding data in multiple chunks via [`Sha256::update`] before
/// producing the digest with [`Sha256::finalize`].
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total number of message bytes processed so far.
    total_len: u64,
    /// Never take the hardware path ([`Sha256::portable`]).
    portable: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
            portable: false,
        }
    }

    /// A hasher that stays on the portable rounds even where the CPU has SHA
    /// extensions. Digests are identical to [`Sha256::new`]'s; this is the
    /// reference the hardware path is tested and timed against.
    pub fn portable() -> Self {
        Self {
            portable: true,
            ..Self::new()
        }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially filled buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                compress(&mut self.state, &self.buffer, self.portable);
                self.buffer_len = 0;
            }
        }

        // Compress full blocks straight from the input slice — no staging
        // copy into a temporary array, one call for the whole run.
        let (blocks, rest) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks, self.portable);
        }
        input = rest;

        // Buffer the remainder.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);

        // Append the 0x80 terminator.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        // Number of zero bytes so that (buffered + 1 + zeros + 8) % 64 == 0.
        let pad_len = if self.buffer_len < 56 {
            56 - self.buffer_len
        } else {
            120 - self.buffer_len
        };
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update_padding(&pad[..pad_len + 8]);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Like `update` but does not count towards the message length (used only
    /// for the final padding).
    fn update_padding(&mut self, data: &[u8]) {
        let total = self.total_len;
        self.update(data);
        self.total_len = total;
    }
}

/// Compresses every 64-byte block of `blocks` into `state` — the one
/// compression function behind every digest in the workspace. It runs on the
/// CPU's SHA extensions when the host has them and on the portable rounds
/// otherwise (or when `portable` asks for them); the two paths are the same
/// function of their inputs, so no digest depends on the host.
///
/// A free function (rather than a method) so callers can borrow the hasher's
/// buffer and state disjointly and compress without staging a copy. The
/// feature test is one cached-flag load per call, and a call covers every
/// whole block of an `update`, not one block.
#[allow(unsafe_code)]
fn compress(state: &mut [u32; 8], blocks: &[u8], portable: bool) {
    #[cfg(target_arch = "x86_64")]
    if !portable
        && std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse2")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `compress_sha_ni` is a safe function whose only requirement
        // is that the CPU supports the `sha`, `sse2`, `ssse3` and `sse4.1`
        // target features it is compiled with, and the four
        // `is_x86_feature_detected!` tests on this same path have just
        // confirmed each of them. It takes no pointers.
        unsafe { compress_sha_ni(state, blocks) };
        return;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = portable;
    compress_portable(state, blocks);
}

/// The hardware path: two rounds per `sha256rnds2`, message schedule by
/// `sha256msg1`/`sha256msg2`. Written with the pointer-free intrinsics only —
/// words enter through `u32::from_be_bytes` and leave through
/// `_mm_extract_epi32` — so the body is safe code; calling it is `unsafe`
/// only because the CPU must have the features (see [`compress`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    // Four words into one register, lane 0 first.
    macro_rules! lanes {
        ($w:expr, $at:expr) => {
            _mm_set_epi32(
                $w[$at + 3] as i32,
                $w[$at + 2] as i32,
                $w[$at + 1] as i32,
                $w[$at] as i32,
            )
        };
    }
    // The instruction's register layout: (f, e, b, a) and (h, g, d, c).
    let [a, b, c, d, e, f, g, h] = *state;
    let mut abef = lanes!([f, e, b, a], 0);
    let mut cdgh = lanes!([h, g, d, c], 0);

    // Rounds 4i..4i+4 over schedule words `$w`.
    macro_rules! rounds4 {
        ($w:expr, $i:expr) => {
            let wk = _mm_add_epi32($w, lanes!(K, 4 * $i));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
        };
    }
    // The next four schedule words from the last sixteen:
    // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16].
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut words = [0u32; 16];
        for (word, bytes) in words.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let mut w0 = lanes!(words, 0);
        let mut w1 = lanes!(words, 4);
        let mut w2 = lanes!(words, 8);
        let mut w3 = lanes!(words, 12);
        rounds4!(w0, 0);
        rounds4!(w1, 1);
        rounds4!(w2, 2);
        rounds4!(w3, 3);
        for i in [4, 8, 12] {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(w0, i);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(w1, i + 1);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(w2, i + 2);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32(abef, 3) as u32,
        _mm_extract_epi32(abef, 2) as u32,
        _mm_extract_epi32(cdgh, 3) as u32,
        _mm_extract_epi32(cdgh, 2) as u32,
        _mm_extract_epi32(abef, 1) as u32,
        _mm_extract_epi32(abef, 0) as u32,
        _mm_extract_epi32(cdgh, 1) as u32,
        _mm_extract_epi32(cdgh, 0) as u32,
    ];
}

/// The portable path (FIPS 180-4 §6.2.2 as written), one block at a time:
/// the only path on a CPU without SHA extensions, and the reference the
/// hardware path is tested against.
pub(crate) fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress_block_portable(state, block);
    }
}

fn compress_block_portable(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);

        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_input_matches_nist_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_matches_nist_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message_matches_nist_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_message_matches_nist_vector() {
        // One million repetitions of 'a'.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_update_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let expected = sha256(&data);
        // Feed in irregular chunk sizes.
        let mut hasher = Sha256::new();
        let mut offset = 0usize;
        let mut chunk = 1usize;
        while offset < data.len() {
            let end = (offset + chunk).min(data.len());
            hasher.update(&data[offset..end]);
            offset = end;
            chunk = (chunk * 3 + 1) % 97 + 1;
        }
        assert_eq!(hasher.finalize(), expected);
    }

    /// One-shot digest on the portable rounds only.
    fn sha256_portable(data: &[u8]) -> [u8; 32] {
        let mut hasher = Sha256::portable();
        hasher.update(data);
        hasher.finalize()
    }

    #[test]
    fn hardware_and_portable_paths_give_equal_digests() {
        #[cfg(target_arch = "x86_64")]
        let hardware = std::arch::is_x86_feature_detected!("sha");
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        // Said out loud (`--nocapture`) so a green run on a SHA-less host is
        // not read as a check of the kernel.
        if hardware {
            println!("sha256: comparing the SHA-NI kernel with the portable rounds");
        } else {
            println!("sha256: no SHA extensions on this host — only the portable path ran");
        }

        // The dispatching `compress` against `compress_portable`, block by
        // block, from a state that is not the initial one.
        let block: Vec<u8> = (0..192u32).map(|i| (i * 151 + 17) as u8).collect();
        let (mut dispatched, mut reference) = (H0, H0);
        for blocks in [&block[..64], &block[..], &block[64..]] {
            compress(&mut dispatched, blocks, false);
            compress_portable(&mut reference, blocks);
            assert_eq!(dispatched, reference);
        }

        // The four NIST vectors on the portable path (the tests above hold
        // the dispatching path to the same four).
        let million_a = vec![b'a'; 1_000_000];
        for (message, digest) in [
            (
                &b""[..],
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ] {
            assert_eq!(hex(&sha256_portable(message)), digest);
        }

        // Every length across four blocks and every padding shape.
        let data: Vec<u8> = (0..257u32).map(|i| (i * 89 + 3) as u8).collect();
        for len in 0..=257 {
            assert_eq!(
                sha256(&data[..len]),
                sha256_portable(&data[..len]),
                "len {len}"
            );
        }

        // 1 MiB streamed in pseudo-random split sizes (xorshift, fixed seed)
        // against the portable one-shot.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let stream: Vec<u8> = (0..1 << 20).map(|_| next() as u8).collect();
        let mut hasher = Sha256::new();
        let mut rest = &stream[..];
        while !rest.is_empty() {
            let take = (next() % 300) as usize % rest.len() + 1;
            hasher.update(&rest[..take]);
            rest = &rest[take..];
        }
        assert_eq!(hasher.finalize(), sha256_portable(&stream));
    }

    #[test]
    fn boundary_lengths_are_padded_correctly() {
        // Messages around the 55/56/63/64 byte padding boundaries.
        for len in [
            0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129,
        ] {
            let data = vec![0xabu8; len];
            let one_shot = sha256(&data);
            let mut hasher = Sha256::new();
            for byte in &data {
                hasher.update(std::slice::from_ref(byte));
            }
            assert_eq!(hasher.finalize(), one_shot, "length {len}");
        }
    }
}
