//! Seeded input generation: the program under test sees only what this
//! module produces from `--seed`.
//!
//! Two things vary with the seed: the payload bytes of every message
//! and the order of the `mixed_qos` bulk burst sizes.  Op *counts* and
//! byte *totals* do not — burst sizes come in shuffled blocks that hold
//! every size once, so every seed sends the same messages and bytes per
//! block and runs stay comparable across seeds.

/// SplitMix64: small, seedable, good enough to decorrelate payloads.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Bytes of the sequence number that lead every payload.
pub const SEQ_BYTES: usize = 8;

/// Payload writer and checker for one flow.
///
/// A payload is its little-endian sequence number followed by a window
/// of a seed-derived random block whose start depends on the sequence
/// number, so filling and checking are one `memcpy`/`memcmp` each (the
/// harness must stay small next to an 8 KiB message's ~4 µs budget)
/// while any flipped byte, and any payload delivered under the wrong
/// sequence number, still mismatches.
#[derive(Debug, Clone)]
pub struct PayloadGen {
    block: Vec<u8>,
    max_len: usize,
}

impl PayloadGen {
    /// A generator for payloads of up to `max_len` bytes.  `flow`
    /// separates the flows of one run so a message delivered to the
    /// wrong channel fails its check.
    pub fn new(seed: u64, flow: u64, max_len: usize) -> Self {
        assert!(
            max_len >= SEQ_BYTES,
            "payload must hold its sequence number"
        );
        let mut rng = SplitMix64::new(seed ^ flow.wrapping_mul(0xA076_1D64_78BD_642F));
        let mut block = vec![0u8; 2 * max_len];
        for chunk in block.chunks_mut(8) {
            let word = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self { block, max_len }
    }

    fn window(&self, seq: u64, len: usize) -> &[u8] {
        let start = (seq.wrapping_mul(8) % self.max_len as u64) as usize;
        &self.block[start..start + len]
    }

    /// Writes message `seq` into `buf` (whose length is the payload
    /// length).
    pub fn fill(&self, seq: u64, buf: &mut [u8]) {
        let (head, body) = buf.split_at_mut(SEQ_BYTES);
        head.copy_from_slice(&seq.to_le_bytes());
        body.copy_from_slice(self.window(seq, body.len()));
    }

    /// Whether `buf` is exactly message `seq`.
    pub fn check(&self, seq: u64, buf: &[u8]) -> bool {
        buf.len() >= SEQ_BYTES
            && buf.len() <= self.max_len
            && buf[..SEQ_BYTES] == seq.to_le_bytes()
            && buf[SEQ_BYTES..] == *self.window(seq, buf.len() - SEQ_BYTES)
    }
}

/// Smallest and largest `mixed_qos` bulk burst.
pub const BURST_MIN: usize = 8;
pub const BURST_MAX: usize = 24;
/// Rounds after which every burst size has been used exactly once.
pub const BURST_BLOCK: usize = BURST_MAX - BURST_MIN + 1;

/// Seeded bulk burst sizes: blocks of [`BURST_BLOCK`] rounds, each a
/// seed-dependent shuffle of `BURST_MIN..=BURST_MAX`.  Any whole number
/// of blocks therefore carries the same messages whatever the seed —
/// which is what lets equal-sized slices of a run be compared with each
/// other, and runs with different seeds be compared at all.
#[derive(Debug, Clone)]
pub struct BurstGen {
    rng: SplitMix64,
    block: [usize; BURST_BLOCK],
    next: usize,
}

impl BurstGen {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ 0x6275_7273_7473),
            block: core::array::from_fn(|i| BURST_MIN + i),
            next: BURST_BLOCK,
        }
    }

    pub fn next_burst(&mut self) -> usize {
        if self.next == BURST_BLOCK {
            // Fisher–Yates.
            for i in (1..BURST_BLOCK).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.block.swap(i, j);
            }
            self.next = 0;
        }
        let n = self.block[self.next];
        self.next += 1;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The op stream of `rounds` mixed_qos rounds: per round the burst
    /// size and a digest of every payload the round would send.
    fn op_stream(seed: u64, rounds: usize) -> (Vec<(usize, u64)>, usize, usize) {
        let bulk = PayloadGen::new(seed, 2, 1024);
        let crit = PayloadGen::new(seed, 1, 64);
        let mut bursts = BurstGen::new(seed);
        let (mut ops, mut bytes, mut seq) = (0, 0, 0u64);
        let mut stream = Vec::new();
        let mut buf = vec![0u8; 1024];
        for round in 0..rounds {
            let n = bursts.next_burst();
            let mut digest = 0u64;
            for _ in 0..n {
                bulk.fill(seq, &mut buf);
                digest = buf
                    .iter()
                    .fold(digest, |d, b| d.rotate_left(5) ^ u64::from(*b));
                seq += 1;
                ops += 1;
                bytes += buf.len();
            }
            crit.fill(round as u64, &mut buf[..64]);
            digest = buf[..64]
                .iter()
                .fold(digest, |d, b| d.rotate_left(5) ^ u64::from(*b));
            ops += 1;
            bytes += 64;
            stream.push((n, digest));
        }
        (stream, ops, bytes)
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(
            op_stream(7, 15 * BURST_BLOCK),
            op_stream(7, 15 * BURST_BLOCK)
        );
    }

    #[test]
    fn different_seed_different_stream_same_totals() {
        let (a, a_ops, a_bytes) = op_stream(7, 15 * BURST_BLOCK);
        let (b, b_ops, b_bytes) = op_stream(8, 15 * BURST_BLOCK);
        assert_ne!(a, b, "payloads and burst sizes follow the seed");
        assert_ne!(
            a.iter().map(|r| r.0).collect::<Vec<_>>(),
            b.iter().map(|r| r.0).collect::<Vec<_>>(),
            "burst sizes follow the seed"
        );
        assert_eq!((a_ops, a_bytes), (b_ops, b_bytes));
    }

    #[test]
    fn every_block_holds_every_burst_size_once() {
        let mut g = BurstGen::new(99);
        let mut orders = Vec::new();
        for _ in 0..50 {
            let block: Vec<usize> = (0..BURST_BLOCK).map(|_| g.next_burst()).collect();
            let mut sorted = block.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (BURST_MIN..=BURST_MAX).collect::<Vec<_>>());
            orders.push(block);
        }
        orders.dedup();
        assert!(orders.len() > 40, "blocks are shuffled afresh");
    }

    #[test]
    fn check_rejects_a_flipped_byte_a_wrong_seq_and_a_wrong_flow() {
        let g = PayloadGen::new(3, 1, 8192);
        let mut buf = vec![0u8; 8192];
        g.fill(41, &mut buf);
        assert!(g.check(41, &buf));
        assert!(!g.check(42, &buf), "right bytes, wrong sequence number");
        assert!(!PayloadGen::new(3, 2, 8192).check(41, &buf), "wrong flow");
        for at in [0, 8, 4000, 8191] {
            buf[at] ^= 0x01;
            assert!(!g.check(41, &buf), "flipped byte {at} must be caught");
            buf[at] ^= 0x01;
        }
        assert!(!g.check(41, &buf[..4]), "truncated payload");
    }
}
