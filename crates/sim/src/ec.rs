//! GF(2^8) Reed-Solomon erasure coding for device arrays.
//!
//! A `k+m` code splits a stripe into `k` data shards and derives `m`
//! parity shards such that *any* `k` of the `k+m` shards reconstruct the
//! stripe; losing more than `m` shards makes the stripe unrecoverable.
//! That is the standard redundancy/overhead trade-off behind erasure-coded
//! storage tiers (a 4+2 geometry stores 50% overhead where 3-way
//! replication stores 200%).
//!
//! The implementation is deliberately textbook and std-only:
//!
//! * arithmetic in GF(2^8) with the AES-adjacent reduction polynomial
//!   `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), table-driven via log/exp tables
//!   built once per [`ReedSolomon`] instance;
//! * a **systematic Vandermonde** encoding matrix: the top `k` rows are
//!   the identity (data shards are stored verbatim), the bottom `m` rows
//!   are the Vandermonde extension normalised by the inverse of its top
//!   square — which keeps every `k × k` submatrix invertible, the MDS
//!   property that makes any-`k`-of-`k+m` reconstruction work;
//! * erasure-only decoding: callers state *which* shards are missing
//!   (device deaths are detected, not silent), the decoder inverts the
//!   surviving rows and re-derives the lost ones;
//! * fixed buffers: a stripe is a caller-owned slice of `[u8; N]` shards,
//!   and both directions write into it in place, so a caller that reuses
//!   its stripes and one [`DecodeScratch`] codes without allocating.
//!
//! Determinism: encoding and decoding are pure functions of their inputs;
//! no randomness, no floating point, no platform dependence.

/// The codec's shard ceiling: the field has only 255 nonzero points, so
/// a stripe spreads over at most 255 devices.
pub const MAX_SHARDS: usize = 255;

/// The codec's geometry rule: `k ≥ 1` data and `m ≥ 1` parity shards,
/// `k + m` at most [`MAX_SHARDS`].
pub fn check_geometry(k: usize, m: usize) -> Result<(), EcError> {
    if k == 0 || m == 0 || k.saturating_add(m) > MAX_SHARDS {
        return Err(EcError::BadGeometry { k, m });
    }
    Ok(())
}

/// Errors reported by [`ReedSolomon`] construction and decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcError {
    /// The geometry is invalid: `k` and `m` must both be at least 1 and
    /// `k + m` at most 255 (the field has only 255 nonzero points).
    BadGeometry {
        /// Requested data shards.
        k: usize,
        /// Requested parity shards.
        m: usize,
    },
    /// Fewer than `k` shards survive: the stripe is unrecoverable.
    NotEnoughShards {
        /// Shards still present.
        present: usize,
        /// Shards required.
        needed: usize,
    },
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EcError::BadGeometry { k, m } => {
                write!(
                    f,
                    "bad erasure-code geometry {k}+{m}: need k >= 1, m >= 1, k+m <= 255"
                )
            }
            EcError::NotEnoughShards { present, needed } => write!(
                f,
                "unrecoverable stripe: {present} shards present, {needed} needed"
            ),
        }
    }
}

impl std::error::Error for EcError {}

/// GF(2^8) log/exp tables over the 0x11d reduction polynomial.
#[derive(Clone)]
struct Gf256 {
    exp: [u8; 512],
    log: [u8; 256],
}

impl Gf256 {
    fn new() -> Self {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= 0x11d;
            }
        }
        // Duplicate the cycle so mul can index exp[log a + log b] without
        // a modulo.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Gf256 { exp, log }
    }

    #[inline]
    fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    #[inline]
    fn inv(&self, a: u8) -> u8 {
        debug_assert!(a != 0, "inverse of zero in GF(2^8)");
        self.exp[255 - self.log[a as usize] as usize]
    }

    #[cfg(test)]
    #[inline]
    fn div(&self, a: u8, b: u8) -> u8 {
        if a == 0 {
            0
        } else {
            self.mul(a, self.inv(b))
        }
    }

    /// alpha^e for the generator alpha = 2.
    #[inline]
    fn pow(&self, e: usize) -> u8 {
        self.exp[e % 255]
    }
}

/// A systematic `k+m` Reed-Solomon code over fixed-size shards.
///
/// A stripe is a slice of `k + m` shards of `N` bytes each, data shards
/// first. [`encode`](Self::encode) and [`reconstruct`](Self::reconstruct)
/// work in place on that slice: the caller owns every buffer, and once a
/// [`DecodeScratch`] has grown neither allocates.
///
/// # Examples
///
/// ```
/// use mobistore_sim::ec::{DecodeScratch, ReedSolomon};
///
/// let rs = ReedSolomon::new(4, 2).unwrap();
/// // Four data shards, then room for two parity shards.
/// let mut shards = [[0u8; 3]; 6];
/// for (i, shard) in (0u8..).zip(&mut shards[..4]) {
///     *shard = [i, i + 10, i + 20];
/// }
/// rs.encode(&mut shards);
/// let stripe = shards;
///
/// // Lose any two shards: bit `i` of `present` marks shard `i`, and the
/// // survivors rebuild the lost ones in place.
/// shards[1] = [0; 3];
/// shards[4] = [0; 3];
/// let present = [0b10_1101];
/// rs.reconstruct(&mut shards, &present, &mut DecodeScratch::default())
///     .unwrap();
/// assert_eq!(shards, stripe);
/// ```
#[derive(Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    gf: Gf256,
    /// The full `(k+m) × k` systematic encoding matrix, row-major: row
    /// `i` is `matrix[i * k..(i + 1) * k]`. Rows `0..k` are the identity;
    /// rows `k..k+m` derive parity.
    matrix: Vec<u8>,
}

/// Working memory for [`ReedSolomon::reconstruct`]: the decode matrix of
/// one loss pattern. A scratch reused across calls stops allocating once
/// it has grown to the code's `k × k`.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// The first `k` present shards' indices.
    survivors: Vec<usize>,
    /// Their rows of the encoding matrix, reduced to the identity.
    rows: Vec<u8>,
    /// The inverse of those rows.
    inv: Vec<u8>,
}

impl std::fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReedSolomon")
            .field("k", &self.k)
            .field("m", &self.m)
            .finish()
    }
}

/// Whether bit `i` of the word-packed bit set `bits` is set: bit `i % 64`
/// of `bits[i / 64]`, the layout of [`ReedSolomon::reconstruct`]'s
/// `present` shards.
#[inline]
pub fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 != 0
}

/// Sets bit `i` of the word-packed bit set `bits` (see [`bit`]) to `on`.
#[inline]
pub fn set_bit(bits: &mut [u64], i: usize, on: bool) {
    let mask = 1 << (i % 64);
    if on {
        bits[i / 64] |= mask;
    } else {
        bits[i / 64] &= !mask;
    }
}

impl ReedSolomon {
    /// Builds the code for a `k+m` geometry ([`check_geometry`]).
    pub fn new(k: usize, m: usize) -> Result<Self, EcError> {
        check_geometry(k, m)?;
        let gf = Gf256::new();
        // Vandermonde rows: V[i][j] = alpha^(i*j) for i in 0..k+m. Every
        // square submatrix of V built from distinct rows is invertible.
        let n = k + m;
        let mut vand = vec![0u8; n * k];
        for (i, row) in vand.chunks_exact_mut(k).enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = gf.pow(i * j);
            }
        }
        // Normalise to systematic form: M = V * inv(top k rows of V).
        // The top k rows become the identity; the bottom m rows keep the
        // any-k-invertible property because column operations preserve it.
        let mut top = vand[..k * k].to_vec();
        let mut top_inv = vec![0u8; k * k];
        assert!(
            invert(&gf, &mut top, &mut top_inv, k),
            "Vandermonde top square is invertible"
        );
        let mut matrix = vec![0u8; n * k];
        for (row, vrow) in matrix.chunks_exact_mut(k).zip(vand.chunks_exact(k)) {
            for (j, cell) in row.iter_mut().enumerate() {
                let mut acc = 0u8;
                for (l, &v) in vrow.iter().enumerate() {
                    acc ^= gf.mul(v, top_inv[l * k + j]);
                }
                *cell = acc;
            }
        }
        Ok(ReedSolomon { k, m, gf, matrix })
    }

    /// Data-shard count `k`.
    pub fn data_shards(&self) -> usize {
        self.k
    }

    /// Parity-shard count `m`.
    pub fn parity_shards(&self) -> usize {
        self.m
    }

    /// Total shard count `k + m`.
    pub fn total_shards(&self) -> usize {
        self.k + self.m
    }

    /// Row `i` of the encoding matrix.
    fn row(&self, i: usize) -> &[u8] {
        &self.matrix[i * self.k..(i + 1) * self.k]
    }

    /// Computes a stripe's parity in place: reads data shards `0..k` of
    /// `shards` and overwrites parity shards `k..k+m`.
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != k + m`.
    pub fn encode<const N: usize>(&self, shards: &mut [[u8; N]]) {
        assert_eq!(
            shards.len(),
            self.total_shards(),
            "encode expects k+m shards"
        );
        for p in 0..self.m {
            self.encode_parity(shards, p);
        }
    }

    /// Writes parity shard `k + p` from the data shards: the codec's one
    /// encoding kernel, which [`encode`](Self::encode) runs for every
    /// parity shard and [`reconstruct`](Self::reconstruct) for the
    /// missing ones.
    fn encode_parity<const N: usize>(&self, shards: &mut [[u8; N]], p: usize) {
        let (data, parity) = shards.split_at_mut(self.k);
        let mut acc = [0u8; N];
        for (src, &coeff) in data.iter().zip(self.row(self.k + p)) {
            for (a, &b) in acc.iter_mut().zip(src) {
                *a ^= self.gf.mul(coeff, b);
            }
        }
        parity[p] = acc;
    }

    /// Rebuilds in place every shard of `shards` that `present` marks
    /// missing, leaving the present shards as they are. Bit `i % 64` of
    /// `present[i / 64]` marks shard `i` present. The missing data shards
    /// are solved from the first `k` present shards, then the missing
    /// parity shards are re-encoded from the data.
    ///
    /// # Errors
    ///
    /// [`EcError::NotEnoughShards`] if fewer than `k` shards are present;
    /// `shards` is then left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != k + m` or `present` holds fewer than
    /// `k + m` bits.
    pub fn reconstruct<const N: usize>(
        &self,
        shards: &mut [[u8; N]],
        present: &[u64],
        scratch: &mut DecodeScratch,
    ) -> Result<(), EcError> {
        let (k, n) = (self.k, self.total_shards());
        assert_eq!(shards.len(), n, "reconstruct expects k+m shards");
        let DecodeScratch {
            survivors,
            rows,
            inv,
        } = scratch;
        survivors.clear();
        survivors.extend((0..n).filter(|&i| bit(present, i)));
        if survivors.len() == n {
            return Ok(());
        }
        if survivors.len() < k {
            return Err(EcError::NotEnoughShards {
                present: survivors.len(),
                needed: k,
            });
        }
        survivors.truncate(k);
        if (0..k).any(|j| !bit(present, j)) {
            // Invert the k surviving rows to express the data shards in
            // terms of the survivors: data[j] = sum_l inv[j][l] *
            // survivor[l].
            rows.clear();
            for &i in survivors.iter() {
                rows.extend_from_slice(self.row(i));
            }
            inv.resize(k * k, 0);
            assert!(
                invert(&self.gf, rows, inv, k),
                "any k rows of an MDS matrix are invertible"
            );
            for (j, inv_row) in inv.chunks_exact(k).enumerate() {
                if bit(present, j) {
                    continue;
                }
                let mut acc = [0u8; N];
                for (&coeff, &src) in inv_row.iter().zip(survivors.iter()) {
                    if coeff == 0 {
                        continue;
                    }
                    for (a, &b) in acc.iter_mut().zip(&shards[src]) {
                        *a ^= self.gf.mul(coeff, b);
                    }
                }
                shards[j] = acc;
            }
        }
        for p in 0..self.m {
            if !bit(present, k + p) {
                self.encode_parity(shards, p);
            }
        }
        Ok(())
    }

    /// Returns a nonzero data vector (length `k`) whose codeword is zero
    /// at every position in `survivors` — i.e. two stripes differing by
    /// this vector are indistinguishable to an observer holding only those
    /// shards. Exists whenever `survivors.len() < k`, which is the
    /// constructive proof that `k-1` shards cannot determine the stripe.
    pub fn ambiguity_witness(&self, survivors: &[usize]) -> Option<Vec<u8>> {
        if survivors.len() >= self.k {
            return None;
        }
        // Null space of the survivors' rows: solve rows * x = 0 for a
        // nonzero x via Gaussian elimination with a free variable.
        let mut rows: Vec<Vec<u8>> = survivors.iter().map(|&i| self.row(i).to_vec()).collect();
        let k = self.k;
        let mut pivot_of_col: Vec<Option<usize>> = vec![None; k];
        let mut r = 0;
        for c in 0..k {
            if r >= rows.len() {
                break;
            }
            if let Some(p) = (r..rows.len()).find(|&i| rows[i][c] != 0) {
                rows.swap(r, p);
                let inv = self.gf.inv(rows[r][c]);
                for cell in rows[r].iter_mut() {
                    *cell = self.gf.mul(*cell, inv);
                }
                for i in 0..rows.len() {
                    if i != r && rows[i][c] != 0 {
                        let f = rows[i][c];
                        // Indexing two rows of `rows` at once; an iterator
                        // over one would alias the other.
                        #[allow(clippy::needless_range_loop)]
                        for j in 0..k {
                            let sub = self.gf.mul(f, rows[r][j]);
                            rows[i][j] ^= sub;
                        }
                    }
                }
                pivot_of_col[c] = Some(r);
                r += 1;
            }
        }
        // Pick the first free column, set it to 1, back-substitute.
        let free = (0..k).find(|&c| pivot_of_col[c].is_none())?;
        let mut x = vec![0u8; k];
        x[free] = 1;
        for c in 0..k {
            if let Some(pr) = pivot_of_col[c] {
                // x[c] = -rows[pr][free] * x[free]; negation is identity
                // in characteristic 2.
                x[c] = self.gf.mul(rows[pr][free], 1);
            }
        }
        debug_assert!(x.iter().any(|&b| b != 0));
        Some(x)
    }

    /// Evaluates the codeword symbol at `position` for a one-byte-per-shard
    /// data vector (test/verification helper).
    pub fn codeword_symbol(&self, data: &[u8], position: usize) -> u8 {
        assert_eq!(data.len(), self.k);
        let row = self.row(position);
        let mut acc = 0u8;
        for (j, &d) in data.iter().enumerate() {
            acc ^= self.gf.mul(row[j], d);
        }
        acc
    }
}

/// Inverts the `n × n` row-major matrix `a` over GF(2^8) by Gauss-Jordan
/// elimination, reducing `a` to the identity and writing the inverse to
/// `inv` (both `n * n` long); false if `a` is singular.
fn invert(gf: &Gf256, a: &mut [u8], inv: &mut [u8], n: usize) -> bool {
    inv.fill(0);
    for i in 0..n {
        inv[i * n + i] = 1;
    }
    for col in 0..n {
        let Some(pivot) = (col..n).find(|&r| a[r * n + col] != 0) else {
            return false;
        };
        if pivot != col {
            for j in 0..n {
                a.swap(col * n + j, pivot * n + j);
                inv.swap(col * n + j, pivot * n + j);
            }
        }
        let p_inv = gf.inv(a[col * n + col]);
        for j in col * n..(col + 1) * n {
            a[j] = gf.mul(a[j], p_inv);
            inv[j] = gf.mul(inv[j], p_inv);
        }
        for r in 0..n {
            let f = a[r * n + col];
            if r != col && f != 0 {
                for j in 0..n {
                    a[r * n + j] ^= gf.mul(f, a[col * n + j]);
                    inv[r * n + j] ^= gf.mul(f, inv[col * n + j]);
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// A stripe of `k + m` shards: random data, then its encoded parity.
    fn random_stripe<const N: usize>(rng: &mut SimRng, rs: &ReedSolomon) -> Vec<[u8; N]> {
        let mut shards = vec![[0u8; N]; rs.total_shards()];
        for shard in &mut shards[..rs.data_shards()] {
            shard.fill_with(|| rng.next_u32() as u8);
        }
        rs.encode(&mut shards);
        shards
    }

    /// The presence bits of a stripe of `n` shards that lost `lost`.
    fn present(n: usize, lost: u32) -> [u64; 1] {
        [!u64::from(lost) & ((1 << n) - 1)]
    }

    /// Every subset of k survivors out of k+m reconstructs the stripe.
    #[test]
    fn any_k_of_n_reconstructs() {
        let mut rng = SimRng::seed_from_u64(1994);
        let mut scratch = DecodeScratch::default();
        for &(k, m) in &[(2usize, 1usize), (3, 2), (4, 2), (5, 3), (8, 2)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            let full = random_stripe::<24>(&mut rng, &rs);
            let n = k + m;
            // Iterate all loss masks of exactly m shards.
            for mask in 0u32..(1 << n) {
                if mask.count_ones() as usize != m {
                    continue;
                }
                let mut shards = full.clone();
                for (i, shard) in shards.iter_mut().enumerate() {
                    if mask & (1 << i) != 0 {
                        *shard = [0; 24];
                    }
                }
                rs.reconstruct(&mut shards, &present(n, mask), &mut scratch)
                    .unwrap_or_else(|e| {
                        panic!("{k}+{m} mask {mask:b}: {e}");
                    });
                assert_eq!(shards, full, "{k}+{m} mask {mask:b}");
            }
        }
    }

    /// Losing m+1 shards is detected as unrecoverable, never mis-decoded.
    #[test]
    fn more_than_m_losses_error() {
        let mut rng = SimRng::seed_from_u64(7);
        let rs = ReedSolomon::new(4, 2).unwrap();
        let mut shards = random_stripe::<8>(&mut rng, &rs);
        let before = shards.clone();
        assert_eq!(
            rs.reconstruct(
                &mut shards,
                &present(6, 0b10_0101),
                &mut DecodeScratch::default()
            ),
            Err(EcError::NotEnoughShards {
                present: 3,
                needed: 4
            })
        );
        assert_eq!(shards, before, "a refused decode writes nothing");
    }

    /// k-1 shards provably cannot determine the stripe: for every set of
    /// k-1 survivor positions there exist two *distinct* stripes whose
    /// codewords agree on all of them.
    #[test]
    fn k_minus_1_shards_are_information_theoretically_insufficient() {
        for &(k, m) in &[(2usize, 1usize), (4, 2), (3, 3)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            let n = k + m;
            for mask in 0u32..(1 << n) {
                if mask.count_ones() as usize != k - 1 {
                    continue;
                }
                let survivors: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
                let delta = rs
                    .ambiguity_witness(&survivors)
                    .expect("null vector must exist below k survivors");
                assert!(delta.iter().any(|&b| b != 0), "witness must be nonzero");
                // The witness codeword vanishes on every survivor: stripe
                // D and stripe D ^ delta are indistinguishable there.
                for &s in &survivors {
                    assert_eq!(
                        rs.codeword_symbol(&delta, s),
                        0,
                        "{k}+{m} survivors {survivors:?} position {s}"
                    );
                }
                // And it is a *different* codeword: some position differs.
                assert!(
                    (0..n).any(|p| rs.codeword_symbol(&delta, p) != 0),
                    "witness must change at least one shard"
                );
            }
        }
    }

    #[test]
    fn systematic_rows_are_identity() {
        let rs = ReedSolomon::new(5, 3).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(rs.row(i)[j], u8::from(i == j));
            }
        }
    }

    #[test]
    fn corrupted_survivor_changes_decode_output() {
        // Erasure decoding trusts the shards it is given: zeroing a
        // survivor yields *wrong* data, which is exactly what the array's
        // generation-tagged payloads (and the crashcheck oracle) detect.
        let mut rng = SimRng::seed_from_u64(3);
        let rs = ReedSolomon::new(3, 2).unwrap();
        let honest = random_stripe::<16>(&mut rng, &rs);
        let mut shards = honest.clone();
        shards[3] = [0; 16]; // surviving parity sabotaged
                             // Shard 0 (data) and shard 4 (parity) are lost, so the decode
                             // must lean on the sabotaged shard.
        rs.reconstruct(
            &mut shards,
            &present(5, 0b1_0001),
            &mut DecodeScratch::default(),
        )
        .unwrap();
        assert_ne!(
            shards[0], honest[0],
            "sabotage must corrupt the decode, not vanish silently"
        );
        assert_eq!(shards[3], [0; 16], "a present shard is never rewritten");
    }

    /// The stripe the encoding matrix makes of `data`, computed one
    /// schoolbook product at a time: shard `i`'s byte `t` is the sum over
    /// `j` of `matrix[i][j] · data[j][t]`, each product a carry-less
    /// multiply reduced by the field polynomial.
    fn schoolbook_stripe(rs: &ReedSolomon, data: &[[u8; 16]]) -> Vec<[u8; 16]> {
        (0..rs.total_shards())
            .map(|i| {
                let mut shard = [0u8; 16];
                for (t, byte) in shard.iter_mut().enumerate() {
                    for (j, src) in data.iter().enumerate() {
                        *byte ^= clmul_reduce(rs.row(i)[j], src[t]);
                    }
                }
                shard
            })
            .collect()
    }

    /// `encode` and `reconstruct` against the schoolbook product: random
    /// 16-byte shards, every erasure pattern of up to `m` losses rebuilt
    /// exactly (the lost shards start as garbage), and every pattern of
    /// `m + 1` losses refused without a byte written.
    #[test]
    fn encode_and_reconstruct_match_a_schoolbook_product() {
        let mut rng = SimRng::seed_from_u64(19);
        let mut scratch = DecodeScratch::default();
        for &(k, m) in &[(2usize, 1usize), (4, 2), (8, 2)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            let n = k + m;
            for trial in 0..4 {
                let mut stripe = vec![[0u8; 16]; n];
                for shard in &mut stripe {
                    shard.fill_with(|| rng.next_u32() as u8);
                }
                let want = schoolbook_stripe(&rs, &stripe[..k]);
                assert_eq!(want[..k], stripe[..k], "{k}+{m}: systematic rows");
                rs.encode(&mut stripe);
                assert_eq!(stripe, want, "{k}+{m} trial {trial}: encode");
                for mask in 1u32..(1 << n) {
                    let losses = mask.count_ones() as usize;
                    if losses > m + 1 {
                        continue;
                    }
                    let mut shards = want.clone();
                    for (i, shard) in shards.iter_mut().enumerate() {
                        if mask & (1 << i) != 0 {
                            shard.fill_with(|| rng.next_u32() as u8);
                        }
                    }
                    let garbage = shards.clone();
                    let res = rs.reconstruct(&mut shards, &present(n, mask), &mut scratch);
                    if losses <= m {
                        assert_eq!(res, Ok(()), "{k}+{m} mask {mask:b}");
                        assert_eq!(shards, want, "{k}+{m} trial {trial} mask {mask:b}");
                    } else {
                        assert!(res.is_err(), "{k}+{m} mask {mask:b}");
                        assert_eq!(shards, garbage, "{k}+{m} mask {mask:b}: refused");
                    }
                }
            }
        }
    }

    #[test]
    fn geometry_validation() {
        assert!(matches!(
            ReedSolomon::new(0, 2),
            Err(EcError::BadGeometry { .. })
        ));
        assert!(matches!(
            ReedSolomon::new(4, 0),
            Err(EcError::BadGeometry { .. })
        ));
        assert!(matches!(
            ReedSolomon::new(200, 100),
            Err(EcError::BadGeometry { .. })
        ));
        assert!(ReedSolomon::new(1, 254).is_ok());
        // A sum past usize is refused, not overflowed.
        assert_eq!(
            check_geometry(usize::MAX, 1),
            Err(EcError::BadGeometry {
                k: usize::MAX,
                m: 1
            })
        );
    }

    /// Schoolbook GF(2^8) product: the carry-less product of `a` and
    /// `b`, reduced modulo the field polynomial 0x11d bit by bit.
    fn clmul_reduce(a: u8, b: u8) -> u8 {
        let mut product = 0u16;
        for bit in 0..8 {
            if b & (1 << bit) != 0 {
                product ^= u16::from(a) << bit;
            }
        }
        for bit in (8..15).rev() {
            if product & (1 << bit) != 0 {
                product ^= 0x11d << (bit - 8);
            }
        }
        product as u8
    }

    #[test]
    fn gf_mul_and_inv_match_schoolbook_arithmetic() {
        let gf = Gf256::new();
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf.mul(a, b), clmul_reduce(a, b), "{a} * {b}");
            }
        }
        for a in 1..=255u8 {
            let inverses: Vec<u8> = (1..=255u8).filter(|&x| clmul_reduce(a, x) == 1).collect();
            assert_eq!(inverses, [gf.inv(a)], "inverse of {a}");
        }
    }

    #[test]
    fn gf_field_axioms_spot_check() {
        let gf = Gf256::new();
        for a in 1..=255u8 {
            assert_eq!(gf.mul(a, gf.inv(a)), 1, "a={a}");
            assert_eq!(gf.div(a, a), 1);
            assert_eq!(gf.mul(a, 1), a);
            assert_eq!(gf.mul(a, 0), 0);
        }
        // Distributivity spot check.
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..1000 {
            let (a, b, c) = (
                rng.next_u32() as u8,
                rng.next_u32() as u8,
                rng.next_u32() as u8,
            );
            assert_eq!(gf.mul(a, b ^ c), gf.mul(a, b) ^ gf.mul(a, c));
            assert_eq!(gf.mul(a, b), gf.mul(b, a));
        }
    }
}
