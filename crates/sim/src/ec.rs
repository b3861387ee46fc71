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
//!   surviving rows and re-derives the lost ones.
//!
//! Determinism: encoding and decoding are pure functions of their inputs;
//! no randomness, no floating point, no platform dependence.

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
    /// Shard slices disagree in length or a shard is empty.
    ShardSizeMismatch,
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
            EcError::ShardSizeMismatch => write!(f, "shards must be non-empty and equally sized"),
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
/// # Examples
///
/// ```
/// use mobistore_sim::ec::ReedSolomon;
///
/// let rs = ReedSolomon::new(4, 2).unwrap();
/// let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i, i + 10, i + 20]).collect();
/// let parity = rs.encode(&data.iter().map(|s| s.as_slice()).collect::<Vec<_>>());
///
/// // Lose any two shards; the survivors reconstruct the stripe.
/// let mut shards: Vec<Option<Vec<u8>>> =
///     data.iter().cloned().map(Some).chain(parity.into_iter().map(Some)).collect();
/// shards[1] = None;
/// shards[4] = None;
/// rs.reconstruct(&mut shards).unwrap();
/// assert_eq!(shards[1].as_deref(), Some(&data[1][..]));
/// ```
#[derive(Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    gf: Gf256,
    /// The full `(k+m) × k` systematic encoding matrix, row-major. Rows
    /// `0..k` are the identity; rows `k..k+m` derive parity.
    matrix: Vec<Vec<u8>>,
}

impl std::fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReedSolomon")
            .field("k", &self.k)
            .field("m", &self.m)
            .finish()
    }
}

impl ReedSolomon {
    /// Builds the code for a `k+m` geometry.
    pub fn new(k: usize, m: usize) -> Result<Self, EcError> {
        if k == 0 || m == 0 || k + m > 255 {
            return Err(EcError::BadGeometry { k, m });
        }
        let gf = Gf256::new();
        // Vandermonde rows: V[i][j] = alpha^(i*j) for i in 0..k+m. Every
        // square submatrix of V built from distinct rows is invertible.
        let n = k + m;
        let mut vand = vec![vec![0u8; k]; n];
        for (i, row) in vand.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = gf.pow(i * j);
            }
        }
        // Normalise to systematic form: M = V * inv(top k rows of V).
        // The top k rows become the identity; the bottom m rows keep the
        // any-k-invertible property because column operations preserve it.
        let top: Vec<Vec<u8>> = vand[..k].to_vec();
        let top_inv = invert(&gf, &top).expect("Vandermonde top square is invertible");
        let mut matrix = vec![vec![0u8; k]; n];
        for i in 0..n {
            for j in 0..k {
                let mut acc = 0u8;
                for (l, inv_row) in top_inv.iter().enumerate() {
                    acc ^= gf.mul(vand[i][l], inv_row[j]);
                }
                matrix[i][j] = acc;
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

    /// Encodes `k` equally-sized data shards into `m` parity shards.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != k` or the shards are not equally sized.
    pub fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "encode expects exactly k data shards");
        let len = data[0].len();
        assert!(
            data.iter().all(|s| s.len() == len),
            "data shards must be equally sized"
        );
        (0..self.m)
            .map(|p| {
                let row = &self.matrix[self.k + p];
                let mut shard = vec![0u8; len];
                for (j, src) in data.iter().enumerate() {
                    let coeff = row[j];
                    if coeff == 0 {
                        continue;
                    }
                    for (dst, &b) in shard.iter_mut().zip(src.iter()) {
                        *dst ^= self.gf.mul(coeff, b);
                    }
                }
                shard
            })
            .collect()
    }

    /// Reconstructs every missing shard in place. `shards` must have
    /// `k + m` entries; `None` marks an erased shard. On success every
    /// entry is `Some` and data shards carry their original bytes.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        assert_eq!(
            shards.len(),
            self.k + self.m,
            "reconstruct expects k+m shard slots"
        );
        let present: Vec<usize> = (0..shards.len()).filter(|&i| shards[i].is_some()).collect();
        if present.len() == shards.len() {
            return Ok(());
        }
        if present.len() < self.k {
            return Err(EcError::NotEnoughShards {
                present: present.len(),
                needed: self.k,
            });
        }
        let len = shards[present[0]].as_ref().expect("present").len();
        if len == 0
            || present
                .iter()
                .any(|&i| shards[i].as_ref().expect("present").len() != len)
        {
            return Err(EcError::ShardSizeMismatch);
        }

        // Invert the k surviving rows to express the data shards in terms
        // of the survivors.
        let rows: Vec<Vec<u8>> = present[..self.k]
            .iter()
            .map(|&i| self.matrix[i].clone())
            .collect();
        let inv = invert(&self.gf, &rows).expect("any k rows of an MDS matrix are invertible");

        // data[j] = sum_l inv[j][l] * survivor[l]
        let mut data: Vec<Vec<u8>> = Vec::with_capacity(self.k);
        for inv_row in &inv {
            let mut shard = vec![0u8; len];
            for (l, &src_idx) in present[..self.k].iter().enumerate() {
                let coeff = inv_row[l];
                if coeff == 0 {
                    continue;
                }
                let src = shards[src_idx].as_ref().expect("present");
                for (dst, &b) in shard.iter_mut().zip(src.iter()) {
                    *dst ^= self.gf.mul(coeff, b);
                }
            }
            data.push(shard);
        }

        // Fill missing data shards, then re-derive missing parity shards.
        let parity_needed: Vec<usize> = (self.k..self.k + self.m)
            .filter(|&i| shards[i].is_none())
            .collect();
        for i in 0..self.k {
            if shards[i].is_none() {
                shards[i] = Some(data[i].clone());
            }
        }
        if !parity_needed.is_empty() {
            let data_refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
            let parity = self.encode(&data_refs);
            for i in parity_needed {
                shards[i] = Some(parity[i - self.k].clone());
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
        let mut rows: Vec<Vec<u8>> = survivors.iter().map(|&i| self.matrix[i].clone()).collect();
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
        let row = &self.matrix[position];
        let mut acc = 0u8;
        for (j, &d) in data.iter().enumerate() {
            acc ^= self.gf.mul(row[j], d);
        }
        acc
    }
}

/// Inverts a square matrix over GF(2^8) by Gauss-Jordan elimination;
/// `None` if singular.
fn invert(gf: &Gf256, mat: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let n = mat.len();
    let mut a: Vec<Vec<u8>> = mat.to_vec();
    let mut inv: Vec<Vec<u8>> = (0..n)
        .map(|i| (0..n).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let p_inv = gf.inv(a[col][col]);
        for j in 0..n {
            a[col][j] = gf.mul(a[col][j], p_inv);
            inv[col][j] = gf.mul(inv[col][j], p_inv);
        }
        for r in 0..n {
            if r != col && a[r][col] != 0 {
                let f = a[r][col];
                for j in 0..n {
                    let sa = gf.mul(f, a[col][j]);
                    a[r][j] ^= sa;
                    let si = gf.mul(f, inv[col][j]);
                    inv[r][j] ^= si;
                }
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    fn random_shards(rng: &mut SimRng, k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|_| (0..len).map(|_| rng.next_u32() as u8).collect())
            .collect()
    }

    /// Every subset of k survivors out of k+m reconstructs the stripe.
    #[test]
    fn any_k_of_n_reconstructs() {
        let mut rng = SimRng::seed_from_u64(1994);
        for &(k, m) in &[(2usize, 1usize), (3, 2), (4, 2), (5, 3), (8, 2)] {
            let rs = ReedSolomon::new(k, m).unwrap();
            let data = random_shards(&mut rng, k, 24);
            let parity = rs.encode(&data.iter().map(|s| s.as_slice()).collect::<Vec<_>>());
            let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
            let n = k + m;
            // Iterate all loss masks of exactly m shards.
            for mask in 0u32..(1 << n) {
                if mask.count_ones() as usize != m {
                    continue;
                }
                let mut shards: Vec<Option<Vec<u8>>> = (0..n)
                    .map(|i| (mask & (1 << i) == 0).then(|| full[i].clone()))
                    .collect();
                rs.reconstruct(&mut shards).unwrap_or_else(|e| {
                    panic!("{k}+{m} mask {mask:b}: {e}");
                });
                for (i, shard) in shards.iter().enumerate() {
                    assert_eq!(shard.as_deref(), Some(&full[i][..]), "{k}+{m} shard {i}");
                }
            }
        }
    }

    /// Losing m+1 shards is detected as unrecoverable, never mis-decoded.
    #[test]
    fn more_than_m_losses_error() {
        let mut rng = SimRng::seed_from_u64(7);
        let rs = ReedSolomon::new(4, 2).unwrap();
        let data = random_shards(&mut rng, 4, 8);
        let parity = rs.encode(&data.iter().map(|s| s.as_slice()).collect::<Vec<_>>());
        let full: Vec<Vec<u8>> = data.into_iter().chain(parity).collect();
        let mut shards: Vec<Option<Vec<u8>>> = full.into_iter().map(Some).collect();
        shards[0] = None;
        shards[2] = None;
        shards[5] = None;
        assert_eq!(
            rs.reconstruct(&mut shards),
            Err(EcError::NotEnoughShards {
                present: 3,
                needed: 4
            })
        );
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
                assert_eq!(rs.matrix[i][j], u8::from(i == j));
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
        let data = random_shards(&mut rng, 3, 16);
        let parity = rs.encode(&data.iter().map(|s| s.as_slice()).collect::<Vec<_>>());
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[0] = None; // data shard lost
        shards[3] = Some(vec![0u8; 16]); // surviving parity sabotaged
        shards[4] = None; // decode must lean on the sabotaged shard
        rs.reconstruct(&mut shards).unwrap();
        assert_ne!(
            shards[0].as_deref(),
            Some(&data[0][..]),
            "sabotage must corrupt the decode, not vanish silently"
        );
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
