//! Split re/im (structure-of-arrays) kernels for the MUSIC noise-subspace
//! projection.
//!
//! The classic scan evaluates `P(θ) = 1 / (a(θ)ᴴ·Q·a(θ))` with the
//! projector `Q = E_N·E_Nᴴ` materialized as an `M×M` complex matrix and a
//! fresh `CVector` temporary per candidate bearing — a complex
//! matrix–vector product per bin, with the working set scattered across
//! interleaved `Complex64` pairs. Expanding the projector instead,
//!
//! ```text
//! aᴴ·E_N·E_Nᴴ·a  =  Σ_k |e_kᴴ·a|²
//! ```
//!
//! needs only the `M − D` noise eigenvectors themselves, and every term of
//! the sum is non-negative, so the expansion is also better conditioned
//! than the projector form (no cancellation between accumulated products).
//! [`NoiseSubspace`] stores the eigenvectors as split real/imaginary `f64`
//! rows and evaluates the quadratic form for a single probe vector or a
//! whole bin-minor slab of them without allocating — the shape the
//! 720-bin MUSIC sweep wants. The slab kernel runs
//! [`PROJECTION_BLOCK`] probes per pass, each with exactly the single
//! probe's order of operations, so the two forms agree bit for bit.

use crate::eig::HermitianEigen;
use crate::vector::CVector;

/// The noise subspace `E_N` of a Hermitian eigendecomposition in
/// split-complex, structure-of-arrays layout: row `k` of the internal
/// `re`/`im` slabs holds the real/imaginary parts of noise eigenvector
/// `k`, contiguously over the array elements.
#[derive(Clone, Debug, Default)]
pub struct NoiseSubspace {
    elements: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl NoiseSubspace {
    /// Extracts the noise eigenvectors (columns `signals..elements` of the
    /// eigenvector matrix — eigenvalues are sorted descending, so those
    /// are the smallest) from a decomposition.
    ///
    /// # Panics
    /// Panics unless `signals < elements`: MUSIC needs at least one noise
    /// dimension.
    pub fn from_eigen(eig: &HermitianEigen, signals: usize) -> Self {
        let mut noise = Self::default();
        noise.assign_from_eigen(eig, signals);
        noise
    }

    /// [`Self::from_eigen`] in place, reusing this subspace's storage.
    ///
    /// # Panics
    /// As [`Self::from_eigen`].
    pub fn assign_from_eigen(&mut self, eig: &HermitianEigen, signals: usize) {
        let elements = eig.eigenvalues.len();
        assert!(signals < elements, "need at least one noise dimension");
        self.elements = elements;
        self.re.clear();
        self.im.clear();
        for k in signals..elements {
            for m in 0..elements {
                let z = eig.eigenvectors[(m, k)];
                self.re.push(z.re);
                self.im.push(z.im);
            }
        }
    }

    /// Number of array elements (the length every probe vector must have).
    pub fn elements(&self) -> usize {
        self.elements
    }

    /// Number of noise dimensions `M − D`.
    #[cfg(test)]
    pub(crate) fn dims(&self) -> usize {
        self.re.len().checked_div(self.elements).unwrap_or(0)
    }

    /// The quadratic form `aᴴ·E_N·E_Nᴴ·a = Σ_k |e_kᴴ·a|²` for one complex
    /// probe vector — the reference every batched probe must match bit
    /// for bit.
    ///
    /// # Panics
    /// Panics if `a.len()` differs from [`Self::elements`].
    pub fn projection(&self, a: &CVector) -> f64 {
        let m = self.elements;
        assert_eq!(a.len(), m, "probe length must match element count");
        let s = a.as_slice();
        let mut total = 0.0;
        for (er, ei) in self.re.chunks_exact(m).zip(self.im.chunks_exact(m)) {
            let mut dr = 0.0;
            let mut di = 0.0;
            for j in 0..m {
                // e_kᴴ·a — the eigenvector side carries the conjugate.
                dr += er[j] * s[j].re + ei[j] * s[j].im;
                di += er[j] * s[j].im - ei[j] * s[j].re;
            }
            total += dr * dr + di * di;
        }
        total
    }

    /// Batched projection over a bin-minor split-complex slab: element
    /// `j` of probe `i` sits at `slab_re[j * stride + i]` (and likewise in
    /// `slab_im`). Writes `out[i] = Σ_k |e_kᴴ·a_i|²` for the first
    /// `out.len()` probes. This is the sweep kernel: each pass computes
    /// [`PROJECTION_BLOCK`] neighbouring probes from contiguous loads,
    /// and every probe keeps the single-probe order of operations, so
    /// `out[i]` is bit-identical to [`Self::projection`] on probe `i`.
    ///
    /// # Panics
    /// Panics unless `stride` is a multiple of [`PROJECTION_BLOCK`] no
    /// smaller than `out.len()` and both slabs hold `elements × stride`
    /// values.
    pub fn batch_projection(
        &self,
        slab_re: &[f64],
        slab_im: &[f64],
        stride: usize,
        out: &mut [f64],
    ) {
        const B: usize = PROJECTION_BLOCK;
        let m = self.elements;
        assert!(
            stride.is_multiple_of(B) && stride >= out.len(),
            "stride must be a block multiple covering every probe"
        );
        assert_eq!(slab_re.len(), m * stride, "slab must be elements × stride");
        assert_eq!(slab_im.len(), m * stride, "slab must be elements × stride");
        for (block, chunk) in out.chunks_mut(B).enumerate() {
            let base = block * B;
            let mut total = [0.0f64; B];
            for (er, ei) in self.re.chunks_exact(m).zip(self.im.chunks_exact(m)) {
                let mut dr = [0.0f64; B];
                let mut di = [0.0f64; B];
                for j in 0..m {
                    let (erj, eij) = (er[j], ei[j]);
                    let at = j * stride + base;
                    let a_re: &[f64; B] = slab_re[at..at + B].try_into().expect("block");
                    let a_im: &[f64; B] = slab_im[at..at + B].try_into().expect("block");
                    for l in 0..B {
                        dr[l] += erj * a_re[l] + eij * a_im[l];
                        di[l] += erj * a_im[l] - eij * a_re[l];
                    }
                }
                for l in 0..B {
                    total[l] += dr[l] * dr[l] + di[l] * di[l];
                }
            }
            chunk.copy_from_slice(&total[..chunk.len()]);
        }
    }
}

/// Probes per pass of [`NoiseSubspace::batch_projection`]; bin-minor
/// slabs pad their stride to a multiple of it.
pub const PROJECTION_BLOCK: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::eig::eigh;
    use crate::matrix::CMatrix;

    /// A deterministic well-conditioned Hermitian test matrix.
    fn test_matrix(m: usize) -> CMatrix {
        let mut r = CMatrix::zeros(m, m);
        for s in 0..3 {
            let v = CVector::from_fn(m, |i| {
                c64(
                    ((i * (s + 2)) as f64 * 0.7).sin(),
                    ((i + s) as f64 * 1.3).cos(),
                )
            });
            r.add_outer_assign(&v, 1.0 + s as f64 * 0.5);
        }
        for i in 0..m {
            r[(i, i)] += c64(0.3, 0.0);
        }
        r
    }

    /// The reference path: materialize `Q = E_N·E_Nᴴ` and evaluate
    /// `aᴴ·Q·a` with the generic matrix/vector ops.
    fn naive_projection(eig: &HermitianEigen, signals: usize, a: &CVector) -> f64 {
        let m = eig.eigenvalues.len();
        let mut q = CMatrix::zeros(m, m);
        for k in signals..m {
            q.add_outer_assign(&eig.eigenvector(k), 1.0);
        }
        a.dot(&q.mul_vec(a)).re
    }

    #[test]
    fn projection_matches_materialized_projector() {
        let m = 7;
        let eig = eigh(&test_matrix(m)).unwrap();
        for signals in 1..m {
            let noise = NoiseSubspace::from_eigen(&eig, signals);
            assert_eq!(noise.elements(), m);
            assert_eq!(noise.dims(), m - signals);
            for t in 0..16 {
                let a = CVector::from_fn(m, |i| Complex64::cis(i as f64 * 0.37 * (t as f64 + 0.4)));
                let fast = noise.projection(&a);
                let slow = naive_projection(&eig, signals, &a);
                // Both orderings accumulate the same bilinear form; they
                // agree to a tiny absolute error relative to its scale.
                assert!(
                    (fast - slow).abs() <= 1e-12 * (1.0 + slow.abs()),
                    "signals={signals} t={t}: {fast} vs {slow}"
                );
                assert!(fast >= 0.0, "sum of squared magnitudes");
            }
        }
    }

    #[test]
    fn batch_matches_single_probes_bit_exactly() {
        let m = 5;
        // Two full blocks and a ragged tail.
        let n = 2 * PROJECTION_BLOCK + 3;
        let stride = 3 * PROJECTION_BLOCK;
        let eig = eigh(&test_matrix(m)).unwrap();
        let noise = NoiseSubspace::from_eigen(&eig, 1);
        let mut slab_re = vec![0.0; m * stride];
        let mut slab_im = vec![0.0; m * stride];
        let mut singles = Vec::new();
        for i in 0..n {
            let a = CVector::from_fn(m, |j| Complex64::cis((i + j) as f64 * 0.23));
            for (j, z) in a.iter().enumerate() {
                slab_re[j * stride + i] = z.re;
                slab_im[j * stride + i] = z.im;
            }
            singles.push(noise.projection(&a));
        }
        let mut out = vec![0.0; n];
        noise.batch_projection(&slab_re, &slab_im, stride, &mut out);
        for (o, s) in out.iter().zip(&singles) {
            assert_eq!(o.to_bits(), s.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "noise dimension")]
    fn rejects_all_signal_subspace() {
        let eig = eigh(&test_matrix(4)).unwrap();
        let _ = NoiseSubspace::from_eigen(&eig, 4);
    }

    use crate::complex::Complex64;
}
