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
//! whole contiguous slab of them without allocating — the shape the
//! 720-bin MUSIC sweep wants.

use crate::eig::HermitianEigen;
use crate::vector::CVector;

/// The noise subspace `E_N` of a Hermitian eigendecomposition in
/// split-complex, structure-of-arrays layout: row `k` of the internal
/// `re`/`im` slabs holds the real/imaginary parts of noise eigenvector
/// `k`, contiguously over the array elements.
#[derive(Clone, Debug)]
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
        let elements = eig.eigenvalues.len();
        assert!(signals < elements, "need at least one noise dimension");
        let dims = elements - signals;
        let mut re = Vec::with_capacity(dims * elements);
        let mut im = Vec::with_capacity(dims * elements);
        for k in signals..elements {
            for m in 0..elements {
                let z = eig.eigenvectors[(m, k)];
                re.push(z.re);
                im.push(z.im);
            }
        }
        Self { elements, re, im }
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

    /// The quadratic form `aᴴ·E_N·E_Nᴴ·a = Σ_k |e_kᴴ·a|²` for one probe
    /// vector given as split re/im slices.
    ///
    /// # Panics
    /// Panics if either slice length differs from [`Self::elements`].
    pub(crate) fn projection_split(&self, a_re: &[f64], a_im: &[f64]) -> f64 {
        let m = self.elements;
        assert_eq!(a_re.len(), m, "probe length must match element count");
        assert_eq!(a_im.len(), m, "probe length must match element count");
        let mut total = 0.0;
        for (er, ei) in self.re.chunks_exact(m).zip(self.im.chunks_exact(m)) {
            let mut dr = 0.0;
            let mut di = 0.0;
            for j in 0..m {
                // e_kᴴ·a — the eigenvector side carries the conjugate.
                dr += er[j] * a_re[j] + ei[j] * a_im[j];
                di += er[j] * a_im[j] - ei[j] * a_re[j];
            }
            total += dr * dr + di * di;
        }
        total
    }

    /// The quadratic form `aᴴ·E_N·E_Nᴴ·a` for one complex probe vector.
    /// Bit-identical to `Self::projection_split` on the same values (the
    /// accumulation order is the same).
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
                dr += er[j] * s[j].re + ei[j] * s[j].im;
                di += er[j] * s[j].im - ei[j] * s[j].re;
            }
            total += dr * dr + di * di;
        }
        total
    }

    /// Batched projection over a contiguous split-complex slab of `n`
    /// probe vectors (`n × elements`, row-major): writes
    /// `out[i] = Σ_k |e_kᴴ·a_i|²` for each row `a_i`. This is the sweep
    /// kernel — one pass over cache-resident eigenvector rows per probe,
    /// no temporaries.
    ///
    /// # Panics
    /// Panics if the slab lengths are not `out.len() × elements` or the
    /// re/im slabs disagree.
    pub fn batch_projection(&self, slab_re: &[f64], slab_im: &[f64], out: &mut [f64]) {
        let m = self.elements;
        assert_eq!(slab_re.len(), slab_im.len(), "re/im slabs must match");
        assert_eq!(
            slab_re.len(),
            out.len() * m,
            "slab must hold exactly out.len() probe vectors"
        );
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.projection_split(&slab_re[i * m..(i + 1) * m], &slab_im[i * m..(i + 1) * m]);
        }
    }
}

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
    fn split_and_complex_probes_are_bit_identical() {
        let m = 6;
        let eig = eigh(&test_matrix(m)).unwrap();
        let noise = NoiseSubspace::from_eigen(&eig, 2);
        for t in 0..8 {
            let a = CVector::from_fn(m, |i| Complex64::cis((i * t) as f64 * 0.51 + 0.1));
            let re: Vec<f64> = a.iter().map(|z| z.re).collect();
            let im: Vec<f64> = a.iter().map(|z| z.im).collect();
            let x = noise.projection(&a);
            let y = noise.projection_split(&re, &im);
            assert_eq!(x.to_bits(), y.to_bits(), "t={t}");
        }
    }

    #[test]
    fn batch_matches_single_probes_bit_exactly() {
        let m = 5;
        let n = 13;
        let eig = eigh(&test_matrix(m)).unwrap();
        let noise = NoiseSubspace::from_eigen(&eig, 1);
        let mut slab_re = Vec::new();
        let mut slab_im = Vec::new();
        let mut singles = Vec::new();
        for i in 0..n {
            let a = CVector::from_fn(m, |j| Complex64::cis((i + j) as f64 * 0.23));
            slab_re.extend(a.iter().map(|z| z.re));
            slab_im.extend(a.iter().map(|z| z.im));
            singles.push(noise.projection(&a));
        }
        let mut out = vec![0.0; n];
        noise.batch_projection(&slab_re, &slab_im, &mut out);
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
