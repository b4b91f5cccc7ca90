//! # at-linalg — complex linear algebra for array signal processing
//!
//! The numerical substrate of the ArrayTrack reproduction. The offline crate
//! universe for this project ships no complex-number or matrix crates, so
//! everything MUSIC needs is implemented here from scratch:
//!
//! - [`Complex64`]: double-precision complex arithmetic (with [`c64`] shorthand);
//! - [`CVector`] / [`CMatrix`]: dense complex vectors and row-major matrices,
//!   including Hermitian rank-one accumulation for sample correlation
//!   matrices (paper eq. 4);
//! - [`eigh`]: eigendecomposition of Hermitian matrices via the cyclic
//!   complex Jacobi method, producing the signal/noise subspace split at the
//!   heart of the MUSIC pseudospectrum (paper §2.3.1, eqs. 5–6);
//! - [`NoiseSubspace`]: the noise eigenvectors in split re/im
//!   structure-of-arrays layout, with single and bin-blocked
//!   `aᴴ·E_N·E_Nᴴ·a` projection kernels — the allocation-free shape of the
//!   MUSIC sweep.
//!
//! Matrices in this workload are tiny (≤ 16×16), so the implementation is
//! tuned for robustness and verifiability rather than asymptotic speed; the
//! Criterion bench `eig` in `at-bench` confirms an 8×8 decomposition runs in
//! single-digit microseconds, irrelevant next to the paper's 100 ms budget.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod complex;
mod eig;
mod matrix;
mod soa;
mod vector;

pub use complex::{c64, Complex64};
pub use eig::{eigh, eigh_into, EigError, EigScratch, HermitianEigen};
pub use matrix::CMatrix;
pub use soa::{NoiseSubspace, PROJECTION_BLOCK};
pub use vector::CVector;
