//! `hibd-linalg`: dense linear algebra for the BD solvers.
//!
//! The paper uses Intel MKL for `DGEMM`, `DGEMV`, Cholesky factorization and
//! the small dense eigenproblems inside the Krylov method; this crate
//! implements the required subset from scratch:
//!
//! * [`DMat`] — row-major dense matrix with (parallel) matvec and GEMM;
//! * [`chol`] — Cholesky factorization `M = L L^T` and triangular products /
//!   solves (the conventional Brownian-displacement path, Algorithm 1);
//! * [`qr`] — thin QR of tall skinny blocks (block Lanczos orthogonalizes
//!   `n x s` panels every iteration);
//! * [`eig`] — Householder tridiagonalization + implicit-shift QL for small
//!   symmetric matrices (the QL core alone for symmetric tridiagonals), plus
//!   the matrix square roots `f(T) = T^{1/2}` that the Krylov displacement
//!   method needs;
//! * [`op`] — the [`LinearOperator`] abstraction through
//!   which the Krylov solver consumes either a dense mobility matrix or the
//!   matrix-free PME operator.

#![allow(clippy::needless_range_loop)] // index-heavy numeric kernels

pub mod chol;
pub mod dmat;
pub mod eig;
pub mod op;
pub mod qr;

pub use chol::CholeskyFactor;
pub use dmat::DMat;
pub use eig::{sym_eig, sym_sqrt_times_block, tridiag_eig, EigError};
pub use op::{DenseOp, LinearOperator};
pub use qr::{thin_qr, ThinQr};
