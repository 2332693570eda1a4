//! Exact linear algebra for anonymous-dynamic-network lower bounds.
//!
//! This crate provides the arithmetic substrate used by the reproduction of
//! *"Investigating the Cost of Anonymity on Dynamic Networks"* (Di Luna &
//! Baldoni, PODC 2015): exact rationals, dense rational matrices with
//! Gaussian elimination (rank / kernel / solve), sparse integer matrices for
//! large structured systems, and the `Σ`, `Σ⁺`, `Σ⁻` vector functionals the
//! paper's Lemma 4 is stated in.
//!
//! Everything is exact: `i128`-backed and overflow-checked. There is no
//! floating point on any proof-relevant path.
//!
//! # Examples
//!
//! Verify the paper's round-0 kernel (`ker M_0 = span{[1, 1, -1]}`):
//!
//! ```
//! use anonet_linalg::{gauss, Matrix};
//!
//! let m0 = Matrix::from_i64_rows(&[&[1, 0, 1], &[0, 1, 1]])?;
//! let basis = gauss::kernel_basis(&m0)?;
//! assert_eq!(basis.len(), 1);
//! let k0 = gauss::to_integer_vector(&basis[0])?;
//! assert_eq!(k0.iter().map(|x| x.abs()).sum::<i128>(), 3);
//! # Ok::<(), anonet_linalg::LinalgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enumerate;
mod error;
pub mod gauss;
pub mod incremental;
mod matrix;
mod ratio;
mod sparse;
pub mod vector;

pub use error::{LinalgError, Result};
pub use incremental::KernelTracker;
pub use matrix::Matrix;
pub use ratio::{gcd_i128, Ratio};
pub use sparse::SparseIntMatrix;
