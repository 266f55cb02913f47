//! # h2-solve
//!
//! Solving linear systems with compressed H2 operators — the workload the
//! paper's construction feeds ("accelerating H2 arithmetic in sparse
//! multifrontal solvers or Schur complement-based updates", §I; H2
//! inversion is the paper's stated follow-up work).
//!
//! Three layers:
//!
//! * [`krylov`] — preconditioned iterative methods on [`h2_dense::LinOp`]:
//!   CG for SPD systems, restarted GMRES and BiCGStab for unsymmetric ones,
//!   plus Hutchinson trace estimation.
//! * [`precond`] — preconditioners assembled from the H2 representation:
//!   block-Jacobi from the near-field diagonal blocks, and any direct
//!   factorization wrapped as a preconditioner.
//! * [`ulv`] — ULV direct factorizations for weak-admissibility
//!   (HSS-pattern) H2 matrices in both side layouts: the symmetric
//!   Chandrasekaran–Gu–Pals flavor and the LU-flavored elimination for
//!   independent row/column bases, eliminating each level's nodes as one
//!   parallel map (O(N k²) factor + O(N k) solve).
//! * [`woodbury`] — Sherman–Morrison–Woodbury solves for low-rank-updated
//!   operators (`A + P Qᵀ`), pairing with [`h2_matrix::LowRankUpdate`].

pub mod krylov;
pub mod precond;
mod smallops;
pub mod ulv;
pub mod woodbury;

pub use krylov::{
    bicgstab, bicgstab_with, block_pcg, block_pcg_with, blocked_dot, blocked_norm, cgs, cgs_with,
    gmres, gmres_with, hutchinson_trace, pcg, pcg_with, BlockIterResult, BlockKrylovWorkspace,
    IterResult, KrylovWorkspace, ReduceHook,
};
pub use precond::{BlockJacobi, DiagJacobi, Identity, Preconditioner};
pub use ulv::{UlvError, UlvFactor, UlvSweep};
pub use woodbury::woodbury_solve;
