//! # solve — deterministic branch-and-bound for minimax assignment
//!
//! The paper's allocation policies are heuristics; this crate provides the
//! *oracle* they are measured against (DESIGN.md §15): a registry-free,
//! bit-reproducible branch-and-bound core over **minimax assignment
//! problems** — assign every *slot* one *choice*, each choice adding integer
//! load to shared *resources*, minimizing the maximum final resource load —
//! plus the CGRA instantiation ([`OffsetProblem`]) where slots are upcoming
//! configuration executions, choices are legal footprint pivots, and
//! resources are the fabric's FUs accumulating NBTI stress.
//!
//! Everything is integer arithmetic with fixed iteration order, so two runs
//! on the same problem return byte-identical solutions — the property the
//! CI determinism tree-diff relies on.
//!
//! # Examples
//!
//! ```
//! use solve::{solve, TableProblem};
//!
//! // Two jobs of size 3 and three of size 2 on two machines: list
//! // scheduling gives makespan 7, the exact optimum is 6.
//! let p = TableProblem::machines(&[3, 3, 2, 2, 2], 2);
//! let s = solve(&p).unwrap();
//! assert_eq!(s.objective, 6);
//! ```

#![warn(missing_docs)]

mod bnb;
mod offsets;

pub use bnb::{solve, DeltaTable, MinimaxProblem, Solution, TableProblem};
pub use offsets::OffsetProblem;
