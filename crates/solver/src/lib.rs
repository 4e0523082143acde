//! # symnet-solver
//!
//! A from-scratch decision procedure for the constraint fragment generated by
//! SEFL models. The original SymNet paper uses Z3; this crate substitutes a
//! purpose-built solver because SEFL deliberately restricts expressions to
//! referencing, addition, subtraction and negation (§5 of the paper), so path
//! conditions only ever contain:
//!
//! * comparisons between a bounded-width variable (plus an integer offset) and
//!   a constant,
//! * comparisons between two variables (plus integer offsets), and
//! * longest-prefix / bit-mask matches on a single variable,
//!
//! combined with arbitrary `and` / `or` / `not` structure.
//!
//! ## Decision procedure
//!
//! 1. The formula is normalised into *cubes* (conjunctions of literals). While
//!    normalising, any sub-formula that mentions a single variable is evaluated
//!    *exactly* into an [`IntervalSet`] over that variable's domain, so the huge
//!    same-variable disjunctions produced by switch/router models (one equality
//!    per MAC address or prefix) never cause a case split.
//! 2. Within a cube, variable equalities (`v = w + c`) are merged with an
//!    offset-carrying union-find; interval domains are intersected per
//!    equivalence class; ordering constraints between classes tighten the
//!    domains with bound propagation.
//! 3. A concrete witness is extracted from the final domains and re-checked
//!    against every literal; `Sat` is only reported together with a verified
//!    [`Model`], which makes the solver sound for satisfiability answers.
//!
//! The solver also provides the two derived queries SymNet needs:
//! [`Solver::implies`] (for invariance checks) and [`Solver::state_included`]
//! (the `old ∧ ¬new` loop-detection query from Figure 5 of the paper).
//!
//! ```
//! use symnet_solver::{CmpOp, Formula, Solver, SymVar};
//!
//! let mut solver = Solver::default();
//! let dst = SymVar::new(0, 16);
//! let f = Formula::and(vec![
//!     Formula::cmp_const(CmpOp::Ge, dst, 1024),
//!     Formula::cmp_const(CmpOp::Lt, dst, 2048),
//! ]);
//! let model = solver.model(&f).expect("satisfiable");
//! let v = model.value(dst.id).unwrap();
//! assert!((1024..2048).contains(&v));
//! let contradiction = Formula::and(vec![f, Formula::eq_const(dst, 80)]);
//! assert!(solver.is_unsat(&contradiction));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod cube;
pub mod fingerprint;
pub mod formula;
pub mod intern;
pub mod interval;
pub mod model;
pub mod path;
pub mod solve;
pub mod stats;
mod table;
pub mod term;

pub use cache::CacheCounters;
pub use formula::{CmpOp, Formula};
pub use intern::{eviction_stats, EvictionStats, Interned, Interner};
pub use interval::IntervalSet;
pub use model::Model;
pub use path::{PathCond, PathNode};
pub use solve::{Solver, SolverConfig, SolverResult};
pub use stats::SolverStats;
pub use term::{SymVar, Term, VarId};
