//! Solver instrumentation.
//!
//! §8.1 of the paper reports that "more than 90% of time is spent in Z3" and
//! measures the number of solver calls per experiment. [`SolverStats`] keeps
//! those two numbers, the outcome counts, and a set of *measurements* of this
//! solver's own cache layers.
//!
//! The split is the report contract. What the JSON report prints (`calls`,
//! `sat`, `unsat`, `unknown`, `time_in_solver`) is a function of the queries
//! asked alone, the same for every thread count and cache state. Fields
//! marked *a measurement* say how the answers were obtained — which layer
//! answered, how much work was left — and legitimately differ between a cold
//! and a warm run of the same queries.

use std::time::Duration;

/// Counters accumulated by a [`crate::Solver`] across queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of satisfiability queries issued.
    pub calls: u64,
    /// Queries answered `Sat`.
    pub sat: u64,
    /// Queries answered `Unsat`.
    pub unsat: u64,
    /// Queries answered `Unknown` (cube budget exceeded).
    pub unknown: u64,
    /// Cubes the decision procedure actually examined (a measurement: a
    /// query answered by a memo or the disk store examines none).
    pub cubes_examined: u64,
    /// Prefix-cache hits (a measurement): a verdict or a cube normalisation
    /// read from the analysis cached on a shared [`crate::PathCond`] node.
    pub prefix_hits: u64,
    /// Prefix-cache misses (a measurement): path-condition nodes whose cube
    /// normalisation had to be computed.
    pub prefix_misses: u64,
    /// Content-memo hits (a measurement): path queries answered from the
    /// process-wide memos keyed on prefix fingerprints (see
    /// [`crate::fingerprint`]), which is what a sibling extension or a
    /// re-injected scenario hits instead of re-solving.
    pub content_hits: u64,
    /// Content-memo misses (a measurement).
    pub content_misses: u64,
    /// Persistent-cache hits (a measurement): verdicts or projections read
    /// from the disk-backed store (see [`crate::cache`]).
    pub persisted_hits: u64,
    /// Persistent-cache misses (a measurement): lookups the store could not
    /// answer.
    pub persisted_misses: u64,
    /// Verdicts/projections written to the persistent store (a measurement).
    pub persisted_stores: u64,
    /// Cumulative wall-clock time spent inside the solver.
    pub time_in_solver: Duration,
}

impl SolverStats {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = SolverStats::default();
    }

    /// Merges another stats record into this one.
    pub fn merge(&mut self, other: &SolverStats) {
        self.calls += other.calls;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.unknown += other.unknown;
        self.cubes_examined += other.cubes_examined;
        self.prefix_hits += other.prefix_hits;
        self.prefix_misses += other.prefix_misses;
        self.content_hits += other.content_hits;
        self.content_misses += other.content_misses;
        self.persisted_hits += other.persisted_hits;
        self.persisted_misses += other.persisted_misses;
        self.persisted_stores += other.persisted_stores;
        self.time_in_solver += other.time_in_solver;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counters() {
        let mut a = SolverStats {
            calls: 2,
            sat: 1,
            unsat: 1,
            unknown: 0,
            cubes_examined: 5,
            prefix_hits: 4,
            prefix_misses: 2,
            content_hits: 2,
            content_misses: 1,
            persisted_hits: 3,
            persisted_misses: 2,
            persisted_stores: 2,
            time_in_solver: Duration::from_millis(10),
        };
        let b = SolverStats {
            calls: 3,
            sat: 2,
            unsat: 0,
            unknown: 1,
            cubes_examined: 7,
            prefix_hits: 1,
            prefix_misses: 1,
            content_hits: 1,
            content_misses: 4,
            persisted_hits: 1,
            persisted_misses: 1,
            persisted_stores: 1,
            time_in_solver: Duration::from_millis(5),
        };
        a.merge(&b);
        assert_eq!(a.calls, 5);
        assert_eq!(a.sat, 3);
        assert_eq!(a.unsat, 1);
        assert_eq!(a.unknown, 1);
        assert_eq!(a.cubes_examined, 12);
        assert_eq!(a.prefix_hits, 5);
        assert_eq!(a.prefix_misses, 3);
        assert_eq!(a.content_hits, 3);
        assert_eq!(a.content_misses, 5);
        assert_eq!(a.persisted_hits, 4);
        assert_eq!(a.persisted_misses, 3);
        assert_eq!(a.persisted_stores, 3);
        assert_eq!(a.time_in_solver, Duration::from_millis(15));
        a.reset();
        assert_eq!(a, SolverStats::default());
    }

    #[test]
    fn default_stats_are_zero() {
        let s = SolverStats::default();
        assert_eq!(s.calls, 0);
        assert_eq!(s.time_in_solver, Duration::ZERO);
    }
}
