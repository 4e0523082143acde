//! Stable structural fingerprints: the one identity of solver content.
//!
//! Every cache in the solver names a formula or a path-condition prefix by
//! the key this module computes: the interner buckets formulas by it
//! ([`crate::intern`]), the in-process content memos and the persistent store
//! ([`crate::cache`]) are keyed on it. It is a canonical recursive 128-bit
//! hash over the value's structure, with every variant, operator, and field
//! length tagged so that distinct shapes can never collide by concatenation
//! ambiguity (`And[a, b]` vs `And[ab]`, `Cmp` vs `PrefixMatch`, and so on).
//!
//! # Stability argument
//!
//! A fingerprint is a pure function of:
//!
//! * fixed integer tags chosen in this file (one per enum variant / domain),
//! * the literal field values of the hashed structure (`VarId` numbers,
//!   widths, constants), written in a fixed order, and
//! * [`FP_VERSION`], bumped whenever the traversal or the tag assignment
//!   changes.
//!
//! Nothing process-local — `Arc` addresses, hash-map iteration order — ever
//! enters the stream. Two processes that build structurally equal values
//! therefore compute bit-identical fingerprints, which is what lets a verdict
//! stored by yesterday's run answer today's query, and what lets a memo entry
//! answer a chain rebuilt on fresh nodes. Keys that must also depend on solver
//! behaviour mix in [`config_fp`], so changing any verdict-affecting
//! `SolverConfig` knob silently invalidates every cached entry (old keys
//! simply stop matching).
//!
//! # Collisions
//!
//! Fingerprints are 128 bits from two independently seeded 64-bit streams:
//! with ~2^64 distinct values keyed a collision has probability ~2^-64 —
//! negligible against the table and store sizes this suite produces (millions
//! of entries). Memo and store answers rest on this argument alone; the
//! interner and `PathCond` equality do not, they compare structure whenever
//! fingerprints agree.
//!
//! The traversal runs once per interned formula
//! ([`Interned::fingerprint`](crate::intern::Interned::fingerprint) reads the
//! value stored on the canonical entry), and
//! [`PathCond`](crate::path::PathCond) chains node fingerprints incrementally
//! (`fp(P ∧ c) = combine(NODE, fp(P), fp(c))`), so extending a path costs one
//! constant-time mix, not a re-walk of the prefix.

use crate::formula::{CmpOp, Formula};
use crate::solve::SolverConfig;
use crate::term::{SymVar, Term};

/// Version of the fingerprint scheme. Mixed into [`config_fp`] (and therefore
/// into every on-disk key): bump it whenever the traversal order, the tags, or
/// the mixing function change, and every stale record degrades to a miss.
pub const FP_VERSION: u64 = 1;

/// Fingerprint of the empty path condition (no conjuncts). An arbitrary fixed
/// constant — it only needs to be stable and distinct from real chain values,
/// which all pass through the [`combine`] finalizer.
pub const EMPTY_PATH_FP: u128 = 0x5106_79a1_04f2_93d7_8ba4_6e0c_21d5_37fb;

/// Domain tag: extending a path-condition chain by one conjunct.
pub const DOMAIN_PATH_NODE: u64 = 1;
/// Domain tag: `check` verdicts on a materialised formula.
pub const DOMAIN_CHECK: u64 = 2;
/// Domain tag: `check_path` verdicts on a whole path condition.
pub const DOMAIN_PATH: u64 = 3;
/// Domain tag: `check_assuming` verdicts (path condition plus one extra
/// conjunct).
pub const DOMAIN_ASSUMING: u64 = 4;
/// Domain tag: `feasible_values_path` projections (path condition plus the
/// projected variable).
pub const DOMAIN_PROJECTION: u64 = 5;

// Seeds and multipliers of the two streams: the 64-bit FNV offset basis /
// prime for stream A, an odd golden-ratio constant for stream B.
const SEED_A: u64 = 0xcbf2_9ce4_8422_2325;
const SEED_B: u64 = 0x6c62_272e_07bb_0142;
const PRIME_A: u64 = 0x0000_0100_0000_01b3;
const PRIME_B: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a fixed bijective scrambler with good avalanche,
/// used to decorrelate the accumulator states at the end of a hash.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Incremental fingerprint hasher: two independently seeded 64-bit streams
/// folded into a `u128` by [`FpHasher::finish`]. Deterministic across
/// processes and platforms — no randomized state, no pointer-derived input.
#[derive(Clone, Copy, Debug)]
pub struct FpHasher {
    a: u64,
    b: u64,
}

impl FpHasher {
    /// A hasher seeded with a domain `tag`, so values hashed under different
    /// domains occupy disjoint key spaces.
    pub fn new(tag: u64) -> FpHasher {
        let mut h = FpHasher {
            a: SEED_A,
            b: SEED_B,
        };
        h.write_u64(tag);
        h
    }

    /// Mixes one 64-bit word into both streams.
    pub fn write_u64(&mut self, x: u64) {
        self.a = (self.a ^ x).wrapping_mul(PRIME_A).rotate_left(27);
        self.b = (self.b ^ x.rotate_left(32))
            .wrapping_mul(PRIME_B)
            .rotate_left(31);
    }

    /// Mixes a signed 128-bit value (as two words, low then high).
    pub fn write_i128(&mut self, x: i128) {
        let u = x as u128;
        self.write_u64(u as u64);
        self.write_u64((u >> 64) as u64);
    }

    /// Mixes a 128-bit fingerprint produced by another hasher.
    pub fn write_fp(&mut self, fp: u128) {
        self.write_u64(fp as u64);
        self.write_u64((fp >> 64) as u64);
    }

    /// Finalizes both streams into a 128-bit fingerprint.
    pub fn finish(&self) -> u128 {
        let hi = splitmix64(self.a ^ self.b.rotate_left(32));
        let lo = splitmix64(self.b.wrapping_add(splitmix64(self.a)));
        ((hi as u128) << 64) | lo as u128
    }
}

fn cmp_op_tag(op: CmpOp) -> u64 {
    match op {
        CmpOp::Eq => 1,
        CmpOp::Ne => 2,
        CmpOp::Lt => 3,
        CmpOp::Le => 4,
        CmpOp::Gt => 5,
        CmpOp::Ge => 6,
    }
}

fn write_var(h: &mut FpHasher, var: SymVar) {
    h.write_u64(var.id.0);
    h.write_u64(var.width as u64);
}

fn write_term(h: &mut FpHasher, term: &Term) {
    match term {
        Term::Const(c) => {
            h.write_u64(1);
            h.write_i128(*c);
        }
        Term::Var { var, offset } => {
            h.write_u64(2);
            write_var(h, *var);
            h.write_i128(*offset);
        }
    }
}

fn write_formula(h: &mut FpHasher, formula: &Formula) {
    match formula {
        Formula::True => h.write_u64(1),
        Formula::False => h.write_u64(2),
        Formula::Cmp { op, lhs, rhs } => {
            h.write_u64(3);
            h.write_u64(cmp_op_tag(*op));
            write_term(h, lhs);
            write_term(h, rhs);
        }
        Formula::PrefixMatch {
            var,
            value,
            prefix_len,
        } => {
            h.write_u64(4);
            write_var(h, *var);
            h.write_u64(*value);
            h.write_u64(*prefix_len as u64);
        }
        Formula::And(children) => {
            h.write_u64(5);
            h.write_u64(children.len() as u64);
            for child in children.iter() {
                write_formula(h, child);
            }
        }
        Formula::Or(children) => {
            h.write_u64(6);
            h.write_u64(children.len() as u64);
            for child in children.iter() {
                write_formula(h, child);
            }
        }
        Formula::Not(inner) => {
            h.write_u64(7);
            write_formula(h, inner);
        }
    }
}

/// Canonical recursive fingerprint of a formula. Stable across processes;
/// child order is significant (the engine's constructors already canonicalise
/// child order, so structurally equal formulas hash equal).
pub fn formula_fp(formula: &Formula) -> u128 {
    let mut h = FpHasher::new(0x10);
    write_formula(&mut h, formula);
    h.finish()
}

/// Fingerprint of a symbolic variable (id plus width).
pub fn var_fp(var: SymVar) -> u128 {
    let mut h = FpHasher::new(0x11);
    write_var(&mut h, var);
    h.finish()
}

/// Fingerprint of the verdict-affecting `SolverConfig` knobs plus
/// [`FP_VERSION`]. Mixed into every cache key, so a config change (or a
/// fingerprint-scheme bump) invalidates cached entries by key mismatch rather
/// than by any explicit migration. `incremental` selects *how* answers are
/// obtained, never *what* they are, and is left out.
pub fn config_fp(config: &SolverConfig) -> u128 {
    let mut h = FpHasher::new(0x14);
    h.write_u64(FP_VERSION);
    h.write_u64(config.max_cubes as u64);
    h.write_u64(config.max_model_attempts as u64);
    h.write_u64(config.max_propagation_rounds as u64);
    h.write_u64(config.samples_per_var as u64);
    h.finish()
}

/// Combines already-computed fingerprints under a domain tag. This is the one
/// way compound keys are built (path-node chaining, store keys), so the same
/// parts under different domains never collide.
pub fn combine(domain: u64, parts: &[u128]) -> u128 {
    let mut h = FpHasher::new(domain);
    h.write_u64(parts.len() as u64);
    for part in parts {
        h.write_fp(*part);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Formula;

    fn v(id: u64) -> SymVar {
        SymVar::new(id, 16)
    }

    #[test]
    fn equal_structures_hash_equal_distinct_structures_differ() {
        let a = Formula::and(vec![
            Formula::eq_const(v(1), 10),
            Formula::cmp_const(CmpOp::Lt, v(2), 99),
        ]);
        let b = Formula::and(vec![
            Formula::eq_const(v(1), 10),
            Formula::cmp_const(CmpOp::Lt, v(2), 99),
        ]);
        assert_eq!(formula_fp(&a), formula_fp(&b));
        let c = Formula::and(vec![
            Formula::eq_const(v(1), 10),
            Formula::cmp_const(CmpOp::Le, v(2), 99),
        ]);
        assert_ne!(formula_fp(&a), formula_fp(&c));
        assert_ne!(formula_fp(&Formula::True), formula_fp(&Formula::False));
    }

    #[test]
    fn variant_tags_prevent_shape_confusion() {
        // An `And` of one child must not hash like the child itself.
        let child = Formula::eq_const(v(3), 7);
        let wrapped = Formula::And(std::sync::Arc::new(vec![child.clone()]));
        assert_ne!(formula_fp(&child), formula_fp(&wrapped));
        // A raw `Not` node differs from the `Ne` it is logically equivalent
        // to (the `Formula::not` smart constructor would fold the former into
        // the latter, but fingerprints are structural, not semantic).
        let not_eq = Formula::Not(std::sync::Arc::new(Formula::eq_const(v(3), 7)));
        let ne = Formula::ne_const(v(3), 7);
        assert_ne!(formula_fp(&not_eq), formula_fp(&ne));
    }

    #[test]
    fn terms_and_vars_are_fully_hashed() {
        // Same variable id, different width ⇒ different fingerprint.
        let narrow = Formula::eq_const(SymVar::new(5, 8), 1);
        let wide = Formula::eq_const(SymVar::new(5, 32), 1);
        assert_ne!(formula_fp(&narrow), formula_fp(&wide));
        // Offsets matter.
        let base = Formula::Cmp {
            op: CmpOp::Eq,
            lhs: Term::var(v(6)),
            rhs: Term::Const(0),
        };
        let offset = Formula::Cmp {
            op: CmpOp::Eq,
            lhs: Term::var(v(6)).plus(1),
            rhs: Term::Const(0),
        };
        assert_ne!(formula_fp(&base), formula_fp(&offset));
    }

    #[test]
    fn config_fp_covers_every_knob() {
        let d = SolverConfig::default();
        let base = config_fp(&d);
        for changed in [
            SolverConfig {
                max_cubes: d.max_cubes - 1,
                ..d
            },
            SolverConfig {
                max_model_attempts: d.max_model_attempts - 1,
                ..d
            },
            SolverConfig {
                max_propagation_rounds: d.max_propagation_rounds - 1,
                ..d
            },
            SolverConfig {
                samples_per_var: d.samples_per_var + 1,
                ..d
            },
        ] {
            assert_ne!(base, config_fp(&changed), "{changed:?}");
        }
        assert_eq!(
            base,
            config_fp(&SolverConfig {
                incremental: false,
                ..d
            })
        );
    }

    #[test]
    fn combine_separates_domains_and_arity() {
        let x = formula_fp(&Formula::True);
        let y = formula_fp(&Formula::False);
        assert_ne!(
            combine(DOMAIN_PATH, &[x, y]),
            combine(DOMAIN_CHECK, &[x, y])
        );
        assert_ne!(
            combine(DOMAIN_PATH, &[x, y]),
            combine(DOMAIN_PATH, &[y, x]),
            "order is significant"
        );
        assert_ne!(
            combine(DOMAIN_PATH, &[x]),
            combine(DOMAIN_PATH, &[x, x]),
            "arity is significant"
        );
    }

    /// Literal values of keys that cache directories written by earlier
    /// builds hold. A change here that is not a deliberate [`FP_VERSION`]
    /// bump orphans every stored record.
    #[test]
    fn fingerprints_are_pinned() {
        use crate::path::PathCond;
        use std::sync::Arc;
        let cmp = Formula::cmp(CmpOp::Lt, Term::var(v(1)).plus(3), Term::var(v(2)));
        let prefix = Formula::prefix_match(SymVar::new(7, 32), 0x0a00_0000, 8);
        let nested = Formula::And(Arc::new(vec![
            Formula::eq_const(v(1), 10),
            Formula::Or(Arc::new(vec![
                Formula::eq_const(v(2), 1),
                Formula::cmp_const(CmpOp::Ge, v(3), 5),
            ])),
            Formula::Not(Arc::new(Formula::cmp(
                CmpOp::Eq,
                Term::var(v(1)),
                Term::var(v(3)),
            ))),
        ]));
        assert_eq!(formula_fp(&cmp), 0x71b4f73ee91de0082c2d4a832484e823);
        assert_eq!(formula_fp(&prefix), 0xc4180d21c43f7fc6f6e693fb5e7e225c);
        assert_eq!(formula_fp(&nested), 0xdc23ec3b6c271842d44466160e759870);
        let config = config_fp(&SolverConfig::default());
        assert_eq!(config, 0xcecc6817566f28f96964829644de8fe1);
        let path: PathCond = [Formula::eq_const(v(1), 10), prefix, cmp]
            .into_iter()
            .collect();
        assert_eq!(path.fingerprint(), 0x908c57e2a1f01bcdbb4777e244b5f506);
        assert_eq!(
            combine(DOMAIN_PATH, &[path.fingerprint(), config]),
            0xee093e104e7ecf81513fb08b4a8a5365
        );
        assert_eq!(FP_VERSION, 1);
    }
}
