//! Property-based tests for the solver's core data structures, the soundness
//! of its satisfiability answers, and the agreement of the incremental
//! prefix-cached procedure with from-scratch solving, plus an exhaustive
//! oracle for the single-variable normalisation kernel.

use proptest::prelude::*;
use symnet_solver::{CmpOp, Formula, IntervalSet, PathCond, Solver, SolverConfig, SymVar, Term};

/// Strategy producing small interval sets inside a bounded universe.
fn interval_set(universe: i128) -> impl Strategy<Value = IntervalSet> {
    prop::collection::vec((0..universe, 0..universe), 0..8).prop_map(|pairs| {
        IntervalSet::from_ranges(pairs.into_iter().map(|(a, b)| (a.min(b), a.max(b))))
    })
}

proptest! {
    #[test]
    fn union_contains_both_operands(a in interval_set(1000), b in interval_set(1000), x in 0i128..1000) {
        let u = a.union(&b);
        prop_assert_eq!(u.contains(x), a.contains(x) || b.contains(x));
    }

    #[test]
    fn intersection_is_conjunction(a in interval_set(1000), b in interval_set(1000), x in 0i128..1000) {
        let i = a.intersect(&b);
        prop_assert_eq!(i.contains(x), a.contains(x) && b.contains(x));
    }

    #[test]
    fn complement_flips_membership(a in interval_set(1000), x in 0i128..1000) {
        let c = a.complement(0, 999);
        prop_assert_eq!(c.contains(x), !a.contains(x));
    }

    #[test]
    fn difference_removes_exactly(a in interval_set(1000), b in interval_set(1000), x in 0i128..1000) {
        let d = a.difference(&b);
        prop_assert_eq!(d.contains(x), a.contains(x) && !b.contains(x));
    }

    #[test]
    fn shift_translates_membership(a in interval_set(1000), delta in -500i128..500, x in 0i128..1000) {
        let s = a.shift(delta);
        prop_assert_eq!(s.contains(x + delta), a.contains(x));
    }

    #[test]
    fn cardinality_matches_membership_count(a in interval_set(200)) {
        let count = (0i128..200).filter(|x| a.contains(*x)).count() as u128;
        prop_assert_eq!(a.cardinality(), count);
    }

    /// Every `Sat` answer must come with a model that actually satisfies the
    /// formula (the solver re-checks witnesses, so this must always hold).
    #[test]
    fn sat_answers_carry_valid_models(
        ops in prop::collection::vec((0usize..6, 0u64..4, 0u64..256), 1..6),
    ) {
        let mut solver = Solver::default();
        let parts: Vec<Formula> = ops
            .iter()
            .map(|(op, var, value)| {
                let v = SymVar::new(*var, 8);
                let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][*op];
                Formula::cmp_const(op, v, *value)
            })
            .collect();
        let f = Formula::and(parts);
        if let Some(model) = solver.model(&f) {
            prop_assert!(model.satisfies(&f));
        }
    }

    /// Brute-force cross-check on 8-bit single-variable formulas: the solver's
    /// sat/unsat answer must agree with exhaustive enumeration.
    #[test]
    fn single_var_agrees_with_bruteforce(
        ops in prop::collection::vec((0usize..6, 0u64..256, prop::bool::ANY), 1..8),
    ) {
        let v = SymVar::new(0, 8);
        let atoms: Vec<Formula> = ops
            .iter()
            .map(|(op, value, _)| {
                let op = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][*op];
                Formula::cmp_const(op, v, *value)
            })
            .collect();
        // Alternate and/or nesting driven by the boolean flags.
        let mut f = atoms[0].clone();
        for (atom, (_, _, use_or)) in atoms.iter().skip(1).zip(ops.iter().skip(1)) {
            f = if *use_or {
                Formula::or(vec![f, atom.clone()])
            } else {
                Formula::and(vec![f, atom.clone()])
            };
        }
        let brute = (0u64..256).any(|x| f.eval(&|_| Some(x)) == Some(true));
        let mut solver = Solver::default();
        let result = solver.check(&f);
        prop_assert_eq!(result.is_sat(), brute);
        prop_assert_eq!(result.is_unsat(), !brute);
    }

    /// The incremental prefix-cached solver must agree with a fresh
    /// from-scratch `Solver` at every step of a random conjunct chain: same
    /// SAT/UNSAT verdicts and identical feasible-value intervals.
    #[test]
    fn incremental_agrees_with_scratch_on_chains(
        ops in prop::collection::vec((0usize..8, 0u64..3, 0u64..3, 0u64..64), 1..10),
    ) {
        let vars: Vec<SymVar> = (0..3).map(|i| SymVar::new(i, 6)).collect();
        let mut incremental = Solver::default();
        let mut cond = PathCond::empty();
        for (kind, a, b, value) in &ops {
            let (va, vb) = (vars[*a as usize], vars[*b as usize]);
            let conjunct = match kind {
                0 => Formula::eq_const(va, *value),
                1 => Formula::ne_const(va, *value),
                2 => Formula::cmp_const(CmpOp::Le, va, *value),
                3 => Formula::cmp_const(CmpOp::Ge, va, *value),
                4 => Formula::cmp(CmpOp::Eq, Term::var(va), Term::var(vb).plus((*value as i128) % 8)),
                5 => Formula::cmp(CmpOp::Lt, Term::var(va), Term::var(vb)),
                6 => Formula::prefix_match(va, *value, (*value % 7) as u8),
                _ => Formula::or(vec![
                    Formula::eq_const(va, *value),
                    Formula::cmp_const(CmpOp::Ge, vb, *value),
                ]),
            };
            cond = cond.push(conjunct);
            // Verdict agreement at every prefix of the chain, against a fresh
            // from-scratch solver (no shared caches).
            let mut scratch = Solver::default();
            let materialised = cond.to_formula();
            let inc = incremental.check_path(&cond);
            let scr = scratch.check(&materialised);
            prop_assert_eq!(inc.is_sat(), scr.is_sat());
            prop_assert_eq!(inc.is_unsat(), scr.is_unsat());
            // Feasible-value projections must be identical sets.
            for var in &vars {
                let a = incremental.feasible_values_path(&cond, *var);
                let b = scratch.feasible_values(&materialised, *var);
                prop_assert_eq!(a, b);
            }
        }
        // Re-checking the full chain is answered from the caches with the
        // same verdict.
        let mut scratch = Solver::default();
        let again = incremental.check_path(&cond);
        prop_assert_eq!(again.is_sat(), scratch.check(&cond.to_formula()).is_sat());
        prop_assert!(incremental.stats().prefix_hits > 0);
    }

    /// Interning is invisible to answers: rebuilding the same conjunct chain
    /// from scratch produces fresh path nodes but identical fingerprints, so
    /// the second pass is answered by the process-wide content memos —
    /// and must agree, verdict for verdict and interval for interval, with
    /// both its own first pass and the uninterned `incremental = false`
    /// baseline that re-solves the materialised formula every time.
    #[test]
    fn interned_warm_rerun_agrees_with_uninterned(
        ops in prop::collection::vec((0usize..8, 0u64..3, 0u64..3, 0u64..64), 1..10),
    ) {
        let vars: Vec<SymVar> = (0..3).map(|i| SymVar::new(i, 6)).collect();
        let conjuncts: Vec<Formula> = ops
            .iter()
            .map(|(kind, a, b, value)| {
                let (va, vb) = (vars[*a as usize], vars[*b as usize]);
                match kind {
                    0 => Formula::eq_const(va, *value),
                    1 => Formula::ne_const(va, *value),
                    2 => Formula::cmp_const(CmpOp::Le, va, *value),
                    3 => Formula::cmp_const(CmpOp::Ge, va, *value),
                    4 => Formula::cmp(CmpOp::Eq, Term::var(va), Term::var(vb).plus((*value as i128) % 8)),
                    5 => Formula::cmp(CmpOp::Lt, Term::var(va), Term::var(vb)),
                    6 => Formula::prefix_match(va, *value, (*value % 7) as u8),
                    _ => Formula::or(vec![
                        Formula::eq_const(va, *value),
                        Formula::cmp_const(CmpOp::Ge, vb, *value),
                    ]),
                }
            })
            .collect();
        let run = |solver: &mut Solver| {
            let mut cond = PathCond::empty();
            let mut verdicts = Vec::new();
            for conjunct in &conjuncts {
                cond = cond.push(conjunct.clone());
                let verdict = solver.check_path(&cond);
                let projections: Vec<_> = vars
                    .iter()
                    .map(|v| solver.feasible_values_path(&cond, *v))
                    .collect();
                verdicts.push((verdict.is_sat(), verdict.is_unsat(), projections));
            }
            verdicts
        };
        let mut cold = Solver::default();
        let first = run(&mut cold);
        // Fresh solver, fresh nodes: only the fingerprint-keyed memos survive
        // between the passes, so agreement here is agreement through them.
        let mut warm = Solver::default();
        let second = run(&mut warm);
        prop_assert_eq!(&first, &second);
        let mut uninterned = Solver::with_config(SolverConfig {
            incremental: false,
            ..SolverConfig::default()
        });
        let third = run(&mut uninterned);
        prop_assert_eq!(&first, &third);
    }

    /// Two-variable conjunctions of constant comparisons and one cross
    /// equality, cross-checked by brute force over 6-bit domains.
    #[test]
    fn cross_equality_agrees_with_bruteforce(
        xa in 0u64..64, xb in 0u64..64, offset in -8i128..8,
    ) {
        let x = SymVar::new(0, 6);
        let y = SymVar::new(1, 6);
        let f = Formula::and(vec![
            Formula::cmp_const(CmpOp::Ge, x, xa),
            Formula::cmp_const(CmpOp::Le, y, xb),
            Formula::cmp(CmpOp::Eq, Term::var(y), Term::var(x).plus(offset)),
        ]);
        let brute = (0u64..64).any(|xv| {
            (0u64..64).any(|yv| {
                f.eval(&|id| if id.0 == 0 { Some(xv) } else { Some(yv) }) == Some(true)
            })
        });
        let mut solver = Solver::default();
        prop_assert_eq!(solver.check(&f).is_sat(), brute);
    }
}

/// Random formula trees over the single 8-bit variable `x`, built from raw
/// variants (so empty and one-part `And`/`Or`, same-variable cross
/// comparisons and constant atoms all occur) under a node budget that keeps
/// the exhaustive oracle cheap.
struct SingleVarTree {
    var: SymVar,
    budget: usize,
}

impl SingleVarTree {
    fn leaf(&self, rng: &mut TestRng) -> Formula {
        let x = self.var;
        let pick = |rng: &mut TestRng, n: u64| rng.next_u64() % n;
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][pick(rng, 6) as usize];
        let offset = pick(rng, 9) as i128 - 4;
        // Constants stray a little outside the 0..=255 domain on purpose.
        let constant = pick(rng, 266) as i128 - 5;
        match pick(rng, 8) {
            0 => Formula::Cmp {
                op,
                lhs: Term::var(x).plus(offset),
                rhs: Term::constant(constant),
            },
            1 => Formula::Cmp {
                op,
                lhs: Term::constant(constant),
                rhs: Term::var(x).plus(offset),
            },
            2 => Formula::Cmp {
                op,
                lhs: Term::var(x).plus(offset),
                rhs: Term::var(x),
            },
            3 => Formula::Cmp {
                op,
                lhs: Term::constant(constant),
                rhs: Term::constant(pick(rng, 4) as i128),
            },
            4 => Formula::prefix_match(x, pick(rng, 256), pick(rng, 9) as u8),
            // LPM exclusion shape: the negation of a narrow prefix.
            5 => Formula::Not(std::sync::Arc::new(Formula::prefix_match(
                x,
                pick(rng, 256),
                4 + pick(rng, 5) as u8,
            ))),
            6 => Formula::ne_const(x, pick(rng, 256)),
            _ => [Formula::True, Formula::False][pick(rng, 2) as usize].clone(),
        }
    }

    fn tree(&self, rng: &mut TestRng, budget: &mut usize) -> Formula {
        if *budget == 0 || rng.next_u64().is_multiple_of(3) {
            return self.leaf(rng);
        }
        *budget -= 1;
        let kind = rng.next_u64() % 5;
        if kind == 0 {
            return Formula::Not(std::sync::Arc::new(self.tree(rng, budget)));
        }
        // Mostly narrow, sometimes wide (up to 64 parts), sometimes empty.
        let arity = match rng.next_u64() % 4 {
            0 => (rng.next_u64() % 65) as usize,
            _ => (rng.next_u64() % 5) as usize,
        };
        let parts: Vec<Formula> = (0..arity).map(|_| self.tree(rng, budget)).collect();
        let parts = std::sync::Arc::new(parts);
        if kind <= 2 {
            Formula::And(parts)
        } else {
            Formula::Or(parts)
        }
    }
}

impl Strategy for SingleVarTree {
    type Value = Formula;

    fn generate(&self, rng: &mut TestRng) -> Formula {
        let mut budget = self.budget;
        self.tree(rng, &mut budget)
    }
}

proptest! {
    /// Oracle for the single-variable kernel: `eval_single_var` and
    /// `to_cubes` must denote exactly the points at which `Formula::eval`
    /// holds, checked exhaustively over all 256 values of an 8-bit variable.
    #[test]
    fn single_var_kernel_agrees_with_pointwise_eval(
        f in SingleVarTree { var: SymVar::new(0, 8), budget: 160 },
    ) {
        let x = SymVar::new(0, 8);
        let truth = IntervalSet::from_ranges((0u64..256).filter_map(|v| {
            let holds = f.eval(&|_| Some(v)).expect("x is the only variable");
            holds.then_some((v as i128, v as i128))
        }));
        let set = symnet_solver::cube::eval_single_var(&f, x);
        prop_assert_eq!(&set, &truth);

        let cubes = symnet_solver::cube::to_cubes(&f, 4).expect("one variable never overflows");
        if truth.is_empty() {
            prop_assert!(cubes.is_empty());
        } else {
            prop_assert_eq!(cubes.len(), 1);
            prop_assert!(cubes[0].cross.is_empty());
            match cubes[0].domains.get(&x) {
                Some(domain) => prop_assert_eq!(domain, &truth),
                // No literal at all: only a variable-free tautology.
                None => prop_assert_eq!(truth.cardinality(), 256),
            }
        }
    }
}
