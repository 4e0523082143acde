//! Network-verification queries (§6 of the paper).
//!
//! All queries operate on the [`ExecutionReport`] produced by
//! [`crate::engine::SymNet::inject`]:
//!
//! * **Reachability** — which output ports are reached, and under which
//!   constraints ([`reachable_ports`], [`allowed_values`]).
//! * **Invariants** — is a header field provably unchanged between injection
//!   and delivery ([`field_invariant`])?
//! * **Header visibility** — does an intermediate or final hop observe the
//!   same value the source wrote ([`field_invariant`] against any state)?
//! * **Loop detection** is performed online by the engine (Figure 5); the
//!   report exposes the affected paths via [`ExecutionReport::loops`].
//! * **Header memory safety** is enforced by construction during execution;
//!   violations terminate paths with [`crate::DropReason::Memory`].

use crate::engine::{ExecutionReport, PathReport};
use crate::error::ExecError;
use crate::network::ElementId;
use crate::state::ExecState;
use crate::value::Value;
use symnet_sefl::field::FieldRef;
use symnet_solver::{CmpOp, Formula, IntervalSet, PathCond, Solver};

/// Outcome of a semantic comparison under a path condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tristate {
    /// The property holds on every packet admitted by the path.
    Always,
    /// The property holds on no admitted packet.
    Never,
    /// The property holds on some admitted packets and fails on others.
    Sometimes,
}

/// Compares two values under a path condition given as a materialised
/// formula. Prefer [`values_equal_path`] when the shared-prefix handle of an
/// [`ExecState`] is at hand — it reuses the solver analysis cached on the
/// path-condition nodes during execution.
pub fn values_equal(
    solver: &mut Solver,
    path_condition: &Formula,
    a: &Value,
    b: &Value,
) -> Tristate {
    // Fast path: syntactically identical values are always equal.
    if a.same_value(b) {
        return Tristate::Always;
    }
    let eq = Formula::cmp(CmpOp::Eq, a.to_term(), b.to_term());
    if solver.implies(path_condition, &eq) {
        return Tristate::Always;
    }
    let both = Formula::and(vec![path_condition.clone(), eq]);
    if solver.is_unsat(&both) {
        Tristate::Never
    } else {
        Tristate::Sometimes
    }
}

/// Compares two values under a persistent path condition (see
/// [`ExecState::path_cond`]): the condition's cached cube normalisation is
/// reused and only the equality atom is folded in.
pub fn values_equal_path(
    solver: &mut Solver,
    path_condition: &PathCond,
    a: &Value,
    b: &Value,
) -> Tristate {
    if a.same_value(b) {
        return Tristate::Always;
    }
    let eq = Formula::cmp(CmpOp::Eq, a.to_term(), b.to_term());
    if solver.implies_path(path_condition, &eq) {
        return Tristate::Always;
    }
    if solver.check_assuming(path_condition, &eq).is_unsat() {
        Tristate::Never
    } else {
        Tristate::Sometimes
    }
}

/// Checks whether a header field is invariant between the injected packet and
/// the end of a path: the value observed at the end is provably equal to the
/// value the packet was injected with (§6 "Invariants" / "Header visibility").
pub fn field_invariant(
    injected: &ExecState,
    path: &PathReport,
    field: &FieldRef,
) -> Result<Tristate, ExecError> {
    let before = injected.read_field(field, "")?;
    let after = path.state.read_field(field, "")?;
    let mut solver = Solver::default();
    Ok(values_equal_path(
        &mut solver,
        path.state.path_cond(),
        &before.value,
        &after.value,
    ))
}

/// The set of values a field can take at the end of a path — "which packets
/// are allowed, ... and how the packets look like at the output" (§6
/// Reachability). Returns `None` if the field is not allocated on this path or
/// the projection is unknown.
pub fn allowed_values(path: &PathReport, field: &FieldRef) -> Option<IntervalSet> {
    let slot = path.state.read_field(field, "").ok()?;
    match slot.value {
        Value::Concrete(v) => Some(IntervalSet::point(v as i128)),
        Value::Sym { var, offset } => {
            let mut solver = Solver::default();
            solver
                .feasible_values_path(path.state.path_cond(), var)
                .map(|s| s.shift(offset as i128))
        }
    }
}

/// The distinct `(element, output port)` pairs reached by delivered paths.
pub fn reachable_ports(report: &ExecutionReport) -> Vec<(ElementId, usize)> {
    let mut out: Vec<(ElementId, usize)> = report
        .delivered()
        .filter_map(|p| match p.status {
            crate::engine::PathStatus::Delivered { element, port } => Some((element, port)),
            _ => None,
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::VarAllocator;

    #[test]
    fn values_equal_tristate() {
        let mut solver = Solver::default();
        let mut symbols = VarAllocator::new();
        let x = symbols.fresh(16);
        let y = symbols.fresh(16);
        let vx = Value::symbolic(x);
        let vy = Value::symbolic(y);
        // Same symbol: always equal.
        assert_eq!(
            values_equal(&mut solver, &Formula::True, &vx, &vx),
            Tristate::Always
        );
        // Unconstrained distinct symbols: sometimes equal.
        assert_eq!(
            values_equal(&mut solver, &Formula::True, &vx, &vy),
            Tristate::Sometimes
        );
        // Constrained to be equal: always.
        let eq = Formula::cmp(CmpOp::Eq, vx.to_term(), vy.to_term());
        assert_eq!(values_equal(&mut solver, &eq, &vx, &vy), Tristate::Always);
        // Disjoint concrete ranges: never.
        let cond = Formula::and(vec![
            Formula::cmp_const(CmpOp::Le, x, 10),
            Formula::cmp_const(CmpOp::Ge, y, 20),
        ]);
        assert_eq!(values_equal(&mut solver, &cond, &vx, &vy), Tristate::Never);
        // Concrete values compare directly.
        assert_eq!(
            values_equal(
                &mut solver,
                &Formula::True,
                &Value::Concrete(5),
                &Value::Concrete(5)
            ),
            Tristate::Always
        );
        assert_eq!(
            values_equal(
                &mut solver,
                &Formula::True,
                &Value::Concrete(5),
                &Value::Concrete(6)
            ),
            Tristate::Never
        );
    }
}
