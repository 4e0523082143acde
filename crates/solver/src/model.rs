//! Concrete models (satisfying assignments).

use crate::formula::Formula;
use crate::term::VarId;
use std::collections::BTreeMap;

/// A concrete assignment of values to symbolic variables, produced by the
/// solver as a witness of satisfiability. The automated-testing framework
/// (§8.3 of the paper) turns these models into concrete test packets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    values: BTreeMap<VarId, u64>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Sets the value of a variable.
    pub fn set(&mut self, var: VarId, value: u64) {
        self.values.insert(var, value);
    }

    /// Returns the value assigned to `var`, if any.
    pub fn value(&self, var: VarId) -> Option<u64> {
        self.values.get(&var).copied()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns true if no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(variable, value)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, u64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }

    /// Checks that this model satisfies `formula`; variables missing from the
    /// model make the check fail (the solver always assigns every variable the
    /// formula mentions).
    pub fn satisfies(&self, formula: &Formula) -> bool {
        formula.eval(&|id| self.value(id)).unwrap_or(false)
    }
}

impl FromIterator<(VarId, u64)> for Model {
    fn from_iter<T: IntoIterator<Item = (VarId, u64)>>(iter: T) -> Self {
        Model {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::{CmpOp, Formula};
    use crate::term::SymVar;

    #[test]
    fn model_set_and_get() {
        let mut m = Model::new();
        assert!(m.is_empty());
        m.set(VarId(3), 42);
        assert_eq!(m.value(VarId(3)), Some(42));
        assert_eq!(m.value(VarId(4)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn model_satisfies_checks_formula() {
        let x = SymVar::new(0, 16);
        let f = Formula::cmp_const(CmpOp::Ge, x, 100);
        let good: Model = [(VarId(0), 150u64)].into_iter().collect();
        let bad: Model = [(VarId(0), 50u64)].into_iter().collect();
        let missing = Model::new();
        assert!(good.satisfies(&f));
        assert!(!bad.satisfies(&f));
        assert!(!missing.satisfies(&f));
    }
}
