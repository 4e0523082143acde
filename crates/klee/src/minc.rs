//! MinC: a miniature C-like language.
//!
//! MinC has unsigned scalar variables, one global byte array (the packet /
//! options buffer), arithmetic and comparison expressions, assignments, array
//! stores, `if`/`else`, bounded `while` loops and `return`. It is just enough
//! to express the Figure 1 TCP-options parsing loop and similar packet-walking
//! code, which is all the baseline needs.

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction (saturating at zero, like the unsigned C code effectively
    /// relies on).
    Sub,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Greater than.
    Gt,
    /// Logical or (on 0/1 values).
    Or,
    /// Logical and (on 0/1 values).
    And,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A constant.
    Const(u64),
    /// A scalar variable.
    Var(String),
    /// A load from the global byte array at the given index.
    Load(Box<Expr>),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Constant expression.
    pub fn c(value: u64) -> Expr {
        Expr::Const(value)
    }

    /// Variable reference.
    pub fn v(name: &str) -> Expr {
        Expr::Var(name.to_string())
    }

    /// Array load.
    pub fn load(index: Expr) -> Expr {
        Expr::Load(Box::new(index))
    }

    /// Binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Assign an expression to a scalar variable.
    Assign(String, Expr),
    /// Store a value into the global byte array.
    Store(Expr, Expr),
    /// `if (cond) { then } else { otherwise }`.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (cond) { body }` — the executors bound the number of iterations.
    While(Expr, Vec<Stmt>),
    /// Return a boolean result (the options code returns allow/deny).
    Return(bool),
}

/// A MinC program: a statement list operating on named scalars and one global
/// byte array.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Program body.
    pub body: Vec<Stmt>,
    /// Scalar variables and their initial (concrete) values.
    pub scalars: Vec<(String, u64)>,
}

impl Program {
    /// Creates a program.
    pub fn new(scalars: Vec<(&str, u64)>, body: Vec<Stmt>) -> Self {
        Program {
            body,
            scalars: scalars
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        }
    }

    /// Number of statements (recursively).
    pub fn statement_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    Stmt::If(_, a, b) => 1 + count(a) + count(b),
                    Stmt::While(_, b) => 1 + count(b),
                    _ => 1,
                })
                .sum()
        }
        count(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_statement_count() {
        let prog = Program::new(
            vec![("x", 0)],
            vec![
                Stmt::Assign("x".into(), Expr::bin(BinOp::Add, Expr::v("x"), Expr::c(1))),
                Stmt::If(
                    Expr::bin(BinOp::Eq, Expr::v("x"), Expr::c(1)),
                    vec![Stmt::Return(true)],
                    vec![Stmt::Return(false)],
                ),
            ],
        );
        assert_eq!(prog.statement_count(), 4);
        assert_eq!(prog.scalars[0], ("x".to_string(), 0));
    }
}
