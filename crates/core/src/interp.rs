//! The SEFL interpreter: one instruction over one [`ExecState`], producing
//! the resulting flows, plus the helpers concrete replay shares with it
//! ([`local_prefix`], [`substitute_meta`]).

use crate::error::{DropReason, ExecError};
use crate::network::{ElementId, Network};
use crate::state::{ExecState, TraceEntry};
use crate::symbols::VarAllocator;
use symnet_sefl::field::FieldRef;
use symnet_sefl::instr::Instruction;
use symnet_solver::{Solver, SolverConfig};

/// Status of a packet flow while executing one element's code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum FlowStatus {
    /// Still executing.
    Running,
    /// Forwarded to an output port of the current element.
    SentTo(usize),
    /// Terminated.
    Dropped(DropReason),
}

/// A packet flow inside one element.
#[derive(Clone, Debug)]
pub(crate) struct Flow {
    pub(crate) state: ExecState,
    pub(crate) status: FlowStatus,
}

impl Flow {
    fn running(state: ExecState) -> Self {
        Flow {
            state,
            status: FlowStatus::Running,
        }
    }

    fn dropped(state: ExecState, reason: DropReason) -> Self {
        Flow {
            state,
            status: FlowStatus::Dropped(reason),
        }
    }
}

/// Mutable context used by the interpreter while processing one pending path.
/// Each scheduler worker owns one context for the length of a run (packet
/// construction uses one more). The solver in it only accumulates
/// statistics; every cache it consults lives on the shared path-condition
/// nodes or is process-wide, so which worker runs a step never changes what
/// that step finds cached.
pub(crate) struct Ctx {
    pub(crate) solver: Solver,
    pub(crate) symbols: VarAllocator,
}

impl Ctx {
    /// A fresh per-worker context. The allocator is a placeholder: every
    /// processed path installs its own allocator for the duration of its step.
    pub(crate) fn new(config: SolverConfig) -> Ctx {
        Ctx {
            solver: Solver::with_config(config),
            symbols: VarAllocator::new(),
        }
    }
}

/// The metadata namespace prefix for local allocations of an element instance.
/// Public so that reference executors (the differential fuzzer's concrete
/// replay) resolve local metadata exactly like the symbolic engine does.
pub fn local_prefix(network: &Network, element: ElementId) -> String {
    format!("local:{}#{}:", network.element(element).name, element.0)
}

/// Interprets one instruction over one state, producing the resulting flows.
pub(crate) fn exec_instr(
    ctx: &mut Ctx,
    local_prefix: &str,
    instr: &Instruction,
    mut state: ExecState,
) -> Vec<Flow> {
    match instr {
        Instruction::NoOp => vec![Flow::running(state)],
        Instruction::Block(instrs) => {
            let mut flows = vec![Flow::running(state)];
            for i in instrs {
                let mut next = Vec::with_capacity(flows.len());
                for flow in flows {
                    match flow.status {
                        FlowStatus::Running => {
                            next.extend(exec_instr(ctx, local_prefix, i, flow.state))
                        }
                        _ => next.push(flow),
                    }
                }
                flows = next;
            }
            flows
        }
        Instruction::Allocate {
            field,
            width,
            visibility,
        } => simple(state, |s| {
            s.allocate_field(field, *width, *visibility, local_prefix)
        }),
        Instruction::Deallocate { field, width } => {
            simple(state, |s| s.deallocate_field(field, *width, local_prefix))
        }
        Instruction::Assign { field, expr } => {
            let width_hint = state
                .read_field(field, local_prefix)
                .map(|s| s.width)
                .unwrap_or(crate::state::DEFAULT_META_WIDTH);
            let value = match state.eval_expr(expr, &mut ctx.symbols, width_hint, local_prefix) {
                Ok(v) => v,
                Err(e) => return vec![Flow::dropped(state, DropReason::Memory(e.to_string()))],
            };
            state.push_trace(TraceEntry::Instruction(format!("Assign({field},{expr})")));
            simple(state, |s| s.write_field(field, value, local_prefix))
        }
        Instruction::CreateTag { name, value } => {
            let addr = match state.resolve_addr(value) {
                Ok(a) => a,
                Err(e) => return vec![Flow::dropped(state, DropReason::Memory(e.to_string()))],
            };
            state.create_tag(name.clone(), addr);
            vec![Flow::running(state)]
        }
        Instruction::DestroyTag { name } => simple(state, |s| s.destroy_tag(name)),
        Instruction::Constrain(cond) => {
            let lowered = match state.lower_condition(cond, &mut ctx.symbols, local_prefix) {
                Ok(f) => f,
                Err(e) => return vec![Flow::dropped(state, DropReason::Memory(e.to_string()))],
            };
            state.push_trace(TraceEntry::Instruction(format!("Constrain({cond})")));
            state.add_constraint(lowered);
            if ctx.solver.is_unsat_path(state.path_cond()) {
                let detail = cond.to_string();
                vec![Flow::dropped(state, DropReason::Unsatisfiable(detail))]
            } else {
                vec![Flow::running(state)]
            }
        }
        Instruction::Fail(msg) => {
            state.push_trace(TraceEntry::Message(msg.clone()));
            vec![Flow::dropped(state, DropReason::Failed(msg.clone()))]
        }
        // The deliberate poison pill: a deterministic panic in both debug and
        // release builds, simulating a defective model or engine. The panic
        // is caught by the worker loop and surfaced as
        // [`EngineError::WorkerPanicked`].
        Instruction::Abort(msg) => panic!("SEFL Abort: {msg}"),
        Instruction::If { .. } => {
            // If-chains (an `If` whose else branch is another `If`) are walked
            // iteratively: the basic switch/router models of §8.1 nest one `If`
            // per table entry, and recursing per entry would overflow the
            // stack on large tables.
            let mut flows = Vec::new();
            let mut current = instr;
            let mut current_state = state;
            loop {
                let Instruction::If {
                    cond,
                    then_branch,
                    else_branch,
                } = current
                else {
                    flows.extend(exec_instr(ctx, local_prefix, current, current_state));
                    break;
                };
                let lowered =
                    match current_state.lower_condition(cond, &mut ctx.symbols, local_prefix) {
                        Ok(f) => f,
                        Err(e) => {
                            flows.push(Flow::dropped(
                                current_state,
                                DropReason::Memory(e.to_string()),
                            ));
                            break;
                        }
                    };
                // Then branch.
                let mut then_state = current_state.clone();
                then_state.push_trace(TraceEntry::Instruction(format!("If({cond}) [then]")));
                then_state.add_constraint(lowered.clone());
                if ctx.solver.is_unsat_path(then_state.path_cond()) {
                    flows.push(Flow::dropped(then_state, DropReason::InfeasibleBranch));
                } else {
                    flows.extend(exec_instr(ctx, local_prefix, then_branch, then_state));
                }
                // Else branch: continue the walk without recursing.
                current_state.push_trace(TraceEntry::Instruction(format!("If({cond}) [else]")));
                current_state.add_constraint(symnet_solver::Formula::not(lowered));
                if ctx.solver.is_unsat_path(current_state.path_cond()) {
                    flows.push(Flow::dropped(current_state, DropReason::InfeasibleBranch));
                    break;
                }
                current = else_branch;
            }
            flows
        }
        Instruction::For { var, pattern, body } => {
            // Snapshot the matching keys before the first iteration (the loop
            // body may create or destroy entries).
            let mut keys: Vec<String> = state
                .metadata()
                .map(|(k, _)| k.to_string())
                .filter_map(|k| {
                    let visible = k.strip_prefix(local_prefix).unwrap_or(&k);
                    if visible.starts_with("local:") {
                        None
                    } else if crate::state::glob_match(pattern, visible) {
                        Some(visible.to_string())
                    } else {
                        None
                    }
                })
                .collect();
            keys.sort();
            keys.dedup();
            let mut flows = vec![Flow::running(state)];
            for key in keys {
                let bound = substitute_meta(body, var, &key);
                let mut next = Vec::with_capacity(flows.len());
                for flow in flows {
                    match flow.status {
                        FlowStatus::Running => {
                            next.extend(exec_instr(ctx, local_prefix, &bound, flow.state))
                        }
                        _ => next.push(flow),
                    }
                }
                flows = next;
            }
            flows
        }
        Instruction::Forward(port) => {
            state.push_trace(TraceEntry::Instruction(format!(
                "Forward(OutputPort({port}))"
            )));
            vec![Flow {
                state,
                status: FlowStatus::SentTo(*port),
            }]
        }
        Instruction::Fork(ports) => {
            if ports.is_empty() {
                return vec![Flow::dropped(state, DropReason::NotForwarded)];
            }
            state.push_trace(TraceEntry::Instruction(format!("Fork({ports:?})")));
            ports
                .iter()
                .map(|p| Flow {
                    state: state.clone(),
                    status: FlowStatus::SentTo(*p),
                })
                .collect()
        }
    }
}

/// Runs a state mutation that may raise a memory-safety error, converting the
/// error into a dropped flow.
fn simple(
    mut state: ExecState,
    op: impl FnOnce(&mut ExecState) -> Result<(), ExecError>,
) -> Vec<Flow> {
    match op(&mut state) {
        Ok(()) => vec![Flow::running(state)],
        Err(e) => vec![Flow::dropped(state, DropReason::Memory(e.to_string()))],
    }
}

/// Rewrites metadata references named `from` to `to` inside an instruction
/// tree — how `For` binds its loop variable. Public so concrete replay
/// interpreters unfold `For` loops with the exact binding semantics of the
/// symbolic engine.
pub fn substitute_meta(instr: &Instruction, from: &str, to: &str) -> Instruction {
    use symnet_sefl::cond::Condition;
    use symnet_sefl::expr::Expr;

    fn sub_field(f: &FieldRef, from: &str, to: &str) -> FieldRef {
        match f {
            FieldRef::Meta(k) if k == from => FieldRef::Meta(to.to_string()),
            other => other.clone(),
        }
    }
    fn sub_expr(e: &Expr, from: &str, to: &str) -> Expr {
        match e {
            Expr::Ref(f) => Expr::Ref(sub_field(f, from, to)),
            Expr::Add(a, b) => Expr::Add(
                Box::new(sub_expr(a, from, to)),
                Box::new(sub_expr(b, from, to)),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(sub_expr(a, from, to)),
                Box::new(sub_expr(b, from, to)),
            ),
            Expr::Neg(a) => Expr::Neg(Box::new(sub_expr(a, from, to))),
            other => other.clone(),
        }
    }
    fn sub_cond(c: &Condition, from: &str, to: &str) -> Condition {
        match c {
            Condition::Cmp { op, lhs, rhs } => Condition::Cmp {
                op: *op,
                lhs: sub_expr(lhs, from, to),
                rhs: sub_expr(rhs, from, to),
            },
            Condition::Match {
                field,
                value,
                prefix_len,
                width,
            } => Condition::Match {
                field: sub_field(field, from, to),
                value: *value,
                prefix_len: *prefix_len,
                width: *width,
            },
            Condition::And(parts) => {
                Condition::And(parts.iter().map(|p| sub_cond(p, from, to)).collect())
            }
            Condition::Or(parts) => {
                Condition::Or(parts.iter().map(|p| sub_cond(p, from, to)).collect())
            }
            Condition::Not(inner) => Condition::Not(Box::new(sub_cond(inner, from, to))),
            other => other.clone(),
        }
    }

    match instr {
        Instruction::Allocate {
            field,
            width,
            visibility,
        } => Instruction::Allocate {
            field: sub_field(field, from, to),
            width: *width,
            visibility: *visibility,
        },
        Instruction::Deallocate { field, width } => Instruction::Deallocate {
            field: sub_field(field, from, to),
            width: *width,
        },
        Instruction::Assign { field, expr } => Instruction::Assign {
            field: sub_field(field, from, to),
            expr: sub_expr(expr, from, to),
        },
        Instruction::Constrain(cond) => Instruction::Constrain(sub_cond(cond, from, to)),
        Instruction::If {
            cond,
            then_branch,
            else_branch,
        } => Instruction::If {
            cond: sub_cond(cond, from, to),
            then_branch: Box::new(substitute_meta(then_branch, from, to)),
            else_branch: Box::new(substitute_meta(else_branch, from, to)),
        },
        Instruction::For { var, pattern, body } if var != from => Instruction::For {
            var: var.clone(),
            pattern: pattern.clone(),
            body: Box::new(substitute_meta(body, from, to)),
        },
        Instruction::Block(instrs) => Instruction::Block(
            instrs
                .iter()
                .map(|i| substitute_meta(i, from, to))
                .collect(),
        ),
        other => other.clone(),
    }
}
