//! Concrete reference execution: replaying one concrete packet through the
//! element programs of a network.
//!
//! The differential oracle's reference side. Where the symbolic engine
//! explores *every* feasible branch of an element program, this interpreter
//! executes the same SEFL instructions over a fully **concrete**
//! [`ExecState`]: conditions evaluate to a boolean (an `If` takes exactly one
//! branch, a `Constrain` either passes or drops the packet), `Fork` duplicates
//! the concrete packet per port, and `Expr::Symbolic` draws the value the
//! solver model assigns to the variable the symbolic engine would have
//! allocated at the same program point (unconstrained variables fall back to
//! the same deterministic default both sides share).
//!
//! Variable alignment: the engine allocates fresh ids sequentially per path,
//! starting from a clone of the post-packet-construction allocator. The
//! replay resumes the same sequence via [`VarAllocator::starting_at`] with
//! `injected.max_symbol_id() + 1`, so along any replayed branch the `n`-th
//! `Expr::Symbolic` evaluation maps to the same variable id on both sides.

use crate::{default_value, tracked_fields, ConcretePacket};
use symnet_core::error::ExecError;
use symnet_core::interp::{local_prefix, substitute_meta};
use symnet_core::network::{ElementId, Network};
use symnet_core::state::{ExecState, DEFAULT_META_WIDTH};
use symnet_core::symbols::VarAllocator;
use symnet_core::value::Value;
use symnet_sefl::cond::Condition;
use symnet_sefl::expr::Expr;
use symnet_sefl::Instruction;
use symnet_solver::{Model, SymVar};

/// Where one concrete packet left the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// The element whose unlinked output port emitted the packet.
    pub element: ElementId,
    /// The output port.
    pub port: usize,
    /// The packet's tracked header fields at the output.
    pub packet: ConcretePacket,
}

/// The result of replaying one concrete packet.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Every delivery of (a copy of) the packet, in exploration order.
    pub outcomes: Vec<ReplayOutcome>,
    /// Copies dropped (failed constraint, memory error, hop budget).
    pub dropped: usize,
}

impl Replay {
    /// True if some copy of the packet was delivered at `(element, port)`.
    pub fn delivered_at(&self, element: ElementId, port: usize) -> bool {
        self.outcomes
            .iter()
            .any(|o| o.element == element && o.port == port)
    }
}

/// Replaces every symbolic value in `state` (all stack levels) with the
/// concrete value `model` assigns it — unconstrained variables get the shared
/// deterministic default — producing the concrete state the replay executes.
pub fn concretize_exec_state(state: &ExecState, model: &Model) -> ExecState {
    let mut concrete = state.clone();
    concrete.map_values(|value| match value {
        Value::Concrete(v) => Value::Concrete(*v),
        Value::Sym { .. } => Value::Concrete(
            value
                .eval(|var| Some(model.value(var.id).unwrap_or_else(|| default_value(var))))
                .expect("total lookup always evaluates"),
        ),
    });
    concrete
}

/// One concretely-executing copy of the packet.
struct CFlow {
    state: ExecState,
    status: CStatus,
}

enum CStatus {
    Running,
    SentTo(usize),
    Dropped,
}

impl CFlow {
    fn running(state: ExecState) -> CFlow {
        CFlow {
            state,
            status: CStatus::Running,
        }
    }

    fn dropped(state: ExecState) -> CFlow {
        CFlow {
            state,
            status: CStatus::Dropped,
        }
    }
}

/// The per-replay oracle: the solver model plus the resumed fresh-variable
/// sequence.
struct ReplayCtx<'a> {
    model: &'a Model,
}

impl ReplayCtx<'_> {
    fn lookup(&self, var: SymVar) -> u64 {
        self.model
            .value(var.id)
            .unwrap_or_else(|| default_value(var))
    }

    /// Evaluates an expression to a concrete value, mirroring the engine's
    /// [`ExecState::eval_expr`] width semantics. A fresh symbolic draws the
    /// next aligned variable id and resolves it through the model.
    fn eval_expr(
        &self,
        state: &ExecState,
        expr: &Expr,
        symbols: &mut VarAllocator,
        width_hint: u16,
        prefix: &str,
    ) -> Result<u64, ExecError> {
        let value = state.eval_expr(expr, symbols, width_hint, prefix)?;
        Ok(value
            .eval(|var| Some(self.lookup(var)))
            .expect("total lookup always evaluates"))
    }

    /// Concretely decides a condition. Every operand is evaluated (no
    /// short-circuiting) so any fresh-variable allocations inside a condition
    /// stay aligned with the engine's lowering, which also visits every
    /// operand.
    fn eval_cond(
        &self,
        state: &ExecState,
        cond: &Condition,
        symbols: &mut VarAllocator,
        prefix: &str,
    ) -> Result<bool, ExecError> {
        use symnet_sefl::cond::RelOp;
        match cond {
            Condition::True => Ok(true),
            Condition::False => Ok(false),
            Condition::Cmp { op, lhs, rhs } => {
                let l = self.eval_expr(state, lhs, symbols, 64, prefix)?;
                let r = self.eval_expr(state, rhs, symbols, 64, prefix)?;
                Ok(match op {
                    RelOp::Eq => l == r,
                    RelOp::Ne => l != r,
                    RelOp::Lt => l < r,
                    RelOp::Le => l <= r,
                    RelOp::Gt => l > r,
                    RelOp::Ge => l >= r,
                })
            }
            Condition::Match {
                field,
                value,
                prefix_len,
                width,
            } => {
                let slot = state.read_field(field, prefix)?;
                let v = slot
                    .value
                    .eval(|var| Some(self.lookup(var)))
                    .expect("total lookup always evaluates");
                let shift = width.saturating_sub(*prefix_len);
                let masked = value & symnet_core::value::width_mask(*width as u16);
                Ok((v >> shift) == (masked >> shift))
            }
            Condition::And(parts) => {
                let mut all = true;
                for p in parts {
                    all &= self.eval_cond(state, p, symbols, prefix)?;
                }
                Ok(all)
            }
            Condition::Or(parts) => {
                let mut any = false;
                for p in parts {
                    any |= self.eval_cond(state, p, symbols, prefix)?;
                }
                Ok(any)
            }
            Condition::Not(inner) => Ok(!self.eval_cond(state, inner, symbols, prefix)?),
        }
    }
}

/// Executes one instruction concretely, producing the surviving flows. A
/// structural mirror of the engine's interpreter with branching resolved:
/// memory errors, failed constraints and `Abort` all drop the flow (the
/// replay never panics — a defective model is the thing under test).
fn exec_concrete(
    ctx: &ReplayCtx<'_>,
    prefix: &str,
    instr: &Instruction,
    mut state: ExecState,
    symbols: &mut VarAllocator,
) -> Vec<CFlow> {
    let simple =
        |mut state: ExecState, op: &dyn Fn(&mut ExecState) -> Result<(), ExecError>| match op(
            &mut state,
        ) {
            Ok(()) => vec![CFlow::running(state)],
            Err(_) => vec![CFlow::dropped(state)],
        };
    match instr {
        Instruction::NoOp => vec![CFlow::running(state)],
        Instruction::Block(instrs) => {
            let mut flows = vec![CFlow::running(state)];
            for i in instrs {
                let mut next = Vec::with_capacity(flows.len());
                for flow in flows {
                    match flow.status {
                        CStatus::Running => {
                            next.extend(exec_concrete(ctx, prefix, i, flow.state, symbols))
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
        } => simple(state, &|s| {
            s.allocate_field(field, *width, *visibility, prefix)
        }),
        Instruction::Deallocate { field, width } => {
            simple(state, &|s| s.deallocate_field(field, *width, prefix))
        }
        Instruction::Assign { field, expr } => {
            let width_hint = state
                .read_field(field, prefix)
                .map(|s| s.width)
                .unwrap_or(DEFAULT_META_WIDTH);
            let value = match ctx.eval_expr(&state, expr, symbols, width_hint, prefix) {
                Ok(v) => v,
                Err(_) => return vec![CFlow::dropped(state)],
            };
            simple(state, &|s| {
                s.write_field(field, Value::Concrete(value), prefix)
            })
        }
        Instruction::CreateTag { name, value } => {
            let addr = match state.resolve_addr(value) {
                Ok(a) => a,
                Err(_) => return vec![CFlow::dropped(state)],
            };
            state.create_tag(name.clone(), addr);
            vec![CFlow::running(state)]
        }
        Instruction::DestroyTag { name } => simple(state, &|s| s.destroy_tag(name)),
        Instruction::Constrain(cond) => match ctx.eval_cond(&state, cond, symbols, prefix) {
            Ok(true) => vec![CFlow::running(state)],
            Ok(false) | Err(_) => vec![CFlow::dropped(state)],
        },
        Instruction::Fail(_) | Instruction::Abort(_) => vec![CFlow::dropped(state)],
        Instruction::If { .. } => {
            // Walk if-chains iteratively like the engine, but follow exactly
            // the branch the concrete state satisfies.
            let mut current = instr;
            loop {
                let Instruction::If {
                    cond,
                    then_branch,
                    else_branch,
                } = current
                else {
                    return exec_concrete(ctx, prefix, current, state, symbols);
                };
                match ctx.eval_cond(&state, cond, symbols, prefix) {
                    Err(_) => return vec![CFlow::dropped(state)],
                    Ok(true) => return exec_concrete(ctx, prefix, then_branch, state, symbols),
                    Ok(false) => current = else_branch,
                }
            }
        }
        Instruction::For { var, pattern, body } => {
            // Same key-snapshot semantics as the engine: visible (unprefixed)
            // keys matching the pattern, sorted and deduplicated, bound via
            // the engine's own substitution helper.
            let mut keys: Vec<String> = state
                .metadata()
                .map(|(k, _)| k.to_string())
                .filter_map(|k| {
                    let visible = k.strip_prefix(prefix).unwrap_or(&k);
                    if visible.starts_with("local:") {
                        None
                    } else if symnet_core::state::glob_match(pattern, visible) {
                        Some(visible.to_string())
                    } else {
                        None
                    }
                })
                .collect();
            keys.sort();
            keys.dedup();
            let mut flows = vec![CFlow::running(state)];
            for key in keys {
                let bound = substitute_meta(body, var, &key);
                let mut next = Vec::with_capacity(flows.len());
                for flow in flows {
                    match flow.status {
                        CStatus::Running => {
                            next.extend(exec_concrete(ctx, prefix, &bound, flow.state, symbols))
                        }
                        _ => next.push(flow),
                    }
                }
                flows = next;
            }
            flows
        }
        Instruction::Forward(port) => vec![CFlow {
            state,
            status: CStatus::SentTo(*port),
        }],
        Instruction::Fork(ports) => {
            if ports.is_empty() {
                return vec![CFlow::dropped(state)];
            }
            ports
                .iter()
                .map(|p| CFlow {
                    state: state.clone(),
                    status: CStatus::SentTo(*p),
                })
                .collect()
        }
    }
}

/// Extracts the tracked header fields of a concrete state.
fn extract_packet(ctx: &ReplayCtx<'_>, state: &ExecState) -> ConcretePacket {
    let mut packet = ConcretePacket::default();
    for (name, field) in tracked_fields() {
        if let Ok(slot) = state.read_field(&field, "") {
            let value = slot
                .value
                .eval(|var| Some(ctx.lookup(var)))
                .expect("total lookup always evaluates");
            packet.set(name, value);
        }
    }
    packet
}

/// Replays a concrete state through `network` starting at
/// `(start, input_port)`, following links until every copy of the packet is
/// delivered at an unlinked output port, dropped, or out of hop budget.
///
/// * `state` is the (already concretized) injected state — see
///   [`concretize_exec_state`];
/// * `next_var` is the first fresh variable id (the injected state's
///   `max_symbol_id() + 1`);
/// * `model` resolves symbolic draws, exactly as the symbolic side's
///   concretization does.
pub fn replay_network(
    network: &Network,
    start: ElementId,
    input_port: usize,
    state: ExecState,
    model: &Model,
    next_var: u64,
    max_hops: usize,
) -> Replay {
    let ctx = ReplayCtx { model };
    let mut replay = Replay::default();
    // (element, input port, state, allocator, hops)
    let mut queue = vec![(
        start,
        input_port,
        state,
        VarAllocator::starting_at(next_var),
        0usize,
    )];
    while let Some((element, in_port, state, mut symbols, hops)) = queue.pop() {
        let program = network.element(element);
        let prefix = local_prefix(network, element);
        let input_code = program.code_for_input(in_port);
        let flows = exec_concrete(&ctx, &prefix, &input_code, state, &mut symbols);
        for flow in flows {
            match flow.status {
                CStatus::Running | CStatus::Dropped => replay.dropped += 1,
                CStatus::SentTo(out_port) => {
                    if out_port >= program.output_count {
                        replay.dropped += 1;
                        continue;
                    }
                    let output_code = program.code_for_output(out_port);
                    // Each forked copy continues with its own allocator clone,
                    // mirroring how the engine snapshots its allocator per
                    // spawned child.
                    let mut out_symbols = symbols.clone();
                    let out_flows =
                        exec_concrete(&ctx, &prefix, &output_code, flow.state, &mut out_symbols);
                    for out_flow in out_flows {
                        match out_flow.status {
                            CStatus::Dropped | CStatus::SentTo(_) => replay.dropped += 1,
                            CStatus::Running => match network.link_from(element, out_port) {
                                None => replay.outcomes.push(ReplayOutcome {
                                    element,
                                    port: out_port,
                                    packet: extract_packet(&ctx, &out_flow.state),
                                }),
                                Some((next_element, next_port)) => {
                                    if hops + 1 > max_hops {
                                        replay.dropped += 1;
                                    } else {
                                        queue.push((
                                            next_element,
                                            next_port,
                                            out_flow.state,
                                            out_symbols.clone(),
                                            hops + 1,
                                        ));
                                    }
                                }
                            },
                        }
                    }
                }
            }
        }
    }
    replay
}

#[cfg(test)]
mod tests {
    use super::*;
    use symnet_core::engine::{ExecConfig, SymNet};
    use symnet_models::acl::{acl_filter, AclAction, AclRule, AclTable};
    use symnet_sefl::packet::symbolic_l3_tcp_packet;
    use symnet_solver::{Model, Solver};

    /// The replay interpreter covers `acl_filter`: the compiled
    /// first-match-wins if-chain takes exactly the branch the concrete
    /// packet satisfies. A permit is delivered at the filter's output and a
    /// shadowing deny (port 22 above the permit-any tail) drops the packet —
    /// in agreement with the symbolic side path-for-path.
    #[test]
    fn replay_covers_acl_filter() {
        let mut table = AclTable::new();
        table.push(AclRule {
            src: None,
            dst: None,
            proto: None,
            dst_port: Some(22),
            action: AclAction::Deny,
        });
        table.push(AclRule::permit_any());

        let mut network = Network::new();
        let filter = network.add_element(acl_filter("gate", &table));
        let engine = SymNet::with_config(network.clone(), ExecConfig::default().with_threads(1));
        let report = engine.inject(filter, 0, &symbolic_l3_tcp_packet());
        let next_var = report.injected.max_symbol_id().map_or(0, |id| id + 1);

        let mut solver = Solver::default();
        let mut delivered = 0usize;
        for path in report.delivered() {
            let model = solver
                .model(&path.state.path_condition())
                .expect("delivered ACL paths are satisfiable");
            let injected = concretize_exec_state(&report.injected, &model);
            let replay = replay_network(&network, filter, 0, injected, &model, next_var, 8);
            assert!(
                replay.delivered_at(filter, 0),
                "a permitted concrete packet must clear the compiled if-chain"
            );
            let observed = &replay.outcomes[0].packet;
            assert_ne!(
                observed.fields.get("TcpDst"),
                Some(&22),
                "a packet to the denied port must never be delivered"
            );
            delivered += 1;
        }
        assert!(delivered > 0, "the permit-any tail must deliver traffic");

        // The denied branch: pin TcpDst to 22 and replay — every copy drops.
        let denied_model: Model = report
            .delivered()
            .next()
            .map(|_| Model::new())
            .expect("at least one delivered path");
        let mut pinned = concretize_exec_state(&report.injected, &denied_model);
        pinned
            .write_field(
                &symnet_sefl::fields::tcp_dst().field(),
                Value::Concrete(22),
                "",
            )
            .expect("tcp_dst present on the L3+TCP layout");
        let replay = replay_network(&network, filter, 0, pinned, &denied_model, next_var, 8);
        assert!(
            replay.outcomes.is_empty() && replay.dropped > 0,
            "a dst-port-22 packet must be dropped by the shadowing deny"
        );
    }
}
