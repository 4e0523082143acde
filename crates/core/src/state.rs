//! Per-path execution state.
//!
//! "The state includes header variables and map entries (called metadata)
//! together with their values and constraints" (§4). The two SymNet-specific
//! enhancements from §5 are implemented here:
//!
//! * header addresses and metadata keys map to **value stacks**, so
//!   `Allocate`/`Deallocate` can mask a value and restore it later (this is
//!   what makes tunnel encapsulation/decapsulation natural to model), and
//! * the state keeps the **history** needed for the §6 analyses: the trace of
//!   visited ports/instructions and the accumulated path condition.

use crate::error::ExecError;
use crate::pmap::PMap;
use crate::symbols::VarAllocator;
use crate::value::{width_mask, Value};
use std::sync::Arc;
use symnet_sefl::cond::{Condition, RelOp};
use symnet_sefl::expr::Expr;
use symnet_sefl::field::{FieldRef, HeaderAddr, Visibility};
use symnet_solver::{CmpOp, Formula, PathCond};

/// Default width (in bits) of metadata entries allocated without an explicit
/// width.
pub const DEFAULT_META_WIDTH: u16 = 64;

/// One live allocation of a header field or metadata entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Current value.
    pub value: Value,
    /// Width of the field in bits.
    pub width: u16,
}

/// An entry of the per-path execution trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEntry {
    /// The path entered an element port (`element name`, `port description`).
    Port(String),
    /// The path executed a noteworthy instruction (constrain, assign, fail...).
    Instruction(String),
    /// A free-form message (e.g. the argument of `Fail`).
    Message(String),
}

/// The per-path execution trace, as an `Arc` cons-list: appending is O(1) and
/// forking a path shares the parent's entire trace (one pointer clone) instead
/// of deep-copying a vector whose length grows with every hop. Entries
/// compare and print oldest-first, exactly like the `Vec` this replaced.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    head: Option<Arc<TraceNode>>,
    len: usize,
}

#[derive(Debug)]
struct TraceNode {
    entry: TraceEntry,
    prev: Option<Arc<TraceNode>>,
}

impl Trace {
    /// Appends an entry (O(1); the current trace becomes the shared tail).
    pub fn push(&mut self, entry: TraceEntry) {
        self.head = Some(Arc::new(TraceNode {
            entry,
            prev: self.head.take(),
        }));
        self.len += 1;
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entry was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates newest-first (the cheap direction for a cons-list).
    pub fn iter_newest_first(&self) -> impl Iterator<Item = &TraceEntry> {
        std::iter::successors(self.head.as_deref(), |n| n.prev.as_deref()).map(|n| &n.entry)
    }

    /// The entries oldest-first (execution order), as borrowed references.
    pub fn entries(&self) -> Vec<&TraceEntry> {
        let mut out: Vec<&TraceEntry> = self.iter_newest_first().collect();
        out.reverse();
        out
    }
}

impl Drop for Trace {
    /// Unlinks the chain iteratively, exactly like [`PathCond`]'s `Drop`: the
    /// naive recursive drop of a long cons-list (one `Drop` frame per node)
    /// would overflow the stack on the tens-of-thousands-entry traces that
    /// basic switch/router models accrete (one entry per table-entry `If`
    /// evaluated, times up to `max_hops` elements).
    fn drop(&mut self) {
        let mut cur = self.head.take();
        while let Some(node) = cur {
            match Arc::try_unwrap(node) {
                // Sole owner: steal the tail link and keep unlinking.
                Ok(mut owned) => cur = owned.prev.take(),
                // Still shared: the other owners keep the rest alive.
                Err(_) => break,
            }
        }
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Forked siblings share their common tail: stop at the first shared
        // node instead of walking both lists to the end.
        let mut a = self.head.as_ref();
        let mut b = other.head.as_ref();
        while let (Some(x), Some(y)) = (a, b) {
            if Arc::ptr_eq(x, y) {
                return true;
            }
            if x.entry != y.entry {
                return false;
            }
            a = x.prev.as_ref();
            b = y.prev.as_ref();
        }
        true
    }
}

impl Eq for Trace {}

/// The execution state of one path (one packet).
///
/// Every container in here is persistent (structurally shared): the header and
/// metadata maps are path-copying [`PMap`]s, the tag map likewise, the path
/// condition a [`PathCond`] cons-list and the trace a [`Trace`] cons-list.
/// Cloning a state — which is exactly what forking a path at `If`/`Fork` does
/// — therefore touches O(1) words, and a child's first write to a map copies
/// only the O(log n) nodes on its search path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecState {
    /// Packet header: bit address → stack of allocations (top is live).
    headers: PMap<i64, Vec<Slot>>,
    /// Metadata map: key → stack of allocations (top is live).
    meta: PMap<String, Vec<Slot>>,
    /// Tags: name → absolute bit address.
    tags: PMap<String, i64>,
    /// Path condition, as a persistent (structurally shared) conjunction:
    /// forked paths share their common prefix — and the solver analysis
    /// cached on it — instead of deep-copying a constraint vector.
    constraints: PathCond,
    /// Trace of ports visited and instructions executed.
    trace: Trace,
}

impl ExecState {
    /// Creates the empty initial state (no headers, metadata or tags).
    pub fn new() -> Self {
        ExecState::default()
    }

    // ------------------------------------------------------------------
    // Tags
    // ------------------------------------------------------------------

    /// Returns the absolute address of a tag.
    pub fn tag(&self, name: &str) -> Option<i64> {
        self.tags.get(name).copied()
    }

    /// Creates (or moves) a tag at the given absolute address.
    pub fn create_tag(&mut self, name: impl Into<String>, address: i64) {
        self.tags.insert(name.into(), address);
    }

    /// Destroys a tag. Destroying a missing tag is an error (it usually means
    /// a decapsulation model ran on a packet that was never encapsulated).
    pub fn destroy_tag(&mut self, name: &str) -> Result<(), ExecError> {
        self.tags
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ExecError::UnknownTag(name.to_string()))
    }

    /// All currently defined tags.
    pub fn tags(&self) -> impl Iterator<Item = (&str, i64)> {
        self.tags.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Resolves a header address (absolute or tag-relative) to an absolute bit
    /// address.
    pub fn resolve_addr(&self, addr: &HeaderAddr) -> Result<i64, ExecError> {
        match addr {
            HeaderAddr::Absolute(a) => Ok(*a),
            HeaderAddr::TagOffset { tag, offset } => self
                .tag(tag)
                .map(|base| base + offset)
                .ok_or_else(|| ExecError::UnknownTag(tag.clone())),
        }
    }

    // ------------------------------------------------------------------
    // Header fields
    // ------------------------------------------------------------------

    /// Allocates a header field of `width` bits at the given absolute address,
    /// pushing a new value stack entry. Allocation at the same address stacks
    /// (masking the previous value); overlapping a *different* live allocation
    /// is a memory-safety error.
    pub fn allocate_header(&mut self, address: i64, width: u16) -> Result<(), ExecError> {
        for (&other, stack) in &self.headers {
            if other == address || stack.iter().last().is_none() {
                continue;
            }
            if stack.last().is_some() {
                let other_width = stack.last().unwrap().width as i64;
                let overlaps = address < other + other_width && other < address + width as i64;
                if overlaps {
                    return Err(ExecError::Overlap {
                        address,
                        width,
                        existing: other,
                    });
                }
            }
        }
        let slot = Slot {
            value: Value::Concrete(0),
            width,
        };
        if let Some(stack) = self.headers.get_mut(&address) {
            stack.push(slot);
        } else {
            self.headers.insert(address, vec![slot]);
        }
        Ok(())
    }

    /// Pops the topmost allocation at `address`, optionally checking its width.
    pub fn deallocate_header(
        &mut self,
        address: i64,
        expected_width: Option<u16>,
    ) -> Result<(), ExecError> {
        let stack = self
            .headers
            .get_mut(&address)
            .filter(|s| !s.is_empty())
            .ok_or(ExecError::Unallocated { address })?;
        let top = stack.last().expect("non-empty checked above");
        if let Some(expected) = expected_width {
            if top.width != expected {
                return Err(ExecError::WidthMismatch {
                    expected,
                    actual: top.width,
                });
            }
        }
        stack.pop();
        let emptied = stack.is_empty();
        if emptied {
            self.headers.remove(&address);
        }
        Ok(())
    }

    /// Reads the live allocation at `address`. Accesses must be exactly
    /// aligned with an allocation (the paper's header memory safety).
    pub fn read_header(&self, address: i64) -> Result<&Slot, ExecError> {
        self.headers
            .get(&address)
            .and_then(|s| s.last())
            .ok_or(ExecError::Unallocated { address })
    }

    /// Overwrites the value of the live allocation at `address`.
    pub fn write_header(&mut self, address: i64, value: Value) -> Result<(), ExecError> {
        let slot = self
            .headers
            .get_mut(&address)
            .and_then(|s| s.last_mut())
            .ok_or(ExecError::Unallocated { address })?;
        slot.value = match value {
            Value::Concrete(v) => Value::Concrete(v & width_mask(slot.width)),
            sym => sym,
        };
        Ok(())
    }

    /// True if a live header allocation exists at `address`.
    pub fn header_allocated(&self, address: i64) -> bool {
        self.headers.get(&address).is_some_and(|s| !s.is_empty())
    }

    /// Iterates over every live header allocation as `(address, slot)`.
    pub fn headers(&self) -> impl Iterator<Item = (i64, &Slot)> {
        self.headers
            .iter()
            .filter_map(|(addr, stack)| stack.last().map(|s| (*addr, s)))
    }

    /// Depth of the value stack at a header address (0 if never allocated).
    pub fn header_stack_depth(&self, address: i64) -> usize {
        self.headers.get(&address).map_or(0, Vec::len)
    }

    // ------------------------------------------------------------------
    // Metadata
    // ------------------------------------------------------------------

    /// Allocates a metadata entry, pushing onto its value stack.
    pub fn allocate_meta(&mut self, key: impl Into<String>, width: u16) {
        let key = key.into();
        let slot = Slot {
            value: Value::Concrete(0),
            width,
        };
        if let Some(stack) = self.meta.get_mut(&key) {
            stack.push(slot);
        } else {
            self.meta.insert(key, vec![slot]);
        }
    }

    /// Pops the topmost allocation of a metadata entry.
    pub fn deallocate_meta(
        &mut self,
        key: &str,
        expected_width: Option<u16>,
    ) -> Result<(), ExecError> {
        let stack = self
            .meta
            .get_mut(key)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| ExecError::UnknownMetadata(key.to_string()))?;
        let top = stack.last().expect("non-empty checked above");
        if let Some(expected) = expected_width {
            if top.width != expected {
                return Err(ExecError::WidthMismatch {
                    expected,
                    actual: top.width,
                });
            }
        }
        stack.pop();
        let emptied = stack.is_empty();
        if emptied {
            self.meta.remove(key);
        }
        Ok(())
    }

    /// Reads a metadata entry.
    pub fn read_meta(&self, key: &str) -> Result<&Slot, ExecError> {
        self.meta
            .get(key)
            .and_then(|s| s.last())
            .ok_or_else(|| ExecError::UnknownMetadata(key.to_string()))
    }

    /// Writes a metadata entry. Writing a key that was never allocated
    /// allocates it implicitly with the default width, which matches how the
    /// paper's models freely `Assign` to metadata such as `"OPT30"`.
    pub fn write_meta(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(top) = self.meta.get_mut(&key).and_then(|s| s.last_mut()) {
            top.value = match value {
                Value::Concrete(v) => Value::Concrete(v & width_mask(top.width)),
                sym => sym,
            };
            return;
        }
        self.meta.insert(
            key,
            vec![Slot {
                value,
                width: DEFAULT_META_WIDTH,
            }],
        );
    }

    /// True if a live metadata entry exists for `key`.
    pub fn meta_allocated(&self, key: &str) -> bool {
        self.meta.get(key).is_some_and(|s| !s.is_empty())
    }

    /// Iterates over every live metadata entry as `(key, slot)`.
    pub fn metadata(&self) -> impl Iterator<Item = (&str, &Slot)> {
        self.meta
            .iter()
            .filter_map(|(k, stack)| stack.last().map(|s| (k.as_str(), s)))
    }

    /// Snapshot of the metadata keys matching a glob pattern (`*` matches any
    /// substring), used to unfold `For` loops.
    pub fn meta_keys_matching(&self, pattern: &str) -> Vec<String> {
        self.meta
            .iter()
            .filter(|(_, stack)| !stack.is_empty())
            .filter(|(key, _)| glob_match(pattern, key))
            .map(|(key, _)| key.clone())
            .collect()
    }

    // ------------------------------------------------------------------
    // Whole-state value transforms (differential-testing support)
    // ------------------------------------------------------------------

    /// Rewrites **every** stored value — all stack levels of all header
    /// allocations and metadata entries, not just the live tops. This is the
    /// concretization hook of the differential fuzzer: mapping each
    /// [`Value::Sym`] to the concrete value a solver model assigns turns a
    /// symbolic injected state into the concrete packet a replay interpreter
    /// can execute, *including* the values masked by later encapsulations
    /// (which a top-of-stack walk would miss and a decapsulation would then
    /// re-expose).
    pub fn map_values(&mut self, mut f: impl FnMut(&Value) -> Value) {
        let addresses: Vec<i64> = self.headers.iter().map(|(a, _)| *a).collect();
        for address in addresses {
            if let Some(stack) = self.headers.get_mut(&address) {
                for slot in stack.iter_mut() {
                    slot.value = f(&slot.value);
                }
            }
        }
        let keys: Vec<String> = self.meta.iter().map(|(k, _)| k.clone()).collect();
        for key in keys {
            if let Some(stack) = self.meta.get_mut(&key) {
                for slot in stack.iter_mut() {
                    slot.value = f(&slot.value);
                }
            }
        }
    }

    /// The largest symbolic-variable id stored anywhere in this state (again
    /// over all stack levels), or `None` if the state is fully concrete.
    /// Replay interpreters use `max_symbol_id() + 1` on the injected state as
    /// the first id the engine's per-path allocator would hand out, which is
    /// what keeps a replayed `Expr::Symbolic` aligned with the variable the
    /// symbolic execution allocated at the same program point.
    pub fn max_symbol_id(&self) -> Option<u64> {
        let header_ids = self
            .headers
            .iter()
            .flat_map(|(_, stack)| stack.iter())
            .filter_map(|slot| match slot.value {
                Value::Sym { var, .. } => Some(var.id.0),
                Value::Concrete(_) => None,
            });
        let meta_ids = self
            .meta
            .iter()
            .flat_map(|(_, stack)| stack.iter())
            .filter_map(|slot| match slot.value {
                Value::Sym { var, .. } => Some(var.id.0),
                Value::Concrete(_) => None,
            });
        header_ids.chain(meta_ids).max()
    }

    // ------------------------------------------------------------------
    // Field resolution (headers and metadata uniformly)
    // ------------------------------------------------------------------

    /// Reads the value and width of a field reference. `local_prefix`
    /// namespaces local metadata (see [`ExecState::meta_key_for`]).
    pub fn read_field(&self, field: &FieldRef, local_prefix: &str) -> Result<Slot, ExecError> {
        match field {
            FieldRef::Header(addr) => {
                let address = self.resolve_addr(addr)?;
                self.read_header(address).cloned()
            }
            FieldRef::Meta(key) => {
                let key = self.meta_key_for(key, local_prefix);
                self.read_meta(&key).cloned()
            }
        }
    }

    /// Writes a field reference.
    pub fn write_field(
        &mut self,
        field: &FieldRef,
        value: Value,
        local_prefix: &str,
    ) -> Result<(), ExecError> {
        match field {
            FieldRef::Header(addr) => {
                let address = self.resolve_addr(addr)?;
                self.write_header(address, value)
            }
            FieldRef::Meta(key) => {
                let key = self.meta_key_for(key, local_prefix);
                self.write_meta(key, value);
                Ok(())
            }
        }
    }

    /// The storage key used for a metadata reference: if a local entry
    /// (`{local_prefix}{key}`) exists it shadows the global one; this is how
    /// cascaded NAT instances each see their own `"orig-ip"` (§7).
    pub fn meta_key_for(&self, key: &str, local_prefix: &str) -> String {
        let local = format!("{local_prefix}{key}");
        if self.meta_allocated(&local) {
            local
        } else {
            key.to_string()
        }
    }

    /// The storage key a *new local allocation* should use.
    pub fn local_meta_key(key: &str, local_prefix: &str) -> String {
        format!("{local_prefix}{key}")
    }

    /// Allocates a field reference (header or metadata).
    pub fn allocate_field(
        &mut self,
        field: &FieldRef,
        width: Option<u16>,
        visibility: Visibility,
        local_prefix: &str,
    ) -> Result<(), ExecError> {
        match field {
            FieldRef::Header(addr) => {
                let address = self.resolve_addr(addr)?;
                let width = width.ok_or_else(|| {
                    ExecError::Unsupported("header allocation requires an explicit width".into())
                })?;
                self.allocate_header(address, width)
            }
            FieldRef::Meta(key) => {
                let key = match visibility {
                    Visibility::Global => key.clone(),
                    Visibility::Local => Self::local_meta_key(key, local_prefix),
                };
                self.allocate_meta(key, width.unwrap_or(DEFAULT_META_WIDTH));
                Ok(())
            }
        }
    }

    /// Deallocates a field reference.
    pub fn deallocate_field(
        &mut self,
        field: &FieldRef,
        width: Option<u16>,
        local_prefix: &str,
    ) -> Result<(), ExecError> {
        match field {
            FieldRef::Header(addr) => {
                let address = self.resolve_addr(addr)?;
                self.deallocate_header(address, width)
            }
            FieldRef::Meta(key) => {
                let key = self.meta_key_for(key, local_prefix);
                self.deallocate_meta(&key, width)
            }
        }
    }

    // ------------------------------------------------------------------
    // Expressions and conditions
    // ------------------------------------------------------------------

    /// Symbolically evaluates an expression to a value. `width_hint` is the
    /// width given to fresh symbolic values when the expression does not force
    /// one (typically the width of the assignment target).
    pub fn eval_expr(
        &self,
        expr: &Expr,
        symbols: &mut VarAllocator,
        width_hint: u16,
        local_prefix: &str,
    ) -> Result<Value, ExecError> {
        match expr {
            Expr::Const(c) => Ok(Value::Concrete(*c)),
            Expr::Ref(field) => Ok(self.read_field(field, local_prefix)?.value),
            Expr::Symbolic { width } => {
                Ok(Value::symbolic(symbols.fresh(width.unwrap_or(width_hint))))
            }
            Expr::Add(a, b) => {
                let va = self.eval_expr(a, symbols, width_hint, local_prefix)?;
                let vb = self.eval_expr(b, symbols, width_hint, local_prefix)?;
                combine(va, vb, width_hint, false)
            }
            Expr::Sub(a, b) => {
                let va = self.eval_expr(a, symbols, width_hint, local_prefix)?;
                let vb = self.eval_expr(b, symbols, width_hint, local_prefix)?;
                combine(va, vb, width_hint, true)
            }
            Expr::Neg(a) => {
                let va = self.eval_expr(a, symbols, width_hint, local_prefix)?;
                match va {
                    Value::Concrete(v) => {
                        Ok(Value::Concrete((v.wrapping_neg()) & width_mask(width_hint)))
                    }
                    Value::Sym { .. } => Err(ExecError::Unsupported(
                        "negation of a symbolic value".into(),
                    )),
                }
            }
        }
    }

    /// Lowers an SEFL condition into a solver formula, evaluating every field
    /// reference against the current state.
    pub fn lower_condition(
        &self,
        cond: &Condition,
        symbols: &mut VarAllocator,
        local_prefix: &str,
    ) -> Result<Formula, ExecError> {
        match cond {
            Condition::True => Ok(Formula::True),
            Condition::False => Ok(Formula::False),
            Condition::Cmp { op, lhs, rhs } => {
                let l = self.eval_expr(lhs, symbols, 64, local_prefix)?;
                let r = self.eval_expr(rhs, symbols, 64, local_prefix)?;
                Ok(Formula::cmp(to_cmp_op(*op), l.to_term(), r.to_term()))
            }
            Condition::Match {
                field,
                value,
                prefix_len,
                width,
            } => {
                let slot = self.read_field(field, local_prefix)?;
                match slot.value {
                    Value::Concrete(v) => {
                        let w = *width;
                        let shift = w.saturating_sub(*prefix_len);
                        let matches = (v >> shift) == ((*value & width_mask(w as u16)) >> shift);
                        Ok(if matches {
                            Formula::True
                        } else {
                            Formula::False
                        })
                    }
                    Value::Sym { var, offset } => {
                        if offset != 0 {
                            return Err(ExecError::Unsupported(
                                "prefix match on an offset symbolic value".into(),
                            ));
                        }
                        Ok(Formula::prefix_match(var, *value, *prefix_len))
                    }
                }
            }
            Condition::And(parts) => {
                let lowered = parts
                    .iter()
                    .map(|p| self.lower_condition(p, symbols, local_prefix))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Formula::and(lowered))
            }
            Condition::Or(parts) => {
                let lowered = parts
                    .iter()
                    .map(|p| self.lower_condition(p, symbols, local_prefix))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Formula::or(lowered))
            }
            Condition::Not(inner) => Ok(Formula::not(self.lower_condition(
                inner,
                symbols,
                local_prefix,
            )?)),
        }
    }

    // ------------------------------------------------------------------
    // Path condition and trace
    // ------------------------------------------------------------------

    /// Adds a formula to the path condition. O(1): the previous condition
    /// becomes the shared prefix of the new one (`Formula::True` is absorbed).
    pub fn add_constraint(&mut self, formula: Formula) {
        self.constraints = self.constraints.push(formula);
    }

    /// The path condition as a shared-prefix handle — the representation the
    /// incremental solver queries operate on ([`symnet_solver::Solver::check_path`]).
    pub fn path_cond(&self) -> &PathCond {
        &self.constraints
    }

    /// The path condition materialised as a single conjunction (insertion
    /// order). O(n) — meant for reports and one-off queries, not the solving
    /// hot path; prefer [`ExecState::path_cond`] there.
    pub fn path_condition(&self) -> Formula {
        self.constraints.to_formula()
    }

    /// Number of conjuncts in the path condition.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Total number of atoms across the path condition — the "number of
    /// constraints" metric reported in §8.1.
    pub fn constraint_atoms(&self) -> usize {
        self.constraints.atom_count()
    }

    /// Appends a trace entry (O(1); the shared tail is untouched).
    pub fn push_trace(&mut self, entry: TraceEntry) {
        self.trace.push(entry);
    }

    /// The execution trace, oldest-first. The entries live in `Arc`-shared
    /// cons-list cells, so this materialises a vector of references (O(n)) —
    /// meant for reports and assertions, not hot paths.
    pub fn trace(&self) -> Vec<&TraceEntry> {
        self.trace.entries()
    }

    /// The execution trace as its shared cons-list: the length, and a
    /// borrowing newest-first walk that allocates nothing. Forked paths share
    /// the cells of their common prefix, so two entries at the same address
    /// are the same cell — which is how the report writer recognises a prefix
    /// it has already rendered.
    pub fn trace_list(&self) -> &Trace {
        &self.trace
    }

    /// The ports visited by this path, in order.
    pub fn ports_visited(&self) -> Vec<&str> {
        let mut ports: Vec<&str> = self
            .trace
            .iter_newest_first()
            .filter_map(|e| match e {
                TraceEntry::Port(p) => Some(p.as_str()),
                _ => None,
            })
            .collect();
        ports.reverse();
        ports
    }
}

/// Combines two values with `+` or `-`. At most one operand may be symbolic
/// (SEFL expressions never need the sum of two symbols).
fn combine(a: Value, b: Value, width: u16, subtract: bool) -> Result<Value, ExecError> {
    match (a, b) {
        (Value::Concrete(x), Value::Concrete(y)) => {
            let r = if subtract {
                x.wrapping_sub(y)
            } else {
                x.wrapping_add(y)
            };
            Ok(Value::Concrete(r & width_mask(width)))
        }
        (Value::Sym { var, offset }, Value::Concrete(c)) => {
            let delta = if subtract { -(c as i64) } else { c as i64 };
            Ok(Value::Sym {
                var,
                offset: offset + delta,
            })
        }
        (Value::Concrete(c), Value::Sym { var, offset }) if !subtract => Ok(Value::Sym {
            var,
            offset: offset + c as i64,
        }),
        _ => Err(ExecError::Unsupported(
            "arithmetic between two symbolic values".into(),
        )),
    }
}

/// Converts an SEFL relational operator to a solver comparison operator.
pub fn to_cmp_op(op: RelOp) -> CmpOp {
    match op {
        RelOp::Eq => CmpOp::Eq,
        RelOp::Ne => CmpOp::Ne,
        RelOp::Lt => CmpOp::Lt,
        RelOp::Le => CmpOp::Le,
        RelOp::Gt => CmpOp::Gt,
        RelOp::Ge => CmpOp::Ge,
    }
}

/// Glob matching with `*` wildcards (the subset of regular expressions the
/// paper's `For` loops actually use, e.g. `"OPT*"`).
pub fn glob_match(pattern: &str, text: &str) -> bool {
    fn inner(p: &[u8], t: &[u8]) -> bool {
        match (p.first(), t.first()) {
            (None, None) => true,
            (Some(b'*'), _) => inner(&p[1..], t) || (!t.is_empty() && inner(p, &t[1..])),
            (Some(pc), Some(tc)) if pc == tc => inner(&p[1..], &t[1..]),
            _ => false,
        }
    }
    inner(pattern.as_bytes(), text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use symnet_sefl::fields;
    use symnet_solver::Term;

    fn state_with_l3() -> ExecState {
        let mut s = ExecState::new();
        s.create_tag("Start", 0);
        s.create_tag("L3", 0);
        s
    }

    #[test]
    fn tag_resolution() {
        let mut s = ExecState::new();
        s.create_tag("L2", 0);
        assert_eq!(
            s.resolve_addr(&HeaderAddr::tag_offset("L2", 112)).unwrap(),
            112
        );
        assert_eq!(s.resolve_addr(&HeaderAddr::absolute(-160)).unwrap(), -160);
        assert!(matches!(
            s.resolve_addr(&HeaderAddr::tag("L4")),
            Err(ExecError::UnknownTag(_))
        ));
        s.destroy_tag("L2").unwrap();
        assert!(s.destroy_tag("L2").is_err());
    }

    #[test]
    fn header_allocation_stacks_and_masks() {
        let mut s = state_with_l3();
        s.allocate_header(96, 32).unwrap();
        s.write_header(96, Value::Concrete(0xc0a80101)).unwrap();
        // Re-allocating at the same address masks the old value...
        s.allocate_header(96, 32).unwrap();
        s.write_header(96, Value::Concrete(0x08080808)).unwrap();
        assert_eq!(
            s.read_header(96).unwrap().value,
            Value::Concrete(0x08080808)
        );
        assert_eq!(s.header_stack_depth(96), 2);
        // ...and deallocation restores it.
        s.deallocate_header(96, Some(32)).unwrap();
        assert_eq!(
            s.read_header(96).unwrap().value,
            Value::Concrete(0xc0a80101)
        );
        s.deallocate_header(96, None).unwrap();
        assert!(s.read_header(96).is_err());
    }

    #[test]
    fn header_memory_safety_checks() {
        let mut s = state_with_l3();
        s.allocate_header(0, 32).unwrap();
        // Overlapping a different live allocation fails.
        assert!(matches!(
            s.allocate_header(16, 32),
            Err(ExecError::Overlap { .. })
        ));
        // Disjoint allocation succeeds.
        s.allocate_header(32, 16).unwrap();
        // Deallocation width check.
        assert!(matches!(
            s.deallocate_header(32, Some(32)),
            Err(ExecError::WidthMismatch { .. })
        ));
        // Reading an unallocated address fails (the L4-before-decap case).
        assert!(matches!(
            s.read_header(1000),
            Err(ExecError::Unallocated { .. })
        ));
        // Concrete writes are masked to the field width.
        s.write_header(32, Value::Concrete(0x1ffff)).unwrap();
        assert_eq!(s.read_header(32).unwrap().value, Value::Concrete(0xffff));
    }

    #[test]
    fn metadata_stacking_and_local_shadowing() {
        let mut s = ExecState::new();
        s.allocate_meta("orig-ip", 32);
        s.write_meta("orig-ip", Value::Concrete(1));
        // A local allocation by NAT instance "nat1" shadows the global entry.
        let local = ExecState::local_meta_key("orig-ip", "local:nat1:");
        s.allocate_meta(local.clone(), 32);
        s.write_meta(local.clone(), Value::Concrete(2));
        assert_eq!(s.meta_key_for("orig-ip", "local:nat1:"), local);
        assert_eq!(s.meta_key_for("orig-ip", "local:nat2:"), "orig-ip");
        assert_eq!(
            s.read_field(&FieldRef::meta("orig-ip"), "local:nat1:")
                .unwrap()
                .value,
            Value::Concrete(2)
        );
        assert_eq!(
            s.read_field(&FieldRef::meta("orig-ip"), "local:nat2:")
                .unwrap()
                .value,
            Value::Concrete(1)
        );
        // Unknown metadata read fails.
        assert!(s.read_meta("missing").is_err());
        assert!(s.deallocate_meta("missing", None).is_err());
    }

    #[test]
    fn meta_keys_matching_globs() {
        let mut s = ExecState::new();
        for key in ["OPT2", "OPT4", "OPT30", "SIZE2", "VAL2"] {
            s.allocate_meta(key, 16);
        }
        let mut opts = s.meta_keys_matching("OPT*");
        opts.sort();
        assert_eq!(opts, vec!["OPT2", "OPT30", "OPT4"]);
        assert_eq!(s.meta_keys_matching("*2").len(), 3);
        assert_eq!(s.meta_keys_matching("NONE*").len(), 0);
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("OPT*", "OPT30"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("*", ""));
        assert!(glob_match("a*b*c", "aXXbYYc"));
        assert!(!glob_match("a*b", "ac"));
        assert!(glob_match("exact", "exact"));
        assert!(!glob_match("exact", "exactly"));
    }

    #[test]
    fn expression_evaluation() {
        let mut s = state_with_l3();
        let mut symbols = VarAllocator::new();
        s.allocate_header(16, 16).unwrap(); // IpLength at L3+16
        s.write_header(16, Value::Concrete(1500)).unwrap();
        let f = fields::ip_length().field();
        // Concrete arithmetic.
        let v = s
            .eval_expr(&Expr::reference(f.clone()).plus(20), &mut symbols, 16, "")
            .unwrap();
        assert_eq!(v, Value::Concrete(1520));
        // Symbolic arithmetic carries offsets.
        let sym = symbols.fresh(16);
        s.write_header(16, Value::symbolic(sym)).unwrap();
        let v = s
            .eval_expr(&Expr::reference(f.clone()).plus(20), &mut symbols, 16, "")
            .unwrap();
        assert_eq!(
            v,
            Value::Sym {
                var: sym,
                offset: 20
            }
        );
        // Fresh symbolic values get distinct variables.
        let a = s
            .eval_expr(&Expr::symbolic(), &mut symbols, 16, "")
            .unwrap();
        let b = s
            .eval_expr(&Expr::symbolic(), &mut symbols, 16, "")
            .unwrap();
        assert_ne!(a, b);
        // Sum of two symbols is rejected.
        let bad = Expr::reference(f.clone()).add(Expr::reference(f));
        assert!(s.eval_expr(&bad, &mut symbols, 16, "").is_err());
    }

    #[test]
    fn condition_lowering() {
        let mut s = state_with_l3();
        let mut symbols = VarAllocator::new();
        let dst_addr = 128;
        s.allocate_header(dst_addr, 32).unwrap();
        let var = symbols.fresh(32);
        s.write_header(dst_addr, Value::symbolic(var)).unwrap();
        let f = fields::ip_dst().field();
        let lowered = s
            .lower_condition(&Condition::eq(f.clone(), 42u64), &mut symbols, "")
            .unwrap();
        assert_eq!(
            lowered,
            Formula::cmp(CmpOp::Eq, Term::var(var), Term::Const(42))
        );
        // Prefix match on symbolic value lowers to PrefixMatch.
        let m = s
            .lower_condition(
                &Condition::matches_ipv4_prefix(f.clone(), 0x0a000000, 8),
                &mut symbols,
                "",
            )
            .unwrap();
        assert!(matches!(m, Formula::PrefixMatch { .. }));
        // Prefix match on a concrete value folds to a constant.
        s.write_header(dst_addr, Value::Concrete(0x0a000001))
            .unwrap();
        let m = s
            .lower_condition(
                &Condition::matches_ipv4_prefix(f.clone(), 0x0a000000, 8),
                &mut symbols,
                "",
            )
            .unwrap();
        assert_eq!(m, Formula::True);
        // Referencing an unknown field is a memory error.
        let bad = Condition::eq(fields::tcp_dst().field(), 80u64);
        assert!(s.lower_condition(&bad, &mut symbols, "").is_err());
    }

    #[test]
    fn path_condition_accumulates() {
        let mut s = ExecState::new();
        let mut symbols = VarAllocator::new();
        let var = symbols.fresh(16);
        assert_eq!(s.path_condition(), Formula::True);
        s.add_constraint(Formula::eq_const(var, 80));
        s.add_constraint(Formula::True); // ignored
        s.add_constraint(Formula::cmp_const(CmpOp::Ge, var, 10));
        assert_eq!(s.constraint_count(), 2);
        assert_eq!(s.constraint_atoms(), 2);
        assert!(matches!(s.path_condition(), Formula::And(_)));
    }

    #[test]
    fn dropping_a_very_long_trace_does_not_overflow_the_stack() {
        // Regression guard for Trace's iterative Drop: basic switch/router
        // models push one entry per table-entry `If`, so unshared traces
        // reach tens of thousands of nodes; a recursive drop would need one
        // stack frame per node.
        let mut s = ExecState::new();
        for i in 0..200_000 {
            s.push_trace(TraceEntry::Instruction(format!("i{i}")));
        }
        assert_eq!(s.trace().len(), 200_000);
        drop(s);
    }

    #[test]
    fn forked_state_mutations_never_leak_into_the_parent() {
        // The engine forks a path by cloning its ExecState; every container
        // inside is persistent (Arc-shared), so this checks the copy-on-write
        // boundary on all of them: headers, metadata, tags and trace.
        let mut parent = ExecState::new();
        parent.create_tag("L3", 0);
        parent.allocate_header(96, 32).unwrap();
        parent.write_header(96, Value::Concrete(1)).unwrap();
        parent.allocate_meta("flow", 16);
        parent.write_meta("flow", Value::Concrete(7));
        parent.push_trace(TraceEntry::Port("A:InputPort(0)".into()));
        let snapshot = parent.clone();

        let mut child = parent.clone();
        child.write_header(96, Value::Concrete(2)).unwrap();
        child.allocate_header(160, 16).unwrap();
        child.write_meta("flow", Value::Concrete(8));
        child.allocate_meta("nat", 16);
        child.create_tag("L4", 160);
        child.destroy_tag("L3").unwrap();
        child.push_trace(TraceEntry::Port("B:InputPort(0)".into()));
        child.deallocate_header(96, Some(32)).unwrap();

        // The parent is bit-for-bit what it was before the fork.
        assert_eq!(parent, snapshot);
        assert_eq!(parent.read_header(96).unwrap().value, Value::Concrete(1));
        assert!(!parent.header_allocated(160));
        assert_eq!(parent.read_meta("flow").unwrap().value, Value::Concrete(7));
        assert!(!parent.meta_allocated("nat"));
        assert_eq!(parent.tag("L3"), Some(0));
        assert_eq!(parent.tag("L4"), None);
        assert_eq!(parent.trace().len(), 1);
        // And parent-side mutations after the fork stay invisible to the
        // child.
        parent.write_meta("flow", Value::Concrete(99));
        assert_eq!(child.read_meta("flow").unwrap().value, Value::Concrete(8));
    }

    #[test]
    fn trace_records_ports() {
        let mut s = ExecState::new();
        s.push_trace(TraceEntry::Port("A:InputPort(0)".into()));
        s.push_trace(TraceEntry::Instruction("Forward(OutputPort(1))".into()));
        s.push_trace(TraceEntry::Port("B:InputPort(0)".into()));
        assert_eq!(s.ports_visited(), vec!["A:InputPort(0)", "B:InputPort(0)"]);
        assert_eq!(s.trace().len(), 3);
    }
}
