//! JSON rendering of execution reports.
//!
//! "The output of the tool is the list of explored paths in json format. For
//! every path SymNet lists all variables and their constraints at the end of
//! the execution as well as all the instructions and ports this path has
//! visited" (§7.1). [`report_to_json_string`] produces exactly that, keyed by
//! the standard field shorthands of Figure 6 where the packet layout allows it.
//!
//! The text is written straight into one `String`; there is no intermediate
//! document tree. Its bytes are a contract (2-space pretty printing, `[]` /
//! `{}` for empties, keys in the order `id, status, ports, headers, metadata,
//! constraints, trace`): the determinism, service, serve and fuzz suites and
//! CI compare rendered reports byte for byte, and `tests/report_format.rs`
//! pins the format to golden files.
//!
//! Paths that forked from a common ancestor share the cells of their path
//! condition and trace, and the engine emits them next to each other. The
//! writer uses that twice, with state that lives for one call only:
//!
//! * each distinct conjunct is formatted and escaped once, into a
//!   `Conjuncts` cache keyed by interned-formula id;
//! * where a path shares a prefix of a cons-list with the path rendered just
//!   before it, the bytes already written for that prefix are copied
//!   (`SharedArray`) and only the cells beyond it are visited.

use crate::engine::{ExecutionReport, PathReport, PathStatus};
use crate::network::Network;
use crate::state::{ExecState, TraceEntry};
use std::collections::HashMap;
use std::fmt::Write as _;
use symnet_sefl::fields::{self, HeaderField};
use symnet_solver::{Formula, Interned, PathNode};

/// Renders a full execution report as pretty-printed JSON text: the paths,
/// their counts, the solver counters and the wall time.
pub fn report_to_json_string(report: &ExecutionReport, network: &Network) -> String {
    let mut out = String::new();
    write_report_json(&mut out, report, network, 0);
    out
}

/// Appends what [`report_to_json_string`] returns, as a value nested `indent`
/// levels deep in a document the caller is writing: the opening brace goes
/// where `out` ends, every further line is indented by `indent` levels more.
pub fn write_report_json(
    out: &mut String,
    report: &ExecutionReport,
    network: &Network,
    indent: usize,
) {
    write_paths(out, report, network, indent);
    let stats = &report.solver_stats;
    let level = indent + 1;
    key(out, ",\n", level, "solver");
    out.push('{');
    // The report contract: this trailer prints only what is a function of
    // the queries asked — how many, and how each was answered — plus the two
    // timings every byte comparison zeroes first. Which cache layer answered
    // (prefix / content-memo / persisted hits, cubes examined) depends on
    // what this process or an earlier one already solved, and which worker
    // popped which path (`ExecutionReport::sched`) on scheduling; both are
    // measurements, read from `SolverStats` / `SchedStats` by the sec85 table
    // and the bench harnesses, and never printed here — so this JSON is
    // byte-identical for every thread count and every warm/cold cache state.
    let counters = [
        ("calls", stats.calls),
        ("sat", stats.sat),
        ("unsat", stats.unsat),
        ("unknown", stats.unknown),
        ("time_in_solver_us", stats.time_in_solver.as_micros() as u64),
    ];
    let mut sep = "\n";
    for (name, value) in counters {
        key(out, sep, level + 1, name);
        push_display(out, value);
        sep = ",\n";
    }
    out.push('\n');
    push_pad(out, level);
    out.push('}');
    key(out, ",\n", level, "wall_time_us");
    push_display(out, report.wall_time.as_micros() as u64);
    out.push('\n');
    push_pad(out, indent);
    out.push('}');
}

/// Renders only the strategy-independent part of a report as pretty-printed
/// JSON text: the paths and their counts, without the solver counters.
///
/// This is the comparison form of the resident service
/// ([`crate::service::VerifyService`]): an incremental re-verification and a
/// from-scratch run explore the same paths but perform different amounts of
/// solver work, so their counters legitimately differ — exactly like wall
/// time and the scheduler counters, which [`report_to_json_string`] already
/// excludes. Everything that describes the *network's behaviour* (statuses,
/// headers, metadata, constraints, traces, ids) is included and must be
/// byte-identical across strategies, solver modes and thread counts.
pub fn canonical_report_json_string(report: &ExecutionReport, network: &Network) -> String {
    let mut out = String::new();
    write_paths(&mut out, report, network, 0);
    out.push_str("\n}");
    out
}

/// Writes the report object up to and including `"delivered_count"`, leaving
/// it open for the caller to close or extend.
fn write_paths(out: &mut String, report: &ExecutionReport, network: &Network, indent: usize) {
    let level = indent + 1;
    out.push('{');
    key(out, "\n", level, "paths");
    out.push('[');
    let mut writer = PathWriter::new(network, level + 2);
    let mut sep = "\n";
    for path in &report.paths {
        out.push_str(sep);
        push_pad(out, level + 1);
        writer.path(out, path);
        sep = ",\n";
    }
    if !report.paths.is_empty() {
        out.push('\n');
        push_pad(out, level);
    }
    out.push(']');
    key(out, ",\n", level, "path_count");
    push_display(out, report.path_count());
    key(out, ",\n", level, "delivered_count");
    push_display(out, report.delivered().count());
}

// -- text primitives -----------------------------------------------------------

/// Appends `levels` levels of 2-space indentation.
fn push_pad(out: &mut String, levels: usize) {
    const SPACES: &str = "                                                                ";
    let mut left = 2 * levels;
    while left > 0 {
        let n = left.min(SPACES.len());
        out.push_str(&SPACES[..n]);
        left -= n;
    }
}

/// Appends `sep`, the indentation and `"name": `.
fn key(out: &mut String, sep: &str, level: usize, name: &str) {
    out.push_str(sep);
    push_pad(out, level);
    push_json_str(out, name);
    out.push_str(": ");
}

fn push_display(out: &mut String, value: impl std::fmt::Display) {
    write!(out, "{value}").expect("writing to a String cannot fail");
}

/// Appends `s` as a JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends what `value` displays as, as a JSON string literal; `scratch` is
/// the buffer it is formatted into first.
fn push_json_display(out: &mut String, scratch: &mut String, value: impl std::fmt::Display) {
    scratch.clear();
    push_display(scratch, value);
    push_json_str(out, scratch);
}

/// Appends `s` with JSON string escaping, copying the runs between bytes that
/// need an escape in one piece. Every such byte is ASCII, so the run
/// boundaries are character boundaries.
fn push_escaped(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean..i]);
        if escape.is_empty() {
            write!(out, "\\u{byte:04x}").expect("writing to a String cannot fail");
        } else {
            out.push_str(escape);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
}

// -- arrays that share a prefix with their previous writing ---------------------

/// A JSON array of strings that is written once per path and remembers where
/// each item of its last writing ended. The next writing can then start with
/// the first `keep` items of the last one by copying their bytes, which are
/// the same because the indentation is.
#[derive(Default)]
struct SharedArray {
    /// Offset in the output just after the `[` of the last writing.
    start: usize,
    /// Per item of the last writing: the distance from `start` to the byte
    /// after its closing quote.
    ends: Vec<usize>,
}

impl SharedArray {
    /// Opens the array with the first `keep` items of the last writing.
    fn open(&mut self, out: &mut String, keep: usize) {
        out.push('[');
        let start = out.len();
        self.ends.truncate(keep);
        if let Some(&end) = self.ends.last() {
            out.extend_from_within(self.start..self.start + end);
        }
        self.start = start;
    }

    /// Appends one item at indentation `level`; `literal` writes the string
    /// literal, quotes included.
    fn item(&mut self, out: &mut String, level: usize, literal: impl FnOnce(&mut String)) {
        out.push_str(if self.ends.is_empty() { "\n" } else { ",\n" });
        push_pad(out, level);
        literal(out);
        self.ends.push(out.len() - self.start);
    }

    /// Closes the array, whose bracket sits at indentation `level`.
    fn close(&self, out: &mut String, level: usize) {
        if !self.ends.is_empty() {
            out.push('\n');
            push_pad(out, level);
        }
        out.push(']');
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Forgets the last writing: the next one shares nothing.
    fn forget(&mut self) {
        self.ends.clear();
    }
}

// -- distinct conjuncts ---------------------------------------------------------

/// What one path-condition cell contributes to the printed constraints.
#[derive(Clone, Copy)]
enum Shape {
    /// `false`: the whole condition collapses.
    False,
    /// `true`: nothing.
    True,
    /// One conjunct.
    One(usize),
    /// A conjunction: its children, a range of [`Conjuncts::children`].
    Many(usize, usize),
}

/// One structurally distinct conjunct met during this call.
struct Conjunct<'a> {
    formula: &'a Formula,
    /// Where its literal ends in [`Conjuncts::text`]; it starts where the
    /// previous one ends.
    end: usize,
    /// Whether the path being written has printed it already.
    printed: bool,
}

/// The distinct conjuncts of one rendering, each formatted and escaped once.
///
/// Distinct means structurally distinct, which is what `Formula::and`
/// deduplicates on; the printed text would not do, because it leaves out
/// variable widths. A node's interned formula is the fast key of its shape:
/// it hashes by fingerprint and compares by pointer, then by structure, so
/// the same formula interned twice (before and after an interner eviction)
/// still shares one entry. The structural map behind it deduplicates the
/// literals, which also occur as the parts of `And` conjuncts.
#[derive(Default)]
struct Conjuncts<'a> {
    /// The JSON string literals, back to back.
    text: String,
    all: Vec<Conjunct<'a>>,
    by_structure: HashMap<&'a Formula, usize>,
    by_node: HashMap<&'a Interned<Formula>, Shape>,
    children: Vec<usize>,
}

impl<'a> Conjuncts<'a> {
    fn index_of(&mut self, formula: &'a Formula, scratch: &mut String) -> usize {
        if let Some(&index) = self.by_structure.get(formula) {
            return index;
        }
        push_json_display(&mut self.text, scratch, formula);
        let index = self.all.len();
        self.all.push(Conjunct {
            formula,
            end: self.text.len(),
            printed: false,
        });
        self.by_structure.insert(formula, index);
        index
    }

    fn shape_of(&mut self, node: &'a PathNode, scratch: &mut String) -> Shape {
        let interned = node.interned_formula();
        if let Some(&shape) = self.by_node.get(interned) {
            return shape;
        }
        let shape = match node.formula() {
            Formula::False => Shape::False,
            Formula::True => Shape::True,
            Formula::And(parts) => {
                let from = self.children.len();
                for part in parts.iter() {
                    let index = self.index_of(part, scratch);
                    self.children.push(index);
                }
                Shape::Many(from, self.children.len())
            }
            other => Shape::One(self.index_of(other, scratch)),
        };
        self.by_node.insert(interned, shape);
        shape
    }

    fn literal(&self, index: usize) -> &str {
        let from = if index == 0 {
            0
        } else {
            self.all[index - 1].end
        };
        &self.text[from..self.all[index].end]
    }
}

// -- one path after another -----------------------------------------------------

/// Splits a cons-list of `len` cells against the one written last.
///
/// `last` holds the last list oldest cell first (with a count the caller
/// keeps per cell); it is cut down to the cells the new list shares with it.
/// The new list's other cells are collected into `fresh`, newest first. Cells
/// are immutable and a cell's depth never changes, so meeting a cell of
/// `last` at its own depth on the way down from the newest end means every
/// older cell is shared too. Returns the number of shared cells.
fn split_shared<'a, T>(
    last: &mut Vec<(&'a T, usize)>,
    fresh: &mut Vec<&'a T>,
    len: usize,
    newest_first: impl Iterator<Item = &'a T>,
) -> usize {
    fresh.clear();
    let mut shared = len;
    for cell in newest_first {
        if last
            .get(shared - 1)
            .is_some_and(|(known, _)| std::ptr::eq(*known, cell))
        {
            break;
        }
        fresh.push(cell);
        shared -= 1;
    }
    last.truncate(shared);
    shared
}

/// Writes path objects, remembering the path condition and trace of the path
/// it wrote last.
struct PathWriter<'a> {
    network: &'a Network,
    /// Indentation level of a path object's keys.
    level: usize,
    /// The Figure 6 shorthands looked up in every path.
    known_headers: [HeaderField; 15],
    /// Reused buffer for `Display` output that still has to be escaped.
    scratch: String,

    conjuncts: Conjuncts<'a>,
    /// The last path's condition, oldest cell first, each with the number of
    /// printed constraints up to and including it.
    cond: Vec<(&'a PathNode, usize)>,
    /// The conjuncts the last path printed, in order.
    printed: Vec<usize>,
    constraints: SharedArray,
    /// Cells of the path being written that the last path does not have,
    /// newest first.
    new_cells: Vec<&'a PathNode>,

    /// The last path's trace, oldest entry first, each with the number of
    /// port entries up to and including it.
    entries: Vec<(&'a TraceEntry, usize)>,
    ports: SharedArray,
    trace: SharedArray,
    /// Entries of the path being written that the last path does not have,
    /// newest first.
    new_entries: Vec<&'a TraceEntry>,
}

impl<'a> PathWriter<'a> {
    fn new(network: &'a Network, level: usize) -> Self {
        PathWriter {
            network,
            level,
            known_headers: [
                fields::ether_dst(),
                fields::ether_src(),
                fields::ether_type(),
                fields::vlan_id(),
                fields::ip_length(),
                fields::ip_ttl(),
                fields::ip_proto(),
                fields::ip_src(),
                fields::ip_dst(),
                fields::tcp_src(),
                fields::tcp_dst(),
                fields::tcp_seq(),
                fields::tcp_payload(),
                fields::udp_src(),
                fields::udp_dst(),
            ],
            scratch: String::new(),
            conjuncts: Conjuncts::default(),
            cond: Vec::new(),
            printed: Vec::new(),
            constraints: SharedArray::default(),
            new_cells: Vec::new(),
            entries: Vec::new(),
            ports: SharedArray::default(),
            trace: SharedArray::default(),
            new_entries: Vec::new(),
        }
    }

    /// Writes one path object; its opening brace goes where `out` ends.
    fn path(&mut self, out: &mut String, path: &'a PathReport) {
        let level = self.level;
        out.push('{');
        key(out, "\n", level, "id");
        push_display(out, path.id);

        key(out, ",\n", level, "status");
        out.push('{');
        let (kind, element) = match &path.status {
            PathStatus::Delivered { element, .. } => ("delivered", element),
            PathStatus::Dropped { element, .. } => ("dropped", element),
        };
        key(out, "\n", level + 1, "kind");
        push_json_str(out, kind);
        key(out, ",\n", level + 1, "element");
        push_json_str(out, &self.network.element(*element).name);
        match &path.status {
            PathStatus::Delivered { port, .. } => {
                key(out, ",\n", level + 1, "port");
                push_display(out, port);
            }
            PathStatus::Dropped { reason, .. } => {
                key(out, ",\n", level + 1, "reason");
                push_json_display(out, &mut self.scratch, reason);
            }
        }
        out.push('\n');
        push_pad(out, level);
        out.push('}');

        let trace = path.state.trace_list();
        let shared_entries = split_shared(
            &mut self.entries,
            &mut self.new_entries,
            trace.len(),
            trace.iter_newest_first(),
        );
        key(out, ",\n", level, "ports");
        self.ports(out);
        key(out, ",\n", level, "headers");
        self.headers(out, &path.state);
        key(out, ",\n", level, "metadata");
        self.metadata(out, &path.state);
        key(out, ",\n", level, "constraints");
        self.constraints(out, &path.state);
        key(out, ",\n", level, "trace");
        self.trace(out, shared_entries);

        out.push('\n');
        push_pad(out, level - 1);
        out.push('}');
    }

    /// Header fields, resolved via the standard Figure 6 shorthands when the
    /// path's tags make them addressable.
    fn headers(&mut self, out: &mut String, state: &ExecState) {
        out.push('{');
        let mut sep = "\n";
        for field in &self.known_headers {
            let slot = state
                .resolve_addr(&field.addr)
                .and_then(|addr| state.read_header(addr));
            if let Ok(slot) = slot {
                key(out, sep, self.level + 1, field.name);
                push_json_display(out, &mut self.scratch, slot.value);
                sep = ",\n";
            }
        }
        self.close_object(out, sep);
    }

    fn metadata(&mut self, out: &mut String, state: &ExecState) {
        out.push('{');
        let mut sep = "\n";
        for (name, slot) in state.metadata() {
            key(out, sep, self.level + 1, name);
            push_json_display(out, &mut self.scratch, slot.value);
            sep = ",\n";
        }
        self.close_object(out, sep);
    }

    /// Closes an object of this path whose members were separated by `sep`,
    /// which is still `"\n"` if there were none.
    fn close_object(&self, out: &mut String, sep: &str) {
        if sep != "\n" {
            out.push('\n');
            push_pad(out, self.level);
        }
        out.push('}');
    }

    /// The port entries of the trace. Moves the new entries into
    /// [`Self::entries`], where [`Self::trace`] finds them.
    fn ports(&mut self, out: &mut String) {
        let keep = self.entries.last().map_or(0, |&(_, ports)| ports);
        self.ports.open(out, keep);
        while let Some(entry) = self.new_entries.pop() {
            if let TraceEntry::Port(port) = entry {
                self.ports
                    .item(out, self.level + 1, |out| push_json_str(out, port));
            }
            self.entries.push((entry, self.ports.len()));
        }
        self.ports.close(out, self.level);
    }

    fn trace(&mut self, out: &mut String, shared_entries: usize) {
        self.trace.open(out, shared_entries);
        for (entry, _) in &self.entries[shared_entries..] {
            self.trace.item(out, self.level + 1, |out| {
                out.push('"');
                let text = match entry {
                    TraceEntry::Port(port) => {
                        out.push_str("port ");
                        port
                    }
                    TraceEntry::Instruction(instruction) => instruction,
                    TraceEntry::Message(message) => {
                        out.push_str("message: ");
                        message
                    }
                };
                push_escaped(out, text);
                out.push('"');
            });
        }
        self.trace.close(out, self.level);
    }

    /// The path condition, printed as the conjunction `Formula::and` builds
    /// from the cells (`ExecState::path_condition`) unpacked one level, but
    /// without building it. Cell by cell, oldest first: a cell that is a
    /// conjunction contributes its children as they are, `true` contributes
    /// nothing, a conjunct structurally equal to one already printed is
    /// dropped, and `false` makes the whole array `["false"]`. A lone survivor
    /// that is itself a conjunction (or `true`) is unpacked once more; no
    /// smart constructor builds one, but a deserialised condition can hold
    /// it. `tests/report_format.rs` checks all of this against
    /// `ExecState::path_condition`.
    fn constraints(&mut self, out: &mut String, state: &'a ExecState) {
        // Cells shared with the last path printed what they printed there.
        let cond = state.path_cond();
        let newest_first = std::iter::successors(cond.node(), |node| node.parent().node());
        split_shared(
            &mut self.cond,
            &mut self.new_cells,
            cond.len(),
            newest_first.map(|node| &**node),
        );
        let keep = self.cond.last().map_or(0, |&(_, printed)| printed);
        for index in self.printed.drain(keep..) {
            self.conjuncts.all[index].printed = false;
        }

        let rollback = out.len();
        self.constraints.open(out, keep);
        let mut falsified = false;
        while let Some(node) = self.new_cells.pop() {
            match self.conjuncts.shape_of(node, &mut self.scratch) {
                Shape::False => {
                    falsified = true;
                    break;
                }
                Shape::True => {}
                Shape::One(index) => self.print_once(out, index),
                Shape::Many(from, to) => {
                    for child in from..to {
                        let index = self.conjuncts.children[child];
                        self.print_once(out, index);
                    }
                }
            }
            self.cond.push((node, self.printed.len()));
        }
        let lone = match self.printed[..] {
            [index] if !falsified => match self.conjuncts.all[index].formula {
                Formula::And(parts) => Some(&parts[..]),
                Formula::True => Some(&[][..]),
                _ => None,
            },
            _ => None,
        };
        if !falsified && lone.is_none() {
            self.constraints.close(out, self.level);
            return;
        }

        // The rare shapes: write them plainly and let the next path start
        // from nothing.
        out.truncate(rollback);
        self.cond.clear();
        for index in self.printed.drain(..) {
            self.conjuncts.all[index].printed = false;
        }
        self.constraints.forget();
        let mut plain = SharedArray::default();
        plain.open(out, 0);
        if falsified {
            plain.item(out, self.level + 1, |out| out.push_str("\"false\""));
        }
        for part in lone.unwrap_or_default() {
            plain.item(out, self.level + 1, |out| {
                push_json_display(out, &mut self.scratch, part)
            });
        }
        plain.close(out, self.level);
    }

    /// Prints a conjunct unless this path has printed it already.
    fn print_once(&mut self, out: &mut String, index: usize) {
        let conjunct = &mut self.conjuncts.all[index];
        if conjunct.printed {
            return;
        }
        conjunct.printed = true;
        self.printed.push(index);
        let literal = self.conjuncts.literal(index);
        self.constraints
            .item(out, self.level + 1, |out| out.push_str(literal));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SymNet;
    use crate::network::Network;
    use proptest::prelude::*;
    use symnet_sefl::cond::Condition;
    use symnet_sefl::fields::tcp_dst;
    use symnet_sefl::packet::symbolic_tcp_packet;
    use symnet_sefl::{ElementProgram, Instruction};

    #[test]
    fn report_serialises_paths_headers_and_constraints() {
        let mut net = Network::new();
        let fw = net.add_element(ElementProgram::new("fw", 1, 1).with_any_input_code(
            Instruction::block(vec![
                Instruction::constrain(Condition::eq(tcp_dst().field(), 80u64)),
                Instruction::forward(0),
            ]),
        ));
        let engine = SymNet::new(net);
        let report = engine.inject(fw, 0, &symbolic_tcp_packet());
        let text = report_to_json_string(&report, engine.network());
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(json["path_count"], 1);
        assert_eq!(json["delivered_count"], 1);
        assert_eq!(json["solver"]["calls"], report.solver_stats.calls);
        let path = &json["paths"][0];
        assert_eq!(path["status"]["kind"], "delivered");
        assert_eq!(path["status"]["element"], "fw");
        assert!(path["headers"]["TcpDst"].is_string());
        assert!(path["constraints"]
            .as_array()
            .unwrap()
            .iter()
            .any(|c| c.as_str().unwrap().contains("== 80")));
        assert!(!path["ports"].as_array().unwrap().is_empty());
        // The canonical form is the same text without the counters.
        let canonical = canonical_report_json_string(&report, engine.network());
        let cut = text.find(",\n  \"solver\"").expect("has a solver object");
        assert_eq!(canonical, format!("{}\n}}", &text[..cut]));
    }

    #[test]
    fn nested_report_is_the_report_indented() {
        let mut net = Network::new();
        let wire = net.add_element(
            ElementProgram::new("wire", 1, 1).with_any_input_code(Instruction::forward(0)),
        );
        let engine = SymNet::new(net);
        let report = engine.inject(wire, 0, &symbolic_tcp_packet());
        let flat = report_to_json_string(&report, engine.network());
        let mut nested = String::from("{\n  \"inner\": ");
        write_report_json(&mut nested, &report, engine.network(), 1);
        nested.push_str("\n}");
        assert_eq!(
            nested,
            format!("{{\n  \"inner\": {}\n}}", flat.replace('\n', "\n  "))
        );
        // Far deeper than the indentation the writer keeps at hand.
        let mut deep = String::new();
        write_report_json(&mut deep, &report, engine.network(), 40);
        assert_eq!(deep, flat.replace('\n', &format!("\n{}", " ".repeat(80))));
    }

    /// Strings over an alphabet dense in what the escaper treats specially.
    fn awkward_string() -> impl Strategy<Value = String> {
        const ALPHABET: [char; 16] = [
            'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{08}', '\u{0c}', '\u{00}',
            '\u{1f}', '\u{7f}', 'δ', '你',
        ];
        prop::collection::vec(0usize..ALPHABET.len(), 0..24)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest! {
        #[test]
        fn escaping_equals_the_serde_json_printer(s in awkward_string()) {
            let mut ours = String::new();
            push_json_str(&mut ours, &s);
            let theirs = serde_json::to_string(&serde_json::Value::String(s.clone())).unwrap();
            prop_assert_eq!(&ours, &theirs);
            let back = serde_json::from_str(&ours).unwrap();
            prop_assert_eq!(back.as_str(), Some(s.as_str()));
        }
    }
}
