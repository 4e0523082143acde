//! # symnet-core
//!
//! The SymNet symbolic execution engine (§5 and §6 of the paper).
//!
//! The engine takes a [`network::Network`] — a set of elements, each with an
//! SEFL [`symnet_sefl::ElementProgram`], connected by unidirectional links
//! from output ports to input ports — injects a symbolic packet at an input
//! port and explores every execution path the packet can take through the
//! network:
//!
//! * [`state::ExecState`] is the per-path execution state: the packet-header
//!   map (bit address → stack of values), the metadata map, the tags, the path
//!   condition and the trace of visited ports and executed instructions.
//! * [`engine::SymNet`] is the executor: it interprets SEFL instructions,
//!   forks paths at `If`/`Fork`, prunes infeasible paths with the constraint
//!   solver, follows links between elements, detects loops with the Figure 5
//!   state-inclusion check and enforces header memory safety.
//! * [`verify`] implements the network-verification queries of §6 on top of
//!   the execution report: reachability, field invariance, header visibility.
//! * [`report`] renders execution reports as JSON, mirroring the paper's
//!   "list of explored paths in json format" output.
//! * [`service`] keeps verification *resident*: standing queries absorb rule
//!   deltas and re-verify only invalidated path suffixes.
//! * [`server`] serves many concurrent queries against a mutating network:
//!   epoch-pinned snapshots, a bounded admission queue and a persistent
//!   work-stealing pool shared by all in-flight queries.
//!
//! ```
//! use symnet_core::engine::SymNet;
//! use symnet_core::network::Network;
//! use symnet_sefl::{packet, Condition, Instruction, ElementProgram};
//! use symnet_sefl::fields::tcp_dst;
//!
//! // A one-element network that only lets HTTP traffic through.
//! let mut net = Network::new();
//! let fw = net.add_element(
//!     ElementProgram::new("http-only", 1, 1).with_any_input_code(Instruction::block(vec![
//!         Instruction::constrain(Condition::eq(tcp_dst().field(), 80u64)),
//!         Instruction::forward(0),
//!     ])),
//! );
//! let symnet = SymNet::new(net);
//! let report = symnet.inject(fw, 0, &packet::symbolic_tcp_packet());
//! assert_eq!(report.delivered().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod error;
pub mod interp;
pub mod network;
pub mod pmap;
pub mod report;
pub mod sched;
pub mod server;
pub mod service;
pub mod state;
pub mod symbols;
pub mod value;
pub mod verify;

pub use engine::{ExecConfig, ExecutionReport, PathReport, PathStatus, SymNet};
pub use error::{DropReason, EngineError, ExecError};
pub use network::{ElementId, Network};
pub use server::{ServeHandle, ServedReport, ServerConfig, ServerError, ServerStats, SymNetServer};
pub use service::{QueryId, ServiceReport, ServiceStats, UpdateStats, VerifyService};
pub use state::ExecState;
pub use value::Value;
