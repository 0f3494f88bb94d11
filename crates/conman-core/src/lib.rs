//! # conman-core — Complexity Oblivious Network Management
//!
//! A reproduction of the CONMan architecture (Ballani & Francis, "CONMan: A
//! Step towards Network Manageability", 2007).  The crate contains everything
//! that is protocol-*independent*:
//!
//! * the **module abstraction** ([`abstraction`]) every data-plane protocol
//!   uses to self-describe (Table II of the paper),
//! * the **CONMan primitives** ([`primitives`]) the NM uses to manage devices
//!   (`showPotential`, `showActual`, `create`, `delete`, `conveyMessage`,
//!   `listFieldsAndValues` — Table I),
//! * the per-device **management agent** ([`agent`]) that dispatches
//!   primitives to protocol modules,
//! * the **protocol-module interface** ([`module`]) implemented by the
//!   concrete modules in the `conman-modules` crate,
//! * the **Network Manager** ([`nm`]): topology map, potential-connectivity
//!   graph, encapsulation-aware path finder, path selection and script
//!   generation (a script is its primitives; the paper-style text is a view
//!   rendered on demand, [`nm::render_primitive`]).  It plans from what the
//!   modules advertise and branches on no protocol name,
//! * the **runtime** ([`runtime`]): the orchestration loop that drives a
//!   managed network over a management channel, relaying module-to-module
//!   messages through the NM and accounting for every message (Table VI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod abstraction;
pub mod agent;
pub mod ids;
pub mod module;
pub mod nm;
pub mod primitives;
pub mod runtime;
mod views;
pub mod wire;

pub use abstraction::{CounterSnapshot, ModuleAbstraction, PipeCounters, SwitchKind};
pub use agent::ManagementAgent;
pub use ids::{ModuleId, ModuleKind, ModuleRef, PipeId};
pub use module::{Blackboard, ModuleCtx, ModuleError, ModuleReaction, PipeFacts, ProtocolModule};
pub use nm::{
    ConnectivityGoal, GoalFailure, GoalId, GoalStatus, GoalStore, ModulePath, NetworkManager,
    PathFinderLimits, Plan,
};
pub use primitives::{Primitive, Refusal, RefusalCause, WireMessage};
pub use runtime::{
    ControlLoop, GoalEndpoints, LoopConfig, ManagedNetwork, NmEvent, ReconcileReport,
    WithdrawOutcome,
};
pub use wire::WireCodec;
