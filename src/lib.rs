//! # conman — umbrella crate for the CONMan reproduction
//!
//! Re-exports the workspace crates so examples, integration tests and
//! downstream users can depend on a single crate.
//!
//! ## Module map
//!
//! | Crate | Re-export | What lives there |
//! |-------|-----------|------------------|
//! | `netsim` | [`netsim`] | Deterministic packet-level simulator: codecs (ETH/IP/GRE/MPLS/VLAN/UDP; ARP, the frame-arrival queue and the forwarding engine are private to the crate), topologies (the fan-out chain backing hundreds of goals with real host pairs, and the multipath family — [`netsim::topology::isp_mesh_fanout`]'s 2×k redundant core with cross-links and [`netsim::topology::isp_ring_fanout`]'s core cycle — on which a blamed link has a genuine alternative) over point-to-point links, packet traces, per-goal flow-attribution windows ([`netsim::stats::FlowCounters`]), the steppable tick clock ([`netsim::clock::StepClock`]) the autonomic loop runs on, the device configuration whose tunnel table has one door ([`netsim::DeviceConfig::add_tunnel`] / `remove_tunnel`: a tunnel's sequence state and counters live in its entry, so they die with it and are never inherited) — and [`netsim::fault`], the deterministic fault-injection layer (link cuts/flaps, loss spikes, device crashes, device-wide and *per-goal* misconfigurations).  Its interface is its `pub mod` / `pub use` list, held by `#![warn(unreachable_pub)]`. |
//! | `mgmt-channel` | [`mgmt_channel`] | The out-of-band and in-band management channels with per-device message accounting ([`mgmt_channel::ChannelCounters`], Table VI), plus [`mgmt_channel::codec`], the little-endian length-prefixed [`Writer`](mgmt_channel::codec::Writer)/[`Reader`](mgmt_channel::codec::Reader) primitives under the zero-copy batch wire format. |
//! | `conman-core` | [`core`] | Protocol-independent CONMan: module abstraction (Table II) with per-pipe [`CounterSnapshot`](core::CounterSnapshot)s, primitives (Table I; a component has **one name** — a [`ComponentRef`](core::primitives::ComponentRef) is what `create` makes, `delete` takes and `showActual` lists: a [`ModuleActual`](core::primitives::ModuleActual) is pipes, switch-rule pairs and filter pairs, with no text and no field a label, key, VLAN id or address could travel in, and [`ScriptSet::components`](core::nm::ScriptSet::components) is what an applied plan claims, in the same type) plus the one two-phase transaction wire protocol (StageBatch/CommitBatch/AbortBatch carrying per-goal [`ScriptSegment`](core::primitives::ScriptSegment)s — a single-goal transaction is a batch of one — with RelayBatch coalescing module relays per (device, round) in both directions, so a device answers the NM once per round; two runners drive it, strict [`run_batch`](core::ManagedNetwork::run_batch) and lenient [`run_teardown_batch`](core::ManagedNetwork::run_teardown_batch)) and the one telemetry pull (`PollCounters` → `CounterReport`: per-module snapshots plus per-goal flow counters in one round trip, what the Diagnoser localises from) — management agents, the NM (topology map, potential graph, path finder with suspect exclusion at both granularities — excluded modules are never entered and excluded *links* never crossed, see [`Exclusion`](core::nm::Exclusion) — script generation: a [`ScriptSet`](core::nm::ScriptSet) is the primitives its devices execute and nothing else; the text of Figures 7(b)/8(b)/9(b) is a view, rendered on demand by [`render_primitive`](core::nm::render_primitive)) and the declarative runtime: a [`GoalStore`](core::GoalStore) of goals with identity, lifecycle (`Pending → Active → Degraded → Repairing → Failed`, with a repair-attempt budget so unrepairable goals park `Failed`), per-goal typed exclusion sets that age out once a repair verifies and an incrementally maintained module→goals index; dry-run [`Plan`](core::Plan)s in guarded pipe-id blocks, checked in their own types by [`runtime::verify`](core::runtime::verify) (pipe blocks within budget and disjoint, no path crossing its goal's exclusions, module claims not stale: four typed [`PlanViolation`](core::runtime::verify::PlanViolation)s; `reconcile()` asserts the batch checks under `debug_assertions`, [`verify_plans`](core::ManagedNetwork::verify_plans) is the explicit entry point); [`reconcile()`](core::ManagedNetwork::reconcile) executing every pass as one batched two-phase transaction (stale teardowns and `withdraw_many` coalesce the same way); and the **autonomic layer** — the tick-driven [`ControlLoop`](core::ControlLoop) (one clock: every tick applies the pending operator [`NmEvent`](core::NmEvent)s — submit / withdraw — and runs a health round; per-goal health from window-based flow counters, pluggable diagnosis, epoch-tagged batched repair, zero management messages when converged).  The reconciler is the **one repair engine**: an operator heal and a loop tick are both `goals.mark_degraded(id, suspects)` + [`reconcile_with`](core::ManagedNetwork::reconcile_with), which alone ranks candidate paths, falls back to reinstalling through the suspects, verifies, ages exclusions out, restores and charges the repair budget; [`GoalEndpoints::probe`](core::runtime::GoalEndpoints::probe) is the one end-to-end probe every health round, verification and testbed helper sends.  The hot path is the **raw-speed engine**: [`reconcile()`](core::ManagedNetwork::reconcile) plans goals in parallel over one hoisted potential graph (`std::thread::scope` workers with reusable search scratch and per-worker search memoisation, merged in deterministic goal-id order; [`reconcile_sequential`](core::ManagedNetwork::reconcile_sequential) is the kept byte-equivalence oracle, `tests/raw_speed.rs` the proof), and [`core::wire`] is the zero-copy length-prefixed binary codec for the six batch wire messages, selected per network by [`WireCodec`](core::WireCodec) and auto-detected on decode — borrowed `&[Primitive]` segments are encoded straight to the wire and validated in place by the agent. |
//! | `conman-modules` | [`modules`] | The managed testbeds of Figures 2, 4 and 9 (including the dual-customer multi-goal chain) and the multipath mesh/ring testbeds (`managed_mesh_fanout` / `managed_ring_fanout`) with diagnosis probe hooks.  The ETH / IP / GRE / MPLS / VLAN protocol modules over the simulated data plane and the agent builders are private to the crate: they are reached the way the NM reaches them, through a device's agent; each answers `showActual` from the keyed tables its `delete` removes from, so a component is listed from the moment it is applied until it is deleted. |
//! | `conman-diagnose` | [`diagnose`] | The diagnosis half of §III-C's closed loop: **per-goal flow-delta fault localisation** ([`diagnose::Diagnoser`] frontier-walks the goal's own `FlowCounters` deltas, so the right device is blamed even under other goals' background traffic; module counters only refine the drop reason), [`diagnose::Healer::exclusions`], the **single** suspect→exclusion mapping (blamed links become traversal-level link exclusions), and [`diagnose::AutonomicClient`], which plugs the pair into the control loop as its diagnosis stage and reports the blamed link for the loop's reroute.  No repair engine lives here: a heal is `mark_degraded` + `reconcile_with` in `conman-core`. |
//! | `conman-obs` | [`obs`] | The flight recorder: a causally-linked structured trace journal (tick → health probe → diagnosis frontier walk → repair pass → per-device stage/commit → verify spans, timestamped with **simulated** time so the same seeded scenario dumps byte-identical journals), a metrics registry (counters / log₂-bucket histograms) with a serialisable [`ObsSnapshot`](obs::ObsSnapshot), and [`Postmortem`](obs::Postmortem) — which reconstructs the blamed link, the repair passes and every staged device from a journal dump alone. [`Recorder::disabled()`](obs::Recorder::disabled) is the default no-op hot path; the benchmark's `obs.tick_overhead_ratio` row (`benchmark/`) measures what an enabled recorder costs per tick. |
//! | `conman-analyze` | [`analyze`] | The offline **journal checker**, with no runtime dependency beyond `conman-obs`: [`analyze::check_journal`] is a protocol state machine over the flight recorder's dump (spans balanced, every staged device resolved exactly once within its epoch, no verify before its pass's commits, timestamps monotone, epochs strictly increasing) returning typed [`analyze::Violation`]s with provenance.  CI's `analyze` step replays every smoke-dumped journal through it.  Plans are checked before execution in `conman-core`, in their own types. |
//! | `legacy-config` | [`legacy`] | The "today" configuration baseline (Figures 7a/8a/9a) and the Table V generic-vs-specific classifier. |
//!
//! ## Tours
//!
//! * `examples/quickstart.rs` — build the Figure 4 testbed, discover it,
//!   declare the VPN goal (`submit`), inspect the dry-run `Plan`, and let
//!   `reconcile()` configure it transactionally; verify traffic flows.
//! * `examples/goals.rs` — two concurrent goals on the dual-customer chain:
//!   shared core modules, disjoint pipe-id blocks, reference-counted
//!   withdraw leaving the surviving goal intact.
//! * `examples/debugging.rs` — the closed loop: inject a fault, let the
//!   [`diagnose::Diagnoser`] localise it from counter deltas along the
//!   configured path, mark the goal degraded with
//!   [`diagnose::Healer::exclusions`] and let `reconcile_with` re-plan
//!   around the suspects and verify the repair.
//! * `examples/autonomic.rs` — the autonomic control loop end to end:
//!   goals arrive as events, the fleet converges, the management plane
//!   goes silent, a mid-chain router loses its state, and the loop
//!   detects, localises (per-goal flow deltas under live background
//!   traffic) and repairs everything in one batched pass — zero operator
//!   calls.
//! * `examples/flightrecorder.rs` — post-mortem from the dump alone: run
//!   the recorded mesh link-cut scenario, throw the live state away, and
//!   reconstruct the blamed link, the one-pass reroute and every staged
//!   device purely from the trace journal JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use conman_analyze as analyze;
pub use conman_core as core;
pub use conman_diagnose as diagnose;
pub use conman_modules as modules;
pub use conman_obs as obs;
pub use legacy_config as legacy;
pub use mgmt_channel;
pub use netsim;
