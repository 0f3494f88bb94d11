//! Fault localisation along a configured module path from **per-goal**
//! counter deltas.
//!
//! The frontier walk follows the paper's sketch (§III-C): compare counters
//! along the configured path before and after a burst of end-to-end probes
//! and find where the traffic disappears.  What changed with the autonomic
//! loop is *which* counters drive the walk: instead of device-total module
//! tallies — which a second goal's traffic through the same devices
//! pollutes — the walk runs on window-based [`FlowCounters`] deltas
//! attributed to the diagnosed goal's flow tag.  One measurement serves
//! every goal diagnosed together: one `PollCounters` per device on the union
//! of their paths before the bursts and one after bring back both halves of
//! a snapshot — the flow counters of every measured goal's tag, and the
//! device-total module snapshots that only *refine* a blamed device down to
//! the module whose drop-reason counters moved (healthy background traffic
//! drops nothing, so drop deltas stay attributable even under load).

use crate::report::{FaultReport, Suspect, SuspectTarget};
use conman_core::abstraction::CounterSnapshot;
use conman_core::ids::ModuleRef;
use conman_core::nm::ModulePath;
use conman_core::runtime::{DeviceTelemetry, ManagedNetwork};
use conman_obs::TraceKind;
use mgmt_channel::ManagementChannel;
use netsim::device::DeviceId;
use netsim::stats::{DropReason, FlowCounters};
use std::collections::{BTreeMap, BTreeSet};

/// Localises faults on a configured path by comparing per-goal flow deltas
/// taken before and after a burst of end-to-end probes.
///
/// The probe burst runs inside a `netsim` flow-attribution window tagged
/// with [`Diagnoser::flow_tag`] (the owning goal's id; tag 0 when unset),
/// and the walk compares each path device's per-tag
/// `originated`/`forwarded`/`delivered`/`drops` deltas — so the frontier is
/// found correctly even while dozens of other goals push traffic through
/// the same devices, as long as that background traffic runs *outside* the
/// goal's window (which [`Diagnoser::diagnose_with_background`] arranges
/// when the control loop diagnoses under load).
///
/// The control loop measures all of a tick's degraded goals at once: one
/// poll before, every goal's burst in its own window, one poll after, then
/// each goal's walk over its own tag.  The flow deltas stay per goal, but
/// module counters are device totals, so another degraded goal's drops are
/// visible inside the shared window.  The drop-reason refinement still
/// stays per goal: it runs only on a device the goal's own flow deltas
/// already blamed, and it only ranks the goal's *own* path modules there.
#[derive(Debug, Clone, Copy)]
pub struct Diagnoser {
    /// End-to-end probes sent per diagnosis pass (values below 1 are
    /// treated as 1 — zero probes could only ever produce a vacuous
    /// "healthy" verdict).
    pub probes: u32,
    /// Flow tag (the owning goal's id) the probe burst runs under.  The
    /// burst is wrapped in a `netsim` flow-attribution window so its
    /// per-device counters stay separable from other goals' traffic; when
    /// unset, tag 0 (never a goal id — goal ids start at 1) is used.
    pub flow_tag: Option<u64>,
}

impl Default for Diagnoser {
    fn default() -> Self {
        Diagnoser {
            probes: 3,
            flow_tag: None,
        }
    }
}

impl Diagnoser {
    /// A diagnoser sending `probes` probes per pass.
    pub fn new(probes: u32) -> Self {
        assert!(probes > 0, "at least one probe is required");
        Diagnoser {
            probes,
            ..Default::default()
        }
    }

    /// Tag this diagnoser's probe bursts with the owning goal's id.
    pub fn for_goal(mut self, goal: conman_core::nm::GoalId) -> Self {
        self.flow_tag = Some(goal.0);
        self
    }

    /// Run one diagnosis pass: snapshot per-goal flow counters (and module
    /// counters, for drop-reason refinement) along `path`, drive `probe`
    /// (which must inject one end-to-end datagram for the goal and report
    /// delivery), snapshot again, and localise any loss from the per-goal
    /// deltas.
    pub fn diagnose<C, P>(
        &self,
        mn: &mut ManagedNetwork<C>,
        path: &ModulePath,
        probe: &mut P,
    ) -> FaultReport
    where
        C: ManagementChannel,
        P: FnMut(&mut ManagedNetwork<C>) -> bool,
    {
        self.diagnose_with_background(mn, path, probe, &mut |_| {})
    }

    /// [`Self::diagnose`] under concurrent load: `background` is invoked
    /// between probes to inject the *other* goals' traffic (each burst in
    /// its own flow window), so the measurement window contains realistic
    /// cross-traffic and the per-goal attribution — not probe dominance —
    /// is what keeps the frontier walk correct.  This is how the autonomic
    /// control loop diagnoses one degraded goal while the rest of the fleet
    /// keeps carrying traffic.  It is the one-goal case of the shared
    /// measurement the control loop runs per tick.
    pub fn diagnose_with_background<C, P, B>(
        &self,
        mn: &mut ManagedNetwork<C>,
        path: &ModulePath,
        probe: &mut P,
        background: &mut B,
    ) -> FaultReport
    where
        C: ManagementChannel,
        P: FnMut(&mut ManagedNetwork<C>) -> bool,
        B: FnMut(&mut ManagedNetwork<C>),
    {
        let goals = [(self.flow_tag.unwrap_or(0), path)];
        let measured = self.measure(mn, &goals, &mut |mn, _| probe(mn), background);
        self.walk(mn, &measured, 0)
    }

    /// One measurement of several goals: one poll over the union of their
    /// path devices for all their tags, `probes` rounds in which each goal
    /// sends one probe (`probe(mn, i)` for `goals[i]`) inside its own flow
    /// window and then `background` runs once, and one closing poll.
    pub(crate) fn measure<'a, C, P, B>(
        &self,
        mn: &mut ManagedNetwork<C>,
        goals: &'a [(u64, &'a ModulePath)],
        probe: &mut P,
        background: &mut B,
    ) -> Measurement<'a>
    where
        C: ManagementChannel,
        P: FnMut(&mut ManagedNetwork<C>, usize) -> bool,
        B: FnMut(&mut ManagedNetwork<C>),
    {
        let mut seen = BTreeSet::new();
        let devices: Vec<DeviceId> = goals
            .iter()
            .flat_map(|(_, path)| path.devices())
            .filter(|d| seen.insert(*d))
            .collect();
        let tags: Vec<u64> = goals.iter().map(|(tag, _)| *tag).collect();
        let before = mn.poll_counters(&devices, &tags);
        let mut delivered = vec![0u32; goals.len()];
        for _ in 0..self.probes.max(1) {
            // Each goal's probe runs inside its own window; the background
            // traffic runs outside them (in other goals' windows), so the
            // per-tag deltas stay attributable.
            for (i, (tag, _)) in goals.iter().enumerate() {
                mn.net.begin_flow_window(*tag);
                if probe(mn, i) {
                    delivered[i] += 1;
                }
                mn.net.end_flow_window();
            }
            background(mn);
        }
        let after = mn.poll_counters(&devices, &tags);
        Measurement {
            goals,
            modules: module_deltas(&before, &after),
            before,
            after,
            delivered,
        }
    }

    /// The report for `measured.goals[i]`: healthy when every probe
    /// arrived, else the frontier walk over its tag's flow deltas, refined
    /// per device by module drop-reason deltas.
    pub(crate) fn walk<C: ManagementChannel>(
        &self,
        mn: &ManagedNetwork<C>,
        measured: &Measurement<'_>,
        i: usize,
    ) -> FaultReport {
        // Clamp: `probes` is a public field, and zero probes would make
        // `delivered == probes` vacuously true for a dead path.
        let probes = self.probes.max(1);
        let delivered = measured.delivered[i];
        if delivered == probes {
            return FaultReport::healthy(probes);
        }
        let (tag, path) = measured.goals[i];
        let Measurement {
            before,
            after,
            modules,
            ..
        } = measured;
        let devices = path.devices();
        let mut suspects = Vec::new();

        // Devices that did not answer the closing poll at all.
        let unresponsive: Vec<DeviceId> = devices
            .iter()
            .copied()
            .filter(|d| !after.contains_key(d))
            .collect();
        for d in &unresponsive {
            suspects.push(Suspect {
                target: SuspectTarget::Device(*d),
                confidence_pct: 95,
                evidence: Vec::new(),
            });
        }

        let need = u64::from(probes);
        // Per-device per-goal deltas across the probe burst; a device that
        // missed the baseline poll contributes no delta at all.
        let delta = |d: DeviceId| -> Option<FlowCounters> {
            let before = before.get(&d)?.flows.get(&tag).copied().unwrap_or_default();
            let after = after.get(&d)?.flows.get(&tag).copied().unwrap_or_default();
            Some(FlowCounters {
                originated: after.originated.saturating_sub(before.originated),
                forwarded: after.forwarded.saturating_sub(before.forwarded),
                local_delivered: after.local_delivered.saturating_sub(before.local_delivered),
                drops: after.drops.saturating_sub(before.drops),
            })
        };
        // Goal traffic that reached the device at all (it was forwarded on,
        // eaten, or locally delivered) vs. traffic the device moved onward.
        let arrived = |d: DeviceId| delta(d).map(|f| f.forwarded + f.drops + f.local_delivered);
        let moved_on = |d: DeviceId| delta(d).map(|f| f.forwarded);

        // Walk the device chain looking for the loss frontier.
        for (i, device) in devices.iter().enumerate() {
            // One FrontierHop trace event per inspected device, whether or
            // not it turns into a suspect — the journal alone must let a
            // post-mortem replay where the traffic disappeared.
            let f = delta(*device).unwrap_or_default();
            mn.recorder.event(
                mn.net.now().as_nanos(),
                TraceKind::FrontierHop {
                    goal: tag,
                    device: device.as_u64(),
                    arrived: f.forwarded + f.drops + f.local_delivered,
                    moved_on: f.forwarded,
                    dropped: f.drops,
                },
            );
            // Inter-device check: this device forwarded the goal's frames
            // towards the next device — did the goal's slice of the next
            // device's counters see them?
            if let (Some(tx), true) = (moved_on(*device), i + 1 < devices.len()) {
                let next = devices[i + 1];
                if let (true, true, Some(rx)) =
                    (tx >= need, after.contains_key(&next), arrived(next))
                {
                    // Total blackhole (nothing arrived) is near-certain;
                    // partial loss still points at the link, with lower
                    // confidence.
                    if rx < need {
                        suspects.push(Suspect {
                            target: SuspectTarget::Link {
                                a: *device,
                                b: next,
                            },
                            confidence_pct: if rx == 0 { 90 } else { 70 },
                            evidence: Vec::new(),
                        });
                    }
                }
            }

            // Intra-device check: the goal's traffic entered but never left
            // — blame the path module whose drop counters moved.
            if !after.contains_key(device) {
                continue;
            }
            if let (Some(rx), Some(tx)) = (arrived(*device), moved_on(*device)) {
                if rx >= need && tx < need {
                    suspects.push(match biggest_dropper(path, *device, modules) {
                        Some((module, evidence)) => Suspect {
                            target: SuspectTarget::Module(*module),
                            confidence_pct: 85,
                            evidence,
                        },
                        None => Suspect {
                            target: SuspectTarget::Device(*device),
                            confidence_pct: 60,
                            evidence: Vec::new(),
                        },
                    });
                }
            }
        }

        if suspects.is_empty() {
            // Every managed device forwarded the goal's probes: the loss is
            // outside the managed path.
            suspects.push(Suspect {
                target: SuspectTarget::Unlocated,
                confidence_pct: 30,
                evidence: Vec::new(),
            });
        }
        suspects.sort_by_key(|s| std::cmp::Reverse(s.confidence_pct));
        for s in &suspects {
            mn.recorder.event(
                mn.net.now().as_nanos(),
                TraceKind::Suspect {
                    goal: tag,
                    target: s.target.blame(),
                    confidence_pct: s.confidence_pct,
                },
            );
        }
        mn.recorder.inc("diagnose.passes", 1);
        mn.recorder
            .observe("diagnose.suspects", suspects.len() as f64);

        FaultReport {
            probes_sent: probes,
            probes_delivered: delivered,
            healthy: false,
            suspects,
            unresponsive,
        }
    }
}

/// What one shared measurement brought back (see [`Diagnoser::measure`]).
pub(crate) struct Measurement<'a> {
    /// The measured goals' flow tags and paths, in measurement order.
    goals: &'a [(u64, &'a ModulePath)],
    before: BTreeMap<DeviceId, DeviceTelemetry>,
    after: BTreeMap<DeviceId, DeviceTelemetry>,
    /// Device-total module counter deltas across the whole measurement.
    modules: BTreeMap<ModuleRef, CounterSnapshot>,
    /// Probes delivered per goal, in the same order.
    delivered: Vec<u32>,
}

/// Counter deltas (`after - before`) for every module present in *both*
/// polls.  A module that missed the baseline poll contributes no delta at
/// all — treating its lifetime counters as a probe-window delta would
/// manufacture spurious suspects out of historical drops.
fn module_deltas(
    before: &BTreeMap<DeviceId, DeviceTelemetry>,
    after: &BTreeMap<DeviceId, DeviceTelemetry>,
) -> BTreeMap<ModuleRef, CounterSnapshot> {
    let mut out = BTreeMap::new();
    for (device, report) in after {
        let Some(baseline) = before.get(device) else {
            continue;
        };
        for snap in &report.snapshots {
            let earlier = baseline.snapshots.iter().find(|s| s.module == snap.module);
            if let Some(earlier) = earlier {
                out.insert(snap.module, snap.delta_since(earlier));
            }
        }
    }
    out
}

/// The module on `device` (anywhere on the path) whose drop counters grew
/// the most, with the reasons that moved and by how much.  Healthy
/// concurrent goals drop nothing, so the drop-reason deltas stay
/// attributable to the diagnosed goal even though module counters are
/// device totals.
fn biggest_dropper<'a>(
    path: &'a ModulePath,
    device: DeviceId,
    deltas: &BTreeMap<ModuleRef, CounterSnapshot>,
) -> Option<(&'a ModuleRef, Vec<(DropReason, u64)>)> {
    let total = |moved: &[(DropReason, u64)]| moved.iter().map(|(_, n)| n).sum::<u64>();
    let mut best: Option<(&ModuleRef, Vec<(DropReason, u64)>)> = None;
    for step in &path.steps {
        if step.module.device != device {
            continue;
        }
        let Some(delta) = deltas.get(&step.module) else {
            continue;
        };
        let moved: Vec<(DropReason, u64)> = delta
            .drop_breakdown
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(r, n)| (*r, *n))
            .collect();
        if total(&moved) > best.as_ref().map_or(0, |(_, b)| total(b)) {
            best = Some((&step.module, moved));
        }
    }
    best
}
