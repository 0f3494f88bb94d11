//! Fault localisation along a configured module path from **per-goal**
//! counter deltas.
//!
//! The frontier walk follows the paper's sketch (§III-C): compare counters
//! along the configured path before and after a burst of end-to-end probes
//! and find where the traffic disappears.  What changed with the autonomic
//! loop is *which* counters drive the walk: instead of device-total module
//! tallies — which a second goal's traffic through the same devices
//! pollutes — the walk runs on window-based [`FlowCounters`] deltas
//! attributed to the diagnosed goal's flow tag.  One `PollCounters` per path
//! device before the burst and one after bring back both halves of a
//! snapshot: the per-tag flow counters, and the device-total module
//! snapshots that only *refine* a blamed device down to the module whose
//! drop-reason counters moved (healthy background traffic drops nothing, so
//! drop deltas stay attributable even under load).

use crate::report::{FaultReport, Suspect, SuspectTarget};
use conman_core::abstraction::CounterSnapshot;
use conman_core::ids::ModuleRef;
use conman_core::nm::ModulePath;
use conman_core::runtime::{DeviceTelemetry, ManagedNetwork};
use conman_obs::TraceKind;
use mgmt_channel::ManagementChannel;
use netsim::device::DeviceId;
use netsim::stats::FlowCounters;
use std::collections::BTreeMap;

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
    /// keeps carrying traffic.
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
        // Clamp: `probes` is a public field, and zero probes would make
        // `delivered == probes` vacuously true for a dead path.
        let probes = self.probes.max(1);
        let tag = self.flow_tag.unwrap_or(0);
        let devices = path.devices();
        let before = mn.poll_counters(&devices, &[tag]);
        let mut delivered = 0u32;
        for _ in 0..probes {
            // The goal's own probe runs inside its window; the background
            // traffic runs outside it (in other goals' windows), so the
            // per-tag deltas stay attributable.
            mn.net.begin_flow_window(tag);
            if probe(mn) {
                delivered += 1;
            }
            mn.net.end_flow_window();
            background(mn);
        }
        let after = mn.poll_counters(&devices, &[tag]);
        if delivered == probes {
            return FaultReport::healthy(probes);
        }
        self.localise(mn, path, &devices, &before, &after, delivered)
    }

    /// The frontier walk over per-goal flow deltas, refined per device by
    /// module drop-reason deltas.
    fn localise<C: ManagementChannel>(
        &self,
        mn: &ManagedNetwork<C>,
        path: &ModulePath,
        devices: &[DeviceId],
        before: &BTreeMap<DeviceId, DeviceTelemetry>,
        after: &BTreeMap<DeviceId, DeviceTelemetry>,
        delivered: u32,
    ) -> FaultReport {
        let tag = self.flow_tag.unwrap_or(0);
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
                evidence: vec![format!(
                    "device {} did not answer the telemetry poll",
                    mn.nm.device_alias(*d)
                )],
            });
        }

        let need = u64::from(self.probes.max(1));
        let mod_deltas = module_deltas(before, after);
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
                                link: mn.net.link_between(*device, next),
                            },
                            confidence_pct: if rx == 0 { 90 } else { 70 },
                            evidence: vec![format!(
                                "{} forwarded {} of the goal's frame(s) towards {} but only {} arrived there",
                                mn.nm.device_alias(*device),
                                tx,
                                mn.nm.device_alias(next),
                                rx,
                            )],
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
                    if let Some((module, reasons)) = biggest_dropper(path, *device, &mod_deltas) {
                        suspects.push(Suspect {
                            target: SuspectTarget::Module(module.clone()),
                            confidence_pct: 85,
                            evidence: vec![format!(
                                "the goal's traffic entered {} ({} frame(s) in, {} forwarded on) and {}'s drop counters moved: {}",
                                mn.nm.device_alias(*device),
                                rx,
                                tx,
                                module,
                                reasons,
                            )],
                        });
                    } else {
                        suspects.push(Suspect {
                            target: SuspectTarget::Device(*device),
                            confidence_pct: 60,
                            evidence: vec![format!(
                                "the goal's traffic entered {} ({} frame(s)) but never left ({}), with no attributable drop counter",
                                mn.nm.device_alias(*device),
                                rx,
                                tx,
                            )],
                        });
                    }
                }
            }
        }

        if suspects.is_empty() {
            suspects.push(Suspect {
                target: SuspectTarget::Unlocated,
                confidence_pct: 30,
                evidence: vec![
                    "every managed device forwarded the goal's probes; the loss is outside the managed path"
                        .to_string(),
                ],
            });
        }
        suspects.sort_by_key(|s| std::cmp::Reverse(s.confidence_pct));
        for s in &suspects {
            mn.recorder.event(
                mn.net.now().as_nanos(),
                TraceKind::Suspect {
                    goal: tag,
                    target: s.target.describe(),
                    confidence: format!("{}%", s.confidence_pct),
                },
            );
        }
        mn.recorder.inc("diagnose.passes", 1);
        mn.recorder
            .observe("diagnose.suspects", suspects.len() as f64);

        FaultReport {
            probes_sent: self.probes.max(1),
            probes_delivered: delivered,
            healthy: false,
            suspects,
            unresponsive,
        }
    }
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
                out.insert(snap.module.clone(), snap.delta_since(earlier));
            }
        }
    }
    out
}

/// The module on `device` (anywhere on the path) whose drop counters grew
/// the most, with a rendered reason list.  Healthy concurrent goals drop
/// nothing, so the drop-reason deltas stay attributable to the diagnosed
/// goal even though module counters are device totals.
fn biggest_dropper<'a>(
    path: &'a ModulePath,
    device: DeviceId,
    deltas: &BTreeMap<ModuleRef, CounterSnapshot>,
) -> Option<(&'a ModuleRef, String)> {
    let mut best: Option<(&ModuleRef, u64, String)> = None;
    for step in &path.steps {
        if step.module.device != device {
            continue;
        }
        let Some(delta) = deltas.get(&step.module) else {
            continue;
        };
        let dropped: u64 = delta.drop_breakdown.values().sum();
        if dropped == 0 {
            continue;
        }
        let reasons = delta
            .drop_breakdown
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(r, n)| format!("{r} +{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        if best.as_ref().is_none_or(|(_, d, _)| dropped > *d) {
            best = Some((&step.module, dropped, reasons));
        }
    }
    best.map(|(m, _, r)| (m, r))
}
