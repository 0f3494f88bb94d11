//! Held state: the heap bytes a converged network keeps alive, by holder.
//!
//! [`Counting`] is a global allocator over the system one that tracks live
//! bytes only (the sizes asked for, not what the system allocator rounds
//! them up to), so a count repeats from run to run.  Beside them it tracks
//! the most live bytes seen since [`reset_peak`] ([`peak_bytes`]), and
//! counts heap calls (every `alloc`, `alloc_zeroed` and `realloc`) and the
//! bytes they ask for ([`Allocs`]).  A binary or a test installs it with
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: conman_bench::held::Counting = conman_bench::held::Counting;
//! ```
//!
//! and [`Held::take_from`] then reads what each public holder of a
//! `ManagedNetwork` keeps: it takes the holder out (`std::mem::take`) and
//! counts what dropping it frees, the agents and the network part by part
//! ([`Held::agent_parts`], [`Held::net_parts`]).  [`allocs`] read before
//! and after a step prices the step's heap calls.  The counters are
//! global: they count every thread, so a test that reads them runs alone
//! in its binary.  Without the allocator every count reads zero.

#![allow(unsafe_code)]

use conman_core::runtime::ManagedNetwork;
use mgmt_channel::ManagementChannel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes allocated through [`Counting`] and not yet freed.  A statistic
/// that publishes no other data, so every access is `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes [`LIVE`] has read since [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Heap calls made through [`Counting`].
static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Bytes those calls asked for (a `realloc` asks for its new size).
static ASKED: AtomicUsize = AtomicUsize::new(0);

/// Count one heap call asking for `size` bytes.
fn asked(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    ASKED.fetch_add(size, Ordering::Relaxed);
}

/// `size` more bytes are live.
fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// The system allocator, counting live bytes (see the module doc).
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is only arithmetic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        asked(layout.size());
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        asked(layout.size());
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        asked(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        moved
    }
}

/// Live bytes allocated through [`Counting`]; zero when it is not installed.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Start a new peak at the bytes live now.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// The most bytes live at once since [`reset_peak`] (a `realloc` counts
/// its old and new blocks together, as the system holds both while it
/// copies); zero when [`Counting`] is not installed.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// The heap calls made through [`Counting`] so far, and the bytes they
/// asked for.  Counters only grow: take the difference of two readings
/// ([`Allocs::since`]) to price what ran between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    /// `alloc`, `alloc_zeroed` and `realloc` calls.
    pub calls: usize,
    /// The bytes those calls asked for.
    pub bytes: usize,
}

impl Allocs {
    /// What was allocated between `earlier` and this reading.
    pub fn since(self, earlier: Allocs) -> Allocs {
        Allocs {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// The heap calls so far; zero when [`Counting`] is not installed.
pub fn allocs() -> Allocs {
    Allocs {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: ASKED.load(Ordering::Relaxed),
    }
}

/// The bytes dropping `value` frees.
fn freed_by<T>(value: T) -> usize {
    let before = live_bytes();
    drop(value);
    before.saturating_sub(live_bytes())
}

/// Heap bytes by part, in the order the parts were first named.
pub type Parts = Vec<(String, usize)>;

/// A heap census of one holder: a holder dropped part by part names each
/// part just after freeing it, and the part's bytes are what was freed
/// since the part named before it.  What the census itself allocates lands
/// before a new mark is read, so it is never counted.
struct Census {
    mark: usize,
    parts: Parts,
}

impl Census {
    fn new() -> Census {
        Census {
            mark: live_bytes(),
            parts: Vec::new(),
        }
    }

    /// What was freed since the last part is `name`'s.
    fn freed(&mut self, name: fmt::Arguments) {
        let freed = self.mark.saturating_sub(live_bytes());
        self.add(name.to_string(), freed);
        self.mark = live_bytes();
    }

    /// Add `bytes` to the part `name` (a name already listed is freed here,
    /// before the mark is read).
    fn add(&mut self, name: String, bytes: usize) {
        match self.parts.iter_mut().find(|(part, _)| *part == name) {
            Some((_, sum)) => *sum += bytes,
            None => self.parts.push((name, bytes)),
        }
    }
}

/// Heap bytes held by each public holder of a `ManagedNetwork`, and by
/// part within the agents and the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Held {
    /// The NM's goal store: goals, their applied plans, the module index.
    pub goals: usize,
    /// Every device's management agent, with its modules and staged copies.
    pub agents: usize,
    /// The simulated data plane.
    pub net: usize,
    /// `agents` by part, summed over the devices: the held-transaction
    /// table, the blackboard, each module kind (IP and ETH by field, a
    /// kind's name alone standing for what its fields leave) and `agent`,
    /// the agents' names and maps.
    pub agent_parts: Parts,
    /// `net` by part, summed over the devices: `rib.tables`, `rib.rules`,
    /// `tunnels` and `rest`, everything else the network holds.
    pub net_parts: Parts,
}

impl Held {
    /// Take the goal store, the agents and the network out of `mn` and
    /// count what each frees, leaving `mn` with empty ones.  The agents and
    /// the network are dropped part by part (`drop_parts`, a census hook
    /// of `ManagementAgent` and `DeviceConfig`), so the parts sum to their
    /// holder's bytes.
    pub fn take_from<C: ManagementChannel>(mn: &mut ManagedNetwork<C>) -> Held {
        let goals = freed_by(std::mem::take(&mut mn.goals));
        let mut census = Census::new();
        let mut agents = std::mem::take(&mut mn.agents);
        for agent in agents.values_mut() {
            agent.drop_parts(&mut |part| census.freed(part));
        }
        drop(agents);
        census.freed(format_args!("agent"));
        let agent_parts = census.parts;
        let mut census = Census::new();
        let mut net = std::mem::take(&mut mn.net);
        for device in net.devices_mut() {
            device.config.drop_parts(&mut |part| census.freed(part));
        }
        drop(net);
        census.freed(format_args!("rest"));
        let net_parts = census.parts;
        let sum = |parts: &Parts| parts.iter().map(|(_, bytes)| bytes).sum();
        Held {
            goals,
            agents: sum(&agent_parts),
            net: sum(&net_parts),
            agent_parts,
            net_parts,
        }
    }

    /// All three holders together.
    pub fn total(&self) -> usize {
        self.goals + self.agents + self.net
    }
}
