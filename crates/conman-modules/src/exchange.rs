//! Which of a module's pipes a peer's exchange message belongs to.
//!
//! IP, GRE, MPLS and VLAN each agree something with the module at the far
//! end of a pipe (an address, a key set, a label pair, a VLAN id) by one
//! exchange: the side that initiates owes its peer the opening message,
//! the other side answers it.  Exactly one side of a pipe pair initiates,
//! and several goals' pipes can share one peer, in either direction, so an
//! incoming message is paired with a pipe by who opened it:
//!
//! * an opening pairs with the lowest waiting pipe of that peer which this
//!   side does not initiate;
//! * an answer pairs with the lowest waiting pipe of that peer which this
//!   side does initiate;
//! * anything else (a duplicate, a stranger, a message no pipe waits for)
//!   pairs with nothing and changes nothing.
//!
//! Each direction is opened and answered in ascending pipe, i.e.
//! goal-block, order on both sides, so the k-th opening meets the k-th
//! waiting pipe and the two directions never take each other's messages.
//! [`Exchanges`] holds that rule and the state it reads; each module keeps
//! only what the exchange carries.

use conman_core::ids::{ModuleRef, PipeId};
use std::collections::{BTreeMap, BTreeSet};

/// One exchanging pipe: whom it exchanges with and who opens.
struct Entry {
    /// The peer, by its index in [`Exchanges::peers`].
    peer: usize,
    /// Whether this side sends the opening message.
    initiates: bool,
}

/// A module's exchanging pipes.  How far a pipe's exchange got is where it
/// is listed: in `waiting` until a message of its peer pairs with it, in
/// `owed` until its opening message goes out.  Both are indexes, so
/// neither `handle_envelope` nor `poll` scans the pipes: hundreds of
/// concurrent goals can share one peer.
#[derive(Default)]
pub(crate) struct Exchanges {
    /// Every peer a pipe was ever listed with, kept for good.  A module has
    /// a few peers and can have thousands of pipes, so an entry names its
    /// peer by index and a peer is found by a scan.
    peers: Vec<ModuleRef>,
    entries: BTreeMap<PipeId, Entry>,
    /// The waiting pipes, keyed by their peer and whether this side
    /// initiates.
    waiting: BTreeMap<(usize, bool), BTreeSet<PipeId>>,
    /// The pipes that still owe the opening message, each with its peer.
    owed: BTreeMap<PipeId, usize>,
}

impl Exchanges {
    /// List `pipe`, which exchanges with `peer`: waiting, and owing the
    /// opening message when this side `initiates`.
    pub(crate) fn add(&mut self, pipe: PipeId, peer: ModuleRef, initiates: bool) {
        let peer = self.peer(&peer).unwrap_or_else(|| {
            self.peers.push(peer);
            self.peers.len() - 1
        });
        self.waiting
            .entry((peer, initiates))
            .or_default()
            .insert(pipe);
        if initiates {
            self.owed.insert(pipe, peer);
        }
        self.entries.insert(pipe, Entry { peer, initiates });
    }

    /// Forget `pipe`, wherever its exchange stands.
    pub(crate) fn remove(&mut self, pipe: PipeId) {
        let Some(entry) = self.entries.remove(&pipe) else {
            return;
        };
        self.owed.remove(&pipe);
        self.unwait((entry.peer, entry.initiates), pipe);
    }

    /// The pipe a message from `peer` belongs to, no longer waiting from
    /// here on: the lowest waiting pipe of `peer` that this side does not
    /// initiate when the message is an `opening`, the lowest one it does
    /// initiate when it is an answer.  `None` when no such pipe waits, and
    /// then nothing changes.
    pub(crate) fn pair(&mut self, peer: &ModuleRef, opening: bool) -> Option<PipeId> {
        let key = (self.peer(peer)?, !opening);
        let pipe = *self.waiting.get(&key)?.first()?;
        self.unwait(key, pipe);
        Some(pipe)
    }

    /// The pipes that still owe the opening message, ascending, each with
    /// the peer it goes to.
    pub(crate) fn owed(&self) -> impl Iterator<Item = (PipeId, &ModuleRef)> + '_ {
        (self.owed.iter()).map(|(pipe, peer)| (*pipe, &self.peers[*peer]))
    }

    /// `pipe`'s opening message went out.
    pub(crate) fn opened(&mut self, pipe: PipeId) {
        self.owed.remove(&pipe);
    }

    /// Whether this side initiates `pipe`'s exchange (`false` for a pipe
    /// that does not exchange).
    pub(crate) fn initiates(&self, pipe: PipeId) -> bool {
        self.entries.get(&pipe).is_some_and(|entry| entry.initiates)
    }

    /// Whether there are exchanging pipes and this side initiates none of
    /// them: the far end of every exchange it takes part in.
    pub(crate) fn answers_only(&self) -> bool {
        !self.entries.is_empty() && self.entries.values().all(|entry| !entry.initiates)
    }

    /// `peer`'s index in [`Self::peers`], if a pipe was ever listed with it.
    fn peer(&self, peer: &ModuleRef) -> Option<usize> {
        self.peers.iter().position(|known| known == peer)
    }

    fn unwait(&mut self, key: (usize, bool), pipe: PipeId) {
        if let Some(pipes) = self.waiting.get_mut(&key) {
            pipes.remove(&pipe);
            if pipes.is_empty() {
                self.waiting.remove(&key);
            }
        }
    }
}

#[cfg(test)]
impl Exchanges {
    /// Whether no pipe is listed, in the entries or in an index.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.waiting.is_empty() && self.owed.is_empty()
    }

    /// The waiting pipes, ascending.
    pub(crate) fn waiting(&self) -> BTreeSet<PipeId> {
        self.waiting.values().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::module;
    use conman_core::ids::ModuleKind;
    use proptest::prelude::*;

    fn peer(device: u64) -> ModuleRef {
        module(ModuleKind::Mpls, 1, device)
    }

    /// Each case lists pipes as `(id, peer device, initiates)`, opens
    /// every initiating one, then delivers messages as `(peer device,
    /// opening)` and expects what each pairs with.
    #[test]
    fn a_message_pairs_with_a_waiting_pipe_or_nothing() {
        type Case = (
            &'static str,
            &'static [(u32, u64, bool)],
            &'static [((u64, bool), Option<u32>)],
        );
        let cases: [Case; 5] = [
            (
                "an opening takes the lowest pipe this side answers",
                &[(3, 2, false), (4, 2, false)],
                &[((2, true), Some(3)), ((2, true), Some(4))],
            ),
            (
                "an answer takes the lowest pipe this side opened",
                &[(3, 2, true), (4, 2, true)],
                &[((2, false), Some(3)), ((2, false), Some(4))],
            ),
            (
                "both directions to one peer keep apart",
                &[(3, 2, true), (4, 2, false), (5, 2, true), (6, 2, false)],
                &[
                    ((2, true), Some(4)),
                    ((2, false), Some(3)),
                    ((2, false), Some(5)),
                    ((2, true), Some(6)),
                ],
            ),
            (
                "a stranger pairs with nothing",
                &[(3, 2, false), (4, 2, true)],
                &[((7, true), None), ((7, false), None)],
            ),
            (
                "a peer with nothing waiting pairs with nothing",
                &[(3, 2, false), (4, 2, true)],
                &[
                    ((2, true), Some(3)),
                    ((2, true), None),
                    ((2, false), Some(4)),
                    ((2, false), None),
                ],
            ),
        ];
        for (name, pipes, messages) in cases {
            let mut table = Exchanges::default();
            for &(pipe, device, initiates) in pipes {
                table.add(PipeId(pipe), peer(device), initiates);
            }
            let owed: Vec<PipeId> = table.owed().map(|(pipe, _)| pipe).collect();
            for pipe in owed {
                table.opened(pipe);
            }
            for &((device, opening), expected) in messages {
                let mut after = table.waiting();
                let paired = table.pair(&peer(device), opening);
                assert_eq!(paired, expected.map(PipeId), "{name}");
                if let Some(pipe) = paired {
                    after.remove(&pipe);
                }
                assert_eq!(
                    table.waiting(),
                    after,
                    "{name}: only the paired pipe stops waiting"
                );
            }
        }
    }

    /// One listed pipe as the table must see it, kept the slow way.
    struct Row {
        device: u64,
        initiates: bool,
        waiting: bool,
        owed: bool,
    }

    proptest! {
        /// After every step the table agrees with a full scan of the rows:
        /// the pipe each message pairs with, the waiting and owed indexes,
        /// and who initiates.
        #[test]
        fn the_indexes_equal_a_full_scan(
            ops in proptest::collection::vec((0u8..4, 0u32..6, any::<u8>()), 0..64),
        ) {
            let mut table = Exchanges::default();
            let mut rows: BTreeMap<PipeId, Row> = BTreeMap::new();
            for (op, id, bits) in ops {
                let (pipe, device, flag) = (PipeId(id), 2 + u64::from(bits & 1), bits & 2 != 0);
                match op {
                    // A module adds a pipe id once, as the agent admits it.
                    0 => {
                        rows.entry(pipe).or_insert_with(|| {
                            table.add(pipe, peer(device), flag);
                            Row { device, initiates: flag, waiting: true, owed: flag }
                        });
                    }
                    1 => {
                        table.remove(pipe);
                        rows.remove(&pipe);
                    }
                    // `flag` tells an opening from an answer.
                    2 => {
                        let lowest = (rows.iter_mut())
                            .find(|(_, r)| r.waiting && r.device == device && r.initiates != flag)
                            .map(|(pipe, r)| {
                                r.waiting = false;
                                *pipe
                            });
                        prop_assert_eq!(table.pair(&peer(device), flag), lowest);
                    }
                    _ => {
                        table.opened(pipe);
                        if let Some(r) = rows.get_mut(&pipe) {
                            r.owed = false;
                        }
                    }
                }
                let waiting: BTreeSet<PipeId> =
                    (rows.iter()).filter(|(_, r)| r.waiting).map(|(pipe, _)| *pipe).collect();
                let owed: Vec<(PipeId, ModuleRef)> =
                    (rows.iter()).filter(|(_, r)| r.owed).map(|(pipe, r)| (*pipe, peer(r.device))).collect();
                prop_assert_eq!(table.waiting(), waiting);
                prop_assert_eq!(table.owed().map(|(pipe, p)| (pipe, p.clone())).collect::<Vec<_>>(), owed);
                for (pipe, r) in &rows {
                    prop_assert_eq!(table.initiates(*pipe), r.initiates);
                }
                let answers_only = !rows.is_empty() && rows.values().all(|r| !r.initiates);
                prop_assert_eq!(table.answers_only(), answers_only);
                prop_assert_eq!(table.is_empty(), rows.is_empty());
            }
        }
    }
}
