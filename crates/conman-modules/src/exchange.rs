//! Which of a module's pipes a peer's exchange message belongs to.
//!
//! IP, GRE, MPLS and VLAN each agree something with the module at the far
//! end of a pipe (an address, a key set, a label pair, a VLAN id) by one
//! exchange: the side that initiates owes its peer the opening message,
//! the other side answers it.  Several goals' pipes can share one peer, in
//! either direction, so every message names the pipe it is for
//! ([`ModuleEnvelope::pipe`]): the NM numbers both ends of a pipe pair in
//! one script, and each end's spec names the other
//! ([`PipeSpec::peer_pipe`]).  A message pairs with the pipe it names when
//! that pipe still waits, exchanges with the sender, and is opened by this
//! side exactly when the message is an answer.  Anything else (a
//! duplicate, a stranger, a message of the wrong role or for a pipe that
//! does not wait) pairs with nothing and changes nothing.  Pairing is a
//! lookup, so it does not depend on the order messages arrive in.
//!
//! [`Exchanges`] holds that rule and the state it reads; each module keeps
//! only what the exchange carries.  A module exchanges with modules of its
//! own kind (IP with IP, GRE with GRE), and the table compares a sender's
//! whole reference, kind included, with the peer it holds.
//!
//! [`ModuleEnvelope::pipe`]: conman_core::primitives::ModuleEnvelope::pipe
//! [`PipeSpec::peer_pipe`]: conman_core::primitives::PipeSpec::peer_pipe

use conman_core::ids::{ModuleRef, PipeId};
use std::collections::{BTreeMap, BTreeSet};

/// One exchanging pipe: its far end, who opens, and whether it still waits.
struct Entry {
    /// The far end's module.
    peer: ModuleRef,
    /// The far end's pipe, which every message to `peer` names.
    peer_pipe: PipeId,
    /// Whether this side sends the opening message.
    initiates: bool,
    /// Whether no message of the peer has paired with the pipe yet.
    waiting: bool,
}

/// A module's exchanging pipes, by id.  The pipes that still owe their
/// opening message are also an index, so `poll` does not scan the pipes:
/// hundreds of concurrent goals can share one peer.
#[derive(Default)]
pub(crate) struct Exchanges {
    entries: BTreeMap<PipeId, Entry>,
    owed: BTreeSet<PipeId>,
}

impl Exchanges {
    /// List `pipe`, which exchanges with `peer`'s `peer_pipe`: waiting, and
    /// owing the opening message when this side `initiates`.
    pub(crate) fn add(
        &mut self,
        pipe: PipeId,
        peer: &ModuleRef,
        peer_pipe: PipeId,
        initiates: bool,
    ) {
        if initiates {
            self.owed.insert(pipe);
        }
        let entry = Entry {
            peer: *peer,
            peer_pipe,
            initiates,
            waiting: true,
        };
        self.entries.insert(pipe, entry);
    }

    /// Forget `pipe`, wherever its exchange stands.
    pub(crate) fn remove(&mut self, pipe: PipeId) {
        self.entries.remove(&pipe);
        self.owed.remove(&pipe);
    }

    /// Pair a message from `from` for `pipe`, an `opening` or an answer:
    /// `pipe` stops waiting, and the far end's pipe, which an answer names,
    /// is returned.  `None` when `pipe` does not wait for such a message
    /// from `from`, a module of another kind among them, and then nothing
    /// changes.
    pub(crate) fn pair(&mut self, from: &ModuleRef, pipe: PipeId, opening: bool) -> Option<PipeId> {
        let entry = (self.entries.get_mut(&pipe))
            .filter(|e| e.waiting && e.initiates != opening && e.peer == *from)?;
        entry.waiting = false;
        Some(entry.peer_pipe)
    }

    /// The pipes that still owe the opening message, ascending, each with
    /// its peer and the peer's pipe the message names.
    pub(crate) fn owed(&self) -> impl Iterator<Item = (PipeId, ModuleRef, PipeId)> + '_ {
        (self.owed.iter()).map(|pipe| {
            let entry = &self.entries[pipe];
            (*pipe, entry.peer, entry.peer_pipe)
        })
    }

    /// `pipe`'s opening message went out.
    pub(crate) fn opened(&mut self, pipe: PipeId) {
        self.owed.remove(&pipe);
    }

    /// Whether `pipe` exchanges with `peer` (`false` for a pipe that does
    /// not exchange).
    pub(crate) fn is_with(&self, pipe: PipeId, peer: &ModuleRef) -> bool {
        (self.entries.get(&pipe)).is_some_and(|entry| entry.peer == *peer)
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
}

#[cfg(test)]
impl Exchanges {
    /// Whether no pipe is listed, in the entries or in the owed index.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.owed.is_empty()
    }

    /// The waiting pipes, ascending.
    pub(crate) fn waiting(&self) -> BTreeSet<PipeId> {
        (self.entries.iter())
            .filter(|(_, entry)| entry.waiting)
            .map(|(pipe, _)| *pipe)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{far, module};
    use conman_core::ids::ModuleKind;
    use proptest::prelude::*;

    fn peer(device: u64) -> ModuleRef {
        module(ModuleKind::Mpls, 1, device)
    }

    /// Each case lists pipes as `(id, peer device, initiates)`, each
    /// exchanging with the peer's pipe `id + 100`, opens every initiating
    /// one, then delivers messages as `(peer device, named pipe, opening)`
    /// and expects the pipe each pairs with.
    #[test]
    fn a_message_pairs_with_a_waiting_pipe_or_nothing() {
        type Case = (
            &'static str,
            &'static [(u32, u64, bool)],
            &'static [((u64, u32, bool), Option<u32>)],
        );
        let cases: [Case; 7] = [
            (
                "an opening pairs with the pipe it names, in any order",
                &[(3, 2, false), (4, 2, false)],
                &[((2, 4, true), Some(4)), ((2, 3, true), Some(3))],
            ),
            (
                "an answer pairs with the pipe it names, in any order",
                &[(3, 2, true), (4, 2, true)],
                &[((2, 4, false), Some(4)), ((2, 3, false), Some(3))],
            ),
            (
                "both directions to one peer keep apart",
                &[(3, 2, true), (4, 2, false), (5, 2, true), (6, 2, false)],
                &[
                    ((2, 6, true), Some(6)),
                    ((2, 5, false), Some(5)),
                    ((2, 3, false), Some(3)),
                    ((2, 4, true), Some(4)),
                ],
            ),
            (
                "a duplicate pairs with nothing while another pipe waits",
                &[(3, 2, false), (4, 2, false)],
                &[
                    ((2, 3, true), Some(3)),
                    ((2, 3, true), None),
                    ((2, 4, true), Some(4)),
                ],
            ),
            (
                "a stranger pairs with nothing",
                &[(3, 2, false), (4, 2, true)],
                &[((7, 3, true), None), ((7, 4, false), None)],
            ),
            (
                "a message of the wrong role pairs with nothing",
                &[(3, 2, false), (4, 2, true)],
                &[
                    ((2, 3, false), None),
                    ((2, 4, true), None),
                    ((2, 3, true), Some(3)),
                ],
            ),
            (
                "a message for a pipe not listed pairs with nothing",
                &[(3, 2, false)],
                &[((2, 9, true), None), ((2, 103, true), None)],
            ),
        ];
        for (name, pipes, messages) in cases {
            let mut table = Exchanges::default();
            for &(pipe, device, initiates) in pipes {
                table.add(PipeId(pipe), &peer(device), far(pipe), initiates);
            }
            let owed: Vec<PipeId> = table.owed().map(|(pipe, ..)| pipe).collect();
            for pipe in owed {
                table.opened(pipe);
            }
            for &((device, pipe, opening), expected) in messages {
                let mut after = table.waiting();
                let paired = table.pair(&peer(device), PipeId(pipe), opening);
                assert_eq!(paired, expected.map(far), "{name}");
                if paired.is_some() {
                    after.remove(&PipeId(pipe));
                }
                assert_eq!(
                    table.waiting(),
                    after,
                    "{name}: only the paired pipe stops waiting"
                );
            }
        }
    }

    /// A message from a module of another kind, on the peer's device and
    /// with the peer's module id, pairs with nothing: the table compares
    /// whole references.
    #[test]
    fn a_sender_of_another_kind_pairs_with_nothing() {
        let mut table = Exchanges::default();
        table.add(PipeId(3), &peer(2), far(3), false);
        let stranger = module(ModuleKind::Ip, 1, 2);
        assert_eq!(table.pair(&stranger, PipeId(3), true), None);
        assert_eq!(table.waiting(), BTreeSet::from([PipeId(3)]));
        assert_eq!(table.pair(&peer(2), PipeId(3), true), Some(far(3)));
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
        /// what each message pairs with, the waiting pipes, the owed index
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
                            table.add(pipe, &peer(device), far(id), flag);
                            Row { device, initiates: flag, waiting: true, owed: flag }
                        });
                    }
                    1 => {
                        table.remove(pipe);
                        rows.remove(&pipe);
                    }
                    // `flag` tells an opening from an answer.
                    2 => {
                        let paired = (rows.get_mut(&pipe))
                            .filter(|r| r.waiting && r.device == device && r.initiates != flag)
                            .map(|r| {
                                r.waiting = false;
                                far(id)
                            });
                        prop_assert_eq!(table.pair(&peer(device), pipe, flag), paired);
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
                let owed: Vec<(PipeId, ModuleRef, PipeId)> = (rows.iter())
                    .filter(|(_, r)| r.owed)
                    .map(|(pipe, r)| (*pipe, peer(r.device), far(pipe.0)))
                    .collect();
                prop_assert_eq!(table.waiting(), waiting);
                prop_assert_eq!(table.owed().collect::<Vec<_>>(), owed);
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
