//! The proof that an exchange pairs each message with its own pipe, as an
//! enumeration: two devices, one negotiating module kind at a time, two
//! goals opened from each side over the one peer pair, and every order the
//! relay can deliver their envelopes in, with at most one envelope
//! duplicated and at most one dropped.  No pipe may take a message another
//! goal's pipe sent, and with nothing dropped every pipe ends paired.
//!
//! The search tracks where each envelope came from itself (the pipe whose
//! opening went out, or the pipe that answered) instead of trusting what
//! the envelope names.  A side's module depends only on the envelopes
//! delivered to it, in order, so a search state is the two delivery
//! sequences plus what is in flight, and each sequence is replayed once.

use crate::exchange::Exchanges;
use crate::gre::GreModule;
use crate::ip::IpModule;
use crate::mpls::MplsModule;
use crate::rig::{module, pipe, Rig};
use crate::vlan::VlanModule;
use conman_core::ids::{ModuleKind, PipeId};
use conman_core::module::ProtocolModule;
use conman_core::primitives::{ModuleEnvelope, PipeSpec, TradeoffChoice};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::net::Ipv4Addr;

/// A negotiating module with its exchange table in view.
pub(crate) trait Exchanging: ProtocolModule {
    fn exchanges(&self) -> &Exchanges;
}

/// Goals opened from each side; goal `g` is opened by side `g / GOALS`.
const GOALS: usize = 2;

/// Goal `g`'s pipe on `side`, numbered as the NM numbers a two-device
/// path: one block per goal, the opener's end first.
fn pipe_of(goal: usize, side: usize) -> PipeId {
    let answerer = side != goal / GOALS;
    PipeId(10 * goal as u32 + 1 + u32::from(answerer))
}

/// The goal whose block holds `pipe`.
fn goal_of(pipe: PipeId) -> usize {
    (pipe.0 / 10) as usize
}

fn device(side: usize) -> u64 {
    side as u64 + 1
}

/// What the NM would tell `side`'s module about goal `goal`'s pipe.
fn spec(kind: &ModuleKind, side: usize, goal: usize) -> PipeSpec {
    let me = module(*kind, 1, device(side));
    let peer = Some(module(*kind, 1, device(1 - side)));
    let mut spec = if *kind == ModuleKind::Gre {
        let mut spec = pipe(0, &module(ModuleKind::Ip, 2, device(side)), &me);
        spec.peer_lower = peer;
        spec.tradeoffs = vec![TradeoffChoice::InOrderDelivery];
        spec
    } else {
        let mut spec = pipe(0, &me, &module(ModuleKind::Eth, 3, device(side)));
        spec.peer_upper = peer;
        spec
    };
    spec.pipe = pipe_of(goal, side);
    spec.peer_pipe = Some(pipe_of(goal, 1 - side));
    spec.initiate = goal / GOALS == side;
    spec
}

/// An envelope one side sent, and the goal of the pipe that sent it.
#[derive(Clone, PartialEq)]
struct Sent {
    env: ModuleEnvelope,
    goal: usize,
    opening: bool,
}

/// One device with the module under test.
struct Side {
    rig: Rig,
    module: Box<dyn Exchanging>,
}

impl Side {
    /// `side`'s module with every goal's pipe made and its port published,
    /// then polled once, and what it sent meanwhile.
    fn new(kind: &ModuleKind, side: usize) -> (Side, Vec<Sent>) {
        let me = module(*kind, 1, device(side));
        let negotiator: Box<dyn Exchanging> = match kind {
            ModuleKind::Ip => Box::new(IpModule::new(me, "isp", Ipv4Addr::new(10, 9, 0, 1))),
            ModuleKind::Gre => Box::new(GreModule::new(me)),
            ModuleKind::Mpls => Box::new(MplsModule::new(me)),
            _ => Box::new(VlanModule::new(me)),
        };
        let mut s = Side {
            rig: Rig::new(),
            module: negotiator,
        };
        let mut sent = Vec::new();
        for goal in 0..2 * GOALS {
            let spec = spec(kind, side, goal);
            let reaction = s.module.create_pipe(&mut s.rig.ctx(), &spec).unwrap();
            s.rig.publish_port(spec.pipe.0, 0);
            sent.extend(reaction.envelopes.into_iter().map(|env| Sent {
                env,
                goal,
                opening: true,
            }));
        }
        if *kind == ModuleKind::Vlan {
            // A VLAN edge picks the VLAN id: it has a customer pipe.
            let eth = module(ModuleKind::Eth, 4, device(side));
            let customer = pipe(99, &s.module.reference(), &eth);
            s.module.create_pipe(&mut s.rig.ctx(), &customer).unwrap();
        }
        sent.extend(s.poll());
        (s, sent)
    }

    fn waiting(&self) -> BTreeSet<PipeId> {
        self.module.exchanges().waiting()
    }

    /// Poll: each opening sent is from the next pipe that stopped owing one.
    fn poll(&mut self) -> Vec<Sent> {
        let owed = |s: &Side| -> BTreeSet<PipeId> {
            s.module.exchanges().owed().map(|(pipe, ..)| pipe).collect()
        };
        let before = owed(self);
        let envelopes = self.module.poll(&mut self.rig.ctx()).envelopes;
        let opened: Vec<PipeId> = before.difference(&owed(self)).copied().collect();
        assert_eq!(
            opened.len(),
            envelopes.len(),
            "one opening per pipe that owed it"
        );
        (envelopes.into_iter().zip(opened))
            .map(|(env, pipe)| Sent {
                env,
                goal: goal_of(pipe),
                opening: true,
            })
            .collect()
    }
}

/// How one delivery sequence to one side ends.
#[derive(Clone)]
struct Replay {
    /// What the side sent after the last envelope (after none: at start).
    sent: Vec<usize>,
    /// Its waiting pipes after the last envelope.
    waiting: BTreeSet<PipeId>,
    /// The first pipe that took another goal's envelope.
    wrong: Option<String>,
}

/// A move of the search: deliver an envelope in flight, deliver it and
/// keep a copy in flight (the one duplicate), or drop it (the one drop).
#[derive(Clone, Copy, Debug)]
enum Move {
    Deliver(usize),
    Duplicate(usize),
    Drop(usize),
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    delivered: [Vec<usize>; 2],
    /// Envelopes in flight, sorted.
    flight: Vec<usize>,
    duplicate_left: bool,
    drop_left: bool,
}

struct Search {
    kind: ModuleKind,
    /// Every envelope any replay sent, by index.
    sent: Vec<Sent>,
    replays: HashMap<(usize, Vec<usize>), Replay>,
}

impl Search {
    fn index(&mut self, sent: Sent) -> usize {
        self.sent
            .iter()
            .position(|s| *s == sent)
            .unwrap_or_else(|| {
                self.sent.push(sent);
                self.sent.len() - 1
            })
    }

    fn to_side(&self, i: usize) -> usize {
        usize::from(u64::from(self.sent[i].env.to.device) == device(1))
    }

    fn describe(&self, i: usize) -> String {
        let s = &self.sent[i];
        let role = if s.opening { "opening" } else { "answer" };
        let to = ["A", "B"][self.to_side(i)];
        format!("goal {}'s {role} to {to}", s.goal)
    }

    /// Deliver `seq` to a fresh `side`, in order, and say how it ends.
    fn replay(&mut self, side: usize, seq: &[usize]) -> Replay {
        if let Some(replay) = self.replays.get(&(side, seq.to_vec())) {
            return replay.clone();
        }
        let (mut s, mut sent) = Side::new(&self.kind, side);
        let mut wrong = None;
        for &i in seq {
            let Sent { env, goal, .. } = self.sent[i].clone();
            let before = s.waiting();
            let reaction = s.module.handle_envelope(&mut s.rig.ctx(), &env).unwrap();
            let paired: Vec<PipeId> = before.difference(&s.waiting()).copied().collect();
            assert!(paired.len() <= 1, "one message pairs one pipe");
            for &pipe in &paired {
                if goal_of(pipe) != goal && wrong.is_none() {
                    let goal = goal_of(pipe);
                    wrong = Some(format!(
                        "goal {goal}'s pipe {pipe} took {}",
                        self.describe(i)
                    ));
                }
            }
            if paired.is_empty() {
                assert!(
                    reaction.envelopes.is_empty(),
                    "an unpaired message is not answered"
                );
            }
            sent = (reaction.envelopes.into_iter())
                .map(|env| Sent {
                    env,
                    goal: goal_of(paired[0]),
                    opening: false,
                })
                .collect();
            sent.extend(s.poll());
        }
        let replay = Replay {
            sent: sent.into_iter().map(|s| self.index(s)).collect(),
            waiting: s.waiting(),
            wrong,
        };
        self.replays.insert((side, seq.to_vec()), replay.clone());
        replay
    }

    /// The state after `mv`, or why `mv` breaks the property.
    fn after(&mut self, state: &State, mv: Move) -> Result<State, String> {
        let mut next = state.clone();
        let (Move::Deliver(i) | Move::Duplicate(i) | Move::Drop(i)) = mv;
        match mv {
            Move::Duplicate(_) => next.duplicate_left = false,
            Move::Drop(_) => next.drop_left = false,
            Move::Deliver(_) => {}
        }
        if !matches!(mv, Move::Duplicate(_)) {
            let at = next.flight.iter().position(|&f| f == i).unwrap();
            next.flight.remove(at);
        }
        if !matches!(mv, Move::Drop(_)) {
            let side = self.to_side(i);
            next.delivered[side].push(i);
            let replay = self.replay(side, &next.delivered[side].clone());
            if let Some(wrong) = replay.wrong {
                return Err(wrong);
            }
            next.flight.extend(replay.sent);
            next.flight.sort_unstable();
        }
        Ok(next)
    }

    /// Why `state`, with nothing left in flight, is wrong: a pipe still
    /// waits though nothing was dropped.
    fn stuck(&mut self, state: &State) -> Option<String> {
        if !state.drop_left {
            return None;
        }
        (0..2).find_map(|side| {
            let waiting = self.replay(side, &state.delivered[side]).waiting;
            let pipe = waiting.first()?;
            Some(format!("pipe {pipe} still waits with nothing dropped"))
        })
    }
}

/// Search every schedule breadth first, so the first failure found is a
/// shortest one; `Err` names it move by move.  `Ok` counts the states.
fn enumerate(kind: ModuleKind) -> Result<usize, String> {
    let mut search = Search {
        kind,
        sent: Vec::new(),
        replays: HashMap::new(),
    };
    let mut flight = search.replay(0, &[]).sent;
    flight.extend(search.replay(1, &[]).sent);
    flight.sort_unstable();
    let start = State {
        delivered: [Vec::new(), Vec::new()],
        flight,
        duplicate_left: true,
        drop_left: true,
    };
    let mut came_from: HashMap<State, Option<(State, Move)>> = HashMap::new();
    came_from.insert(start.clone(), None);
    let mut queue = VecDeque::from([start]);
    while let Some(state) = queue.pop_front() {
        let mut distinct = state.flight.clone();
        distinct.dedup();
        let moves = distinct.iter().flat_map(|&i| {
            let duplicate = state.duplicate_left.then_some(Move::Duplicate(i));
            let drop = state.drop_left.then_some(Move::Drop(i));
            [Some(Move::Deliver(i)), duplicate, drop]
                .into_iter()
                .flatten()
        });
        let failure = if state.flight.is_empty() {
            search.stuck(&state).map(|why| (why, Vec::new()))
        } else {
            moves
                .collect::<Vec<_>>()
                .into_iter()
                .find_map(|mv| match search.after(&state, mv) {
                    Ok(next) => {
                        if !came_from.contains_key(&next) {
                            came_from.insert(next.clone(), Some((state.clone(), mv)));
                            queue.push_back(next);
                        }
                        None
                    }
                    Err(why) => Some((why, vec![mv])),
                })
        };
        if let Some((why, mut moves)) = failure {
            let mut at = state;
            while let Some(Some((prev, mv))) = came_from.get(&at) {
                moves.push(*mv);
                at = prev.clone();
            }
            let schedule: Vec<String> = (moves.iter().rev())
                .map(|mv| match *mv {
                    Move::Deliver(i) => format!("deliver {}", search.describe(i)),
                    Move::Duplicate(i) => format!("deliver {} twice", search.describe(i)),
                    Move::Drop(i) => format!("drop {}", search.describe(i)),
                })
                .collect();
            return Err(format!("{why} after: {}", schedule.join("; ")));
        }
    }
    Ok(came_from.len())
}

/// The behavioural test of `tests/architecture.rs`'s rule "an exchange
/// pairs with a waiting pipe or nothing", for every module that exchanges.
#[test]
fn every_delivery_order_pairs_each_pipe_with_its_own_goal() {
    for kind in [
        ModuleKind::Ip,
        ModuleKind::Gre,
        ModuleKind::Mpls,
        ModuleKind::Vlan,
    ] {
        match enumerate(kind) {
            Ok(states) => assert!(states > 1_000, "{kind}: only {states} states"),
            Err(schedule) => panic!("{kind}: {schedule}"),
        }
    }
}
