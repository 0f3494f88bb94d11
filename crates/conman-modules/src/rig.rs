//! What a module's unit tests need around it: one device's worth of context,
//! short-hands for the specs the NM would send, and the hostile-body checks
//! every module's dialect is held to.

use crate::dialect::Dialect;
use conman_core::ids::{ModuleId, ModuleKind, ModuleRef, PipeId};
use conman_core::module::{Blackboard, ModuleCtx, ProtocolModule};
use conman_core::primitives::{ModuleActual, ModuleEnvelope, PipeSpec, SwitchSpec};
use netsim::config::DeviceConfig;
use netsim::device::DeviceId;

/// The device a module under test lives on.
pub(crate) struct Rig {
    pub config: DeviceConfig,
    pub blackboard: Blackboard,
}

impl Rig {
    pub(crate) fn new() -> Self {
        Rig {
            config: DeviceConfig::new(),
            blackboard: Blackboard::new(),
        }
    }

    pub(crate) fn ctx(&mut self) -> ModuleCtx<'_> {
        ModuleCtx {
            config: &mut self.config,
            blackboard: &mut self.blackboard,
        }
    }

    /// What the ETH module does when a pipe lands on it.
    pub(crate) fn publish_port(&mut self, pipe: u32, port: u32) {
        self.blackboard
            .publish(PipeId(pipe), |facts| facts.port = Some(port));
    }

    /// Everything a refused envelope must leave as it was: the data plane,
    /// the blackboard's change count and what `m` lists.
    fn snapshot(&mut self, m: &dyn ProtocolModule) -> (DeviceConfig, u64, ModuleActual) {
        let actual = m.actual(&self.ctx());
        (self.config.clone(), self.blackboard.changes(), actual)
    }

    /// Hand `env` to `m`, whose dialect is `D`.  A body `D` does not decode
    /// must be refused as `D::read` refuses it and change nothing; one it
    /// does decode must be accepted and be exactly that message's encoding,
    /// so no byte of it was skipped or stood in for by a default.
    pub(crate) fn deliver<D: Dialect>(&mut self, m: &mut dyn ProtocolModule, env: &ModuleEnvelope) {
        let before = self.snapshot(m);
        let result = m.handle_envelope(&mut self.ctx(), env);
        match D::decode(&env.body) {
            None => {
                let refusal = D::read(env).err();
                assert_eq!(result.err(), refusal, "{:?} was not refused", env.body);
                assert_eq!(self.snapshot(m), before, "a refusal changed state");
            }
            Some(msg) => {
                assert_eq!(msg.encode(), env.body, "accepted bytes are one message");
                assert!(result.is_ok(), "{:?} was refused: {result:?}", env.body);
            }
        }
    }
}

/// A valid body made hostile, by `how`: cut short at `at`, grown by `byte`,
/// the bit `at` flipped, or the tag replaced by `byte`.
pub(crate) fn mangle(valid: &[u8], how: u8, at: usize, byte: u8) -> Vec<u8> {
    let mut body = valid.to_vec();
    match how % 4 {
        0 => body.truncate(at % valid.len()),
        1 => body.push(byte),
        2 => body[at / 8 % valid.len()] ^= 1 << (at % 8),
        _ => body[0] = byte,
    }
    body
}

/// Module `id` of `kind` on device `device`.
pub(crate) fn module(kind: ModuleKind, id: u32, device: u64) -> ModuleRef {
    ModuleRef::new(kind, ModuleId(id), DeviceId::from_raw(device))
}

/// A pipe between `upper` and `lower` with no peers; callers set the rest.
pub(crate) fn pipe(id: u32, upper: &ModuleRef, lower: &ModuleRef) -> PipeSpec {
    PipeSpec {
        pipe: PipeId(id),
        upper: *upper,
        lower: *lower,
        peer_upper: None,
        peer_lower: None,
        peer_pipe: None,
        tradeoffs: vec![],
        initiate: false,
    }
}

/// The far end of pipe `id` in module tests: the peer's pipe `id + 100`,
/// which a spec with a peer names and every message to this side names.
pub(crate) fn far(id: u32) -> PipeId {
    PipeId(id + 100)
}

/// An unclassified switch rule of `module` between two pipes.
pub(crate) fn switch(module: &ModuleRef, in_pipe: u32, out_pipe: u32) -> SwitchSpec {
    SwitchSpec {
        module: *module,
        in_pipe: PipeId(in_pipe),
        out_pipe: PipeId(out_pipe),
        dst_class: None,
        gateway: None,
        local_prefix: None,
    }
}
