//! The one test channel: [`Logged`] keeps every message it is handed, in
//! send order, and otherwise is the channel it wraps.  A test reads what
//! the NM sent by filtering the log.  It is also the one place a fault
//! enters a test: each of its [`Fault`]s fires once, on the first message
//! that matches it.  With no fault it is the identity (`tests/raw_speed.rs`
//! pins a log by digest through it).

use mgmt_channel::{ManagementChannel, MessageCategory, MgmtMessage};
use netsim::device::DeviceId;
use netsim::network::Network;

/// One message as a channel was handed it: from, to, category, payload.
pub type Sent = (DeviceId, DeviceId, MessageCategory, Vec<u8>);

/// What befalls the first message a fault matches.  Not every test binary
/// that declares `mod support;` uses every variant.
#[allow(dead_code)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The message is lost.
    Drop,
    /// The message is delivered twice.  The copy is not logged.
    Duplicate,
    /// Its destination powers off just before it is forwarded.
    Crash,
    /// Its destination powers off and on just before it is forwarded, and
    /// so forgets what it staged.
    Reboot,
}

pub struct Logged<C> {
    pub inner: C,
    pub log: Vec<Sent>,
    /// One-shot faults: the first message whose wire tag
    /// (`mgmt_channel::codec::TAG_*`) and, when one is named, destination
    /// match takes the fault, which is then removed.
    pub faults: Vec<(u8, Option<DeviceId>, Fault)>,
}

impl<C> Logged<C> {
    pub fn new(inner: C) -> Self {
        Logged {
            inner,
            log: Vec::new(),
            faults: Vec::new(),
        }
    }
}

impl<C: ManagementChannel> ManagementChannel for Logged<C> {
    fn send(&mut self, net: &mut Network, msg: MgmtMessage) {
        self.log
            .push((msg.from, msg.to, msg.category, msg.payload.clone()));
        let tag = msg.payload.first().copied();
        let hit = (self.faults.iter())
            .position(|&(t, to, _)| Some(t) == tag && to.is_none_or(|to| to == msg.to));
        match hit.map(|at| self.faults.remove(at).2) {
            None => {}
            Some(Fault::Drop) => return,
            Some(Fault::Duplicate) => self.inner.send(net, msg.clone()),
            Some(Fault::Crash) => net.set_device_up(msg.to, false),
            Some(Fault::Reboot) => {
                net.set_device_up(msg.to, false);
                net.set_device_up(msg.to, true);
            }
        }
        self.inner.send(net, msg);
    }

    fn run(&mut self, net: &mut Network) {
        self.inner.run(net);
    }

    fn recv(&mut self, net: &mut Network, device: DeviceId) -> Vec<MgmtMessage> {
        self.inner.recv(net, device)
    }

    fn attach_recorder(&mut self, recorder: conman_obs::Recorder) {
        self.inner.attach_recorder(recorder);
    }
}
