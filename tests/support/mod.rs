//! The one test channel: [`Logged`] keeps every message it is handed, in
//! send order, and otherwise is the channel it wraps.  A test reads what
//! the NM sent by filtering the log.  Its one other mode sends the first
//! message with a given wire tag twice; unset, it is the identity
//! (`tests/raw_speed.rs` pins a log by digest through it).

use mgmt_channel::{ManagementChannel, MessageCategory, MgmtMessage};
use netsim::device::DeviceId;
use netsim::network::Network;

/// One message as a channel was handed it: from, to, category, payload.
pub type Sent = (DeviceId, DeviceId, MessageCategory, Vec<u8>);

pub struct Logged<C> {
    pub inner: C,
    pub log: Vec<Sent>,
    /// The wire tag (`mgmt_channel::codec::TAG_*`) whose first message is
    /// sent twice, cleared once it has been.  The copy is not logged.
    pub duplicate: Option<u8>,
}

impl<C> Logged<C> {
    pub fn new(inner: C) -> Self {
        Logged {
            inner,
            log: Vec::new(),
            duplicate: None,
        }
    }
}

impl<C: ManagementChannel> ManagementChannel for Logged<C> {
    fn send(&mut self, net: &mut Network, msg: MgmtMessage) {
        self.log
            .push((msg.from, msg.to, msg.category, msg.payload.clone()));
        if self.duplicate.is_some() && self.duplicate == msg.payload.first().copied() {
            self.duplicate = None;
            self.inner.send(net, msg.clone());
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
