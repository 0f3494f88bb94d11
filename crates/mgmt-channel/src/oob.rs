//! The out-of-band management channel: a dedicated management network,
//! modelled as direct per-device mailboxes.
//!
//! This mirrors the paper's primary testbed setup, where every PC had a
//! separate management NIC on a separate network and CONMan messages ran as
//! UDP/IP over that network.  The paper notes this is "not ideal since the
//! management channel had to be pre-configured"; the in-band variant removes
//! that assumption.

use crate::message::MgmtMessage;
use crate::ManagementChannel;
use netsim::device::DeviceId;
use netsim::network::Network;
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Direct-mailbox management channel.
#[derive(Debug, Default)]
pub struct OutOfBandChannel {
    mailboxes: BTreeMap<DeviceId, VecDeque<MgmtMessage>>,
}

impl OutOfBandChannel {
    /// Create an empty channel.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ManagementChannel for OutOfBandChannel {
    fn send(&mut self, _net: &mut Network, msg: MgmtMessage) {
        self.mailboxes.entry(msg.to).or_default().push_back(msg);
    }

    fn run(&mut self, _net: &mut Network) {
        // Delivery is immediate; nothing to pump.
    }

    fn recv(&mut self, _net: &mut Network, device: DeviceId) -> Vec<MgmtMessage> {
        self.mailboxes
            .get_mut(&device)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    fn recv_is_passive(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageCategory;

    #[test]
    fn messages_queue_until_polled() {
        let mut net = Network::new();
        let mut ch = OutOfBandChannel::new();
        let a = DeviceId::from_raw(1);
        let b = DeviceId::from_raw(2);
        for i in 0..3 {
            ch.send(
                &mut net,
                MgmtMessage::new(a, b, MessageCategory::Command, vec![i]),
            );
        }
        assert!(ch.recv(&mut net, a).is_empty());
        let got = ch.recv(&mut net, b);
        assert_eq!(got.len(), 3);
        // Delivered in send order.
        let order: Vec<u8> = got.iter().map(|m| m.payload[0]).collect();
        assert_eq!(order, [0, 1, 2]);
        assert!(ch.recv(&mut net, b).is_empty(), "a mailbox drains once");
        // All three went from `a` to `b`.
        assert!(got.iter().all(|m| (m.from, m.to) == (a, b)));
    }
}
