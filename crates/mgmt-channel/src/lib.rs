//! # mgmt-channel — the CONMan management channel
//!
//! CONMan assumes a management channel that is independent of the data plane,
//! requires no pre-configuration and lets every device talk to the Network
//! Manager (§II-A).  The paper's implementation had two variants and so does
//! this crate:
//!
//! * [`OutOfBandChannel`] — the dedicated management network (each testbed PC
//!   had a separate management NIC); modelled as direct in-memory mailboxes.
//! * [`InBandChannel`] — the straw-man 4D-style discovery/dissemination
//!   channel: management messages are encapsulated in raw Ethernet frames
//!   (EtherType 0x88B5) and flooded hop-by-hop over the same physical links
//!   the data plane uses, with no pre-configuration at all.  Its flood
//!   frame is a [`codec`] frame too, and it counts every flooded copy and
//!   byte and every frame it drops.
//!
//! Neither variant counts management messages: the NM counts its own at
//! its one send door and its one receive door
//! (`conman_core::runtime::ChannelCounters`, Table VI).  Every byte either
//! channel puts on a wire is written with [`codec`]; the crate has no other
//! format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod codec;
pub mod inband;
pub mod message;
pub mod oob;

pub use inband::InBandChannel;
pub use message::{MessageCategory, MgmtMessage};
pub use oob::OutOfBandChannel;

use netsim::device::DeviceId;
use netsim::network::Network;

/// A transport for management messages between devices (their management
/// agents) and the NM.
///
/// The channel is deliberately dumb: it moves opaque payload bytes.  What
/// the bytes mean (CONMan primitives, module-to-module conveyMessage
/// relays, ...) and how many of them the NM sent and received are the
/// business of `conman-core`.
///
/// The contract: [`Self::run`] moves traffic, [`Self::recv`] hands over
/// what it holds.  A message sent before a `run` is in its destination's
/// mailbox when that `run` returns, unless a fault lost it (the
/// out-of-band channel fills the mailbox at `send` already).  `recv` only
/// drains a mailbox, so draining one device never changes what another
/// device's drain returns.
pub trait ManagementChannel {
    /// Queue a message for delivery.
    fn send(&mut self, net: &mut Network, msg: MgmtMessage);

    /// Move every queued message into its destination's mailbox (a no-op
    /// for the out-of-band channel; floods and steps the simulated network
    /// for the in-band one).
    fn run(&mut self, net: &mut Network);

    /// Drain `device`'s mailbox and do nothing else: no traffic moves and
    /// `net` is not touched.
    fn recv(&mut self, net: &mut Network, device: DeviceId) -> Vec<MgmtMessage>;

    /// Attach a flight recorder for the channel's own metrics (the in-band
    /// channel's `inband.*` flood counts).  A channel with none ignores it.
    fn attach_recorder(&mut self, _recorder: conman_obs::Recorder) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::device::{Device, DeviceRole, PortId};
    use netsim::link::LinkProperties;

    /// Both channel variants deliver a message end to end, to its
    /// destination alone and once.
    #[test]
    fn both_variants_deliver_to_the_destination_alone() {
        // Line of three devices so in-band flooding has to cross a hop.
        let mut net = Network::new();
        let a = net.add_device(Device::new("a", DeviceRole::Router, 2));
        let b = net.add_device(Device::new("b", DeviceRole::Router, 2));
        let c = net.add_device(Device::new("c", DeviceRole::Router, 2));
        net.connect((a, PortId(0)), (b, PortId(1)), LinkProperties::lan())
            .unwrap();
        net.connect((b, PortId(0)), (c, PortId(1)), LinkProperties::lan())
            .unwrap();

        let channels: [(&str, Box<dyn ManagementChannel>); 2] = [
            ("out-of-band", Box::new(OutOfBandChannel::new())),
            ("in-band", Box::new(InBandChannel::new())),
        ];
        for (name, mut ch) in channels {
            let msg = MgmtMessage::new(a, c, MessageCategory::Command, b"showPotential".to_vec());
            ch.send(&mut net, msg);
            ch.run(&mut net);
            let got = ch.recv(&mut net, c);
            assert_eq!(got.len(), 1, "{name} should deliver");
            assert_eq!(
                got[0],
                MgmtMessage::new(a, c, MessageCategory::Command, b"showPotential".to_vec())
            );
            assert!(
                ch.recv(&mut net, b).is_empty(),
                "{name}: transit devices do not consume"
            );
            assert!(
                ch.recv(&mut net, a).is_empty(),
                "{name}: nothing comes back"
            );
            assert!(ch.recv(&mut net, c).is_empty(), "{name}: delivered once");
        }
    }
}
