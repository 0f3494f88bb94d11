//! Network interface (port) model.

use crate::link::LinkId;
use crate::mac::MacAddr;

/// A network interface on a device.
#[derive(Debug, Clone)]
pub struct Nic {
    /// Port index within the device (0-based).
    pub index: u32,
    /// Interface name (`eth0`, `eth1`, ... by default).
    pub name: String,
    /// MAC address.
    pub mac: MacAddr,
    /// Link this port is attached to, if any.
    pub link: Option<LinkId>,
    /// Administrative state.
    pub up: bool,
    /// MTU in bytes.
    pub mtu: u16,
}

impl Nic {
    /// Create an interface with a default name derived from its index.
    pub fn new(index: u32, mac: MacAddr) -> Self {
        Nic {
            index,
            name: format!("eth{index}"),
            mac,
            link: None,
            up: true,
            mtu: 1500,
        }
    }

    /// Create an interface with an explicit name.
    pub fn named(index: u32, name: impl Into<String>, mac: MacAddr) -> Self {
        Nic {
            name: name.into(),
            ..Nic::new(index, mac)
        }
    }

    /// Is the port attached to a link and administratively up?  Used by the
    /// in-band channel to pick the ports it floods from.
    pub fn is_usable(&self) -> bool {
        self.up && self.link.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let nic = Nic::new(2, MacAddr::for_port(1, 2));
        assert_eq!(nic.name, "eth2");
        assert_eq!(nic.mtu, 1500);
        assert!(nic.up);
        assert!(!nic.is_usable()); // no link yet
    }

    #[test]
    fn named_ports() {
        let nic = Nic::named(0, "gigabitethernet0/9", MacAddr::for_port(1, 0));
        assert_eq!(nic.name, "gigabitethernet0/9");
        assert_eq!(nic.index, 0);
    }
}
