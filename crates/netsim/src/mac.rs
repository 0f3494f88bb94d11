//! Ethernet MAC addresses.

use std::fmt;
use std::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as a placeholder in ARP requests.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Construct from raw octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Deterministically derive a locally-administered unicast MAC address
    /// from a device index and port index.  Used by the topology builders so
    /// that addresses are stable across runs.
    pub(crate) fn for_port(device_index: u32, port_index: u32) -> Self {
        let d = device_index.to_be_bytes();
        let p = (port_index as u16).to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, d[1], d[2], d[3], p[0], p[1]])
    }

    /// Raw octets.
    pub(crate) const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Is this the broadcast address?
    pub(crate) fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error parsing a textual MAC address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacParseError;

impl fmt::Display for MacParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid MAC address")
    }
}

impl std::error::Error for MacParseError {}

impl FromStr for MacAddr {
    type Err = MacParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return Err(MacParseError);
        }
        let mut octets = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = u8::from_str_radix(p, 16).map_err(|_| MacParseError)?;
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let m = MacAddr::new([0x02, 0x00, 0x00, 0x01, 0x00, 0x02]);
        let s = m.to_string();
        assert_eq!(s, "02:00:00:01:00:02");
        assert_eq!(s.parse::<MacAddr>().unwrap(), m);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("02:00:00:01:00".parse::<MacAddr>().is_err());
        assert!("zz:00:00:01:00:02".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }

    #[test]
    fn classification() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::for_port(1, 2).is_broadcast());
    }

    #[test]
    fn for_port_is_stable_and_distinct() {
        assert_eq!(MacAddr::for_port(3, 1), MacAddr::for_port(3, 1));
        assert_ne!(MacAddr::for_port(3, 1), MacAddr::for_port(3, 2));
        assert_ne!(MacAddr::for_port(3, 1), MacAddr::for_port(4, 1));
    }
}
