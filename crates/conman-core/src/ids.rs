//! Identifiers: modules are referred to with `<module name, module-id,
//! device-id>` tuples (§II), devices by their globally unique, topology
//! independent device-id (re-used from `netsim`).

use netsim::device::DeviceId;
use std::fmt;

/// The protocol a module implements ("module name" in the paper: "IPv4",
/// "GRE", "RFC791", a URI for applications, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ModuleKind {
    /// An Ethernet module bound to one physical port.
    Eth,
    /// An IPv4 module (a "virtual router": a device may contain several,
    /// e.g. one per customer VRF plus one for the ISP core).
    Ip,
    /// A GRE encapsulation module.
    Gre,
    /// An MPLS label-switching module.
    Mpls,
    /// An 802.1Q VLAN module on a layer-2 switch.
    Vlan,
    /// Any other module: an opaque code for a protocol the NM has no name
    /// for.  The NM never reads the code and treats every kind alike, so a
    /// module it has never heard of plans like one it has.
    App(u8),
}

/// The module name used in showPotential output and scripts.
impl fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleKind::Eth => f.write_str("ETH"),
            ModuleKind::Ip => f.write_str("IP"),
            ModuleKind::Gre => f.write_str("GRE"),
            ModuleKind::Mpls => f.write_str("MPLS"),
            ModuleKind::Vlan => f.write_str("VLAN"),
            ModuleKind::App(code) => write!(f, "APP{code}"),
        }
    }
}

/// Module identifier, unique within its device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ModuleId(pub u32);

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// The `<module name, module-id, device-id>` tuple that uniquely names a
/// module across the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleRef {
    /// Protocol ("module name").
    pub kind: ModuleKind,
    /// Module id within the device.
    pub module: ModuleId,
    /// Owning device.
    pub device: DeviceId,
}

impl ModuleRef {
    /// Construct a reference.
    pub fn new(kind: ModuleKind, module: ModuleId, device: DeviceId) -> Self {
        ModuleRef {
            kind,
            module,
            device,
        }
    }

    /// Render with a human-readable device alias, approximating the paper's
    /// `<GRE,A,b>` notation.
    pub(crate) fn display_with(&self, device_alias: &str, module_alias: &str) -> String {
        format!("<{},{},{}>", self.kind, device_alias, module_alias)
    }
}

impl fmt::Display for ModuleRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{},{},{}>", self.kind, self.device, self.module)
    }
}

/// Pipe identifier.  Pipes are created (and named) by the NM, so identifiers
/// are allocated by the NM and unique within one configuration task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PipeId(pub u32);

impl fmt::Display for PipeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let r = ModuleRef::new(ModuleKind::Gre, ModuleId(2), DeviceId::from_raw(0xA));
        assert!(r.to_string().starts_with("<GRE,dev:"));
        assert_eq!(r.display_with("A", "b"), "<GRE,A,b>");
        assert_eq!(PipeId(1).to_string(), "P1");
        assert_eq!(ModuleKind::Vlan.to_string(), "VLAN");
        assert_eq!(ModuleKind::App(7).to_string(), "APP7");
    }

    #[test]
    fn refs_are_small_copy_values_in_todays_order() {
        fn copy<T: Copy>() {}
        copy::<ModuleKind>();
        copy::<ModuleRef>();
        assert!(std::mem::size_of::<ModuleKind>() <= 2);
        assert!(std::mem::size_of::<ModuleRef>() <= 16);
        let kinds = [
            ModuleKind::Eth,
            ModuleKind::Ip,
            ModuleKind::Gre,
            ModuleKind::Mpls,
            ModuleKind::Vlan,
            ModuleKind::App(0),
            ModuleKind::App(u8::MAX),
        ];
        assert!(kinds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn refs_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let d = DeviceId::from_raw(1);
        let mut s = BTreeSet::new();
        s.insert(ModuleRef::new(ModuleKind::Ip, ModuleId(1), d));
        s.insert(ModuleRef::new(ModuleKind::Ip, ModuleId(1), d));
        s.insert(ModuleRef::new(ModuleKind::Eth, ModuleId(2), d));
        assert_eq!(s.len(), 2);
    }
}
