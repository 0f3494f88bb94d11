//! Paper views: how the paper names what the NM builds, for reports and
//! for comparing against the paper's lists.  Planning never reads them.

use crate::abstraction::SwitchKind;
use crate::ids::ModuleKind;
use crate::nm::ModulePath;

impl ModulePath {
    /// A compact label of the technologies used, e.g. `GRE-IP`,
    /// `MPLS`, `IP-IP over MPLS`, used to compare against the paper's list.
    /// A report view: path search, path selection and script generation
    /// never read it.
    pub fn technology_label(&self) -> String {
        let has = |k: &ModuleKind| self.steps.iter().any(|s| s.module.kind == *k);
        let gre = has(&ModuleKind::Gre);
        let mpls = has(&ModuleKind::Mpls);
        let vlan = has(&ModuleKind::Vlan);
        // Count encapsulating IP modules (UpDown switching) to distinguish
        // plain forwarding from IP-IP tunnelling.
        let ipip = self
            .steps
            .iter()
            .any(|s| s.module.kind == ModuleKind::Ip && s.switch == SwitchKind::UpDown);
        let mut parts = Vec::new();
        if vlan {
            parts.push("VLAN".to_string());
        }
        if gre {
            parts.push("GRE-IP".to_string());
        } else if ipip {
            parts.push("IP-IP".to_string());
        }
        if mpls {
            if parts.is_empty() {
                parts.push("MPLS".to_string());
            } else {
                parts.push("over MPLS".to_string());
            }
        }
        if parts.is_empty() {
            parts.push("IP".to_string());
        }
        parts.join(" ")
    }
}
