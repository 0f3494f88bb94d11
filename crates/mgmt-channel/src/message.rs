//! Management messages.

use netsim::device::DeviceId;

/// Coarse category of a management message, used only for accounting
/// (Table VI breaks the NM's overhead down by what kind of exchange caused
/// the messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MessageCategory {
    /// A device announcing itself / its physical connectivity to the NM.
    Announcement,
    /// A CONMan primitive invocation sent by the NM to a device
    /// (showPotential, showActual, create, delete).
    Command,
    /// The response to a command.
    Response,
    /// A module-to-module message relayed through the NM (`conveyMessage`).
    ConveyMessage,
    /// A module-to-module field query relayed through the NM
    /// (`listFieldsAndValues`).
    FieldQuery,
    /// An unsolicited notification from a module to the NM (dependency
    /// triggers, completion notices).
    Notification,
    /// Periodic counter-snapshot traffic: the NM's `pollCounters` requests
    /// and the per-module snapshot reports they elicit.  Accounted
    /// separately so diagnosis overhead never pollutes the Table VI
    /// configuration counts.
    Telemetry,
}

impl MessageCategory {
    /// Stable name, used as the metrics key of the NM's recorder tap
    /// (`msg.sent.<name>` / `msg.received.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            MessageCategory::Announcement => "Announcement",
            MessageCategory::Command => "Command",
            MessageCategory::Response => "Response",
            MessageCategory::ConveyMessage => "ConveyMessage",
            MessageCategory::FieldQuery => "FieldQuery",
            MessageCategory::Notification => "Notification",
            MessageCategory::Telemetry => "Telemetry",
        }
    }

    /// The category an in-band frame's category byte names: the byte is
    /// the category's place in the declaration (`category as u8`), and a
    /// byte past the last names none.
    pub(crate) fn from_byte(byte: u8) -> Option<Self> {
        use MessageCategory::*;
        let all = [
            Announcement,
            Command,
            Response,
            ConveyMessage,
            FieldQuery,
            Notification,
            Telemetry,
        ];
        all.get(usize::from(byte)).copied()
    }
}

/// One management message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MgmtMessage {
    /// Sending device (the NM is itself hosted on a device).
    pub from: DeviceId,
    /// Destination device.
    pub to: DeviceId,
    /// Accounting category.
    pub category: MessageCategory,
    /// Opaque payload (serialized CONMan message).
    pub payload: Vec<u8>,
}

impl MgmtMessage {
    /// Build a message.
    pub fn new(from: DeviceId, to: DeviceId, category: MessageCategory, payload: Vec<u8>) -> Self {
        MgmtMessage {
            from,
            to,
            category,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every category's byte names it back, and the byte after the last
    /// names none.
    #[test]
    fn a_category_byte_names_its_category() {
        for byte in 0..=u8::MAX {
            match MessageCategory::from_byte(byte) {
                Some(category) => assert_eq!(category as u8, byte),
                None => assert!(byte > MessageCategory::Telemetry as u8, "{byte}"),
            }
        }
    }
}
