//! Management messages.

use netsim::device::DeviceId;
use serde::{Deserialize, Serialize};

/// Coarse category of a management message, used only for accounting
/// (Table VI breaks the NM's overhead down by what kind of exchange caused
/// the messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
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
    /// Stable name, used as the metrics key of the channel's recorder tap
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
}

/// One management message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MgmtMessage {
    /// Sending device (the NM is itself hosted on a device).
    pub from: DeviceId,
    /// Destination device.
    pub to: DeviceId,
    /// Accounting category.
    pub category: MessageCategory,
    /// Opaque payload (serialized CONMan message).
    pub payload: Vec<u8>,
    /// Per-sender sequence number, assigned by the channel on send.
    pub seq: u64,
}

impl MgmtMessage {
    /// Build a message (the sequence number is filled in by the channel).
    pub fn new(from: DeviceId, to: DeviceId, category: MessageCategory, payload: Vec<u8>) -> Self {
        MgmtMessage {
            from,
            to,
            category,
            payload,
            seq: 0,
        }
    }

    /// Encoded size of the payload in bytes (for overhead reporting).
    pub(crate) fn payload_len(&self) -> usize {
        self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_roundtrip() {
        let m = MgmtMessage::new(
            DeviceId::from_raw(1),
            DeviceId::from_raw(2),
            MessageCategory::ConveyMessage,
            vec![1, 2, 3],
        );
        let s = serde_json::to_string(&m).unwrap();
        let back: MgmtMessage = serde_json::from_str(&s).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.payload_len(), 3);
    }
}
