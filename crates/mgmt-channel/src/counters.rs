//! Per-device message accounting.

use crate::message::MessageCategory;
use netsim::device::DeviceId;
use std::collections::BTreeMap;

/// Counters for one device's use of the management channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelCounters {
    /// Messages this device originated.
    pub sent: u64,
    /// Messages delivered to this device.
    pub received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Sent messages broken down by category.
    pub sent_by_category: BTreeMap<MessageCategory, u64>,
    /// Received messages broken down by category.
    pub received_by_category: BTreeMap<MessageCategory, u64>,
    /// Payload bytes sent, broken down by category.
    pub bytes_sent_by_category: BTreeMap<MessageCategory, u64>,
    /// Payload bytes received, broken down by category.
    pub bytes_received_by_category: BTreeMap<MessageCategory, u64>,
}

/// Counters for every device on a channel.
#[derive(Debug, Clone, Default)]
pub(crate) struct CounterBoard {
    per_device: BTreeMap<DeviceId, ChannelCounters>,
}

impl CounterBoard {
    /// Record a send.
    pub(crate) fn record_sent(
        &mut self,
        device: DeviceId,
        category: MessageCategory,
        bytes: usize,
    ) {
        let c = self.per_device.entry(device).or_default();
        c.sent += 1;
        c.bytes_sent += bytes as u64;
        *c.sent_by_category.entry(category).or_insert(0) += 1;
        *c.bytes_sent_by_category.entry(category).or_insert(0) += bytes as u64;
    }

    /// Record a delivery.
    pub(crate) fn record_received(
        &mut self,
        device: DeviceId,
        category: MessageCategory,
        bytes: usize,
    ) {
        let c = self.per_device.entry(device).or_default();
        c.received += 1;
        c.bytes_received += bytes as u64;
        *c.received_by_category.entry(category).or_insert(0) += 1;
        *c.bytes_received_by_category.entry(category).or_insert(0) += bytes as u64;
    }

    /// Counters for a device (zeroes if it never used the channel).
    pub(crate) fn get(&self, device: DeviceId) -> ChannelCounters {
        self.per_device.get(&device).cloned().unwrap_or_default()
    }

    /// Reset everything.
    pub(crate) fn reset(&mut self) {
        self.per_device.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_board_breaks_down_by_category() {
        let mut board = CounterBoard::default();
        let nm = DeviceId::from_raw(1);
        let dev = DeviceId::from_raw(2);
        board.record_sent(nm, MessageCategory::Command, 100);
        board.record_sent(nm, MessageCategory::Telemetry, 50);
        board.record_sent(nm, MessageCategory::Telemetry, 50);
        board.record_received(dev, MessageCategory::Telemetry, 50);
        board.record_received(nm, MessageCategory::Response, 80);

        let c = board.get(nm);
        assert_eq!(c.sent, 3);
        assert_eq!(c.bytes_sent, 200);
        assert_eq!(c.sent_by_category[&MessageCategory::Command], 1);
        assert_eq!(c.sent_by_category[&MessageCategory::Telemetry], 2);
        assert_eq!(c.bytes_sent_by_category[&MessageCategory::Command], 100);
        assert_eq!(c.bytes_sent_by_category[&MessageCategory::Telemetry], 100);
        assert!(!c
            .sent_by_category
            .contains_key(&MessageCategory::ConveyMessage));
        assert_eq!(c.received_by_category[&MessageCategory::Response], 1);
        assert_eq!(c.bytes_received_by_category[&MessageCategory::Response], 80);
        assert_eq!(
            board.get(dev).received_by_category[&MessageCategory::Telemetry],
            1
        );
    }

    #[test]
    fn counter_board_get_defaults_to_zero_and_reset_clears() {
        let mut board = CounterBoard::default();
        // A device that never used the channel reads as all-zero.
        let stranger = DeviceId::from_raw(99);
        assert_eq!(board.get(stranger), ChannelCounters::default());

        board.record_sent(stranger, MessageCategory::Announcement, 10);
        assert_eq!(board.get(stranger).sent, 1);
        board.reset();
        assert_eq!(board.get(stranger), ChannelCounters::default());
    }
}
