//! The runtime's one worker pool: how many workers a pass uses, and the one
//! place a thread is started.
//!
//! A reconcile pass runs at one width from its path search to its last
//! transaction round (see [`ManagedNetwork::reconcile`]).  Both fan out
//! through [`fan_out`], which hands each worker a contiguous chunk of its
//! items and returns the results in input order, so no output depends on
//! how many workers ran.  Every management round runs its agents through
//! [`fan_out`] (see [`ManagedNetwork::run_management`]): at the width of
//! the transaction runner on the stack, and at width 1, on the calling
//! thread, outside one.
//!
//! [`ManagedNetwork::reconcile`]: super::ManagedNetwork::reconcile
//! [`ManagedNetwork::run_management`]: super::ManagedNetwork::run_management

use crate::agent::ManagementAgent;
use netsim::device::Device;
use std::sync::OnceLock;

/// A transaction round hands each worker a disjoint `&mut` agent and
/// device, so both must stay `Send`.
const _: () = {
    const fn send<T: Send>() {}
    send::<ManagementAgent>();
    send::<Device>();
};

/// The width of a pass that names none (`reconcile()`, the public
/// transaction runners): `min(available_parallelism, 8)`, read once per
/// process.  A round never starts more workers than it has busy devices.
pub(crate) fn default_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        cores.min(8)
    })
}

/// Run `f` over `items` cut into at most `width` contiguous chunks, each
/// item holding its own result slot: the calling thread takes the first
/// chunk and each other chunk gets a scoped thread of its own, so a width
/// of 1 (or a single chunk) starts no thread and allocates nothing.  When
/// it returns, every item has been through `f` and its results are in
/// input order, whatever the width.
pub(crate) fn fan_out<T, F>(width: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut [T]) + Sync,
{
    let chunk = items.len().div_ceil(width.max(1)).max(1);
    if chunk >= items.len() {
        return f(items);
    }
    let f = &f;
    std::thread::scope(|s| {
        let mut chunks = items.chunks_mut(chunk);
        let first = chunks.next().expect("more than one chunk");
        for rest in chunks {
            s.spawn(move || f(rest));
        }
        f(first);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_goes_through_once_at_any_width() {
        let want: Vec<(u32, u32)> = (0..10).map(|x| (x, x * 2)).collect();
        for width in [1, 2, 3, 8, 20] {
            let mut items: Vec<(u32, u32)> = (0..10).map(|x| (x, 0)).collect();
            fan_out(width, &mut items, |chunk| {
                chunk.iter_mut().for_each(|(x, double)| *double += *x * 2)
            });
            assert_eq!(items, want, "width {width}");
        }
        fan_out(4, &mut [] as &mut [u32], |chunk| assert!(chunk.is_empty()));
    }

    #[test]
    fn a_width_cuts_the_items_into_that_many_chunks_at_most() {
        let mut items: Vec<usize> = vec![0; 7];
        fan_out(3, &mut items, |chunk| {
            let len = chunk.len();
            chunk.iter_mut().for_each(|x| *x = len)
        });
        assert_eq!(items, [3, 3, 3, 3, 3, 3, 1]);
    }
}
