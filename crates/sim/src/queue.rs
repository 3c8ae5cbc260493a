//! Drop-tail queues, the queueing discipline Mahimahi's link shells use.

use crate::packet::Packet;
use std::collections::VecDeque;

/// A byte-bounded drop-tail FIFO.
///
/// Capacity is expressed in bytes because the paper sizes queues in
/// milliseconds of the link rate ("Queue size is set to 200 ms", Table
/// 2); [`crate::link::LinkConfig`] converts ms → bytes at build time.
#[derive(Debug)]
pub struct DropTailQueue<P> {
    items: VecDeque<Packet<P>>,
    bytes: u64,
    capacity_bytes: u64,
    /// Packets rejected because the queue was full.
    dropped: u64,
}

impl<P> DropTailQueue<P> {
    /// A queue holding at most `capacity_bytes` of packets.
    ///
    /// A capacity of zero is clamped to one MTU (1500 bytes) so a link
    /// can always hold at least one packet — a zero-capacity queue
    /// would deadlock any transfer.
    pub fn new(capacity_bytes: u64) -> Self {
        DropTailQueue {
            items: VecDeque::new(),
            bytes: 0,
            capacity_bytes: capacity_bytes.max(1500),
            dropped: 0,
        }
    }

    /// Try to enqueue; returns `false` (and counts a drop) when the
    /// packet does not fit.
    pub fn push(&mut self, pkt: Packet<P>) -> bool {
        let sz = u64::from(pkt.size);
        if self.bytes + sz > self.capacity_bytes {
            self.dropped += 1;
            return false;
        }
        self.bytes += sz;
        self.items.push_back(pkt);
        true
    }

    /// Dequeue the head packet.
    pub fn pop(&mut self) -> Option<Packet<P>> {
        let pkt = self.items.pop_front()?;
        self.bytes -= u64::from(pkt.size);
        Some(pkt)
    }

    /// Bytes currently queued.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Packets currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Packets dropped at the tail so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ConnId;

    fn pkt(size: u32) -> Packet<u32> {
        Packet::new(ConnId(0), size, 0)
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(10_000);
        for i in 0..5 {
            assert!(q.push(Packet::new(ConnId(0), 100, i)));
        }
        let out: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|p| p.payload).collect();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drops_at_capacity() {
        let mut q = DropTailQueue::new(3000);
        assert!(q.push(pkt(1500)));
        assert!(q.push(pkt(1500)));
        assert!(!q.push(pkt(1500)), "third MTU packet must be tail-dropped");
        assert_eq!(q.dropped(), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.bytes(), 3000);
    }

    #[test]
    fn bytes_accounting_is_conserved() {
        let mut q = DropTailQueue::new(100_000);
        let mut pushed = 0u64;
        for i in 0..50 {
            let size = 100 + (i % 7) * 200;
            if q.push(pkt(size)) {
                pushed += u64::from(size);
            }
        }
        let mut popped = 0u64;
        while let Some(p) = q.pop() {
            popped += u64::from(p.size);
        }
        assert_eq!(pushed, popped);
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn zero_capacity_clamps_to_one_mtu() {
        let mut q = DropTailQueue::new(0);
        assert!(q.push(pkt(1500)), "must accept at least one MTU packet");
        assert!(!q.push(pkt(1)));
    }

    #[test]
    fn small_packets_fill_to_capacity() {
        let mut q = DropTailQueue::new(1500);
        for _ in 0..15 {
            assert!(q.push(pkt(100)));
        }
        assert!(!q.push(pkt(100)));
    }
}
