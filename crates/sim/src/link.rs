//! The shaped, lossy, delaying link — the emulation core equivalent to
//! Mahimahi's `mm-link`/`mm-delay`/`mm-loss` shells composed into one.
//!
//! A [`Link`] is one direction of an access link. It models:
//!
//! * **rate shaping**: packets serialize at `rate_bps`; while the
//!   transmitter is busy, arrivals wait in a drop-tail queue,
//! * **queueing**: a byte-bounded drop-tail queue (sized from a
//!   milliseconds-at-line-rate budget, as in the paper's Table 2),
//! * **propagation delay**: a fixed one-way delay added after
//!   serialization,
//! * **random loss**: i.i.d. Bernoulli loss applied when a packet
//!   finishes serializing (the packet consumed link capacity but never
//!   arrives — the behaviour of a corrupting wireless hop, which is
//!   what DA2GC/MSS model).
//!
//! The link is event-driven in the smoltcp style: it never schedules
//! anything itself. `push` and `on_tx_done` return the instants at
//! which the owner must invoke the link again, deliveries carry the
//! absolute arrival time at the far end, and a lost packet comes back
//! as the reason it was lost. It reports to nobody else: the owner
//! reads [`Link::stats`] and the outcomes, and decides what to record.

use crate::packet::Packet;
use crate::queue::DropTailQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Static configuration of one link direction.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// Shaping rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub prop_delay: SimDuration,
    /// i.i.d. packet loss probability in `[0, 1]`.
    pub loss: f64,
    /// Drop-tail queue capacity in bytes.
    pub queue_bytes: u64,
}

impl LinkConfig {
    /// Build a config with the queue sized as `queue_ms` milliseconds
    /// at line rate — exactly how the paper specifies queue sizes
    /// ("Queue size is set to 200 ms except for DSL with 12 ms").
    pub fn with_queue_ms(rate_bps: u64, prop_delay: SimDuration, loss: f64, queue_ms: u64) -> Self {
        let queue_bytes = rate_bps.saturating_mul(queue_ms) / 8 / 1000;
        LinkConfig {
            rate_bps,
            prop_delay,
            loss,
            queue_bytes,
        }
    }

    /// The serialization delay of a packet of `bytes` on this link.
    pub fn serialization_delay(&self, bytes: u32) -> SimDuration {
        SimDuration::for_bytes_at_rate(u64::from(bytes), self.rate_bps)
    }
}

/// The link's lifetime counters, for its owner to read: the page load
/// folds them into the run's metrics once per load, and the Table 2
/// check measures loss with them.
#[derive(Clone, Debug, Default)]
pub struct LinkStats {
    /// Packets offered to the link.
    pub offered: u64,
    /// Packets rejected by the drop-tail queue.
    pub tail_dropped: u64,
    /// Packets destroyed by random loss.
    pub lost: u64,
    /// Packets destroyed by injected faults (Gilbert–Elliott bursts,
    /// link-flap outage windows) that the i.i.d. loss draw spared.
    pub fault_lost: u64,
    /// Packets that reached the far end.
    pub delivered: u64,
}

/// Result of offering a packet to the link.
#[derive(Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The transmitter was idle and started serializing this packet;
    /// the owner must schedule a `tx-done` callback at the given time.
    StartedTx(SimTime),
    /// The packet joined the queue behind an in-progress transmission.
    Queued,
    /// The queue was full; the packet is gone.
    TailDropped,
}

/// Why a packet that finished serializing never arrives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Loss {
    /// The link's i.i.d. random loss draw.
    Random,
    /// An injected fault (a Gilbert–Elliott burst, a link-flap window)
    /// that the i.i.d. draw spared.
    Fault,
}

/// Result of a `tx-done` callback.
pub struct TxDone<P> {
    /// The packet and its absolute arrival time at the far end, or
    /// `None` if loss destroyed it.
    pub delivery: Option<(SimTime, Packet<P>)>,
    /// Why the packet did not arrive, and its size in bytes; `None`
    /// when it was delivered.
    pub lost: Option<(Loss, u32)>,
    /// If another packet immediately started serializing, the time of
    /// the next `tx-done` callback the owner must schedule.
    pub next_tx_done: Option<SimTime>,
}

/// One direction of the emulated access link.
#[derive(Debug)]
pub struct Link<P> {
    config: LinkConfig,
    queue: DropTailQueue<P>,
    /// Packet currently being serialized, if any.
    in_flight: Option<Packet<P>>,
    /// Loss RNG: a dedicated stream so loss patterns are reproducible
    /// independent of everything else.
    loss_rng: SimRng,
    stats: LinkStats,
    /// Optional injected-fault state (burst loss, flap windows,
    /// bandwidth oscillation). `None` — the overwhelmingly common
    /// case — is completely inert: no extra RNG draws, no overhead.
    fault: Option<pq_fault::LinkFault>,
}

impl<P> Link<P> {
    /// Build a link from its config; `loss_rng` should be a dedicated
    /// fork of the world RNG.
    pub fn new(config: LinkConfig, loss_rng: SimRng) -> Self {
        Link {
            queue: DropTailQueue::new(config.queue_bytes),
            config,
            in_flight: None,
            loss_rng,
            stats: LinkStats::default(),
            fault: None,
        }
    }

    /// Attach injected-fault state to this link direction. The state
    /// advances once per transmitted packet, independent of the
    /// baseline i.i.d. loss stream, so attaching it never perturbs
    /// the fault-free loss pattern.
    pub fn set_fault(&mut self, fault: Option<pq_fault::LinkFault>) {
        self.fault = fault;
    }

    /// Serialization delay for `bytes`, stretched by the bandwidth
    /// oscillator when one is installed (rate × scale ⇒ delay /
    /// scale).
    fn ser_delay(&self, now: SimTime, bytes: u32) -> SimDuration {
        let base = self.config.serialization_delay(bytes);
        match &self.fault {
            Some(f) => {
                let scale = f.rate_scale(now.as_nanos());
                if scale < 1.0 {
                    base.mul_f64(1.0 / scale)
                } else {
                    base
                }
            }
            None => base,
        }
    }

    /// The link's static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// The lifetime counters.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Bytes currently waiting in the queue (excludes the in-flight
    /// packet).
    pub fn queued_bytes(&self) -> u64 {
        self.queue.bytes()
    }

    /// Whether the transmitter is currently serializing a packet.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Offer a packet to the link at time `now`.
    pub fn push(&mut self, now: SimTime, pkt: Packet<P>) -> PushOutcome {
        self.stats.offered += 1;
        if self.in_flight.is_none() {
            debug_assert!(
                self.queue.is_empty(),
                "idle transmitter with queued packets"
            );
            let done = now + self.ser_delay(now, pkt.size);
            self.in_flight = Some(pkt);
            PushOutcome::StartedTx(done)
        } else if self.queue.push(pkt) {
            PushOutcome::Queued
        } else {
            self.stats.tail_dropped += 1;
            PushOutcome::TailDropped
        }
    }

    /// The owner calls this at the instant returned by
    /// [`PushOutcome::StartedTx`] / [`TxDone::next_tx_done`].
    pub fn on_tx_done(&mut self, now: SimTime) -> TxDone<P> {
        #[expect(
            clippy::expect_used,
            reason = "in_flight is set by the StartedTx that scheduled this callback; the event queue fires exactly one tx-done per started tx"
        )]
        let pkt = self
            .in_flight
            .take()
            .expect("tx-done callback with no packet in flight");

        // The baseline i.i.d. draw always happens first (and always
        // happens), so fault injection never shifts the fault-free
        // loss stream. The fault chain then advances exactly once per
        // packet regardless of the i.i.d. outcome.
        let iid_lost = self.loss_rng.chance(self.config.loss);
        let fault_lost = match &mut self.fault {
            Some(f) => f.lose(now.as_nanos()),
            None => false,
        };
        // Attribute a loss: the i.i.d. stream takes precedence (it
        // would have killed the packet with or without faults),
        // injected faults claim the remainder.
        let (delivery, lost) = if iid_lost {
            self.stats.lost += 1;
            (None, Some((Loss::Random, pkt.size)))
        } else if fault_lost {
            self.stats.fault_lost += 1;
            (None, Some((Loss::Fault, pkt.size)))
        } else {
            self.stats.delivered += 1;
            (Some((now + self.config.prop_delay, pkt)), None)
        };

        let next_tx_done = self.queue.pop().map(|next| {
            let done = now + self.ser_delay(now, next.size);
            self.in_flight = Some(next);
            done
        });

        TxDone {
            delivery,
            lost,
            next_tx_done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::ConnId;

    fn mk_link(rate_bps: u64, delay_ms: u64, loss: f64, queue_ms: u64) -> Link<u32> {
        let cfg =
            LinkConfig::with_queue_ms(rate_bps, SimDuration::from_millis(delay_ms), loss, queue_ms);
        Link::new(cfg, SimRng::new(99))
    }

    fn pkt(id: u32, size: u32) -> Packet<u32> {
        Packet::new(ConnId(0), size, id)
    }

    #[test]
    fn serialization_plus_propagation() {
        // 12 Mbps, 10 ms delay: a 1500 B packet serializes in 1 ms and
        // arrives at 11 ms.
        let mut link = mk_link(12_000_000, 10, 0.0, 200);
        let t0 = SimTime::ZERO;
        let done = match link.push(t0, pkt(1, 1500)) {
            PushOutcome::StartedTx(t) => t,
            other => panic!("expected StartedTx, got {other:?}"),
        };
        assert_eq!(done, SimTime::from_millis(1));
        let txd = link.on_tx_done(done);
        let (arrival, p) = txd.delivery.unwrap();
        assert_eq!(arrival, SimTime::from_millis(11));
        assert_eq!(p.payload, 1);
        assert!(txd.next_tx_done.is_none());
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut link = mk_link(12_000_000, 0, 0.0, 200);
        let t0 = SimTime::ZERO;
        assert!(matches!(
            link.push(t0, pkt(1, 1500)),
            PushOutcome::StartedTx(_)
        ));
        assert_eq!(link.push(t0, pkt(2, 1500)), PushOutcome::Queued);
        assert_eq!(link.push(t0, pkt(3, 1500)), PushOutcome::Queued);

        // First completes at 1 ms and hands over to the second.
        let txd = link.on_tx_done(SimTime::from_millis(1));
        assert_eq!(txd.delivery.unwrap().1.payload, 1);
        let next = txd.next_tx_done.unwrap();
        assert_eq!(next, SimTime::from_millis(2));
        let txd = link.on_tx_done(next);
        assert_eq!(txd.delivery.unwrap().1.payload, 2);
        let txd = link.on_tx_done(txd.next_tx_done.unwrap());
        assert_eq!(txd.delivery.unwrap().1.payload, 3);
        assert!(txd.next_tx_done.is_none());
        assert!(!link.is_busy());
    }

    #[test]
    fn queue_overflow_drops_tail() {
        // 1 Mbps with a 12 ms queue = 1500 bytes = one MTU of queue.
        let mut link = mk_link(1_000_000, 0, 0.0, 12);
        let t0 = SimTime::ZERO;
        assert!(matches!(
            link.push(t0, pkt(1, 1500)),
            PushOutcome::StartedTx(_)
        ));
        assert_eq!(link.push(t0, pkt(2, 1500)), PushOutcome::Queued);
        assert_eq!(link.push(t0, pkt(3, 1500)), PushOutcome::TailDropped);
        assert_eq!(link.stats().tail_dropped, 1);
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut link = mk_link(1_000_000_000, 0, 0.25, 10_000);
        let mut now = SimTime::ZERO;
        let mut delivered = 0u32;
        let n = 20_000;
        for i in 0..n {
            let done = match link.push(now, pkt(i, 1000)) {
                PushOutcome::StartedTx(t) => t,
                other => panic!("unexpected {other:?}"),
            };
            let txd = link.on_tx_done(done);
            if txd.delivery.is_some() {
                delivered += 1;
            }
            now = done;
        }
        let rate = 1.0 - f64::from(delivered) / f64::from(n);
        assert!((rate - 0.25).abs() < 0.02, "measured loss {rate}");
        assert_eq!(link.stats().lost + u64::from(delivered), u64::from(n));
    }

    #[test]
    fn achieved_throughput_matches_rate() {
        // Saturate a 10 Mbps link for one simulated second.
        let mut link = mk_link(10_000_000, 5, 0.0, 500);
        let mut now = SimTime::ZERO;
        let mut next_done = match link.push(now, pkt(0, 1500)) {
            PushOutcome::StartedTx(t) => t,
            _ => unreachable!(),
        };
        let mut bytes = 0u64;
        let horizon = SimTime::from_secs(1);
        let mut id = 1;
        while next_done <= horizon {
            now = next_done;
            // Keep the queue non-empty.
            while link.queued_bytes() < 3000 {
                link.push(now, pkt(id, 1500));
                id += 1;
            }
            let txd = link.on_tx_done(now);
            if let Some((_, p)) = txd.delivery {
                bytes += u64::from(p.size);
            }
            next_done = txd.next_tx_done.expect("queue kept busy");
        }
        let mbps = bytes as f64 * 8.0 / 1e6;
        assert!((mbps - 10.0).abs() < 0.2, "achieved {mbps} Mbps");
    }

    #[test]
    fn queue_bytes_from_ms_budget() {
        // 25 Mbps × 12 ms = 37.5 KB.
        let cfg = LinkConfig::with_queue_ms(25_000_000, SimDuration::ZERO, 0.0, 12);
        assert_eq!(cfg.queue_bytes, 37_500);
    }

    fn load_faults(spec: &str) -> pq_fault::LoadFaults {
        use std::sync::Arc;
        pq_fault::LoadFaults::new(Arc::new(pq_fault::FaultPlan::parse(spec).unwrap()), 7)
    }

    #[test]
    fn flap_fault_blacks_out_window() {
        // Outage between 10 ms and 20 ms: packets whose tx completes
        // inside the window die, others survive (loss = 0 baseline).
        let mut link = mk_link(12_000_000, 0, 0.0, 10_000);
        link.set_fault(load_faults("flap:at=10,dur=10").link_fault("down"));
        let mut survived = Vec::new();
        for i in 0..30u32 {
            let done = match link.push(SimTime::from_millis(u64::from(i)), pkt(i, 1500)) {
                PushOutcome::StartedTx(t) => t,
                other => panic!("unexpected {other:?}"),
            };
            if link.on_tx_done(done).delivery.is_some() {
                survived.push(i);
            }
        }
        // tx of packet i completes at (i+1) ms; window is [10, 20) ms
        // → packets 9..=18 are lost.
        let expect: Vec<u32> = (0..30).filter(|&i| !(9..19).contains(&i)).collect();
        assert_eq!(survived, expect);
        assert_eq!(link.stats().fault_lost, 10);
        assert_eq!(link.stats().lost, 0, "no i.i.d. loss configured");
    }

    #[test]
    fn ge_fault_loses_roughly_stationary_rate() {
        let mut link = mk_link(1_000_000_000, 0, 0.0, 10_000);
        // pi_bad = 0.05/0.25 = 0.2, loss_bad = 0.5 → ~10% loss.
        link.set_fault(load_faults("gel:pgb=0.05,pbg=0.2,good=0.0,bad=0.5").link_fault("down"));
        let mut now = SimTime::ZERO;
        let n = 20_000u32;
        let mut delivered = 0u32;
        for i in 0..n {
            let done = match link.push(now, pkt(i, 1000)) {
                PushOutcome::StartedTx(t) => t,
                other => panic!("unexpected {other:?}"),
            };
            if link.on_tx_done(done).delivery.is_some() {
                delivered += 1;
            }
            now = done;
        }
        let rate = 1.0 - f64::from(delivered) / f64::from(n);
        assert!((rate - 0.1).abs() < 0.02, "measured fault loss {rate}");
        assert_eq!(link.stats().fault_lost, u64::from(n - delivered));
    }

    #[test]
    fn bwosc_stretches_serialization() {
        // depth=0.5, period 1000 ms: at t=500 ms the scale bottoms out
        // at 0.5, doubling the serialization delay.
        let mut link = mk_link(12_000_000, 0, 0.0, 10_000);
        link.set_fault(load_faults("bwosc:period=1000,depth=0.5").link_fault("down"));
        let t0 = SimTime::ZERO;
        let done = match link.push(t0, pkt(1, 1500)) {
            PushOutcome::StartedTx(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(done, SimTime::from_millis(1), "peak of the cosine at t=0");
        link.on_tx_done(done);
        let mid = SimTime::from_millis(500);
        let done2 = match link.push(mid, pkt(2, 1500)) {
            PushOutcome::StartedTx(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        let stretched = (done2 - mid).as_millis_f64();
        assert!(
            (stretched - 2.0).abs() < 1e-6,
            "stretched delay {stretched} ms"
        );
    }

    #[test]
    fn fault_state_does_not_disturb_iid_stream() {
        // Same seed, same offered packets: the set of i.i.d.-lost
        // packet ids must be identical with and without a fault chain
        // attached (fault losses only *add*).
        let run = |with_fault: bool| -> Vec<u32> {
            let mut link = mk_link(1_000_000_000, 0, 0.25, 10_000);
            if with_fault {
                link.set_fault(load_faults("gel:pgb=0.1,pbg=0.2,bad=0.4").link_fault("down"));
            }
            let mut now = SimTime::ZERO;
            let mut delivered = Vec::new();
            for i in 0..2000u32 {
                let done = match link.push(now, pkt(i, 1000)) {
                    PushOutcome::StartedTx(t) => t,
                    other => panic!("unexpected {other:?}"),
                };
                if link.on_tx_done(done).delivery.is_some() {
                    delivered.push(i);
                }
                now = done;
            }
            let iid = link.stats().lost;
            assert_eq!(iid + link.stats().fault_lost + delivered.len() as u64, 2000);
            delivered
        };
        let base = run(false);
        let faulted = run(true);
        // Every packet delivered under faults was also delivered in
        // the baseline (injection only removes packets)…
        assert!(faulted.iter().all(|i| base.contains(i)));
        // …and it genuinely removed some.
        assert!(faulted.len() < base.len());
    }
}
