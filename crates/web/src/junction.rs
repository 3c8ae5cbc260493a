//! What stands between the browser and the origins.
//!
//! Nothing, for the paper's five stacks: one link, end to end. The edge
//! stacks split the path where a `pq-edge` network function sits — a
//! transparent [`Middlebox`] that forwards every packet and re-injects
//! the ones it infers lost (`QUIC-MBX`), or a terminating [`Proxy`]
//! that answers the browser's one connection out of pooled HTTP/2 legs
//! to the origins (`QUIC-EDGE`, `H2-EDGE`). The [`Junction`] is built
//! once per load; the loader matches on it where a packet picks its
//! lane, where one arrives, where a request reaches a server end and
//! where the load adds itself up. A proxy leg is an ordinary connection
//! ([`ConnState`]) that lives here under its own index.

use crate::browser::LoadCounts;
use crate::http2::H2Mux;
use crate::mux::ConnState;
use crate::object::ObjectId;
use pq_edge::{Dispatch, EdgeConfig, EdgePools, Middlebox};
use pq_sim::{NetworkConfig, SimRng, SimTime};
use pq_transport::{Protocol, StackConfig};

/// Relay state of one object flowing origin-leg → client-connection
/// through the terminating proxy. Progress maps proportionally: the
/// proxy has relayed `client_total · origin_got / origin_total` bytes
/// onto the client-facing stream at any instant (cut-through, not
/// store-and-forward).
#[derive(Default)]
struct Bridge {
    /// H2 stream bytes the origin response occupies on the leg.
    origin_total: u64,
    origin_got: u64,
    /// Stream bytes the response occupies client-side (H3 or H2
    /// framing, matching the client connection's mux).
    client_total: u64,
    client_written: u64,
    /// The leg the response completes on.
    leg: u32,
    fin_sent: bool,
}

/// The terminating proxy: pooled origin-side legs (always TCP+ carrying
/// HTTP/2) and the responses in flight across it.
pub(crate) struct Proxy {
    pub(crate) leg_cfg: StackConfig,
    pub(crate) legs: Vec<ConnState>,
    pools: EdgePools,
    /// By object id (dense within a site).
    bridges: Vec<Option<Bridge>>,
}

impl Proxy {
    /// Route a request for `origin` onto a pooled leg: reuse an open
    /// one, or have the caller open the next (`true`) to the replica
    /// the least-outstanding balancer picked. Evicted legs simply go
    /// quiescent: the pool stops routing to them and their transport
    /// state has nothing left to send.
    pub(crate) fn dispatch(&mut self, origin: u16, now: SimTime) -> (u32, bool) {
        match self.pools.dispatch(origin, now).action {
            Dispatch::Reuse(leg) => (leg, false),
            Dispatch::Open { replica } => {
                let leg = self.legs.len() as u32;
                self.pools.opened(origin, replica, leg, now);
                (leg, true)
            }
        }
    }

    /// The origin behind `leg` starts answering `obj` with `body`
    /// payload bytes, `client_total` stream bytes once re-framed for
    /// the client-facing connection.
    pub(crate) fn bridge(&mut self, obj: ObjectId, leg: u32, body: u64, client_total: u64) {
        let bridge = Bridge {
            origin_total: H2Mux::response_stream_bytes(body),
            client_total,
            leg,
            ..Bridge::default()
        };
        let i = obj.0 as usize;
        if self.bridges.len() <= i {
            self.bridges.resize_with(i + 1, || None);
        }
        if let Some(slot) = self.bridges.get_mut(i) {
            *slot = Some(bridge);
        }
    }

    /// `new_bytes` of `obj`'s origin response reached the proxy:
    /// advance the relay and return the share to write onto the
    /// client-facing stream, and whether that ends the response.
    pub(crate) fn advance(
        &mut self,
        now: SimTime,
        obj: ObjectId,
        new_bytes: u64,
    ) -> Option<(u64, bool)> {
        let b = self.bridges.get_mut(obj.0 as usize)?.as_mut()?;
        b.origin_got = (b.origin_got + new_bytes).min(b.origin_total);
        let target = ((u128::from(b.client_total) * u128::from(b.origin_got))
            / u128::from(b.origin_total.max(1))) as u64;
        let delta = target.saturating_sub(b.client_written);
        let fin = b.origin_got >= b.origin_total && !b.fin_sent;
        if delta == 0 && !fin {
            return None;
        }
        b.client_written += delta;
        if fin {
            b.fin_sent = true;
            let origin = self.legs.get(b.leg as usize).map_or(0, |leg| leg.origin);
            self.pools.complete(origin, b.leg, now);
        }
        Some((delta, fin))
    }
}

pub(crate) enum Junction {
    /// The Table-1 stacks.
    Direct,
    /// `QUIC-MBX`: connections run end to end through the middlebox,
    /// their server endpoints at the origin.
    Middlebox(Middlebox),
    /// `QUIC-EDGE` / `H2-EDGE`: the browser's connection ends here.
    Proxy(Proxy),
}

impl Junction {
    /// The junction `protocol` calls for, with the network on its
    /// client side and — where it splits the path — on its origin
    /// side: the client segment keeps the access link's character
    /// (bandwidth, loss, queue) over a share of the RTT, a clean fat
    /// backbone covers the rest. `edge: None` means
    /// `EdgeConfig::default()`; the Table-1 stacks ignore it and keep
    /// `net` whole.
    pub(crate) fn build(
        protocol: Protocol,
        edge: Option<&EdgeConfig>,
        net: &NetworkConfig,
        rng: &SimRng,
    ) -> (Junction, NetworkConfig, Option<NetworkConfig>) {
        if !protocol.is_edge() {
            return (Junction::Direct, net.clone(), None);
        }
        let ec = edge.cloned().unwrap_or_default();
        let origin_net = net.origin_segment(ec.client_rtt_share, ec.backbone_bps);
        let junction = if protocol.has_middlebox() {
            Junction::Middlebox(Middlebox::new(&ec))
        } else {
            Junction::Proxy(Proxy {
                leg_cfg: Protocol::TcpPlus.config(&origin_net),
                legs: Vec::new(),
                pools: EdgePools::new(&ec, rng.fork("edge-pool")),
                bridges: Vec::new(),
            })
        };
        let client_net = net.client_segment(ec.client_rtt_share);
        (junction, client_net, Some(origin_net))
    }

    /// Add what the junction did this load to `counts`: the proxy's
    /// pool opens, reuses and evictions, or the middlebox's early
    /// retransmits.
    pub(crate) fn count(&self, counts: &mut LoadCounts) {
        match self {
            Junction::Direct => {}
            Junction::Middlebox(m) => counts.mbx_early_retx += m.early_retransmits(),
            Junction::Proxy(p) => {
                let st = p.pools.stats();
                counts.conns_opened += st.opened;
                counts.conns_reused += st.reused;
                counts.conns_evicted += st.evicted;
            }
        }
    }
}
