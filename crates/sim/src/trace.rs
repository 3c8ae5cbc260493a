//! Aggregate trace counters of one page load.
//!
//! The paper's analysis needs per-run retransmission counts ("we
//! always found more retransmissions for TCP+ … on avg ×1.5 but up to
//! ×4.8", §4.3), so transports report retransmissions and handshake
//! milestones here.

/// Category of a traced event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// Connection handshake finished.
    HandshakeDone,
    /// A transport detected a loss and retransmitted.
    Retransmit,
    /// A retransmission timeout fired.
    Rto,
    /// An HTTP request was issued.
    Request,
    /// An HTTP response finished.
    Response,
}

/// One counter per [`TraceKind`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Total transport-level retransmissions across all connections.
    pub retransmits: u64,
    /// Total retransmission timeouts.
    pub rtos: u64,
    /// HTTP requests issued.
    pub requests: u64,
    /// HTTP responses completed.
    pub responses: u64,
    /// Completed connection handshakes.
    pub handshakes: u64,
}

impl Trace {
    /// Count one event.
    pub fn record(&mut self, kind: TraceKind) {
        match kind {
            TraceKind::Retransmit => self.retransmits += 1,
            TraceKind::Rto => self.rtos += 1,
            TraceKind::Request => self.requests += 1,
            TraceKind::Response => self.responses += 1,
            TraceKind::HandshakeDone => self.handshakes += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_kinds() {
        let mut t = Trace::default();
        for kind in [
            TraceKind::Retransmit,
            TraceKind::Retransmit,
            TraceKind::Rto,
            TraceKind::Request,
            TraceKind::Response,
            TraceKind::HandshakeDone,
        ] {
            t.record(kind);
        }
        assert_eq!(t.retransmits, 2);
        assert_eq!(t.rtos, 1);
        assert_eq!(t.requests, 1);
        assert_eq!(t.responses, 1);
        assert_eq!(t.handshakes, 1);
    }
}
