//! Flits: the unit of transfer on the rings.
//!
//! The data ring carries posted writes (address-based, §IV-A: "a write
//! completes for a producer when the interconnect accepts"); the credit ring
//! carries flow-control credits in the opposite direction (§IV: "a second
//! ring for the communication of credits in the opposite direction as the
//! data"). Both carry the same flit; only its body differs.

/// Identifier of a tile's network interface on the ring.
pub type NodeId = usize;

/// A flit on one ring: the payload word of a posted write on the data
/// ring, the number of buffer locations granted on the credit ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flit<B> {
    /// Source node (for statistics and ordering checks).
    pub src: NodeId,
    /// Destination node; ejection is guaranteed on arrival.
    pub dst: NodeId,
    /// Logical stream/channel the body belongs to.
    pub stream: u32,
    /// The payload word or credit amount.
    pub body: B,
    /// Send cycle (for latency accounting).
    pub injected_at: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_construction() {
        let f = Flit {
            src: 0,
            dst: 3,
            stream: 7,
            body: 42u64,
            injected_at: 100,
        };
        assert_eq!(f.dst, 3);
        let c = Flit {
            src: 3,
            dst: 0,
            stream: 7,
            body: 2u32,
            injected_at: 101,
        };
        assert_eq!(c.body, 2);
    }
}
