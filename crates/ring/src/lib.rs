//! # streamgate-ring
//!
//! Cycle-level simulator of the low-cost guaranteed-throughput **dual-ring
//! interconnect** used as the inter-tile network in *"Real-Time
//! Multiprocessor Architecture for Sharing Stream Processing Accelerators"*
//! (Dekens et al., IPDPSW 2015, §IV; the ring itself is from the authors'
//! DASIP 2013/2014 papers).
//!
//! The paper's interconnect is one slotted-ring design used twice, and so
//! is this crate's: one [`Ring`] implementation, run forward as
//! [`DualRing::data`] and backward as [`DualRing::credit`] on one clock.
//! Each ring has one send, [`Ring::send`], which takes the cycle to send
//! at (the current cycle sends now, a later one commits ahead of the
//! clock), and one receive, [`Ring::receive`], which hands an endpoint its
//! delivered flits and keeps the rest queued in order.
//!
//! Properties modelled:
//!
//! * unidirectional **data ring**, one slot per link, one hop per cycle;
//! * a second **credit ring** in the opposite direction for flow control;
//! * **posted writes** — a write completes when the interconnect accepts it;
//! * **guaranteed acceptance** at every station (no circulating flits, no
//!   network-level flow control for memory writes);
//! * credit-based **hardware FIFO** endpoints ([`CreditTx`]/[`CreditRx`])
//!   with the 2-deep NI buffers the CSDF model exposes as `α₁`/`α₂`.

#![warn(missing_docs)]

pub mod flit;
pub mod network;
pub mod ni;

pub use flit::{Flit, NodeId};
pub use network::{Crossings, DeliveryLog, DualRing, Ring, RingStats};
pub use ni::{CreditRx, CreditTx};
