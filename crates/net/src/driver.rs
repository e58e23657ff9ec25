//! The boundary between a simulated server and its external load.
//!
//! The paper's evaluation drives the servers from separate client
//! machines; in this reproduction, clients live in the same virtual time
//! as the server. A [`Driver`] is the client-side world: the server's
//! poll loop calls [`Driver::advance`] with the current virtual time
//! before polling the network, so connections, requests and closes
//! appear on the wire exactly when the clients would have produced them.

use crate::SimNet;

/// External load attached to a [`SimNet`].
pub trait Driver: Send {
    /// Advances every client's state machine up to virtual time `now`
    /// (connecting, writing requests, reading responses). Returns `true`
    /// once the driver has finished: all load injected and every
    /// response consumed.
    fn advance(&mut self, net: &mut SimNet, now: u64) -> bool;

    /// The next virtual time at which this driver wants to act, if any
    /// (used by the server's poll loop to re-arm its timer precisely).
    /// `None`, the default, leaves the loop on its poll interval.
    fn next_due(&self, _now: u64) -> Option<u64> {
        None
    }
}
