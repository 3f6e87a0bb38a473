//! Nodes: hosts (with agents) and switches (with routing tables).

use crate::agent::Agent;
use crate::port::{EgressPort, SpillMeter};

/// What kind of node this is.
pub enum NodeKind {
    /// An endpoint running an [`Agent`].
    Host {
        /// The endpoint logic.
        agent: Box<dyn Agent>,
    },
    /// A store-and-forward switch.
    Switch,
}

/// One node of the network.
pub struct Node {
    /// Host or switch.
    pub kind: NodeKind,
    /// Egress ports, in attachment order.
    pub ports: Vec<EgressPort>,
    /// For switches: `routes[dst.0]` lists the egress ports on a shortest
    /// path towards node `dst` (multiple entries = ECMP fan). Computed by
    /// [`crate::Network::compute_routes`]. Hosts leave this empty and
    /// always use port 0.
    pub routes: Vec<Vec<usize>>,
    /// Flattened mirror of `routes` for the per-packet forwarding lookup:
    /// the fan for `dst` is `route_hops[route_off[dst] .. route_off[dst+1]]`.
    /// Two small contiguous arrays replace a `Vec<Vec<_>>` pointer chase on
    /// the hottest switch path; rebuilt alongside `routes`.
    pub(crate) route_off: Vec<u32>,
    pub(crate) route_hops: Vec<u16>,
    /// Spill meter over this node's FIFO ports: packets held beyond their
    /// pre-sized slots (see [`SpillMeter`]). Armed only on switches.
    pub(crate) spill: SpillMeter,
}

impl Node {
    pub(crate) fn host(agent: Box<dyn Agent>) -> Self {
        Node {
            kind: NodeKind::Host { agent },
            ports: Vec::new(),
            routes: Vec::new(),
            route_off: Vec::new(),
            route_hops: Vec::new(),
            spill: SpillMeter::new(),
        }
    }

    pub(crate) fn switch() -> Self {
        Node {
            kind: NodeKind::Switch,
            ports: Vec::new(),
            routes: Vec::new(),
            route_off: Vec::new(),
            route_hops: Vec::new(),
            spill: SpillMeter::new(),
        }
    }

    /// Rebuild the flattened forwarding mirror from `routes`.
    pub(crate) fn rebuild_flat_routes(&mut self) {
        self.route_off.clear();
        self.route_hops.clear();
        self.route_off.reserve(self.routes.len() + 1);
        self.route_off.push(0);
        for hops in &self.routes {
            for &h in hops {
                self.route_hops
                    .push(u16::try_from(h).expect("port index fits u16"));
            }
            self.route_off
                .push(u32::try_from(self.route_hops.len()).expect("route table fits u32"));
        }
    }

    /// Is this node a host?
    pub fn is_host(&self) -> bool {
        matches!(self.kind, NodeKind::Host { .. })
    }
}
