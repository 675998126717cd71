// Package node provides the two kinds of network elements the topologies
// are wired from: Routers (output-queued, statically routed) and Hosts
// (endpoints that demultiplex packets to protocol agents by flow).
package node

import (
	"fmt"

	"bufsim/internal/packet"
)

// Router forwards packets toward their destination over per-destination
// next hops. It is output-queued: the only buffering is in each output
// link's queue, which is the router-buffer B the paper sizes. Forwarding
// itself is instantaneous (the paper's experiments never stress the
// switching fabric; its GSR showed "no input queueing"). A next hop is
// usually a *link.Link, but locally attached hosts can be wired directly.
type Router struct {
	id   packet.NodeID
	name string
	// routes is indexed by destination NodeID; nil means no route. The
	// topologies allocate node IDs sequentially from zero, so the table is
	// dense and the per-packet lookup is one bounds check.
	routes []packet.Handler
}

// NewRouter returns an empty router.
func NewRouter(id packet.NodeID, name string) *Router {
	return &Router{id: id, name: name}
}

// ID returns the router's node ID.
func (r *Router) ID() packet.NodeID { return r.id }

// AddRoute directs traffic for dst to the next hop. Adding a duplicate
// route panics: topologies are static and a silent overwrite hides wiring
// bugs. So does a negative destination or a nil next hop.
func (r *Router) AddRoute(dst packet.NodeID, next packet.Handler) {
	if dst < 0 || next == nil {
		panic(fmt.Sprintf("node: router %s given an invalid route (dst %d, next %v)", r.name, dst, next))
	}
	if int(dst) >= len(r.routes) {
		r.routes = append(r.routes, make([]packet.Handler, int(dst)+1-len(r.routes))...)
	}
	if r.routes[dst] != nil {
		panic(fmt.Sprintf("node: router %s already has a route for %d", r.name, dst))
	}
	r.routes[dst] = next
}

// Handle implements packet.Handler by forwarding to the route for the
// packet's destination. An unroutable packet panics — topologies are
// closed worlds and a miss means mis-wiring, not a runtime condition.
func (r *Router) Handle(p *packet.Packet) {
	if uint(p.Dst) >= uint(len(r.routes)) || r.routes[p.Dst] == nil {
		panic(fmt.Sprintf("node: router %s has no route for %v", r.name, p))
	}
	r.routes[p.Dst].Handle(p)
}

// Host is an endpoint. Each flow terminating at the host registers an
// agent; incoming packets demultiplex by flow ID.
type Host struct {
	id     packet.NodeID
	name   string
	agents map[packet.FlowID]packet.Handler
}

// NewHost returns an empty host.
func NewHost(id packet.NodeID, name string) *Host {
	return &Host{id: id, name: name, agents: make(map[packet.FlowID]packet.Handler)}
}

// ID returns the host's node ID.
func (h *Host) ID() packet.NodeID { return h.id }

// Attach registers an agent to receive packets for flow f.
func (h *Host) Attach(f packet.FlowID, agent packet.Handler) {
	if _, ok := h.agents[f]; ok {
		panic(fmt.Sprintf("node: host %s already has an agent for flow %d", h.name, f))
	}
	h.agents[f] = agent
}

// Handle implements packet.Handler.
func (h *Host) Handle(p *packet.Packet) {
	// Packets for flows with no agent fall on the floor, like a host
	// RST-ing a closed port.
	if a := h.agents[p.Flow]; a != nil {
		a.Handle(p)
	}
}
