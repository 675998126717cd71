package packet

// releasedFlow and releasedSize are what a poisoning Pool stamps on a
// packet it has taken back. No topology assigns a negative flow ID and no
// wire size is negative, so a live packet can never look released.
const (
	releasedFlow FlowID = -1
	releasedSize        = -1
)

// Pool is a LIFO free list of packets: Get pops the packet released most
// recently — for a TCP endpoint that is the one it has just finished
// reading, still in cache. A Pool is not safe for concurrent use; each
// scheduler view owns one and touches it only from the goroutine that runs
// the view (see topology.Dumbbell). See Packet for who may call Put.
//
// A nil *Pool is valid and means "no recycling": Get allocates and Put
// does nothing, which is what endpoints wired by hand (tests, drivers) get.
type Pool struct {
	free   []*Packet
	poison bool
}

// NewPool returns an empty pool. With poison set — audit mode — Put stamps
// the packet as released and retires it instead of recycling it, so a
// component that kept the pointer holds a packet Released reports, and
// every Get allocates as if there were no pool.
func NewPool(poison bool) *Pool { return &Pool{poison: poison} }

// Get returns a packet with every field zero and Sack empty (its capacity
// may be left over from an earlier life).
func (pl *Pool) Get() *Packet {
	if pl == nil || len(pl.free) == 0 {
		return new(Packet)
	}
	n := len(pl.free) - 1
	p := pl.free[n]
	pl.free[n] = nil
	pl.free = pl.free[:n]
	return p
}

// Put takes p back. The caller must be the packet's last holder and must
// not touch p afterwards.
func (pl *Pool) Put(p *Packet) {
	if pl == nil {
		return
	}
	if pl.poison {
		if p.Released() {
			panic("packet: released twice")
		}
		*p = Packet{Flow: releasedFlow, Size: releasedSize}
		return
	}
	*p = Packet{Sack: p.Sack[:0]}
	pl.free = append(pl.free, p)
}

// Released reports whether a poisoning Pool has taken p back. Audited
// components check it on every packet they are handed: true means some
// holder used the packet after its endpoint released it.
func (p *Packet) Released() bool { return p.Flow == releasedFlow }
