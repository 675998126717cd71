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
	stats  PoolStats
}

// PoolStats counts what a pool was asked for: News is the Gets that had to
// allocate, Reuses the Gets a released packet served, DropReleases the
// packets that came back through PutDropped. News that stops growing while
// DropReleases keeps up with the queue's drops says that what a run still
// allocates is its in-flight population, not its losses.
type PoolStats struct {
	News, Reuses, DropReleases int64
}

// Stats returns the pool's counts so far; a nil pool has none.
func (pl *Pool) Stats() PoolStats {
	if pl == nil {
		return PoolStats{}
	}
	return pl.stats
}

// NewPool returns an empty pool. With poison set — audit mode — Put stamps
// the packet as released and retires it instead of recycling it, so a
// component that kept the pointer holds a packet Released reports, and
// every Get allocates as if there were no pool.
func NewPool(poison bool) *Pool { return &Pool{poison: poison} }

// Get returns a packet with every field zero and Sack empty (its capacity
// may be left over from an earlier life).
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return new(Packet)
	}
	if len(pl.free) == 0 {
		pl.stats.News++
		return new(Packet)
	}
	pl.stats.Reuses++
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

// PutDropped is Put for the link whose queue has just rejected p: the
// packet's path ended there instead of at a TCP endpoint. The link cannot
// tell a pool packet from one a CBR or pulse source allocated, so the pool
// takes a dropped packet only while it holds fewer than it has ever
// allocated: that is always so for its own, and it keeps a source nobody
// draws for from filling the pool with its losses.
func (pl *Pool) PutDropped(p *Packet) {
	if pl == nil || !pl.poison && len(pl.free) >= int(pl.stats.News) {
		return
	}
	pl.stats.DropReleases++
	pl.Put(p)
}

// Released reports whether a poisoning Pool has taken p back. Audited
// components check it on every packet they are handed: true means some
// holder used the packet after its endpoint released it.
func (p *Packet) Released() bool { return p.Flow == releasedFlow }
