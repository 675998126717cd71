package tcp

// Slab is an arena of senders: NewSenderSlab hands out Sender values from
// chunks of capacity senders, so wiring a large flow population costs one
// allocation per chunk instead of one per sender. A chunk is never
// resized, so a *Sender stays valid for as long as anything holds it.
//
// A slab's cursor is not synchronized: every sender in it must be created
// from one goroutine at a time (the topology keeps one slab per
// dumbbell). The slab never takes a slot back: a finished flow's sender is
// reused through Sender.Renew, which the dumbbell does for the next flow.
type Slab struct {
	chunk    []Sender
	capacity int
	rows     int
}

// NewSlab returns an empty slab that allocates senders capacity at a time.
func NewSlab(capacity int) *Slab {
	if capacity < 1 {
		capacity = 1
	}
	return &Slab{capacity: capacity}
}

// next returns a zeroed sender from the current chunk, starting a new
// chunk when it is full.
func (sl *Slab) next() *Sender {
	if len(sl.chunk) == cap(sl.chunk) {
		sl.chunk = make([]Sender, 0, sl.capacity)
	}
	sl.chunk = sl.chunk[:len(sl.chunk)+1]
	sl.rows++
	return &sl.chunk[len(sl.chunk)-1]
}

// Rows returns the number of senders the slab has handed out.
func (sl *Slab) Rows() int { return sl.rows }
