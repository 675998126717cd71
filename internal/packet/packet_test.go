package packet

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func TestFlagsString(t *testing.T) {
	cases := []struct {
		f    Flags
		want string
	}{
		{0, "-"},
		{FlagSYN, "S"},
		{FlagACK, "A"},
		{FlagFIN, "F"},
		{FlagSYN | FlagACK, "SA"},
		{FlagSYN | FlagACK | FlagFIN, "SAF"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("Flags(%d).String() = %q, want %q", c.f, got, c.want)
		}
	}
}

func TestIsAck(t *testing.T) {
	data := &Packet{Seq: 5, Size: 1000}
	if data.IsAck() {
		t.Error("data packet reported as ACK")
	}
	ack := &Packet{Ack: 6, Flags: FlagACK, Size: 40}
	if !ack.IsAck() {
		t.Error("ACK not recognized")
	}
}

func TestPacketString(t *testing.T) {
	data := &Packet{Flow: 3, Seq: 17, Size: 1000}
	if s := data.String(); !strings.Contains(s, "seq 17") || !strings.Contains(s, "flow 3") {
		t.Errorf("data String() = %q", s)
	}
	ack := &Packet{Flow: 3, Ack: 18, Flags: FlagACK, Size: 40}
	if s := ack.String(); !strings.Contains(s, "ack 18") {
		t.Errorf("ack String() = %q", s)
	}
}

func TestHandlerFunc(t *testing.T) {
	var got *Packet
	h := HandlerFunc(func(p *Packet) { got = p })
	p := &Packet{Seq: 1}
	h.Handle(p)
	if got != p {
		t.Error("HandlerFunc did not forward the packet")
	}
}

func TestPoolRecyclesLIFO(t *testing.T) {
	pl := NewPool(false)
	a, b := pl.Get(), pl.Get()
	if a == b {
		t.Fatal("an empty pool handed out one packet twice")
	}
	*a = Packet{Flow: 3, Seq: 9, Flags: FlagACK, Size: 40, Sack: [][2]int64{{4, 6}, {8, 9}}}
	*b = Packet{Flow: 4, Seq: 1, Size: 1000}
	pl.Put(a)
	pl.Put(b)
	if got := pl.Get(); got != b {
		t.Error("Get did not return the packet released last")
	}
	got := pl.Get()
	if got != a {
		t.Fatal("Get did not return the packet released first")
	}
	if got.Released() {
		t.Error("a recycling pool poisoned a packet")
	}
	if len(got.Sack) != 0 || cap(got.Sack) != 2 {
		t.Errorf("recycled Sack has len %d cap %d, want 0 and the old backing array's 2", len(got.Sack), cap(got.Sack))
	}
	got.Sack = nil
	if !reflect.DeepEqual(*got, Packet{}) {
		t.Errorf("recycled packet not zeroed: %+v", *got)
	}
	if fresh := pl.Get(); fresh == a || fresh == b {
		t.Error("drained pool handed out a packet that is in use")
	}
}

func TestNilPool(t *testing.T) {
	var pl *Pool
	p := pl.Get()
	if p == nil || !reflect.DeepEqual(*p, Packet{}) {
		t.Fatalf("nil pool Get = %+v, want a fresh zero packet", p)
	}
	p.Seq = 7
	pl.Put(p)
	if p.Seq != 7 || p.Released() {
		t.Errorf("nil pool Put touched the packet: %+v", p)
	}
}

func TestPoisoningPool(t *testing.T) {
	pl := NewPool(true)
	p := pl.Get()
	*p = Packet{Flow: 3, Seq: 9, Size: 1000}
	if p.Released() {
		t.Fatal("live packet reports Released")
	}
	pl.Put(p)
	if !p.Released() || p.Size >= 0 {
		t.Errorf("released packet not poisoned: %+v", p)
	}
	if pl.Get() == p {
		t.Error("poisoning pool reissued a released packet")
	}
	defer func() {
		if recover() == nil {
			t.Error("second Put of one packet did not panic")
		}
	}()
	pl.Put(p)
}

// TestPutDropped: a pool takes back every dropped packet of its own, and
// of packets it never allocated only as many as it has — so a CBR or
// pulse source whose losses nobody draws on cannot grow it without bound.
// A poisoning pool stamps them all.
func TestPutDropped(t *testing.T) {
	pl := NewPool(false)
	for i := 0; i < 100; i++ {
		pl.PutDropped(new(Packet))
	}
	if st := pl.Stats(); st.DropReleases != 0 || len(pl.free) != 0 {
		t.Fatalf("a pool that allocated nothing kept %d foreign packets (%+v)", len(pl.free), st)
	}
	own := []*Packet{pl.Get(), pl.Get(), pl.Get()}
	for _, p := range own {
		pl.PutDropped(p)
	}
	for i := 0; i < 100; i++ {
		pl.PutDropped(new(Packet))
	}
	if st := pl.Stats(); st != (PoolStats{News: 3, DropReleases: 3}) || len(pl.free) != 3 {
		t.Errorf("pool holds %d packets with stats %+v, want its own 3", len(pl.free), st)
	}
	if pl.Get() != own[2] {
		t.Error("a dropped packet did not come back out of the pool")
	}
	if st := pl.Stats(); st.Reuses != 1 {
		t.Errorf("stats %+v after one reuse", st)
	}

	var none *Pool
	none.PutDropped(new(Packet)) // no pool: nothing happens
	if none.Stats() != (PoolStats{}) {
		t.Error("a nil pool counted something")
	}
	poison := NewPool(true)
	p := new(Packet)
	poison.PutDropped(p)
	if !p.Released() || poison.Stats().DropReleases != 1 {
		t.Error("a poisoning pool did not stamp a dropped packet")
	}
}

// TestPacketSize pins the layout: Flags rides in the padding after Flow,
// which keeps a packet at 72 bytes (a packet allocated on its own still
// takes the allocator's 80-byte size class).
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 72 {
		t.Errorf("Packet is %d bytes, want 72", got)
	}
}
