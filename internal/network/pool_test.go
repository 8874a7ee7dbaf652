package network

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

func newPoolSim(t *testing.T) *Sim {
	t.Helper()
	return New(topology.NewMesh(4, 4), Config{}, rand.New(rand.NewSource(1)))
}

// TestPoolLifecycleStats walks packets through create→release→create and
// checks every counter the observability harness exposes.
func TestPoolLifecycleStats(t *testing.T) {
	s := newPoolSim(t)
	r := routing.Route{1, 1}
	const n = 8
	pkts := make([]*Packet, n)
	bufs := make(map[*Packet]*geom.Direction, n)
	for i := range pkts {
		pkts[i] = s.NewPacket(0, 3, 0, 1, r)
		bufs[pkts[i]] = &pkts[i].Route[0]
	}
	for _, p := range pkts {
		s.releasePacket(p)
	}
	for i := range pkts {
		pkts[i] = s.NewPacket(0, 3, 0, 1, r)
	}
	st := s.PoolStats()
	if st.PacketAllocs != n {
		t.Errorf("PacketAllocs = %d, want %d", st.PacketAllocs, n)
	}
	if st.PacketReuses != n {
		t.Errorf("PacketReuses = %d, want %d", st.PacketReuses, n)
	}
	if st.PacketReleases != n {
		t.Errorf("PacketReleases = %d, want %d", st.PacketReleases, n)
	}
	// The second generation rewrites each packet's own route buffer.
	for _, p := range pkts {
		if &p.Route[0] != bufs[p] {
			t.Fatal("a recycled packet did not keep its route buffer")
		}
	}
}

// TestNewPacketCopiesRoute: under pooling the caller keeps its route
// buffer — mutating it after NewPacket must not disturb the packet.
func TestNewPacketCopiesRoute(t *testing.T) {
	s := newPoolSim(t)
	buf := routing.Route{1, 1, 2}
	p := s.NewPacket(0, 3, 0, 1, buf)
	buf[0] = 3
	if p.Route[0] != 1 {
		t.Fatal("packet route aliases the caller's buffer")
	}
}

// TestSetRouteReusesSpan: replacing a live packet's route with one that
// fits must rewrite the packet's buffer in place; one that does not fit
// grows the buffer, which the packet then keeps.
func TestSetRouteReusesSpan(t *testing.T) {
	s := newPoolSim(t)
	p := s.NewPacket(0, 3, 0, 1, routing.Route{1, 1, 2})
	old := &p.Route[0]
	p.Hop = 2
	s.SetRoute(p, routing.Route{2, 2})
	if p.Hop != 0 {
		t.Fatal("SetRoute did not rewind Hop")
	}
	if len(p.Route) != 2 || p.Route[0] != 2 {
		t.Fatalf("SetRoute content wrong: %v", p.Route)
	}
	if &p.Route[0] != old {
		t.Fatal("SetRoute replaced a span the new route fits in")
	}
	long := make(routing.Route, 16)
	long[15] = 3
	s.SetRoute(p, long)
	if !slices.Equal(p.Route, long) {
		t.Fatalf("grow reroute content wrong: %v", p.Route)
	}
	grown := &p.Route[0]
	s.SetRoute(p, routing.Route{1})
	if &p.Route[0] != grown || len(p.Route) != 1 || p.Route[0] != 1 {
		t.Fatal("SetRoute did not keep the grown buffer")
	}
}

// TestSetPoolingContract: disabling must happen before the first packet,
// and a disabled pool really does hand out plain heap objects holding a
// heap copy of the route — never a packet of a reservation PrewarmPool
// made before the switch, which the refmodel differential unit relies on.
func TestSetPoolingContract(t *testing.T) {
	s := newPoolSim(t)
	s.PrewarmPool(16, 8, 8)
	slab := s.pool.slab
	s.SetPooling(false)
	if !s.pool.disabled {
		t.Fatal("pool still enabled after SetPooling(false)")
	}
	r := routing.Route{1, 1}
	p := s.NewPacket(0, 3, 0, 1, r)
	if &p.Route[0] == &r[0] || !slices.Equal(p.Route, r) {
		t.Fatal("unpooled NewPacket must store a heap copy of the route")
	}
	s.releasePacket(p)
	p2 := s.NewPacket(0, 3, 0, 1, r)
	if p2 == p {
		t.Fatal("disabled pool recycled a packet")
	}
	for i := range slab {
		if &slab[i] == p || &slab[i] == p2 {
			t.Fatalf("disabled pool handed out reserved packet %d", i)
		}
	}
	if st := s.PoolStats(); st.PacketReleases != 0 || st.PacketAllocs != 0 {
		t.Fatalf("disabled pool counted pool traffic: %+v", st)
	}

	s2 := newPoolSim(t)
	s2.NewPacket(0, 3, 0, 1, routing.Route{1})
	defer func() {
		if recover() == nil {
			t.Fatal("SetPooling after packet creation did not panic")
		}
	}()
	s2.SetPooling(false)
}

// TestGatherScratchStable gates the switch-allocator scratch-reuse
// invariant: allocGather's candidate buckets are sized once at init to
// their hard bound (every slot of every input plus the bubble), so no
// grant cycle may ever grow them. A regression that appends past the
// bound would show up here as a capacity change.
func TestGatherScratchStable(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	s := New(topo, Config{}, rand.New(rand.NewSource(2)))
	min := routing.NewMinimal(topo)
	rng := rand.New(rand.NewSource(3))
	alive := topo.AliveRouters()

	var caps [5]int
	for i := range s.seqGather.cand {
		caps[i] = cap(s.seqGather.cand[i])
		if caps[i] == 0 {
			t.Fatal("gather scratch not pre-sized at init")
		}
	}
	for cyc := 0; cyc < 2000; cyc++ {
		for _, src := range alive {
			if rng.Float64() >= 0.3 {
				continue
			}
			dst := alive[rng.Intn(len(alive))]
			if dst == src {
				continue
			}
			if r, ok := min.Route(src, dst, rng); ok {
				s.Enqueue(s.NewPacket(src, dst, rng.Intn(NumVnets), 1, r))
			}
		}
		s.Step()
	}
	for i := range s.seqGather.cand {
		if cap(s.seqGather.cand[i]) != caps[i] {
			t.Fatalf("gather scratch bucket %d grew: cap %d -> %d",
				i, caps[i], cap(s.seqGather.cand[i]))
		}
	}
}

// TestPrewarmPoolNeutral: PrewarmPool must not change the simulated
// trajectory — identical seeds with and without prewarm land on
// identical Stats — and the reservation must serve the run without
// allocating: every packet the run constructs is carved from it, and
// every such packet's route still lies in its own span of the reserved
// route buffer.
func TestPrewarmPoolNeutral(t *testing.T) {
	const P, routeLen = 64, 8
	var slab []Packet
	var spans []geom.Direction
	run := func(prewarm bool) *Sim {
		topo := topology.NewMesh(4, 4)
		s := New(topo, Config{}, rand.New(rand.NewSource(5)))
		if prewarm {
			s.PrewarmPool(P, routeLen, 16)
			slab, spans = s.pool.slab, s.pool.spans
		}
		min := routing.NewMinimal(topo)
		rng := rand.New(rand.NewSource(6))
		alive := topo.AliveRouters()
		for cyc := 0; cyc < 800; cyc++ {
			for _, src := range alive {
				if rng.Float64() >= 0.2 {
					continue
				}
				dst := alive[rng.Intn(len(alive))]
				if dst == src {
					continue
				}
				if r, ok := min.Route(src, dst, rng); ok {
					s.Enqueue(s.NewPacket(src, dst, rng.Intn(NumVnets), 1, r))
				}
			}
			s.Step()
		}
		return s
	}
	plain, warmed := run(false), run(true)
	if plain.Stats != warmed.Stats {
		t.Fatalf("PrewarmPool changed the trajectory\nplain:  %+v\nwarmed: %+v",
			plain.Stats, warmed.Stats)
	}
	st := warmed.PoolStats()
	carved := P - len(warmed.pool.slab)
	if st.PacketAllocs != int64(carved) {
		t.Fatalf("%d packets constructed, %d carved from the reservation: %+v",
			st.PacketAllocs, carved, st)
	}
	for i := range slab[:carved] {
		r := slab[i].Route
		if cap(r) != routeLen || &r[:1][0] != &spans[i*routeLen] {
			t.Fatalf("packet %d's route left its span of the reservation", i)
		}
	}
}

// TestPacketOwnsRouteSpan: the spans PrewarmPool carves are disjoint
// three-index slices of one buffer, so a route grown past its span moves
// that packet alone and leaves its neighbours' routes intact; a packet
// recycled through the free list keeps its buffer, grown or not, and
// refills it without allocating.
func TestPacketOwnsRouteSpan(t *testing.T) {
	const routeLen = 4
	s := newPoolSim(t)
	s.PrewarmPool(3, routeLen, 8)
	spans := s.pool.spans
	routes := []routing.Route{{1, 1, 1, 1}, {2, 2, 2, 2}, {3, 3, 3, 3}}
	pkts := make([]*Packet, len(routes))
	for i, r := range routes {
		pkts[i] = s.NewPacket(0, 3, 0, 1, r)
		if p := pkts[i].Route; cap(p) != routeLen || &p[0] != &spans[i*routeLen] {
			t.Fatalf("packet %d's route is not span %d of the reservation", i, i)
		}
	}

	long := routing.Route{0, 0, 0, 0, 0, 0}
	s.SetRoute(pkts[1], long)
	if !slices.Equal(pkts[1].Route, long) {
		t.Fatalf("grown route content wrong: %v", pkts[1].Route)
	}
	for _, i := range []int{0, 2} {
		if !slices.Equal(pkts[i].Route, routes[i]) {
			t.Fatalf("growing packet 1's route changed packet %d's: %v", i, pkts[i].Route)
		}
	}

	for i, r := range []routing.Route{routes[2], long} {
		p, buf := pkts[i], &pkts[i].Route[0]
		s.releasePacket(p)
		var q *Packet
		if n := mallocs(func() { q = s.NewPacket(0, 3, 0, 1, r) }); n != 0 {
			t.Errorf("recycling packet %d allocated %d objects", i, n)
		}
		if q != p || &q.Route[0] != buf {
			t.Fatalf("recycled packet %d did not keep its route buffer", i)
		}
	}
}

// mallocs returns the heap objects the simulator's own code allocates
// while f runs. It samples every allocation with its stack and counts
// those made under a non-test frame of this package, so what the runtime
// allocates for itself meanwhile (a new M, a goroutine stack) does not
// count. Two collections publish the profile up to the read.
func mallocs(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	count := func() int64 {
		runtime.GC()
		runtime.GC()
		n, ok := runtime.MemProfile(nil, true)
		var recs []runtime.MemProfileRecord
		for !ok {
			recs = make([]runtime.MemProfileRecord, n+50)
			n, ok = runtime.MemProfile(recs, true)
		}
		var objs int64
		for _, r := range recs[:n] {
			frames := runtime.CallersFrames(r.Stack())
			for fr, more := frames.Next(); ; fr, more = frames.Next() {
				if strings.HasPrefix(fr.Function, "repro/internal/network.") && !strings.HasSuffix(fr.File, "_test.go") {
					objs += r.AllocObjects
					break
				}
				if !more {
					break
				}
			}
		}
		return objs
	}
	before := count()
	f()
	return count() - before
}

// TestPrewarmPoolReserves: PrewarmPool's cost does not depend on the
// population it reserves for, the reservation serves that population's
// first use without a heap allocation, and the packet past it comes
// from the heap.
func TestPrewarmPoolReserves(t *testing.T) {
	topo := topology.NewMesh(4, 4)
	rng := rand.New(rand.NewSource(1))
	// Enough runs that an allocation the collector makes now and then
	// averages away.
	setup := func(packets int) float64 {
		return testing.AllocsPerRun(50, func() {
			New(topo, Config{}, rng).PrewarmPool(packets, 16, 64)
		})
	}
	if small, large := setup(64), setup(4096); small != large {
		t.Fatalf("New+PrewarmPool allocates %.0f objects for 64 packets, %.0f for 4096", small, large)
	}

	const P = 64
	s := New(topo, Config{}, rand.New(rand.NewSource(1)))
	s.PrewarmPool(P, 16, 64)
	slab := s.pool.slab
	inSlab := func(p *Packet) bool {
		for i := range slab {
			if &slab[i] == p {
				return true
			}
		}
		return false
	}
	xy := routing.NewXY(topo)
	type flow struct {
		src, dst geom.NodeID
		vnet     int
		route    routing.Route
	}
	flows := make([]flow, P)
	for i := range flows {
		src, dst := geom.NodeID(i%16), geom.NodeID((i*7+3)%16)
		if src == dst {
			dst = (dst + 1) % 16
		}
		r, _ := xy.Route(src, dst, nil)
		flows[i] = flow{src, dst, i % NumVnets, r}
	}
	live := make([]*Packet, 0, P+1)
	n := mallocs(func() {
		for _, f := range flows {
			p := s.NewPacket(f.src, f.dst, f.vnet, 1, f.route)
			live = append(live, p)
			s.Enqueue(p)
		}
		for i := 0; i < 1000 && s.InFlight()+s.QueuedPackets() > 0; i++ {
			s.Step()
		}
	})
	if n != 0 {
		t.Errorf("creating, enqueueing and delivering %d reserved packets allocated %d objects", P, n)
	}
	if s.Stats.Delivered != P {
		t.Fatalf("delivered %d of %d packets", s.Stats.Delivered, P)
	}
	for _, p := range live {
		if !inSlab(p) {
			t.Fatal("a packet within the reservation was not carved from it")
		}
	}
	if st := s.PoolStats(); st.PacketAllocs != P || st.PacketReleases != P {
		t.Fatalf("after the run: %+v, want %d constructed and %d released", st, P, P)
	}

	// The free list now holds all P packets; one more live packet than
	// that is past the reservation.
	for _, f := range flows {
		s.NewPacket(f.src, f.dst, f.vnet, 1, f.route)
	}
	var extra *Packet
	if n := mallocs(func() {
		extra = s.NewPacket(flows[0].src, flows[0].dst, 0, 1, flows[0].route)
	}); n == 0 {
		t.Error("packet P+1 did not allocate")
	}
	if inSlab(extra) {
		t.Fatal("packet P+1 was carved from an exhausted reservation")
	}
	if st := s.PoolStats(); st.PacketAllocs != P+1 || st.PacketReuses != P {
		t.Fatalf("after P+1 live packets: %+v", st)
	}
}
