package energy

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestBreakdownArithmetic(t *testing.T) {
	b := Breakdown{RouterDynamic: 1, LinkDynamic: 2, RouterLeakage: 3, LinkLeakage: 4}
	if b.Total() != 10 {
		t.Fatalf("Total = %v", b.Total())
	}
	if b.EDP(5) != 50 {
		t.Fatalf("EDP = %v", b.EDP(5))
	}
}

func TestComputeSinglePacket(t *testing.T) {
	// One 5-flit packet over one hop: exact dynamic accounting.
	topo := topology.NewMesh(2, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	s.Enqueue(s.NewPacket(0, 1, 0, 5, routing.Route{geom.East}))
	const cycles = 20
	s.Run(cycles)
	b := Compute(s, 0, cycles)
	// 5 flit link-hops; 5 injected flits; 5 delivered flits.
	wantRouterDyn := 5*(eBufRead+eXbar+eBufWrite) + 5*eBufWrite + 5*(eBufRead+eXbar)
	if diff := b.RouterDynamic - wantRouterDyn; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("router dynamic = %v, want %v", b.RouterDynamic, wantRouterDyn)
	}
	if b.LinkDynamic != 5*eLink {
		t.Fatalf("link dynamic = %v, want %v", b.LinkDynamic, 5*eLink)
	}
	// Leakage: 2 routers × (base + 60 buffers×PBuffer) + 2 links.
	wantRouterLeak := float64(cycles) * (2*pRouterBase + 120*pBuffer)
	if b.RouterLeakage != wantRouterLeak {
		t.Fatalf("router leakage = %v, want %v", b.RouterLeakage, wantRouterLeak)
	}
	if b.LinkLeakage != float64(cycles)*2*pLink {
		t.Fatalf("link leakage = %v", b.LinkLeakage)
	}
}

func TestLeakageDropsWithGatedRouters(t *testing.T) {
	full := topology.NewMesh(8, 8)
	sFull := network.New(full, network.Config{}, rand.New(rand.NewSource(1)))
	gated := topology.NewMesh(8, 8)
	topology.RandomRouterFaults(gated, rand.New(rand.NewSource(2)), 15)
	sGated := network.New(gated, network.Config{}, rand.New(rand.NewSource(1)))
	bFull := Compute(sFull, 0, 1000)
	bGated := Compute(sGated, 0, 1000)
	if bGated.RouterLeakage >= bFull.RouterLeakage {
		t.Fatal("gating routers must reduce router leakage")
	}
	if bGated.LinkLeakage >= bFull.LinkLeakage {
		t.Fatal("gating routers must reduce link leakage (attached links die)")
	}
	ratio := bGated.RouterLeakage / bFull.RouterLeakage
	if ratio > float64(64-15)/64+0.001 || ratio < float64(64-15)/64-0.001 {
		t.Fatalf("router leakage ratio %.3f, want %.3f", ratio, float64(49)/64)
	}
}

func TestSchemeOverheadBuffers(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	core.Attach(s, core.Options{})
	if got := SchemeOverheadBuffers(s, "sb"); got != 21 {
		t.Fatalf("SB overhead = %d, want 21 (Table I)", got)
	}
	if got := SchemeOverheadBuffers(s, "evc"); got != 320 {
		t.Fatalf("escape VC overhead = %d, want 320 (Table I)", got)
	}
	if got := SchemeOverheadBuffers(s, "tree"); got != 0 {
		t.Fatalf("spanning tree overhead = %d, want 0", got)
	}
}

func TestEscapeLeakageExceedsSB(t *testing.T) {
	// Fig. 10's shape: escape VC carries more leakage than SB, which
	// carries marginally more than the spanning tree.
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	core.Attach(s, core.Options{})
	tree := Compute(s, SchemeOverheadBuffers(s, "tree"), 10000)
	sb := Compute(s, SchemeOverheadBuffers(s, "sb"), 10000)
	evc := Compute(s, SchemeOverheadBuffers(s, "evc"), 10000)
	if !(tree.RouterLeakage < sb.RouterLeakage && sb.RouterLeakage < evc.RouterLeakage) {
		t.Fatalf("leakage ordering wrong: tree %.0f sb %.0f evc %.0f",
			tree.RouterLeakage, sb.RouterLeakage, evc.RouterLeakage)
	}
}

func TestControlMessagesCostLinkEnergy(t *testing.T) {
	topo := topology.NewMesh(2, 1)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
	s.UseLink(0, geom.East, network.ClassProbe)
	s.UseLink(0, geom.East, network.ClassEnable)
	s.Run(1)
	b := Compute(s, 0, 1)
	if b.LinkDynamic != 2*eCtrlLink {
		t.Fatalf("control link dynamic = %v, want %v", b.LinkDynamic, 2*eCtrlLink)
	}
}

func TestDynamicScalesWithLoad(t *testing.T) {
	run := func(n int) Breakdown {
		topo := topology.NewMesh(4, 1)
		s := network.New(topo, network.Config{}, rand.New(rand.NewSource(1)))
		for i := 0; i < n; i++ {
			s.Enqueue(s.NewPacket(0, 3, 0, 5, routing.Route{geom.East, geom.East, geom.East}))
		}
		s.Run(40 + 5*n)
		return Compute(s, 0, int64(40+5*n))
	}
	light, heavy := run(2), run(10)
	if heavy.RouterDynamic <= light.RouterDynamic || heavy.LinkDynamic <= light.LinkDynamic {
		t.Fatal("dynamic energy must grow with traffic")
	}
}
