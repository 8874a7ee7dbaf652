package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The churn experiment measures what the paper's static analysis cannot:
// availability and recovery-latency SLOs under *continuous* dynamic
// irregularity. Links and routers fail and recover as a Poisson process
// for the whole run (millions of cycles at full scale), with events
// freely overlapping — a second element dies while the first repairs,
// a router recovers while a neighbor is draining. Three contenders:
//
//   - static_bubble: minimal routing + SB recovery. No reconfiguration
//     stall at all; each event costs only the in-place repair of the
//     affected packets (reconfig.Manager), and deadlock recovery is
//     local (the SB FSMs, kept consistent via reconfig.SchemeHandler).
//   - sp_tree: Ariadne-style spanning-tree re-election. Every event
//     triggers a global re-election that stalls injection network-wide
//     for churnTreeStall cycles ("1000s of cycles", paper Section I).
//   - dbr: a DBR-style dynamic reconfiguration baseline (ValadBeigi et
//     al., PAPERS.md): reconfiguration is local, so only routers within
//     churnDBRRadius hops of the event stall, for the much shorter
//     churnDBRStall window.
//
// Recovery latency of an event is the span from the event to the later
// of (a) its stall window closing and (b) the last packet the event
// damaged leaving the network; availability is the fraction of
// (alive ∧ unstalled) node-cycles. Percentiles come from the streaming
// stats.Quantile sketch (a full-scale run observes millions of packet
// latencies), merged across seeds — exercising the sharded-collection
// merge path.

// The baselines' stall model and the offered load have one value in
// every figure; the churn cell key still writes them, so cached cells
// and derived seeds do not depend on where the values live.
const (
	// churnRate is the injection rate per node-cycle: below every
	// contender's saturation so the comparison isolates reconfiguration
	// downtime, like the failures experiment.
	churnRate = 0.01
	// churnRouterFrac is the fraction of failure events that hit a router
	// (the rest hit links).
	churnRouterFrac = 0.25
	// churnTreeStall is sp_tree's global injection stall per event, and
	// the tree schemes' stall per failure in FailureTimeline ("1000s of
	// cycles").
	churnTreeStall = 2000
	// Routers within churnDBRRadius Manhattan hops of an event stall
	// churnDBRStall cycles under dbr.
	churnDBRStall  = 250
	churnDBRRadius = 3
	// churnTableUpdateRate is how many routing-table entries a router can
	// install per cycle. Each applied event's recovery window is extended
	// to cover installing the entries its recompile rewrote (full rebuild
	// charges the whole table; an incremental repair charges only what
	// changed). Deterministic by construction — the
	// model consumes rewritten-entry counts, never wall time.
	churnTableUpdateRate = 64
)

// ChurnConfig parameterizes the churn process. Zero values select
// full-scale defaults.
type ChurnConfig struct {
	// Cycles is the churn phase length. Default 1_000_000.
	Cycles int
	// MeanFail is the mean cycles between failure events (Poisson).
	// Default 2500.
	MeanFail float64
	// MeanRepair is the mean downtime before a failed element recovers.
	// Default 4000.
	MeanRepair float64
	// Seeds is the number of independent runs per contender. Default 3.
	Seeds int
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Cycles == 0 {
		c.Cycles = 1_000_000
	}
	if c.MeanFail == 0 {
		c.MeanFail = 2500
	}
	if c.MeanRepair == 0 {
		c.MeanRepair = 4000
	}
	if c.Seeds == 0 {
		c.Seeds = 3
	}
	return c
}

// QuickChurn returns a reduced-scale churn configuration for tests.
func QuickChurn() ChurnConfig {
	return ChurnConfig{
		Cycles:     40_000,
		MeanFail:   1500,
		MeanRepair: 2500,
		Seeds:      2,
	}
}

// Churn contenders.
const (
	churnSB = iota
	churnTree
	churnDBR
)

var churnKinds = []int{churnSB, churnTree, churnDBR}

func churnLabel(kind int) string {
	switch kind {
	case churnSB:
		return StaticBubble.String()
	case churnTree:
		return SpanningTree.String()
	default:
		return "dbr"
	}
}

// ChurnRow is one contender's aggregate over the churn sweep.
type ChurnRow struct {
	Label string
	// Stall is the per-event stall charged (0 for static_bubble; the
	// dbr figure is regional, the sp_tree one global).
	Stall  int
	Events int64
	// Recovery-latency SLOs in cycles (streaming percentiles over every
	// fail/recover event across all seeds).
	RecP50, RecP99, RecP999 float64
	// Availability is usable (alive ∧ unstalled) node-cycles over total
	// node-cycles.
	Availability float64
	// Delivered-packet latency SLOs.
	PktP50, PktP99, PktP999                   float64
	Delivered, Lost, DroppedUnreach, Rerouted int64
	// Censored counts events whose damaged packets had not all exited
	// by run end (their latency is recorded as of the final cycle).
	Censored int64
	Sampled  int
	// CmpP50Ns/CmpP99Ns are measured epoch compile cost percentiles in
	// wall nanoseconds per applied event. Observability only and
	// nondeterministic — the recovery fold above uses the deterministic
	// entries-rewritten model (churnTableUpdateRate), never wall
	// time, so every other field stays byte-reproducible.
	CmpP50Ns, CmpP99Ns float64
	// Table-repair counters summed over seeds (reconfig.TableStats).
	// Populated for static_bubble, whose live tables the reconfig.Manager
	// owns; the baselines model their own rebuild cost instead.
	TabHits, TabMisses, TabIncremental, TabFull             int64
	ColsShared, ColsRepaired, ColsRebuilt, EntriesRewritten int64
}

// churnCell is one seed's outcome (exported fields: sweep cache value).
// The sketches are pointers: encoding/json only consults Quantile's
// pointer-receiver MarshalJSON through an addressable value, and the
// cache marshals the cell from an interface, where value fields are
// not addressable — a by-value sketch would round-trip as {}.
type churnCell struct {
	Rec, Pkt, Cmp                             *stats.Quantile
	AvailUp, AvailTot                         int64
	Events, Censored                          int64
	Delivered, Lost, DroppedUnreach, Rerouted int64
	Tab                                       reconfig.TableStats
	Stats                                     network.Stats
	OK                                        bool
}

// Churn runs the continuous-churn comparison.
func Churn(p Params, cfg ChurnConfig) []ChurnRow {
	p = p.withDefaults()
	cfg = cfg.withDefaults()
	var rows []ChurnRow
	for _, kind := range churnKinds {
		kind := kind
		stall := 0
		switch kind {
		case churnTree:
			stall = churnTreeStall
		case churnDBR:
			stall = churnDBRStall
		}
		row := ChurnRow{Label: churnLabel(kind), Stall: stall}
		key := func(i int) *sweep.Key {
			return p.cellKey("churn").Str("scheme", row.Label).
				Int("cycles", cfg.Cycles).Float("rate", churnRate).
				Float("mean_fail", cfg.MeanFail).Float("mean_repair", cfg.MeanRepair).
				Float("router_frac", churnRouterFrac).
				Int("tree_stall", churnTreeStall).Int("dbr_stall", churnDBRStall).
				Int("dbr_radius", churnDBRRadius).
				Int("upd_rate", churnTableUpdateRate).Int("run", i)
		}
		results := sweep.Run(p.engine(), cfg.Seeds, key,
			func(i int, seed int64) (churnCell, error) {
				return churnRun(p, cfg, kind, seed), nil
			})
		var rec, pkt, cmp stats.Quantile
		var up, tot int64
		for _, res := range results {
			// Nil sketches mean a cache entry from an incompatible cell
			// shape; treat it like a failed cell rather than reporting
			// zero percentiles.
			if !res.OK() || !res.Value.OK || res.Value.Rec == nil || res.Value.Pkt == nil ||
				res.Value.Cmp == nil {
				continue
			}
			c := res.Value
			rec.Merge(c.Rec)
			pkt.Merge(c.Pkt)
			cmp.Merge(c.Cmp)
			row.Events += c.Events
			row.Censored += c.Censored
			row.Delivered += c.Delivered
			row.Lost += c.Lost
			row.DroppedUnreach += c.DroppedUnreach
			row.Rerouted += c.Rerouted
			row.TabHits += c.Tab.Hits
			row.TabMisses += c.Tab.Misses
			row.TabIncremental += c.Tab.Incremental
			row.TabFull += c.Tab.Full
			row.ColsShared += c.Tab.ColsShared
			row.ColsRepaired += c.Tab.ColsRepaired
			row.ColsRebuilt += c.Tab.ColsRebuilt
			row.EntriesRewritten += c.Tab.EntriesRewritten
			up += c.AvailUp
			tot += c.AvailTot
			row.Sampled++
		}
		if tot > 0 {
			row.Availability = float64(up) / float64(tot)
		}
		row.RecP50 = rec.Percentile(50)
		row.RecP99 = rec.Percentile(99)
		row.RecP999 = rec.Percentile(99.9)
		row.PktP50 = pkt.Percentile(50)
		row.PktP99 = pkt.Percentile(99)
		row.PktP999 = pkt.Percentile(99.9)
		row.CmpP50Ns = cmp.Percentile(50)
		row.CmpP99Ns = cmp.Percentile(99)
		rows = append(rows, row)
	}
	return rows
}

// churnEvent tracks one fail/recover event's recovery progress. An
// event is recovered when its stall window closed, its rewritten table
// entries finished installing, and its last damaged packet exited.
type churnEvent struct {
	at          int64
	stallEnd    int64
	compileEnd  int64
	lastExit    int64
	outstanding int
}

func (e *churnEvent) end() int64 {
	end := e.stallEnd
	if e.compileEnd > end {
		end = e.compileEnd
	}
	if e.lastExit > end {
		end = e.lastExit
	}
	return end
}

// pendingRecover is a scheduled element recovery.
type pendingRecover struct {
	at int64
	ev reconfig.Event
}

// churnRun executes one contender over one churn timeline. The run is
// fully deterministic in (p, cfg, kind, seed): all reconfiguration
// happens between Steps.
func churnRun(p Params, cfg ChurnConfig, kind int, seed int64) (out churnCell) {
	p = p.withDefaults()
	cfg = cfg.withDefaults()
	out.Rec = new(stats.Quantile)
	out.Pkt = new(stats.Quantile)
	out.Cmp = new(stats.Quantile)
	topo := topology.NewMesh(p.Width, p.Height)
	numNodes := topo.NumNodes()
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(sweep.SubSeed(seed, 0))))

	var ctl *core.Controller
	if kind == churnSB {
		ctl = core.Attach(s, core.Options{TDD: p.TDD, Spin: p.SpinMode})
	}
	mgr := reconfig.New(s)
	if ctl != nil {
		mgr.SetScheme(ctl)
	}

	// Routing: SB routes through the manager's live tables; both
	// baselines rebuild their spanning tree after every event, route
	// along it and are charged a whole-table install (tree.TableEntries).
	// They differ in their stall: sp_tree's global, dbr's regional.
	// rebuildAlg returns the modeled install work (entries) and the
	// measured rebuild wall time.
	var alg routing.Algorithm
	rebuildAlg := func() (entries, wallNs int64) {
		if kind == churnSB {
			return 0, 0
		}
		t0 := time.Now()
		tree := routing.NewUpDownRooted(topo, routing.RootLowestID)
		alg = tree.TreeAlgorithm()
		return tree.TableEntries(), time.Since(t0).Nanoseconds()
	}
	if kind == churnSB {
		alg = mgr.Algorithm()
	}
	rebuildAlg()

	// Event attribution: OnRepair/OnDeliver assign damaged packets to
	// the event that broke their route; an event's recovery ends when
	// its last damaged packet exits and its stall window closed.
	owner := make(map[int64]*churnEvent)
	var open []*churnEvent
	var cur *churnEvent
	mgr.OnRepair = func(pk *network.Packet, dropped bool) {
		if prev, ok := owner[pk.ID]; ok {
			prev.outstanding--
			prev.lastExit = s.Now
			delete(owner, pk.ID)
		}
		if !dropped && cur != nil {
			owner[pk.ID] = cur
			cur.outstanding++
		}
	}
	s.OnDeliver = func(pk *network.Packet) {
		out.Pkt.Add(float64(pk.Latency()))
		if ev, ok := owner[pk.ID]; ok {
			ev.outstanding--
			ev.lastExit = s.Now
			delete(owner, pk.ID)
		}
	}

	// Stall bookkeeping. sp_tree stalls every node; dbr only the region
	// around the event.
	var globalStallUntil int64
	stallUntil := make([]int64, numNodes)
	var dbrMaxStall int64
	chargeStall := func(at geom.NodeID, now int64) int64 {
		switch kind {
		case churnTree:
			globalStallUntil = now + churnTreeStall
			return globalStallUntil
		case churnDBR:
			end := now + churnDBRStall
			ec := topo.Coord(at)
			for n := 0; n < numNodes; n++ {
				c := topo.Coord(geom.NodeID(n))
				dx, dy := c.X-ec.X, c.Y-ec.Y
				if dx < 0 {
					dx = -dx
				}
				if dy < 0 {
					dy = -dy
				}
				if dx+dy <= churnDBRRadius && end > stallUntil[n] {
					stallUntil[n] = end
				}
			}
			if end > dbrMaxStall {
				dbrMaxStall = end
			}
			return end
		default:
			return now // static_bubble: no stall
		}
	}

	// submitEvent applies ev now, attributing repairs and charging the
	// contender's stall.
	aliveCount := numNodes
	submitEvent := func(ev reconfig.Event, now int64) {
		e := &churnEvent{at: now}
		cur = e
		tb0 := mgr.TableStats()
		outcome, _ := mgr.Submit(ev)
		cur = nil
		if outcome != reconfig.OutApplied && outcome != reconfig.OutRevoked {
			return
		}
		e.stallEnd = chargeStall(ev.Node, now)
		e.lastExit = now
		aliveCount = topo.AliveRouterCount()
		// Table-install cost: SB charges the entries the manager's repair
		// rewrote; the baselines charge their structure rebuild. Entry
		// counts are deterministic; wall time feeds only the Cmp sketch.
		var entries, wallNs int64
		if kind == churnSB {
			tb := mgr.TableStats()
			entries = tb.EntriesRewritten - tb0.EntriesRewritten
			wallNs = tb.CompileNs - tb0.CompileNs
		} else {
			entries, wallNs = rebuildAlg()
		}
		e.compileEnd = now + (entries+churnTableUpdateRate-1)/churnTableUpdateRate
		open = append(open, e)
		out.Events++
		out.Cmp.Add(float64(wallNs))
	}

	erng := rand.New(rand.NewSource(sweep.SubSeed(seed, 1)))
	st := traffic.NewStream(rand.New(rand.NewSource(sweep.SubSeed(seed, 2))))
	rng := st.Rand()
	offer := traffic.NewBernoulli(churnRate)
	var recovers []pendingRecover
	scheduleRecover := func(now int64, ev reconfig.Event) {
		at := now + 1 + int64(erng.ExpFloat64()*cfg.MeanRepair)
		i := len(recovers)
		recovers = append(recovers, pendingRecover{at: at, ev: ev})
		for i > 0 && recovers[i-1].at > at {
			recovers[i-1], recovers[i] = recovers[i], recovers[i-1]
			i--
		}
	}
	nextFail := int64(1 + erng.ExpFloat64()*cfg.MeanFail)

	horizon := int64(cfg.Cycles)
	drainCap := 40 * p.Width * p.Height * 10
	Run(s, SourceFunc(func(s *network.Sim) {
		now := s.Now
		// Due recoveries first (they were scheduled before this fail).
		// They keep firing on time after the horizon, while the network
		// drains; nothing else does.
		for len(recovers) > 0 && recovers[0].at <= now {
			ev := recovers[0].ev
			recovers = recovers[:copy(recovers, recovers[1:])]
			submitEvent(ev, now)
		}
		if now >= horizon {
			return
		}
		if now >= nextFail {
			nextFail = now + 1 + int64(erng.ExpFloat64()*cfg.MeanFail)
			if erng.Float64() < churnRouterFrac {
				// Kill a router (keep at least half the mesh up so the
				// process can't grind the network away entirely).
				alive := topo.AliveRouters()
				if len(alive) > numNodes/2 {
					n := alive[erng.Intn(len(alive))]
					submitEvent(reconfig.Event{Kind: reconfig.EvFailRouter, Node: n}, now)
					scheduleRecover(now, reconfig.Event{Kind: reconfig.EvRecoverRouter, Node: n})
				}
			} else {
				links := topo.AliveUndirectedLinks()
				if len(links) > numNodes {
					l := links[erng.Intn(len(links))]
					submitEvent(reconfig.Event{Kind: reconfig.EvFailLink, Node: l.From, Dir: l.Dir}, now)
					scheduleRecover(now, reconfig.Event{Kind: reconfig.EvRecoverLink, Node: l.From, Dir: l.Dir})
				}
			}
		}
		// Close out events whose stall ended, table install finished, and
		// damage drained.
		if len(open) > 0 {
			kept := open[:0]
			for _, e := range open {
				if e.outstanding == 0 && now >= e.stallEnd && now >= e.compileEnd {
					out.Rec.Add(float64(e.end() - e.at))
				} else {
					kept = append(kept, e)
				}
			}
			open = kept
		}
		// Availability + injection, gated by the contender's stalls.
		usable := aliveCount
		switch {
		case kind == churnTree && now < globalStallUntil:
			usable = 0
		case kind == churnDBR && now < dbrMaxStall:
			usable = 0
			for n := 0; n < numNodes; n++ {
				if stallUntil[n] <= now && topo.RouterAlive(geom.NodeID(n)) {
					usable++
				}
			}
		}
		out.AvailUp += int64(usable)
		out.AvailTot += int64(numNodes)
		if usable > 0 {
			for n := st.Next(offer, 0, numNodes); n < numNodes; n = st.Next(offer, n+1, numNodes) {
				src := geom.NodeID(n)
				if !topo.RouterAlive(src) {
					continue
				}
				if kind == churnTree && now < globalStallUntil {
					continue
				}
				if kind == churnDBR && stallUntil[n] > now {
					continue
				}
				dst := geom.NodeID(rng.Intn(numNodes))
				if dst == src || !topo.RouterAlive(dst) {
					continue
				}
				if r, ok := alg.Route(src, dst, rng); ok {
					ln := 1
					if rng.Intn(2) == 0 {
						ln = network.VCDepth
					}
					s.Enqueue(s.NewPacket(src, dst, rng.Intn(network.NumVnets), ln, r))
				} else {
					s.Drop()
				}
			}
		}
	}), Phases{Measure: cfg.Cycles + drainCap, Stop: func(s *network.Sim) bool {
		return s.Now >= horizon && len(recovers) == 0 && s.InFlight()+s.QueuedPackets() == 0
	}})
	// Close the books: events still open are censored at the final cycle.
	endNow := s.Now
	for _, e := range open {
		end := e.end()
		if e.outstanding > 0 {
			end = endNow
			out.Censored++
		}
		if end < e.at {
			end = e.at
		}
		out.Rec.Add(float64(end - e.at))
	}
	out.Delivered = s.Stats.Delivered
	out.Lost = s.Stats.Lost
	out.DroppedUnreach = s.Stats.DroppedUnreachable
	out.Rerouted = mgr.Rerouted
	if kind == churnSB {
		out.Tab = mgr.TableStats()
	}
	out.Stats = s.Stats
	// Conservation must hold to the cycle even under overlapped churn.
	out.OK = s.Stats.Delivered > 0 &&
		s.Stats.Offered == s.Stats.Delivered+int64(s.InFlight())+int64(s.QueuedPackets())+s.Stats.Lost
	return out
}

// churnTable renders the contender comparison; per-contender routing-
// table reuse counters are CSV columns and, where non-zero, text notes.
func churnTable(cfg ChurnConfig, rows []ChurnRow) Table {
	cfg = cfg.withDefaults()
	t := Table{
		Title: fmt.Sprintf("Continuous churn: Poisson fail/recover events (mean every %.0f cycles, repair %.0f) over %d cycles",
			cfg.MeanFail, cfg.MeanRepair, cfg.Cycles),
		Cols: []Column{
			{"scheme", "%-14s", "scheme"}, {"stall", "%-6d", "stall"}, {"events", "%-7d", "events"},
			{"recP50", "%-9.0f", "rec_p50"}, {"recP99", "%-9.0f", "rec_p99"}, {"recP99.9", "%-9.0f", "rec_p999"},
			{"avail%", "%-7.3f", ""}, {"", "", "availability"},
			{"pktP50", "%-9.0f", "pkt_p50"}, {"pktP99", "%-9.0f", "pkt_p99"}, {"pktP99.9", "%-9.0f", "pkt_p999"},
			{"delivered", "%-10d", "delivered"}, {"lost", "%-6d", "lost"},
			{"", "", "dropped_unreachable"}, {"", "", "rerouted"}, {"cens", "%-5d", "censored"}, {"", "", "sampled"},
			{"cmpP50ns", "%-10.0f", "cmp_p50_ns"}, {"cmpP99ns", "%-10.0f", "cmp_p99_ns"}, {"n", "%d", ""},
			{"", "", "tab_hits"}, {"", "", "tab_misses"}, {"", "", "tab_incremental"}, {"", "", "tab_full"},
			{"", "", "cols_shared"}, {"", "", "cols_repaired"}, {"", "", "cols_rebuilt"}, {"", "", "entries_rewritten"},
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []any{r.Label, r.Stall, r.Events, r.RecP50, r.RecP99, r.RecP999,
			100 * r.Availability, r.Availability, r.PktP50, r.PktP99, r.PktP999,
			r.Delivered, r.Lost, r.DroppedUnreach, r.Rerouted, r.Censored, r.Sampled,
			r.CmpP50Ns, r.CmpP99Ns, r.Sampled,
			r.TabHits, r.TabMisses, r.TabIncremental, r.TabFull,
			r.ColsShared, r.ColsRepaired, r.ColsRebuilt, r.EntriesRewritten})
		if r.TabHits+r.TabMisses > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"tables[%s]: hits=%d misses=%d incremental=%d full=%d cols shared=%d repaired=%d rebuilt=%d entries_rewritten=%d",
				r.Label, r.TabHits, r.TabMisses, r.TabIncremental, r.TabFull,
				r.ColsShared, r.ColsRepaired, r.ColsRebuilt, r.EntriesRewritten))
		}
	}
	return t
}
