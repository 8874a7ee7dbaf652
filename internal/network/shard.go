package network

// The sharded parallel sweep. The mesh is partitioned into contiguous
// row bands — one shard per band, each owning a whole-word range of the
// active bitmap and its own scratch. A busy fused cycle on a sharded Sim
// (Step selects it; see stepper.go) runs:
//
//	plan    one goroutine per shard: inject at the band's active
//	        routers, then decide each router's grants with the fused
//	        pass (planGrant records) without moving anything;
//	fold    the coordinator folds the injection deltas;
//	commit  one goroutine per shard moves its planned winners, with
//	        every effect that crosses the band or touches a global
//	        accumulator deferred into the shard's commit sink;
//	fold    the coordinator applies the sinks in shard order;
//
// then bubble transfers and PostCycle hooks close the cycle on the
// coordinator.
//
// Determinism contract — the parallel sweep is byte-identical to the
// sequential sweep (and hence to the refmodel full scan) for any shard
// count:
//
//   - The epoch is one cycle: no speculative lookahead, no dependence
//     on goroutine scheduling.
//   - The plan phase touches only node-local state; its cross-shard
//     *reads* (downstream buffer occupancy, read from the VCs
//     themselves) see phase-stable or monotone state: a VC emptied by
//     a grant stays unusable until FreeAt, so "empty now" can only
//     become false during allocation. It never reads a foreign router's
//     occBits/want/pend word: the owning shard's plan-phase injections
//     write those (dense.go).
//   - Grant decisions are order-independent (availability constancy):
//     the destination pool of a grant through output `out` is
//     (neighbor, in=out.Opposite()), and the only router that ever
//     *fills* a VC of that pool is this router (its unique upstream on
//     that port). The pool's own commits only *empty* slots, and an
//     emptied slot advertises FreeAt = now+len, so Empty(now) stays
//     false for the rest of the cycle. Downstream availability observed
//     at plan time therefore equals availability at commit time, every
//     grantable candidate stays grantable whatever other routers do, and
//     each output's winner is simply the first grantable candidate at or
//     past the round-robin pointer — exactly what the sequential
//     commit's rotate-and-scan converges on. The plan records the
//     winner's free downstream slot and the commit writes exactly that
//     slot — it never re-scans a foreign VC array, whose bookkeeping
//     fields are being rewritten concurrently. A bubble destination is
//     safe for the same reason: the bubble serves exactly one input
//     port (EligibleFor checks InPort), so its writer is unique too. The
//     ring rule (Router.Ring) counts Empty VCs of that same pool, so a
//     ring entry held at plan time stays held at commit time.
//   - Writes crossing a seam during the commit are exactly: the
//     destination VC fill (unique writer, see above — the downstream
//     router's own commit only touches its *occupied* candidate slots,
//     which are different elements). Everything else the sequential
//     grant would do to a foreign-shard router — its occupancy counters,
//     mirror word, request vectors and active bit — is deferred into the
//     shard's commit sink (xfill records) and applied by the
//     coordinator's fold.
//     Own-shard neighbors are updated directly. The fill cycle an escape
//     class records per buffer (escclass.go) is written by occBitSet and
//     so follows the same rule: band-local on the workers (injection,
//     own-band arrivals), the coordinator's fold for the rest. Global counters (Stats,
//     inFlight, LastProgress) accumulate in per-shard sinks and fold in
//     shard order; all are sums plus one max, so the totals match the
//     sequential sweep's bit for bit. Delivered packets are retained in
//     the sink and their OnDeliver callbacks + pool releases replay at
//     fold time in ascending-router-id order — the sequential call and
//     free-list order (at most one ejection per router per cycle, so
//     within-shard append order is ascending id).
//   - Every hook runs on the stepping goroutine: the parallel sweep is
//     taken only under fusedAlloc (no allocation hook installed), and
//     PreCycle, PostCycle and OnDeliver run on the coordinator. Escape
//     promotions are a PostCycle hook's work (PromoteEscape), so no
//     worker ever changes a packet's class; workers read the class's
//     tree and reserved index, which change only between cycles. A hop
//     class is read the same way: its mask table is immutable, and the
//     free-buffer counts behind its per-visit choice are plan-phase reads
//     of exactly the pools the availability argument above covers
//     (hopclass.go); commit-phase fills register masks only.
//   - RNG ownership: the simulator core draws nothing from Sim.Rng, and
//     traffic/hooks run only on the coordinator, so the draw sequence
//     is untouched by sharding.
//
// Shards is therefore execution configuration, like the sweep engine's
// worker count: it never enters a result cache key.

import (
	"repro/internal/geom"
)

// maxShards bounds the shard count; row-band partitions beyond this see
// no return on any plausible host.
const maxShards = 64

// effectiveShards clamps a requested shard count to the usable range
// (at most one shard per mesh row).
func effectiveShards(requested, height int) int {
	if requested < 1 {
		return 1
	}
	if requested > height {
		requested = height
	}
	if requested > maxShards {
		requested = maxShards
	}
	return requested
}

// shardState is one band's slice of the active set plus, for the
// parallel sweep, its private per-cycle scratch. Workers never touch
// another shard's state, so none of it is locked.
type shardState struct {
	// The band owns words [wlo, whi) of Sim.active; router id sits at
	// bit id+pad. Bands are whole row groups, so the id range is exact.
	wlo, whi int
	pad      int32
	// ids is the band's share of this cycle's active set.
	ids  []int32
	inj  injectDelta
	plan []planGrant
	sink commitSink
	// planWorker/commitWorker are the shard's goroutine bodies, built
	// once at initShards: spawning a pre-bound func value costs no
	// allocation per cycle, whereas a literal closure with arguments
	// would heap-allocate its context every Step.
	planWorker   func()
	commitWorker func()
}

// planGrant is one decided grant handed from the plan phase to the
// commit phase: router id moves candidate ci through output out into
// downstream slot dst (-1: ejection, or the downstream bubble).
type planGrant struct {
	id      int32
	out     int8
	ci, dst int16
}

// commitSink accumulates one shard's deferred commit effects for the
// coordinator's fold: delta Stats, conservation counters, packets
// delivered this cycle (OnDeliver + pool release replay in order at
// fold time), and cross-shard arrival records.
type commitSink struct {
	stats      Stats
	inFlight   int64
	progressed bool
	released   []*Packet
	xf         []xfill
}

// xfill records a grant that filled a buffer in a router owned by
// another shard: the destination's occupancy increments (counters, the
// slot-occupancy mirror with its request vectors and the active bit,
// whose words would otherwise be written by two shards) are applied by
// the coordinator after the commit barrier. src rides along for the seam
// observability hook; bit is the filled buffer's candidate index.
type xfill struct {
	src, nb, bit int32
}

func (c *commitSink) reset() {
	c.stats = Stats{}
	c.inFlight = 0
	c.progressed = false
	for i := range c.released {
		c.released[i] = nil
	}
	c.released = c.released[:0]
	c.xf = c.xf[:0]
}

// initShards lays the Sim out as n >= 1 shards: contiguous row bands of
// near-equal height (router ids are row-major, so each band is a
// contiguous id range and visiting shards in order visits routers in
// ascending global id), each owning a word-aligned range of the active
// bitmap.
func (s *Sim) initShards(n int) {
	w, h := s.Topo.Width(), s.Topo.Height()
	s.shards = make([]shardState, n)
	s.shardOf = nil
	if n > 1 {
		s.shardOf = make([]int8, len(s.Routers))
	}
	s.actPos = make([]int32, len(s.Routers))
	word := 0
	for k := range s.shards {
		sh := &s.shards[k]
		lo, hi := k*h/n*w, (k+1)*h/n*w
		sh.wlo, sh.pad = word, int32(word<<6-lo)
		word += (hi - lo + 63) >> 6
		sh.whi = word
		for id := lo; id < hi; id++ {
			s.actPos[id] = int32(id) + sh.pad
			if n > 1 {
				s.shardOf[id] = int8(k)
			}
		}
		if n == 1 {
			continue // the parallel sweep's scratch is never used
		}
		// Scratch bounds: at most one grant per output and one ejection
		// per router per cycle; cross-shard fills cross a band seam, of
		// which a shard touches at most two (2 rows × width links).
		sh.plan = make([]planGrant, 0, (hi-lo)*geom.NumPorts)
		sh.sink.released = make([]*Packet, 0, hi-lo)
		sh.sink.xf = make([]xfill, 0, 2*w)
		sh.planWorker = func() {
			s.shardPlan(sh)
			s.shardWG.Done()
		}
		sh.commitWorker = func() {
			s.shardCommit(sh)
			s.shardWG.Done()
		}
	}
	s.active = make([]uint64, word)
}

// Shards reports the effective shard count the stepper is running with.
func (s *Sim) Shards() int { return len(s.shards) }

// SetXFillObserver installs a callback invoked (on the coordinator, at
// fold time) for every cross-shard buffer fill with the granting and
// receiving router ids — observability for the seam-invariant tests.
// Pass nil to remove.
func (s *Sim) SetXFillObserver(f func(src, dst geom.NodeID)) { s.xfillObs = f }

// sweepParallel runs the three phases over the active set with the
// inject, plan and commit work fanned out to one goroutine per shard
// (shard 0's share runs on the coordinator). See the file comment for
// the phase structure and the determinism argument.
func (s *Sim) sweepParallel() {
	s.syncVectors() // before the workers start: they read the vectors
	s.shardWG.Add(len(s.shards) - 1)
	for k := 1; k < len(s.shards); k++ {
		go s.shards[k].planWorker()
	}
	s.shardPlan(&s.shards[0])
	s.shardWG.Wait()
	work := false
	for k := range s.shards {
		sh := &s.shards[k]
		sh.inj.apply(s)
		work = work || len(sh.plan) > 0
	}
	if work {
		s.shardWG.Add(len(s.shards) - 1)
		for k := 1; k < len(s.shards); k++ {
			go s.shards[k].commitWorker()
		}
		s.shardCommit(&s.shards[0])
		s.shardWG.Wait()
		s.foldSinks()
	}
	s.ctr.ParallelCycles++
	s.transferBubbles()
}

// shardPlan is the plan phase of one shard: inject at every active
// router of the band (node-local; counter movements go to the shard's
// private delta), then decide this cycle's grants with the fused pass
// (Step takes the parallel sweep only under fusedAlloc).
func (s *Sim) shardPlan(sh *shardState) {
	for _, id := range sh.ids {
		if s.niPend[id] != 0 {
			s.injectNode(geom.NodeID(id), &sh.inj)
		}
	}
	sh.plan = sh.plan[:0]
	for _, id := range sh.ids {
		s.denseAllocNode(geom.NodeID(id), &sh.plan)
	}
}

// shardCommit moves one shard's planned winners on the shard's own
// goroutine. All effects that cross the shard boundary or touch global
// accumulators are deferred into the shard's commit sink.
func (s *Sim) shardCommit(sh *shardState) {
	slots := s.Cfg.SlotsPerPort()
	total := geom.NumPorts * slots
	for _, pg := range sh.plan {
		r := &s.Routers[pg.id]
		out := geom.Direction(pg.out)
		vc, inPort := r.candVC(int32(pg.ci), slots, total)
		s.grantPar(sh, r, out, vc, vc.Pkt, inPort, int(pg.ci), int32(pg.dst))
		r.saPtr[out] = (int(pg.ci) + 1) % (total + 1)
	}
}

// grantPar is tryGrant's parallel-commit counterpart: it performs the
// same buffer movement (the destination slot was recorded at plan time
// and cannot have changed), updates this shard's own routers directly,
// and defers everything else — Stats, inFlight, LastProgress, delivery
// callbacks, pool releases, and foreign-shard occupancy — into the
// shard's commit sink.
func (s *Sim) grantPar(sh *shardState, r *Router, out geom.Direction, vc *VC, p *Packet, inPort geom.Direction, ci int, dstSlot int32) {
	sink := &sh.sink
	length := int64(p.Len)
	if out == geom.Local {
		s.grantN[r.ID]++
		vc.Pkt = nil
		vc.FreeAt = s.Now + length
		s.occBitClear(r.ID, ci)
		r.OutFreeAt[geom.Local] = s.Now + length
		p.DeliveredAt = s.Now + int64(s.Cfg.RouterLatency) + length - 1
		sink.stats.DeliveredFlits += length
		sink.stats.recordDelivery(p)
		sink.inFlight--
		s.occ[r.ID]--
		if inPort != geom.Local {
			s.occNL[r.ID]--
		}
		sink.progressed = true
		sink.released = append(sink.released, p)
		return
	}
	nb := s.Topo.Neighbor(r.ID, out)
	nbr := &s.Routers[nb]
	in := out.Opposite()
	var dst *VC
	dstBit := geom.NumPorts * s.Cfg.SlotsPerPort()
	if dstSlot >= 0 {
		dst = &nbr.In[in][dstSlot]
		dstBit = int(in)*s.Cfg.SlotsPerPort() + int(dstSlot)
	} else {
		dst = &nbr.Bubble.VC
		sink.stats.BubbleOccupancies++
	}
	s.grantN[r.ID]++
	vc.Pkt = nil
	vc.FreeAt = s.Now + length
	s.occBitClear(r.ID, ci)
	dst.Pkt = p
	dst.ReadyAt = s.Now + int64(s.Cfg.RouterLatency+s.Cfg.LinkLatency)
	p.Hop++
	r.OutFreeAt[out] = s.Now + length
	sink.stats.LinkCycles[ClassFlit] += length
	sink.stats.HopMoves++
	s.occ[r.ID]--
	if inPort != geom.Local {
		s.occNL[r.ID]--
	}
	if s.shardOf[nb] == s.shardOf[r.ID] {
		s.occ[nb]++
		s.occNL[nb]++ // arrivals always land on a link-side port
		s.occBitSet(nb, dstBit, p)
		s.markActive(nb)
	} else {
		sink.xf = append(sink.xf, xfill{src: int32(r.ID), nb: int32(nb), bit: int32(dstBit)})
	}
	sink.progressed = true
}

// foldSinks applies every shard's deferred commit effects in shard
// order (= ascending router id): global accumulators (all sums plus one
// max), cross-shard occupancy, then the delivery callbacks and pool
// releases in the sequential sweep's exact order.
func (s *Sim) foldSinks() {
	slots := s.Cfg.SlotsPerPort()
	for k := range s.shards {
		sink := &s.shards[k].sink
		s.Stats.merge(&sink.stats)
		s.inFlight += sink.inFlight
		if sink.progressed {
			s.LastProgress = s.Now
		}
		s.ctr.XFills += int64(len(sink.xf))
		for _, x := range sink.xf {
			s.occ[x.nb]++
			s.occNL[x.nb]++
			vc, _ := s.Routers[x.nb].candVC(x.bit, slots, geom.NumPorts*slots)
			s.occBitSet(geom.NodeID(x.nb), int(x.bit), vc.Pkt)
			s.markActive(geom.NodeID(x.nb))
			if s.xfillObs != nil {
				s.xfillObs(geom.NodeID(x.src), geom.NodeID(x.nb))
			}
		}
		for _, p := range sink.released {
			if s.OnDeliver != nil {
				s.OnDeliver(p)
			}
			s.releasePacket(p)
		}
		sink.reset()
	}
}
