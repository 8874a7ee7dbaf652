// Package perturb is the control-plane perturbation layer: a SimNet-style
// fault model (loss, delay jitter, reordering, duplication knobs) applied
// to the Static Bubble controller's bufferless control messages — probes,
// disables, enables, and check_probes — and to nothing else. Data flits
// are untouched; the point is to stress the recovery FSM with the failure
// modes a real control plane sees (probes that vanish, disables that
// arrive late or twice) which the paper never measures.
//
// A Perturber implements core.Perturber and attaches through
// core.Options.Perturb. All randomness comes from a private splitmix64
// stream seeded at construction, drawn once per intercepted transmission
// in the controller's deterministic call order — so two identically
// seeded simulations (Step or the refmodel full scan) remain
// byte-identical under perturbation, and a recorded worst case replays
// exactly. Faults aimed at one message type or one link need no setting
// here: a core.Perturber that consults a Perturber only for the
// transmissions it targets does that (see the package tests).
package perturb

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
)

// Knobs is the perturbation intensity of every control-message hop. The
// zero value is a no-op. Probabilities are in [0, 1] and evaluated
// independently per transmission, in a fixed order (duplicate, loss,
// reorder, jitter) so knob combinations draw identically everywhere.
type Knobs struct {
	// Loss is the probability a message is dropped in flight.
	Loss float64
	// Jitter is the probability a message is delayed by a uniform draw
	// in [1, jitterMax] extra cycles.
	Jitter float64
	// Reorder is the probability a message is held back reorderDelay
	// extra cycles. Because later messages on the link keep their nominal
	// latency, they overtake the held one — an arrival-order inversion,
	// which is what "reordering" means for a bufferless hop-by-hop
	// transport.
	Reorder float64
	// Dup is the probability an extra copy of the message is delivered
	// dupDelay cycles after the original.
	Dup float64
}

const (
	jitterMax    = 4
	reorderDelay = 6 // three nominal hops
	dupDelay     = 2
)

// IsZero reports whether the knobs perturb nothing.
func (k Knobs) IsZero() bool {
	return k.Loss == 0 && k.Jitter == 0 && k.Reorder == 0 && k.Dup == 0
}

func (k Knobs) String() string {
	return fmt.Sprintf("loss=%.3g jitter=%.3g reorder=%.3g dup=%.3g", k.Loss, k.Jitter, k.Reorder, k.Dup)
}

// Config assembles a Perturber.
type Config struct {
	// Default applies to every control-message transmission.
	Default Knobs
	// Seed seeds the private randomness stream.
	Seed int64
}

// Perturber implements core.Perturber over a Config. Construct with New;
// the zero value is not usable.
type Perturber struct {
	def Knobs
	rng uint64

	// Counters report what the layer actually did, for tests and the
	// adversary's SLO table.
	Dropped    int64
	Delayed    int64
	Reordered  int64
	Duplicated int64
}

// New builds a deterministic Perturber from cfg.
func New(cfg Config) *Perturber {
	return &Perturber{
		def: cfg.Default,
		rng: splitmix64(uint64(cfg.Seed) ^ 0xda3e39cb94b95bdb),
	}
}

// SetDefault replaces the knobs mid-run (the fuzz target drives knob
// sequences this way).
func (p *Perturber) SetDefault(k Knobs) { p.def = k }

// next advances the private splitmix64 stream.
func (p *Perturber) next() uint64 {
	p.rng += 0x9e3779b97f4a7c15
	x := p.rng
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit returns a float in [0, 1).
func (p *Perturber) unit() float64 { return float64(p.next()>>11) / (1 << 53) }

// uintn returns a uniform draw in [0, n).
func (p *Perturber) uintn(n int64) int64 { return int64(p.next() % uint64(n)) }

// PerturbMsg implements core.Perturber. The draw order is fixed
// (duplicate, loss, reorder, jitter) and each enabled knob's Bernoulli
// draw happens exactly once whether or not any other knob fired, so the
// stream position never depends on another knob's outcome. A dropped
// message still burns the reorder/jitter draws; only the drop wins.
func (p *Perturber) PerturbMsg(now int64, from geom.NodeID, out geom.Direction, typ core.MsgType) core.Verdict {
	k := p.def
	var v core.Verdict
	if k.Dup > 0 && p.unit() < k.Dup {
		v.Dup = true
		v.DupDelay = dupDelay
		p.Duplicated++
	}
	drop := k.Loss > 0 && p.unit() < k.Loss
	if k.Reorder > 0 && p.unit() < k.Reorder {
		v.Delay += reorderDelay
		if !drop {
			p.Reordered++
		}
	}
	if k.Jitter > 0 && p.unit() < k.Jitter {
		v.Delay += 1 + p.uintn(jitterMax)
		if !drop {
			p.Delayed++
		}
	}
	if drop {
		v.Drop = true
		v.Delay = 0
		p.Dropped++
	}
	return v
}

// splitmix64 is the stream seeding finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var _ core.Perturber = (*Perturber)(nil)
