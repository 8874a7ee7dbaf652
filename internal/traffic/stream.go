package traffic

import "math/rand"

// rand.NewSource is an additive lagged Fibonacci generator: its outputs,
// read as Uint64 values, obey x[n] = x[n−streamLen] + x[n−streamTap]
// (mod 2⁶⁴), so any streamLen consecutive outputs determine every later
// one.
const (
	streamLen = 607
	streamTap = 273
	// streamChecks is how many outputs past the first streamLen the
	// takeover reads back against the recurrence.
	streamChecks = 8
	mask63       = 1<<63 - 1
)

// Stream continues a rand.NewSource generator's output stream from a
// buffered copy of it: the same values in the same order, handed out
// without a call per value. It is a rand.Source64, and Next runs whole
// runs of Bernoulli trials against the buffer, one call per hit.
type Stream struct {
	// h holds the next streamLen outputs; h[pos:] are still to be
	// handed out (pos == streamLen when the buffer is spent).
	h   [streamLen]uint64
	pos int
}

// NewStream takes rng's stream over: it reads rng's next streamLen
// outputs as the first values the Stream hands out, checks a few more
// against the generator's recurrence, and never touches rng again. It
// panics unless rng draws from a rand.NewSource generator.
func NewStream(rng *rand.Rand) *Stream {
	st := &Stream{}
	for i := range st.h {
		st.h[i] = rng.Uint64()
	}
	for i := 0; i < streamChecks; i++ {
		if rng.Uint64() != st.h[i]+st.h[i+streamLen-streamTap] {
			panic("traffic: NewStream needs a *rand.Rand over rand.NewSource; this one's draws do not follow its recurrence")
		}
	}
	return st
}

// Rand returns a *rand.Rand drawing from st. Every rand.Rand method
// reaches its source through Int63 or Uint64, so each one returns what it
// would on the generator st took over.
func (st *Stream) Rand() *rand.Rand { return rand.New(st) }

// refill computes the next streamLen outputs in place: addVec does
// whole blocks of each half and a scalar loop the tail. The second half
// reads words streamTap behind the ones it writes.
func (st *Stream) refill() {
	h := &st.h
	i := addVec(&h[0], &h[streamLen-streamTap], streamTap)
	for ; i < streamTap; i++ {
		h[i] += h[i+streamLen-streamTap]
	}
	i = streamTap + addVec(&h[streamTap], &h[0], streamLen-streamTap)
	for ; i < streamLen; i++ {
		h[i] += h[i-streamTap]
	}
	st.pos = 0
}

// Uint64 implements rand.Source64.
func (st *Stream) Uint64() uint64 {
	if st.pos == streamLen {
		st.refill()
	}
	x := st.h[st.pos]
	st.pos++
	return x
}

// Int63 implements rand.Source.
func (st *Stream) Int63() int64 { return int64(st.Uint64() & mask63) }

// Seed implements rand.Source: st continues rand.NewSource(seed).
func (st *Stream) Seed(seed int64) { *st = *NewStream(rand.New(rand.NewSource(seed))) }

// Next runs trials i, i+1, … of b and returns the first that hits, or n
// when every trial below n misses. Each trial consumes exactly what
// `rng.Float64() < p` would (the value, and a redraw of any value
// Float64 discards), so scanning with Next leaves the stream where one
// trial at a time would.
func (st *Stream) Next(b Bernoulli, i, n int) int {
	// A value k misses when t <= k < resampleFrom. t is capped at
	// resampleFrom (k at or above it is redrawn, never a hit), so the
	// miss test is one unsigned compare: k−t wraps past span when k < t.
	// missRun skips the leading blocks of misses; the scalar loop runs
	// the rest and decides the hit or redraw. The kernel costs a call and
	// pays only when the expected run of misses, about 2⁶³/t trials,
	// spans a block pair (16 words); below that the scalar loop is faster.
	// A run shorter than one 8-word block it cannot skip at all.
	t := min(b.t, resampleFrom)
	span := resampleFrom - t
	kernel := t <= 1<<59
scan:
	for i < n {
		if st.pos == streamLen {
			st.refill()
		}
		run := st.h[st.pos:min(streamLen, st.pos+n-i)]
		j := 0
		if kernel && len(run) >= 8 {
			j = missRun(&run[0], len(run), t)
		}
		for ; j < len(run); j++ {
			if k := run[j] & mask63; k-t >= span {
				st.pos += j + 1
				if k < t {
					return i + j
				}
				i += j // k is discarded: trial i+j draws again
				continue scan
			}
		}
		st.pos += len(run)
		i += len(run)
	}
	return n
}
