package traffic

// A Stream must be math/rand's generator continued: every rand.Rand
// method on Stream.Rand returns what it returns on rand.NewSource, and
// Next returns what trials of `Float64() < p` would, leaving the stream
// at the same place.

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// counted is a rand.Source64 that counts the values drawn from it.
type counted struct {
	rand.Source64
	n int
}

func (c *counted) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *counted) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// nextFloat64 is Stream.Next's oracle: trials i, i+1, … of
// `rng.Float64() < p` up to n.
func nextFloat64(rng *rand.Rand, p float64, i, n int) int {
	for ; i < n; i++ {
		if rng.Float64() < p {
			return i
		}
	}
	return n
}

// streamPs are the probabilities Next is run at: never, the idle and
// saturation workloads' per-node rates, even odds, and always (p > 1 is
// the one threshold past the redraw range).
var streamPs = [8]float64{0, 0.0005 / 3, 0.09 / 3, 0.3, 0.5, 1, 1.5, math.NaN()}

// replayOps runs ops on a Stream over rand.NewSource(seed) and on the
// plain generator side by side, failing on the first differing result.
// Each byte is one call: its low three bits pick the method, the rest
// its argument. It returns how many values the plain generator drew.
func replayOps(t *testing.T, seed int64, ops []byte) int {
	t.Helper()
	st := NewStream(rand.New(rand.NewSource(seed)))
	got := st.Rand()
	src := &counted{Source64: rand.NewSource(seed).(rand.Source64)}
	want := rand.New(src)
	for step, op := range ops {
		arg := int(op >> 3) // 0..31
		var g, w any
		switch op & 7 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			n := 1 + arg*arg*977
			g, w = got.Intn(n), want.Intn(n)
		case 4:
			n := int32(1 + arg<<26)
			g, w = got.Int31n(n), want.Int31n(n)
		case 5:
			g, w = got.ExpFloat64(), want.ExpFloat64()
		case 6:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 7:
			p := streamPs[arg&7]
			n := 16 << (2 * (arg >> 3)) // 16, 64, 256 or 1024 trials
			i := n / 4 * (arg & 1)
			g, w = st.Next(NewBernoulli(p), i, n), nextFloat64(want, p, i, n)
		}
		if g != w {
			t.Fatalf("seed %d, op %d (%#x): Stream %v, math/rand %v", seed, step, op, g, w)
		}
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("seed %d: next value after the ops: Stream %d, math/rand %d", seed, g, w)
	}
	return src.n
}

func TestStreamMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 7, -1 << 40, math.MaxInt64, math.MinInt64} {
		ops := make([]byte, 20000)
		rand.New(rand.NewSource(seed ^ 0x5eed)).Read(ops)
		if n := replayOps(t, seed, ops); n < 10*streamLen {
			t.Fatalf("seed %d: %d values drawn, fewer than ten refills", seed, n)
		}
	}
}

func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-3), []byte{0xff, 0xf7, 0x3f, 0x0f, 0x17, 0x1f})
	f.Add(int64(1)<<33, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x05, 0x06})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		replayOps(t, seed, ops)
	})
}

// TestStreamNextShortRuns holds Next to its oracle on runs shorter than
// one 8-word kernel block, ParetoOnOff's one trial per call (n = 1)
// among them, at rates low enough (p <= 1/16) for Next to use the miss
// kernel on longer runs.
func TestStreamNextShortRuns(t *testing.T) {
	for _, p := range []float64{0.0005 / 3, 0.01, 1.0 / 16} {
		b := NewBernoulli(p)
		for n := 1; n <= 9; n++ {
			st := NewStream(rand.New(rand.NewSource(int64(n))))
			want := rand.New(rand.NewSource(int64(n)))
			for call := 0; call < 3*streamLen; call++ {
				if g, w := st.Next(b, 0, n), nextFloat64(want, p, 0, n); g != w {
					t.Fatalf("p %g, n %d, call %d: Stream %d, math/rand %d", p, n, call, g, w)
				}
			}
			if g, w := st.Uint64(), want.Uint64(); g != w {
				t.Fatalf("p %g, n %d: next value: Stream %d, math/rand %d", p, n, g, w)
			}
		}
	}
}

func TestNewStreamRejectsOtherSources(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewStream took over a source that is not rand.NewSource")
		}
	}()
	NewStream(rand.New(&script{vals: []int64{1, 2, 3, 5, 8, 13}}))
}

// misses is the scalar miss test missRun's blocks must agree with.
func misses(x, t uint64) bool {
	k := x & mask63
	return t <= k && k < resampleFrom
}

// checkMissRun asserts that missRun over h[:n] returns the start of the
// first 8-word block that holds a non-miss, or n rounded down to the
// block when all of h[:n] misses (0 without the amd64 kernel).
func checkMissRun(t *testing.T, h []uint64, n int, thr uint64) {
	t.Helper()
	j := 0
	for j < n && misses(h[j], thr) {
		j++
	}
	want := j &^ 7
	if runtime.GOARCH != "amd64" {
		want = 0
	}
	if got := missRun(&h[0], n, thr); got != want {
		t.Fatalf("missRun(n=%d, t=%#x) = %d, want %d; words %#x", n, thr, got, want, h[:n])
	}
}

// checkAddVec asserts that addVec, finished by the scalar tail, adds
// a[j] into a[gap+j] for j < n as the scalar loop does, reading words
// earlier steps wrote when n > gap.
func checkAddVec(t *testing.T, a []uint64, gap, n int) {
	t.Helper()
	want, got := slices.Clone(a), slices.Clone(a)
	for j := 0; j < n; j++ {
		want[gap+j] += want[j]
	}
	done := addVec(&got[gap], &got[0], n)
	if runtime.GOARCH == "amd64" && done != n&^1 {
		t.Fatalf("addVec(n=%d) did %d words, want %d", n, done, n&^1)
	}
	for j := done; j < n; j++ {
		got[gap+j] += got[j]
	}
	if !slices.Equal(got, want) {
		t.Fatalf("addVec(gap=%d, n=%d) differs from the scalar loop", gap, n)
	}
}

func TestStreamKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const size = 40
	for _, thr := range []uint64{0, 1, 1 << 40, 1 << 62, resampleFrom - 1, resampleFrom} {
		// A random miss with a random top bit, which the test ignores
		// (any value when t = resampleFrom: nothing misses).
		miss := func() uint64 {
			if thr == resampleFrom {
				return rng.Uint64()
			}
			return thr + rng.Uint64()%(resampleFrom-thr) | rng.Uint64()&^mask63
		}
		plants := []uint64{
			rng.Uint64() % max(thr, 1),      // a hit (a miss when t = 0)
			resampleFrom + rng.Uint64()%512, // a redraw
			thr | 1<<63,                     // k = t
			resampleFrom - 1,                // the largest miss
		}
		h := make([]uint64, size)
		for n := 0; n <= size; n++ {
			for i := range h {
				h[i] = miss()
			}
			checkMissRun(t, h, n, thr)
			for pos := range h {
				for _, p := range plants {
					old := h[pos]
					h[pos] = p
					checkMissRun(t, h, n, thr)
					h[pos] = old
				}
			}
		}
	}
	a := make([]uint64, streamLen)
	for i := range a {
		a[i] = rng.Uint64()
	}
	for n := 0; n <= size; n++ {
		checkAddVec(t, a, streamTap, n)
	}
	checkAddVec(t, a, streamTap, streamLen-streamTap)
}

func FuzzStreamKernels(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint64(1)<<62, uint16(1))
	f.Add(make([]byte, 8*24), uint64(0), uint16(20))
	f.Add(make([]byte, 8*17), uint64(1), uint16(16))
	f.Fuzz(func(t *testing.T, buf []byte, thr uint64, n uint16) {
		words := make([]uint64, 1+len(buf)/8)
		for i := range buf {
			words[i/8] |= uint64(buf[i]) << (8 * (i % 8))
		}
		checkMissRun(t, words, int(n)%(len(words)+1), min(thr, resampleFrom))
		a := make([]uint64, streamTap+len(words))
		copy(a, words)
		for j := range words {
			a[streamTap+j] = words[j] * 0x9e3779b97f4a7c15
		}
		checkAddVec(t, a, streamTap, len(words))
	})
}
