package traffic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestParetoSampleMean: the empirical mean of ParetoSample must match the
// analytic mean alpha*xm/(alpha-1). Shapes in (1,2) have infinite
// variance, so convergence is slow — the tolerance is loose but the seed
// is fixed, making the test deterministic.
func TestParetoSampleMean(t *testing.T) {
	for _, tc := range []struct{ alpha, xm float64 }{
		{1.4, 20}, {1.2, 40}, {1.9, 1}, {3, 10},
	} {
		rng := rand.New(rand.NewSource(11))
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			x := ParetoSample(rng, tc.alpha, tc.xm)
			if x < tc.xm {
				t.Fatalf("alpha=%v xm=%v: sample %v below scale", tc.alpha, tc.xm, x)
			}
			sum += x
		}
		want := ParetoMean(tc.alpha, tc.xm)
		got := sum / n
		// Heavy tails: accept 15% relative error at this sample size.
		if rel := math.Abs(got-want) / want; rel > 0.15 {
			t.Errorf("alpha=%v xm=%v: empirical mean %.2f vs analytic %.2f (rel err %.3f)",
				tc.alpha, tc.xm, got, want, rel)
		}
	}
}

// TestParetoTailHeavierThanExponential: the defining property of the
// on/off periods is their heavy tail. For Pareto(alpha=1.5, xm chosen so
// the mean is m), P[X > 5m] = (xm/5m)^1.5 ≈ 0.0172; for an exponential
// with the same mean it is e^-5 ≈ 0.0067. The empirical exceedance
// frequency at a fixed seed must sit clearly above the exponential's.
func TestParetoTailHeavierThanExponential(t *testing.T) {
	const alpha = 1.5
	const xm = 10.0
	mean := ParetoMean(alpha, xm) // 30
	thresh := 5 * mean

	rng := rand.New(rand.NewSource(17))
	const n = 20000
	exceed := 0
	for i := 0; i < n; i++ {
		if ParetoSample(rng, alpha, xm) > thresh {
			exceed++
		}
	}
	got := float64(exceed) / n
	expTail := math.Exp(-5) // ≈ 0.0067
	if got < 1.5*expTail {
		t.Fatalf("Pareto tail P[X>5·mean] = %.4f not heavier than exponential %.4f", got, expTail)
	}
	// And it should be near the analytic value (xm/thresh)^alpha ≈ 0.0172.
	want := math.Pow(xm/thresh, alpha)
	if math.Abs(got-want) > 0.5*want {
		t.Errorf("tail frequency %.4f far from analytic %.4f", got, want)
	}
}

// TestParetoOnOffBurstiness: compare the dispersion of per-window
// injection counts against a Bernoulli injector at the same mean rate.
// Self-similar traffic must show a strictly larger index of dispersion
// (variance/mean) over coarse windows — that burstiness is the entire
// point of the process.
func TestParetoOnOffBurstiness(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	alive := topo.AliveRouters()
	min := routing.NewMinimal(topo)

	perWindow := func(tick func(*network.Sim), s *network.Sim, windows, winLen int) []float64 {
		counts := make([]float64, windows)
		var prev int64
		for w := 0; w < windows; w++ {
			for i := 0; i < winLen; i++ {
				tick(s)
				s.Step()
			}
			counts[w] = float64(s.Stats.Offered - prev)
			prev = s.Stats.Offered
		}
		return counts
	}
	dispersion := func(xs []float64) float64 {
		var sum, sq float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		for _, x := range xs {
			sq += (x - mean) * (x - mean)
		}
		return sq / float64(len(xs)) / mean
	}

	sP := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	po := NewParetoOnOff(alive, min, NewUniformRandom(alive), 0.12, rand.New(rand.NewSource(23)))
	dPareto := dispersion(perWindow(po.Tick, sP, 200, 100))

	sB := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	inj := NewInjector(alive, min, NewUniformRandom(alive), po.MeanRate(), rand.New(rand.NewSource(23)))
	dBern := dispersion(perWindow(inj.Tick, sB, 200, 100))

	if dPareto < 2*dBern {
		t.Fatalf("Pareto on/off dispersion %.2f not clearly burstier than Bernoulli %.2f", dPareto, dBern)
	}
}

// TestParetoOnOffPhasesDecorrelated: the initial phases must not open with
// one synchronized fleet-wide burst — in the first few cycles only a
// duty-cycle-sized fraction of nodes should be ON.
func TestParetoOnOffPhasesDecorrelated(t *testing.T) {
	topo := topology.NewMesh(8, 8)
	s := network.New(topo, network.Config{}, rand.New(rand.NewSource(2)))
	alive := topo.AliveRouters()
	po := NewParetoOnOff(alive, routing.NewMinimal(topo), NewUniformRandom(alive), 1.0, rand.New(rand.NewSource(9)))
	po.Tick(s)
	on := 0
	for _, b := range po.on {
		if b {
			on++
		}
	}
	frac := float64(on) / float64(len(po.on))
	duty := po.DutyCycle()
	if frac > 2*duty || frac == 0 {
		t.Fatalf("initial ON fraction %.2f vs duty cycle %.2f — phases look synchronized", frac, duty)
	}
}
