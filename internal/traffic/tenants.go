package traffic

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/network"
	"repro/internal/routing"
)

// TenantClass describes one tenant's traffic in a multi-tenant mix: its
// own spatial pattern, offered load, packet mix, and vnet assignment
// (tenants typically map to distinct message classes).
type TenantClass struct {
	Name         string
	Pattern      Pattern
	RateFlits    float64
	CtrlFraction float64 // default 0.5
	CtrlVnet     int
	DataVnet     int
}

// TenantMix drives several tenant classes over one simulator: each Tick
// offers every tenant's traffic independently. Per-tenant injectors draw
// from decorrelated sub-streams of the mix seed, so adding or reordering
// tenants never perturbs another tenant's arrival sequence.
type TenantMix struct {
	injs []*Injector
}

// NewTenantMix builds the mix over the given source nodes.
func NewTenantMix(sources []geom.NodeID, alg routing.Algorithm, classes []TenantClass, seed int64) *TenantMix {
	m := &TenantMix{}
	for i, tc := range classes {
		// Golden-ratio stride (as int64) decorrelates per-tenant streams.
		const stride = -0x61c8864680b583eb // 0x9e3779b97f4a7c15
		sub := seed + int64(i+1)*stride
		inj := NewInjector(sources, alg, tc.Pattern, tc.RateFlits, rand.New(rand.NewSource(sub)))
		if tc.CtrlFraction > 0 {
			inj.CtrlFraction = tc.CtrlFraction
		}
		inj.CtrlVnet = tc.CtrlVnet
		if tc.DataVnet > 0 {
			inj.DataVnet = tc.DataVnet
		}
		m.injs = append(m.injs, inj)
	}
	return m
}

// Tick offers one cycle of every tenant's traffic.
func (m *TenantMix) Tick(s *network.Sim) {
	for _, inj := range m.injs {
		inj.Tick(s)
	}
}
