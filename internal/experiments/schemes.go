package experiments

import (
	"drill/internal/fabric"
	"drill/internal/lb"
)

// StdSchemes are the five configurations of the paper's FCT figures:
// ECMP, CONGA, Presto (with its shim), and DRILL with and without the
// receiver shim. DRILL always runs with the Quiver table builder, which is
// a no-op on symmetric fabrics.
func StdSchemes() []Scheme {
	return []Scheme{
		{Name: "ECMP", New: func() fabric.Balancer { return lb.ECMP{} }},
		{Name: "CONGA", New: func() fabric.Balancer { return lb.NewCONGA() }},
		{Name: "Presto", New: func() fabric.Balancer { return lb.NewPresto() }, Shim: DefaultShim},
		{Name: "DRILL w/o shim", New: func() fabric.Balancer { return lb.NewDRILLAsym() }},
		{Name: "DRILL", New: func() fabric.Balancer { return lb.NewDRILLAsym() }, Shim: DefaultShim},
	}
}

// SchemeByName returns a scheme from StdSchemes plus the extras used by
// individual experiments (Random, RR, WCMP, per-flow and flowcell DRILL,
// Presto without its shim).
func SchemeByName(name string) (Scheme, bool) {
	for _, s := range StdSchemes() {
		if s.Name == name {
			return s, true
		}
	}
	for _, s := range extraSchemes() {
		if s.Name == name {
			return s, true
		}
	}
	return Scheme{}, false
}

// MustScheme is SchemeByName for the names the program itself spells: an
// unknown one is a bug, so it panics naming it rather than hand back a
// zero Scheme whose nil New would panic deep inside Run.
func MustScheme(name string) Scheme {
	s, ok := SchemeByName(name)
	if !ok {
		panic("experiments: unknown scheme " + name)
	}
	return s
}

func extraSchemes() []Scheme {
	return []Scheme{
		{Name: "Random", New: func() fabric.Balancer { return lb.Random{} }},
		{Name: "RR", New: func() fabric.Balancer { return lb.RoundRobin{} }},
		{Name: "WCMP", New: func() fabric.Balancer { return lb.WCMP{} }},
		{Name: "per-flow DRILL", New: func() fabric.Balancer { return lb.NewPerFlowDRILL() }},
		{Name: "flowcell-DRILL", New: func() fabric.Balancer { return lb.NewFlowcellDRILL() }},
		{Name: "Presto before shim", New: func() fabric.Balancer { return lb.NewPresto() }},
	}
}

// drillScheme builds a raw DRILL(d,m) scheme for parameter sweeps.
func drillScheme(d, m int) Scheme {
	return Scheme{
		Name: (&lb.DRILL{D: d, M: m}).Name(),
		New:  func() fabric.Balancer { return &lb.DRILL{D: d, M: m} },
	}
}
