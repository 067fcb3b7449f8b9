package topo

import (
	"fmt"

	"drill/internal/units"
)

// DefaultProp is the per-link propagation delay used by the builders,
// representative of intra-data-center cabling.
const DefaultProp = 200 * units.Nanosecond

// LeafSpineConfig describes a two-stage folded Clos (Figure 1).
type LeafSpineConfig struct {
	Spines       int
	Leaves       int
	HostsPerLeaf int
	HostRate     units.Rate // host ↔ leaf links
	CoreRate     units.Rate // leaf ↔ spine links
	Prop         units.Time // per-link propagation (DefaultProp if zero)
}

func (c *LeafSpineConfig) defaults() {
	if c.Prop == 0 {
		c.Prop = DefaultProp
	}
	if c.HostRate == 0 {
		c.HostRate = 10 * units.Gbps
	}
	if c.CoreRate == 0 {
		c.CoreRate = 40 * units.Gbps
	}
}

// LeafSpine builds a symmetric two-stage Clos: every leaf connects to every
// spine with one CoreRate link, and HostsPerLeaf hosts hang off each leaf.
func LeafSpine(cfg LeafSpineConfig) *Topology {
	cfg.defaults()
	t := New()
	spines := make([]NodeID, cfg.Spines)
	for i := range spines {
		spines[i] = t.AddNode(Spine, fmt.Sprintf("S%d", i))
	}
	for l := 0; l < cfg.Leaves; l++ {
		leaf := t.AddNode(Leaf, fmt.Sprintf("L%d", l))
		for _, s := range spines {
			t.AddLink(leaf, s, cfg.CoreRate, cfg.Prop)
		}
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			host := t.AddNode(Host, fmt.Sprintf("L%d.h%d", l, h))
			t.AddLink(host, leaf, cfg.HostRate, cfg.Prop)
		}
	}
	return t
}

// VL2Config describes a three-stage VL2-style Clos: ToRs (Leaf) connect to
// Aggregation switches, which form a folded Clos with Intermediate (Core)
// switches (Greenberg et al., as used in the paper's Fig. 10 experiment).
type VL2Config struct {
	ToRs        int
	Aggs        int
	Ints        int
	HostsPerToR int
	HostRate    units.Rate // host ↔ ToR
	CoreRate    units.Rate // ToR↔Agg and Agg↔Int
	Prop        units.Time
}

// torAggLinks is the number of aggregation switches each VL2 ToR connects
// to, as in VL2.
const torAggLinks = 2

// VL2 builds the three-stage topology of the paper's Fig. 10 experiment:
// each ToR connects to torAggLinks aggregation switches; every aggregation
// switch connects to every intermediate switch.
func VL2(cfg VL2Config) *Topology {
	if cfg.Prop == 0 {
		cfg.Prop = DefaultProp
	}
	if cfg.HostRate == 0 {
		cfg.HostRate = 1 * units.Gbps
	}
	if cfg.CoreRate == 0 {
		cfg.CoreRate = 10 * units.Gbps
	}
	t := New()
	ints := make([]NodeID, cfg.Ints)
	for i := range ints {
		ints[i] = t.AddNode(Core, fmt.Sprintf("I%d", i))
	}
	aggs := make([]NodeID, cfg.Aggs)
	for i := range aggs {
		aggs[i] = t.AddNode(Agg, fmt.Sprintf("A%d", i))
		for _, in := range ints {
			t.AddLink(aggs[i], in, cfg.CoreRate, cfg.Prop)
		}
	}
	for r := 0; r < cfg.ToRs; r++ {
		tor := t.AddNode(Leaf, fmt.Sprintf("T%d", r))
		for k := 0; k < torAggLinks; k++ {
			agg := aggs[(r*torAggLinks+k)%cfg.Aggs]
			t.AddLink(tor, agg, cfg.CoreRate, cfg.Prop)
		}
		for h := 0; h < cfg.HostsPerToR; h++ {
			host := t.AddNode(Host, fmt.Sprintf("T%d.h%d", r, h))
			t.AddLink(host, tor, cfg.HostRate, cfg.Prop)
		}
	}
	return t
}

// FatTreeConfig describes a k-ary fat-tree (Al-Fares et al.): k pods, each
// with k/2 edge (Leaf) and k/2 aggregation switches, and (k/2)^2 core
// switches; every switch has k ports of uniform LinkRate.
type FatTreeConfig struct {
	K        int // pod count; must be even
	LinkRate units.Rate
	Prop     units.Time
}

// FatTree builds a k-ary fat-tree with (k/2)^2 hosts per pod.
func FatTree(cfg FatTreeConfig) *Topology {
	if cfg.K%2 != 0 || cfg.K < 2 {
		panic("topo: fat-tree k must be even and >= 2")
	}
	if cfg.Prop == 0 {
		cfg.Prop = DefaultProp
	}
	if cfg.LinkRate == 0 {
		cfg.LinkRate = 10 * units.Gbps
	}
	k := cfg.K
	half := k / 2
	t := New()
	cores := make([][]NodeID, half) // cores[g] serves aggregation index g in each pod
	for g := 0; g < half; g++ {
		cores[g] = make([]NodeID, half)
		for j := 0; j < half; j++ {
			cores[g][j] = t.AddNode(Core, fmt.Sprintf("C%d.%d", g, j))
		}
	}
	for p := 0; p < k; p++ {
		aggs := make([]NodeID, half)
		for a := 0; a < half; a++ {
			aggs[a] = t.AddNode(Agg, fmt.Sprintf("P%d.A%d", p, a))
			for _, c := range cores[a] {
				t.AddLink(aggs[a], c, cfg.LinkRate, cfg.Prop)
			}
		}
		for e := 0; e < half; e++ {
			edge := t.AddNode(Leaf, fmt.Sprintf("P%d.E%d", p, e))
			for _, a := range aggs {
				t.AddLink(edge, a, cfg.LinkRate, cfg.Prop)
			}
			for h := 0; h < half; h++ {
				host := t.AddNode(Host, fmt.Sprintf("P%d.E%d.h%d", p, e, h))
				t.AddLink(host, edge, cfg.LinkRate, cfg.Prop)
			}
		}
	}
	return t
}

// HeterogeneousConfig describes the paper's Fig. 13 topology: Leaves leafs
// and Spines spines, all pairs connected with one BaseRate link, except each
// leaf L_i has ExtraLinks parallel links to spines S_{i mod n} and
// S_{(i+1) mod n} (imbalanced striping).
type HeterogeneousConfig struct {
	Spines       int
	Leaves       int
	HostsPerLeaf int
	HostRate     units.Rate
	BaseRate     units.Rate
	ExtraLinks   int // parallel links to the two "near" spines (total, incl. base)
	Prop         units.Time
}

// Heterogeneous builds the imbalanced-striping topology of Fig. 13.
func Heterogeneous(cfg HeterogeneousConfig) *Topology {
	if cfg.Prop == 0 {
		cfg.Prop = DefaultProp
	}
	if cfg.HostRate == 0 {
		cfg.HostRate = 10 * units.Gbps
	}
	if cfg.BaseRate == 0 {
		cfg.BaseRate = 10 * units.Gbps
	}
	if cfg.ExtraLinks == 0 {
		cfg.ExtraLinks = 2
	}
	t := New()
	spines := make([]NodeID, cfg.Spines)
	for i := range spines {
		spines[i] = t.AddNode(Spine, fmt.Sprintf("S%d", i))
	}
	for l := 0; l < cfg.Leaves; l++ {
		leaf := t.AddNode(Leaf, fmt.Sprintf("L%d", l))
		near1 := l % cfg.Spines
		near2 := (l + 1) % cfg.Spines
		for si, s := range spines {
			n := 1
			if si == near1 || si == near2 {
				n = cfg.ExtraLinks
			}
			for k := 0; k < n; k++ {
				t.AddLink(leaf, s, cfg.BaseRate, cfg.Prop)
			}
		}
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			host := t.AddNode(Host, fmt.Sprintf("L%d.h%d", l, h))
			t.AddLink(host, leaf, cfg.HostRate, cfg.Prop)
		}
	}
	return t
}
