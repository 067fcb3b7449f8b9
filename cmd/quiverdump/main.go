// Command quiverdump builds a Clos topology, optionally fails links, and
// prints the Quiver decomposition of §3.4: per source/destination leaf
// pair, the symmetric path components with their weights and capacities —
// the control-plane state DRILL's data plane consumes. It is the runnable
// version of the paper's Figure 4/5 walk-through.
//
// Usage:
//
//	quiverdump [-spines 3] [-leaves 4] [-fail L0-S0,L2-S1] [-pair L3-L1]
//	quiverdump -topo hetero -spines 4 -leaves 4
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"drill/internal/quiver"
	"drill/internal/topo"
	"drill/internal/units"
)

func main() {
	var (
		kind   = flag.String("topo", "leafspine", "topology: leafspine | hetero")
		spines = flag.Int("spines", 3, "spine count")
		leaves = flag.Int("leaves", 4, "leaf count")
		fails  = flag.String("fail", "", "links to fail, e.g. L0-S0,L2-S1")
		pair   = flag.String("pair", "", "only show this src-dst leaf pair, e.g. L3-L1")
	)
	flag.Parse()
	if *spines < 1 || *leaves < 2 {
		exitf("need -spines >= 1 and -leaves >= 2")
	}

	var t *topo.Topology
	switch *kind {
	case "leafspine":
		t = topo.LeafSpine(topo.LeafSpineConfig{Spines: *spines, Leaves: *leaves,
			HostsPerLeaf: 1, HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps})
	case "hetero":
		t = topo.Heterogeneous(topo.HeterogeneousConfig{Spines: *spines, Leaves: *leaves,
			HostsPerLeaf: 1})
	default:
		exitf("unknown topology %q", *kind)
	}

	var spineIDs []topo.NodeID
	for _, n := range t.Nodes {
		if n.Kind == topo.Spine {
			spineIDs = append(spineIDs, n.ID)
		}
	}
	leafAt := func(i int) topo.NodeID {
		if i < 0 || i >= len(t.Leaves) {
			exitf("leaf L%d out of range", i)
		}
		return t.Leaves[i]
	}

	// Resolve every -fail entry to a link, and the -pair to its leaves,
	// before failing or printing anything: a rejected input leaves stdout
	// empty. A repeated leaf–spine pair takes the next up parallel link.
	var failed []topo.LinkID
	var failedNames []string
	if *fails != "" {
		for _, f := range strings.Split(*fails, ",") {
			parts := strings.SplitN(strings.TrimSpace(f), "-", 2)
			if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
				exitf("bad -fail entry %q (want L0-S0)", f)
			}
			li, err1 := strconv.Atoi(strings.TrimPrefix(parts[0], "L"))
			si, err2 := strconv.Atoi(strings.TrimPrefix(parts[1], "S"))
			if err1 != nil || err2 != nil {
				exitf("bad -fail entry %q", f)
			}
			if si < 0 || si >= len(spineIDs) {
				exitf("spine S%d out of range", si)
			}
			links := slices.DeleteFunc(t.LinkBetween(leafAt(li), spineIDs[si]), func(l topo.LinkID) bool {
				return slices.Contains(failed, l)
			})
			if len(links) == 0 {
				exitf("no up link L%d-S%d", li, si)
			}
			failed = append(failed, links[0])
			failedNames = append(failedNames, fmt.Sprintf("L%d-S%d", li, si))
		}
	}
	var src, dst topo.NodeID
	if *pair != "" {
		parts := strings.SplitN(*pair, "-", 2)
		if len(parts) != 2 {
			exitf("bad -pair (want L3-L1)")
		}
		si, err1 := strconv.Atoi(strings.TrimPrefix(parts[0], "L"))
		di, err2 := strconv.Atoi(strings.TrimPrefix(parts[1], "L"))
		if err1 != nil || err2 != nil {
			exitf("bad -pair (want L3-L1)")
		}
		src, dst = leafAt(si), leafAt(di)
		if src == dst {
			exitf("-pair needs two different leaves")
		}
	}
	for i, l := range failed {
		t.FailLink(l)
		fmt.Printf("failed %s\n", failedNames[i])
	}

	r := topo.ComputeRoutes(t)
	q := quiver.Build(r)

	show := func(src, dst topo.NodeID) {
		comps := q.Decompose(src, dst)
		fmt.Printf("\n%s -> %s: %d symmetric component(s)\n",
			t.Nodes[src].Name, t.Nodes[dst].Name, len(comps))
		for ci, c := range comps {
			fmt.Printf("  component %d  weight=%d  capacity=%v\n", ci, c.Weight, c.Capacity)
			for _, p := range c.Paths {
				names := make([]string, 0, len(p)+1)
				for _, nid := range r.PathNodes(src, p) {
					names = append(names, t.Nodes[nid].Name)
				}
				fmt.Printf("    %s\n", strings.Join(names, " -> "))
			}
		}
	}

	if *pair != "" {
		show(src, dst)
		return
	}
	for _, src := range t.Leaves {
		for _, dst := range t.Leaves {
			if src != dst {
				show(src, dst)
			}
		}
	}
}

// exitf reports a bad flag value on one line and exits with status 2.
func exitf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "quiverdump: "+format+"\n", args...)
	os.Exit(2)
}
