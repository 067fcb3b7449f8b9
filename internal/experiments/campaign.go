package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"drill/internal/fabric"
	"drill/internal/obs"
	"drill/internal/sim"
	"drill/internal/topo"
	"drill/internal/units"
)

// Campaign is a scripted reconfiguration schedule: named link sets plus a
// timeline of fail/restore actions against them. Campaigns are the
// experiment-layer face of fabric epochs — every action lands as a
// global-class sim event (a barrier under the sharded engine), so a
// campaign replays byte-identically on the sequential and sharded engines.
//
// The JSON form (drillsim -campaign @file.json) mirrors the struct:
//
//	{
//	  "name": "flapstorm",
//	  "sets": [{"id": "storm", "uplinks": 2}],
//	  "timeline": [
//	    {"atFrac": 0.30, "op": "fail",    "set": "storm"},
//	    {"atFrac": 0.45, "op": "restore", "set": "storm"}
//	  ]
//	}
type Campaign struct {
	Name     string           `json:"name"`
	Sets     []LinkSet        `json:"sets"`
	Timeline []CampaignAction `json:"timeline"`
}

// LinkSet names a group of links a campaign acts on. Exactly one selector
// must be set:
//
//   - Links: explicit topo.LinkID values;
//   - Uplinks: that many leaf↔fabric links, drawn deterministically from
//     the run's seed (a distinct stream per set, so two sets in one
//     campaign draw independently);
//   - Leaf: every fabric link of Topo.Leaves[*Leaf] — the drain/undrain
//     unit for rolling-maintenance scenarios.
type LinkSet struct {
	ID      string  `json:"id"`
	Links   []int32 `json:"links,omitempty"`
	Uplinks int     `json:"uplinks,omitempty"`
	Leaf    *int    `json:"leaf,omitempty"`
}

// CampaignAction is one timeline entry: at a sim time given either
// absolutely (AtUs, microseconds) or as a fraction of the traffic window
// warmup+measure (AtFrac, used when AtUs is 0 — presets scale to any cell
// length this way), apply Op to every link of Set. Instant skips the
// RouteDelay reconvergence lag (the idealized control plane).
type CampaignAction struct {
	AtUs    float64 `json:"atUs,omitempty"`
	AtFrac  float64 `json:"atFrac,omitempty"`
	Op      string  `json:"op"`
	Set     string  `json:"set"`
	Instant bool    `json:"instant,omitempty"`
}

// Validate checks the campaign's internal consistency: selectors are
// exclusive, ops are known, and every action names a declared set.
func (c *Campaign) Validate() error {
	if len(c.Timeline) == 0 {
		return fmt.Errorf("campaign %q has an empty timeline", c.Name)
	}
	ids := map[string]bool{}
	for i := range c.Sets {
		ls := &c.Sets[i]
		if ls.ID == "" {
			return fmt.Errorf("campaign %q: set %d has no id", c.Name, i)
		}
		if ids[ls.ID] {
			return fmt.Errorf("campaign %q: duplicate set id %q", c.Name, ls.ID)
		}
		ids[ls.ID] = true
		selectors := 0
		if len(ls.Links) > 0 {
			selectors++
		}
		if ls.Uplinks > 0 {
			selectors++
		}
		if ls.Leaf != nil {
			selectors++
		}
		if selectors != 1 {
			return fmt.Errorf("campaign %q: set %q must use exactly one of links/uplinks/leaf", c.Name, ls.ID)
		}
	}
	for i, a := range c.Timeline {
		if a.Op != "fail" && a.Op != "restore" {
			return fmt.Errorf("campaign %q: action %d has op %q (want fail|restore)", c.Name, i, a.Op)
		}
		if !ids[a.Set] {
			return fmt.Errorf("campaign %q: action %d targets undeclared set %q", c.Name, i, a.Set)
		}
		// Install converts atUs to int64 nanoseconds, which a time at or
		// past math.MaxInt64 ns would wrap into the past.
		if a.AtUs < 0 || a.AtUs*float64(units.Microsecond) >= math.MaxInt64 || a.AtFrac < 0 || a.AtFrac > 1 {
			return fmt.Errorf("campaign %q: action %d has an out-of-range time", c.Name, i)
		}
		if a.AtUs == 0 && a.AtFrac == 0 {
			return fmt.Errorf("campaign %q: action %d has no time (set atUs or atFrac)", c.Name, i)
		}
	}
	return nil
}

// Fingerprint returns a short stable hash of the campaign's full content,
// recorded in run provenance so two runs share a config hash iff they ran
// the same schedule.
func (c *Campaign) Fingerprint() string {
	if c == nil {
		return ""
	}
	return obs.ConfigHash(c)
}

// resolve materializes every set into concrete link IDs against t. Random
// draws come from the run seed with a per-set stream, so resolution is
// deterministic per (seed, campaign) and independent across sets.
func (c *Campaign) resolve(t *topo.Topology, seed int64) (map[string][]topo.LinkID, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	out := make(map[string][]topo.LinkID, len(c.Sets))
	for si := range c.Sets {
		ls := &c.Sets[si]
		switch {
		case len(ls.Links) > 0:
			links := make([]topo.LinkID, 0, len(ls.Links))
			for _, id := range ls.Links {
				if int(id) < 0 || int(id) >= len(t.Links) {
					return nil, fmt.Errorf("campaign %q: set %q names link %d outside the topology's %d links",
						c.Name, ls.ID, id, len(t.Links))
				}
				links = append(links, topo.LinkID(id))
			}
			out[ls.ID] = links
		case ls.Uplinks > 0:
			out[ls.ID] = pickUplinks(t, ls.Uplinks, seed, uplinkStream+int64(si))
		default:
			if *ls.Leaf < 0 || *ls.Leaf >= len(t.Leaves) {
				return nil, fmt.Errorf("campaign %q: set %q names leaf %d outside the topology's %d leaves",
					c.Name, ls.ID, *ls.Leaf, len(t.Leaves))
			}
			out[ls.ID] = leafFabricLinks(t, *ls.Leaf)
		}
	}
	return out, nil
}

// uplinkStream is the seed stream of uplink draws: a campaign's set i
// draws from uplinkStream+i, so a one-set campaign and a fabric that
// starts degraded (FailedUplinks) draw the same links for one seed.
const uplinkStream = 0xfa11

// pickUplinks draws n distinct leaf↔fabric links of t (all of them when n
// exceeds the count) from the given random stream of seed, returned in
// link-ID order. It is the one seeded uplink picker.
func pickUplinks(t *topo.Topology, n int, seed, stream int64) []topo.LinkID {
	cands := leafFabricLinks(t, -1)
	rng := sim.New(seed).Stream(stream)
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	picked := cands[:min(n, len(cands))]
	sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
	return picked
}

// FailedUplinks wraps a topology builder so the fabric starts degraded:
// n seeded leaf uplinks are down before the network is built (the failed
// fabrics of Fig. 11b/c and Fig. 12). The draw is the one an
// UplinkFailure campaign makes for the same seed.
func FailedUplinks(build func() *topo.Topology, n int, seed int64) func() *topo.Topology {
	if n == 0 {
		return build
	}
	return func() *topo.Topology {
		t := build()
		for _, id := range pickUplinks(t, n, seed, uplinkStream) {
			t.FailLink(id)
		}
		return t
	}
}

// leafFabricLinks lists leaf↔fabric links — of one leaf (by index into
// t.Leaves), or of every leaf when which is -1 — in link-ID order.
func leafFabricLinks(t *topo.Topology, which int) []topo.LinkID {
	var out []topo.LinkID
	for _, l := range t.Links {
		ka, kb := t.Nodes[l.A].Kind, t.Nodes[l.B].Kind
		if ka == topo.Host || kb == topo.Host {
			continue
		}
		if ka != topo.Leaf && kb != topo.Leaf {
			continue
		}
		if which >= 0 {
			leaf := t.Leaves[which]
			if l.A != leaf && l.B != leaf {
				continue
			}
		}
		out = append(out, l.ID)
	}
	return out
}

// Install resolves the campaign against t and schedules every timeline
// action as a global-class event on s. window is the traffic window
// (warmup+measure) AtFrac times scale to. Actions sharing an instant are
// scheduled — and therefore dispatched — in timeline order.
func (c *Campaign) Install(s *sim.Sim, net *fabric.Network, t *topo.Topology, seed int64, window units.Time) error {
	sets, err := c.resolve(t, seed)
	if err != nil {
		return err
	}
	for i := range c.Timeline {
		a := c.Timeline[i]
		// Rounded, so a nanosecond time stored as float µs (UplinkFailure)
		// comes back exact.
		at := units.Time(math.Round(a.AtUs * float64(units.Microsecond)))
		if at == 0 {
			at = units.Time(a.AtFrac * float64(window))
		}
		links := sets[a.Set]
		fail := a.Op == "fail"
		instant := a.Instant
		s.AtGlobal(at, func() {
			for _, id := range links {
				if fail {
					net.FailLink(id, instant)
				} else {
					net.RestoreLink(id, instant)
				}
			}
		})
	}
	return nil
}

// LoadCampaign parses a campaign JSON file and validates it.
func LoadCampaign(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Campaign
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if c.Name == "" {
		c.Name = path
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// FlapStorm is the canonical flap campaign: `links` seeded-random leaf
// uplinks fail and recover `cycles` times across the middle of the traffic
// window — each cycle short enough that reconvergence from the previous
// one may still be pending, exercising the coalescing path.
func FlapStorm(links, cycles int) *Campaign {
	c := &Campaign{
		Name: "flapstorm",
		Sets: []LinkSet{{ID: "storm", Uplinks: links}},
	}
	// Cycles span fractions [0.25, 0.90) of the window: restore midway
	// through each cycle, fail again at the next.
	span, start := 0.65, 0.25
	for i := 0; i < cycles; i++ {
		f0 := start + span*float64(i)/float64(cycles)
		f1 := start + span*(float64(i)+0.5)/float64(cycles)
		c.Timeline = append(c.Timeline,
			CampaignAction{AtFrac: f0, Op: "fail", Set: "storm"},
			CampaignAction{AtFrac: f1, Op: "restore", Set: "storm"},
		)
	}
	return c
}

// PodFailure takes the first n leaves' entire fabric connectivity down at
// once — a correlated pod-level event — and restores it later in the run.
// Every fail action precedes every restore, and each group lists the pods
// in order.
func PodFailure(n int) *Campaign {
	c := &Campaign{Name: "podfail"}
	for i := 0; i < n; i++ {
		leaf := i
		c.Sets = append(c.Sets, LinkSet{ID: fmt.Sprintf("pod%d", i), Leaf: &leaf})
		c.Timeline = append(c.Timeline, CampaignAction{AtFrac: 0.35, Op: "fail", Set: fmt.Sprintf("pod%d", i)})
	}
	for i := 0; i < n; i++ {
		c.Timeline = append(c.Timeline, CampaignAction{AtFrac: 0.70, Op: "restore", Set: fmt.Sprintf("pod%d", i)})
	}
	return c
}

// RollingDrain drains and undrains the first n leaves one after another —
// the rolling-maintenance scenario: each leaf's fabric links fail, hold
// for a window slice, and recover before the next leaf drains.
func RollingDrain(n int) *Campaign {
	c := &Campaign{Name: "rollingdrain"}
	span, start := 0.65, 0.25
	for i := 0; i < n; i++ {
		leaf := i
		id := fmt.Sprintf("leaf%d", i)
		f0 := start + span*float64(i)/float64(n)
		f1 := start + span*(float64(i)+0.6)/float64(n)
		c.Sets = append(c.Sets, LinkSet{ID: id, Leaf: &leaf})
		c.Timeline = append(c.Timeline,
			CampaignAction{AtFrac: f0, Op: "fail", Set: id},
			CampaignAction{AtFrac: f1, Op: "restore", Set: id},
		)
	}
	return c
}

// UplinkFailure fails n seeded leaf uplinks at sim time at: the single
// mid-run failure of §4's ideal-DRILL comparison. instant skips the
// RouteDelay reconvergence lag.
func UplinkFailure(n int, at units.Time, instant bool) *Campaign {
	return &Campaign{
		Name: "uplinkfail",
		Sets: []LinkSet{{ID: "uplinks", Uplinks: n}},
		Timeline: []CampaignAction{{AtUs: float64(at) / float64(units.Microsecond),
			Op: "fail", Set: "uplinks", Instant: instant}},
	}
}

// mergeCampaigns returns a campaign running both schedules. base's sets
// come first, so its seeded draws are unchanged; an extra set whose ID
// base already uses is renamed with extra's name as prefix.
func mergeCampaigns(base, extra *Campaign) *Campaign {
	m := &Campaign{
		Name:     base.Name + "+" + extra.Name,
		Sets:     append([]LinkSet(nil), base.Sets...),
		Timeline: append([]CampaignAction(nil), base.Timeline...),
	}
	used := map[string]bool{}
	for _, ls := range base.Sets {
		used[ls.ID] = true
	}
	renamed := map[string]string{}
	for _, ls := range extra.Sets {
		id := ls.ID
		for used[id] {
			id = extra.Name + "." + id
		}
		used[id] = true
		renamed[ls.ID] = id
		ls.ID = id
		m.Sets = append(m.Sets, ls)
	}
	for _, a := range extra.Timeline {
		a.Set = renamed[a.Set]
		m.Timeline = append(m.Timeline, a)
	}
	return m
}

// CampaignByName returns a built-in campaign preset: flapstorm, podfail,
// or rollingdrain.
func CampaignByName(name string) (*Campaign, bool) {
	switch name {
	case "flapstorm":
		return FlapStorm(2, 3), true
	case "podfail":
		return PodFailure(2), true
	case "rollingdrain":
		return RollingDrain(3), true
	}
	return nil, false
}
