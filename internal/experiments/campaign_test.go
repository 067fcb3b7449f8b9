package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"drill/internal/topo"
	"drill/internal/transport"
	"drill/internal/units"
)

func campaignTopo() *topo.Topology {
	return topo.LeafSpine(topo.LeafSpineConfig{
		Spines: 2, Leaves: 4, HostsPerLeaf: 2,
		HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps,
	})
}

func TestCampaignValidate(t *testing.T) {
	leaf := 0
	bad := []Campaign{
		{Name: "empty"},
		{Name: "noid", Sets: []LinkSet{{Uplinks: 1}},
			Timeline: []CampaignAction{{AtFrac: 0.5, Op: "fail", Set: ""}}},
		{Name: "twosel", Sets: []LinkSet{{ID: "x", Uplinks: 1, Leaf: &leaf}},
			Timeline: []CampaignAction{{AtFrac: 0.5, Op: "fail", Set: "x"}}},
		{Name: "badop", Sets: []LinkSet{{ID: "x", Uplinks: 1}},
			Timeline: []CampaignAction{{AtFrac: 0.5, Op: "flap", Set: "x"}}},
		{Name: "unknownset", Sets: []LinkSet{{ID: "x", Uplinks: 1}},
			Timeline: []CampaignAction{{AtFrac: 0.5, Op: "fail", Set: "y"}}},
		{Name: "notime", Sets: []LinkSet{{ID: "x", Uplinks: 1}},
			Timeline: []CampaignAction{{Op: "fail", Set: "x"}}},
		{Name: "dupset", Sets: []LinkSet{{ID: "x", Uplinks: 1}, {ID: "x", Uplinks: 2}},
			Timeline: []CampaignAction{{AtFrac: 0.5, Op: "fail", Set: "x"}}},
		{Name: "pastclock", Sets: []LinkSet{{ID: "x", Uplinks: 1}},
			Timeline: []CampaignAction{{AtUs: 9.3e15, Op: "fail", Set: "x"}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("campaign %q validated, want error", bad[i].Name)
		}
	}
	for _, name := range []string{"flapstorm", "podfail", "rollingdrain"} {
		c, ok := CampaignByName(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
}

func TestCampaignResolveDeterministicAndScoped(t *testing.T) {
	tp := campaignTopo()
	leaf := 1
	c := &Campaign{
		Name: "mix",
		Sets: []LinkSet{
			{ID: "rand", Uplinks: 2},
			{ID: "pod", Leaf: &leaf},
			{ID: "explicit", Links: []int32{0}},
		},
		Timeline: []CampaignAction{{AtFrac: 0.5, Op: "fail", Set: "rand"}},
	}
	a, err := c.resolve(tp, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.resolve(campaignTopo(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed resolved differently: %v vs %v", a, b)
	}
	other, err := c.resolve(tp, 43)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a["rand"], other["rand"]) {
		t.Log("note: seeds 42 and 43 drew the same uplinks (possible but unlikely)")
	}
	if len(a["rand"]) != 2 {
		t.Errorf("rand set resolved %d links, want 2", len(a["rand"]))
	}
	// Every pod link must touch leaf 1 and no host.
	if len(a["pod"]) != 2 { // 2 spines × 1 leaf
		t.Errorf("pod set resolved %d links, want 2", len(a["pod"]))
	}
	for _, id := range a["pod"] {
		l := tp.Links[id]
		if l.A != tp.Leaves[1] && l.B != tp.Leaves[1] {
			t.Errorf("pod link %d does not touch leaf 1", id)
		}
	}
	if !reflect.DeepEqual(a["explicit"], []topo.LinkID{0}) {
		t.Errorf("explicit set resolved to %v", a["explicit"])
	}

	// Out-of-range selectors fail loudly, not silently-empty.
	badLeaf := 99
	for _, c := range []*Campaign{
		{Name: "badleaf", Sets: []LinkSet{{ID: "x", Leaf: &badLeaf}},
			Timeline: []CampaignAction{{AtFrac: 0.5, Op: "fail", Set: "x"}}},
		{Name: "badlink", Sets: []LinkSet{{ID: "x", Links: []int32{9999}}},
			Timeline: []CampaignAction{{AtFrac: 0.5, Op: "fail", Set: "x"}}},
	} {
		if _, err := c.resolve(tp, 1); err == nil {
			t.Errorf("campaign %q resolved, want error", c.Name)
		}
	}
}

func TestCampaignFingerprintDistinguishes(t *testing.T) {
	a, b := FlapStorm(2, 3), FlapStorm(2, 4)
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different campaigns share a fingerprint")
	}
	if a.Fingerprint() != FlapStorm(2, 3).Fingerprint() {
		t.Error("identical campaigns have different fingerprints")
	}
	var nilC *Campaign
	if nilC.Fingerprint() != "" {
		t.Error("nil campaign should fingerprint empty")
	}
}

func TestLoadCampaignJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	good := `{
	  "name": "flap",
	  "sets": [{"id": "storm", "uplinks": 2}, {"id": "pod", "leaf": 1}],
	  "timeline": [
	    {"atUs": 150, "op": "fail", "set": "storm"},
	    {"atFrac": 0.6, "op": "restore", "set": "storm", "instant": true}
	  ]
	}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCampaign(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "flap" || len(c.Sets) != 2 || len(c.Timeline) != 2 {
		t.Errorf("parsed campaign %+v", c)
	}
	if c.Sets[1].Leaf == nil || *c.Sets[1].Leaf != 1 {
		t.Error("leaf selector not parsed")
	}
	if c.Timeline[0].AtUs != 150 || !c.Timeline[1].Instant {
		t.Error("timeline fields not parsed")
	}
	if err := os.WriteFile(path, []byte(`{"timeline": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCampaign(path); err == nil {
		t.Error("invalid campaign file loaded without error")
	}
}

// TestCampaignRunMatchesManualSchedule proves the campaign layer is pure
// sugar: a campaign run and a hand-scheduled FailLink/RestoreLink run
// produce identical results.
func TestCampaignRunMatchesManualSchedule(t *testing.T) {
	sc, _ := SchemeByName("DRILL")
	base := RunCfg{
		Topo: campaignTopo, Scheme: sc, Seed: 5, Load: 0.5,
		Warmup: 50 * units.Microsecond, Measure: 200 * units.Microsecond,
		RouteDelay: 40 * units.Microsecond,
	}

	viaCampaign := base
	viaCampaign.Campaign = &Campaign{
		Name: "explicit",
		Sets: []LinkSet{{ID: "one", Links: []int32{0}}},
		Timeline: []CampaignAction{
			{AtUs: 80, Op: "fail", Set: "one"},
			{AtUs: 160, Op: "restore", Set: "one"},
		},
	}
	a := Run(viaCampaign)

	manual := base
	manual.Hook = func(reg *transport.Registry, until units.Time) {
		reg.Sim.AtGlobal(80*units.Microsecond, func() { reg.Net.FailLink(0, false) })
		reg.Sim.AtGlobal(160*units.Microsecond, func() { reg.Net.RestoreLink(0, false) })
	}
	b := Run(manual)

	if a.Delivered != b.Delivered || a.Drops != b.Drops || a.Sent != b.Sent ||
		a.Epochs != b.Epochs || a.FCT.Count() != b.FCT.Count() {
		t.Errorf("campaign run and manual run diverge: %+v vs %+v",
			[5]int64{a.Delivered, a.Drops, a.Sent, int64(a.Epochs), int64(a.FCT.Count())},
			[5]int64{b.Delivered, b.Drops, b.Sent, int64(b.Epochs), int64(b.FCT.Count())})
	}
}

// TestCampaignOptionMergesWithCellCampaign: -campaign on a sweep whose
// cells carry their own failure campaign runs both schedules, without
// moving the cell's seeded draw.
func TestCampaignOptionMergesWithCellCampaign(t *testing.T) {
	own, user := UplinkFailure(2, 60*units.Microsecond, false), FlapStorm(1, 2)
	merged := mergeCampaigns(own, user)
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	sets, err := merged.resolve(campaignTopo(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// The cell's draw is the one a fabric that starts degraded makes.
	var down []topo.LinkID
	for _, l := range FailedUplinks(campaignTopo, 2, 5)().Links {
		if !l.Up {
			down = append(down, l.ID)
		}
	}
	if !reflect.DeepEqual(sets["uplinks"], down) {
		t.Errorf("merged campaign drew %v for the cell's set, the degraded fabric %v", sets["uplinks"], down)
	}
	if twice := mergeCampaigns(user, user); twice.Validate() != nil || len(twice.Sets) != 2 {
		t.Errorf("merging a campaign with itself gave sets %+v", twice.Sets)
	}

	cell := RunCfg{
		Topo: campaignTopo, Scheme: MustScheme("DRILL"), Seed: 5, Load: 0.5,
		Warmup: 50 * units.Microsecond, Measure: 200 * units.Microsecond,
		RouteDelay: 20 * units.Microsecond, Campaign: own,
	}
	alone := Run(cell)
	o := Options{Workers: 1, Campaign: user}
	both := o.runAll([]RunCfg{cell}, nil)[0]
	if both.Epochs <= alone.Epochs || both.Prov.ConfigHash == alone.Prov.ConfigHash {
		t.Errorf("-campaign was dropped: epochs %d with it, %d without", both.Epochs, alone.Epochs)
	}
}

// TestPodFailureTimeline pins the pod-failure preset: every pod fails at
// 35% of the window and returns at 70%, fail actions first, pods in order
// within each group. The fingerprints hash every field and were recorded
// while the preset still sorted its timeline.
func TestPodFailureTimeline(t *testing.T) {
	want := map[int]string{
		1: "302e053bbf1c97858dedb73cedd8f6f7",
		2: "14467d9c9c7cfd0466986ddda0c9977e",
		3: "da4bded5bbc7a5643e8613ce68306cb3",
		4: "38f7b524397ab22a3e982a19d933986e",
	}
	for n := 1; n <= 4; n++ {
		if got := PodFailure(n).Fingerprint(); got != want[n] {
			t.Errorf("PodFailure(%d) fingerprint %s, want %s", n, got, want[n])
		}
	}
	leaf0, leaf1 := 0, 1
	two := &Campaign{
		Name: "podfail",
		Sets: []LinkSet{{ID: "pod0", Leaf: &leaf0}, {ID: "pod1", Leaf: &leaf1}},
		Timeline: []CampaignAction{
			{AtFrac: 0.35, Op: "fail", Set: "pod0"},
			{AtFrac: 0.35, Op: "fail", Set: "pod1"},
			{AtFrac: 0.70, Op: "restore", Set: "pod0"},
			{AtFrac: 0.70, Op: "restore", Set: "pod1"},
		},
	}
	if got := PodFailure(2); !reflect.DeepEqual(got, two) {
		t.Errorf("PodFailure(2) = %+v, want %+v", got, two)
	}
}
