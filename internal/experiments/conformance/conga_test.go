package conformance

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"drill/internal/experiments"
	"drill/internal/obs"
	"drill/internal/topo"
	"drill/internal/trace"
	"drill/internal/units"
)

// congaCells are CONGA on the conformance fabric: one cell at 80% load,
// one with four forwarding engines per switch, and one under a flap storm
// whose reconvergences rebuild CONGA's tables mid-run. CONGA is
// ShardUnsafe, so they run on the sequential engine only and stay out of
// Cells().
func congaCells() []experiments.RunCfg {
	base := experiments.RunCfg{
		Topo: confTopo, Scheme: experiments.MustScheme("CONGA"),
		Warmup:  100 * units.Microsecond,
		Measure: 400 * units.Microsecond,
	}
	loaded, engines, flap := base, base, base
	loaded.Seed, loaded.Load = 5, 0.8
	engines.Seed, engines.Load, engines.Engines = 6, 0.5, 4
	flap.Seed, flap.Load = 7, 0.5
	flap.Campaign, flap.RouteDelay = experiments.FlapStorm(2, 2), 60*units.Microsecond
	return []experiments.RunCfg{loaded, engines, flap}
}

// congaPlain is each CONGA cell's fingerprint with nothing attached,
// shared by the tests below.
var congaPlain = sync.OnceValue(func() []string {
	var fps []string
	for _, cfg := range congaCells() {
		fps = append(fps, Fingerprint(experiments.Run(cfg)))
	}
	return fps
})

// waking returns cfg with a count-only tx-start tracer, which makes every
// port wake at its departures, so each of CONGA's OnTx calls runs at its
// own instant.
func waking(cfg experiments.RunCfg) experiments.RunCfg {
	cfg.Tracer = trace.New(nil, trace.WithKinds(trace.TxStart))
	return cfg
}

// TestCONGASettledMatchesWaking holds CONGA's settled-when-read DREs to a
// run whose ports wake at every departure, and to one with metrics, whose
// snapshots settle every port and so apply CONGA's transmits: equal
// fingerprints, events included. A Choose that read a DRE without
// settling its port first would apply transmits after a later decay (the
// guard panics) or miss them.
func TestCONGASettledMatchesWaking(t *testing.T) {
	for i, cfg := range congaCells() {
		metered := cfg
		metered.Obs, metered.ObsScope, metered.ObsSample = obs.NewRegistry(8), obsScope, 50*units.Microsecond
		for name, v := range map[string]experiments.RunCfg{"waking": waking(cfg), "metered": metered} {
			if got, want := Fingerprint(experiments.Run(v)), congaPlain()[i]; got != want {
				t.Errorf("CONGA cell %d (seed=%d): the %s run diverges:\n--- settled\n%s--- %s\n%s",
					i, cfg.Seed, name, want, name, got)
			}
		}
	}
}

// eventsField is a fingerprint's event count.
var eventsField = regexp.MustCompile(`events=(\d+)`)

// TestCONGAMatchesRecordedFingerprints holds the CONGA cells to the
// fingerprints testdata/conga.golden recorded while a daemon ticker
// decayed every DRE each 50µs: every field is unchanged, and events is
// lower by exactly the decay instants the run covers, which were events
// then.
func TestCONGAMatchesRecordedFingerprints(t *testing.T) {
	raw, err := os.ReadFile("testdata/conga.golden")
	if err != nil {
		t.Fatal(err)
	}
	recorded := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n\n")
	cells := congaCells()
	if len(recorded) != len(cells) {
		t.Fatalf("testdata/conga.golden holds %d fingerprints, want %d", len(recorded), len(cells))
	}
	const drain = 20 * units.Millisecond // Run's default DrainLimit
	for i, cfg := range cells {
		instants := uint64((cfg.Warmup + cfg.Measure + drain) / (50 * units.Microsecond))
		old := recorded[i] + "\n"
		n, err := strconv.ParseUint(eventsField.FindStringSubmatch(old)[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := eventsField.ReplaceAllLiteralString(old, "events="+strconv.FormatUint(n-instants, 10))
		if got := congaPlain()[i]; got != want {
			t.Errorf("CONGA cell %d (seed=%d) moved:\n--- recorded, %d decay instants fewer\n%s--- now\n%s",
				i, cfg.Seed, instants, want, got)
		}
	}
}

// FuzzCONGASettledVsWaking randomizes seed, load, forwarding engines and
// an optional flap campaign on a small leaf–spine fabric, and requires the
// settled run's fingerprint to equal the waking run's. A transmit applied
// after a later decay panics in CONGA's guard and fails the input.
func FuzzCONGASettledVsWaking(f *testing.F) {
	// Each seed trips the guard when Choose reads a DRE without settling
	// its port first.
	f.Add(int64(-54), uint8(58), uint8(1), uint8(0))
	f.Add(int64(8), uint8(50), uint8(0), uint8(2))
	f.Add(int64(26), uint8(50), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, loadPct, engines, flaps uint8) {
		cfg := experiments.RunCfg{
			Topo: func() *topo.Topology {
				return topo.LeafSpine(topo.LeafSpineConfig{
					Spines: 3, Leaves: 4, HostsPerLeaf: 6,
					HostRate: 10 * units.Gbps, CoreRate: 40 * units.Gbps,
				})
			},
			Scheme: experiments.MustScheme("CONGA"), Seed: seed,
			Load:    0.1 + float64(loadPct%90)/100,
			Engines: 1 + int(engines)%4,
			Warmup:  50 * units.Microsecond,
			Measure: 200 * units.Microsecond,
		}
		if c := int(flaps) % 4; c > 0 {
			cfg.Campaign, cfg.RouteDelay = experiments.FlapStorm(1, c), 60*units.Microsecond
		}
		want := Fingerprint(experiments.Run(cfg))
		if got := Fingerprint(experiments.Run(waking(cfg))); got != want {
			t.Errorf("seed=%d load=%.2f engines=%d flaps=%d: the waking run diverges:\n--- settled\n%s--- waking\n%s",
				seed, cfg.Load, cfg.Engines, flaps%4, want, got)
		}
	})
}
