// Package experiments regenerates every table and figure of the DRILL
// paper's evaluation (§4) plus the ablations DESIGN.md calls out. Each
// experiment is registered by id ("fig6a", "table1", ...) and produces a
// Report with the same rows/series the paper plots.
//
// The paper's runs use up to 48×48×48 Clos fabrics simulated for 100 s;
// this package defaults to reduced topologies and millisecond-scale
// windows that preserve the comparisons' *shape* (who wins, by what
// factor) on a single-core machine, and interpolates toward the paper's
// parameters as Options.Scale → 1.
package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"drill/internal/fabric"
	"drill/internal/obs"
	"drill/internal/trace"
	"drill/internal/units"
)

// Options controls an experiment invocation.
type Options struct {
	// Seed makes runs reproducible; experiments derive per-run seeds.
	Seed int64
	// Scale in [0,1] interpolates between quick single-core defaults (0)
	// and the paper's full parameters (1).
	Scale float64
	// Loads overrides the offered-load sweep points, when the experiment
	// has one.
	Loads []float64
	// Reps replicates each FCT-sweep cell across that many seeds and pools
	// the samples (default 1), in the experiments whose PoolsReps is set.
	// Raises run time linearly.
	Reps int
	// Workers bounds the number of concurrent simulation runs during sweep
	// fan-out: 0 = one per CPU, 1 = fully sequential. Reports are
	// byte-identical for a fixed seed at any worker count.
	Workers int
	// Progress, when non-nil, receives one line per completed run. The
	// fan-out pool serializes calls, so the callback may touch shared
	// state without locking.
	Progress func(format string, args ...any)

	// Shards > 0 runs every sweep cell on the sharded parallel engine with
	// that many shards (see RunCfg.Shards); results are byte-identical to
	// the sequential engine at any shard count. Ignored when a TraceSink
	// is attached: full-kind tracing is a sequential-engine feature, and
	// -trace runs double as the determinism reference.
	Shards int

	// Campaign, when non-nil, installs this scripted fail/restore timeline
	// into every sweep cell (see campaign.go and RunCfg.Campaign). A cell
	// that carries its own campaign runs both, its own sets first.
	Campaign *Campaign

	// TraceSink, when non-nil, streams every run's packet-lifecycle events
	// into the sink, each run tagged with its cell index. Tracing forces
	// the sweep sequential (workers=1): a shared file sink is not safe for,
	// and its interleaving not meaningful under, concurrent runs.
	TraceSink trace.Sink
	// TraceSample is the queue-depth/utilization sampling period used when
	// tracing is on (default 10µs).
	TraceSample units.Time

	// ExpID is the id of the experiment being run ("fig6a", ...). drillsim
	// sets it before invoking Experiment.Run; it labels metric series and
	// manifest rows, and is otherwise inert.
	ExpID string
	// Obs, when non-nil, attaches the live metrics registry to every run
	// of the sweep: per-cell fabric, transport and engine observatory
	// families under exp/cell labels, a runner family (cells done,
	// events/s, sim-rate), and a sim-time snapshotter per run. Metrics
	// observe, never steer — reports stay byte-identical with Obs on or
	// off.
	Obs *obs.Registry
	// ObsSample overrides the per-run snapshot interval (default 100µs).
	ObsSample units.Time
	// EngineSink, when non-nil, receives each completed cell's engine
	// report, tagged with the cell index. Calls are serialized by the
	// fan-out pool's done callbacks, so the sink may touch shared state
	// (a stderr printer, the /engine.json atomic pointer) without locking.
	EngineSink func(cell int, rep *obs.EngineReport)
	// Manifest, when non-nil, collects one provenance row per completed
	// cell, in submission order regardless of worker count. The caller
	// writes it next to the experiment output.
	Manifest *obs.Manifest
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale < 0 {
		o.Scale = 0
	}
	if o.Scale > 1 {
		o.Scale = 1
	}
	if o.Reps < 1 {
		o.Reps = 1
	}
	if o.TraceSample == 0 {
		o.TraceSample = 10 * units.Microsecond
	}
}

func (o *Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// runAll fans cfgs out on the option's worker count; see RunAll. With a
// TraceSink configured, each cell that does not already carry a tracer of
// its own gets one tagged with the cell index, and the sweep degrades to
// sequential so the shared sink sees runs whole and in order.
func (o *Options) runAll(cfgs []RunCfg, done func(i int, res *RunResult)) []*RunResult {
	w := o.Workers
	if o.TraceSink != nil {
		w = 1
		for i := range cfgs {
			if cfgs[i].Tracer == nil {
				cfgs[i].Tracer = trace.New(o.TraceSink, trace.WithRun(int32(i)))
				cfgs[i].TraceSample = o.TraceSample
			}
		}
	}
	if o.Shards > 0 && o.TraceSink == nil {
		// Shard-unsafe balancers (CONGA, per-flow and flowcell DRILL)
		// keep the sequential engine; because both engines
		// produce identical bytes, a sweep mixing engines per cell is
		// still one coherent report. The fallback is announced — once per
		// scheme — and the engine each cell actually ran on is recorded in
		// its provenance row (CellSummary.Engine), so a "-shards N" sweep
		// never silently misrepresents what executed.
		noticed := map[string]bool{}
		for i := range cfgs {
			if cfgs[i].Shards == 0 && cfgs[i].Scheme.New != nil {
				if _, unsafe := cfgs[i].Scheme.New().(fabric.ShardUnsafe); unsafe {
					if !noticed[cfgs[i].Scheme.Name] {
						noticed[cfgs[i].Scheme.Name] = true
						o.progress("note: scheme %s is shard-unsafe; its cells run on the sequential engine (recorded in the manifest)",
							cfgs[i].Scheme.Name)
					}
				} else {
					cfgs[i].Shards = o.Shards
				}
			}
		}
	}
	if o.Campaign != nil {
		for i := range cfgs {
			if cfgs[i].Campaign == nil {
				cfgs[i].Campaign = o.Campaign
			} else {
				cfgs[i].Campaign = mergeCampaigns(cfgs[i].Campaign, o.Campaign)
			}
		}
	}
	if o.Obs != nil {
		rm := newRunnerMetrics(o.Obs, o.ExpID, len(cfgs))
		for i := range cfgs {
			if cfgs[i].Obs == nil {
				cfgs[i].Obs = o.Obs
				cfgs[i].ObsScope = cellScope(o.ExpID, i)
				cfgs[i].ObsSample = o.ObsSample
			}
		}
		inner := done
		done = func(i int, res *RunResult) {
			rm.observe(res) // done callbacks are serialized by the pool
			if inner != nil {
				inner(i, res)
			}
		}
	}
	if o.EngineSink != nil {
		inner := done
		done = func(i int, res *RunResult) {
			o.EngineSink(i, res.EngineRep) // serialized by the pool
			if inner != nil {
				inner(i, res)
			}
		}
	}
	results := RunAll(cfgs, w, done)
	if o.Manifest != nil {
		// Collected from the returned slice, not the done callback, so
		// manifest rows are in submission order at any worker count.
		for i, res := range results {
			if res == nil {
				continue
			}
			cs := res.Prov
			cs.Exp = o.ExpID
			cs.Cell = strconv.Itoa(i)
			o.Manifest.Add(cs)
		}
	}
	return results
}

// timing renders the per-cell run-timing suffix of progress lines.
func timing(res *RunResult) string {
	secs := res.Wall.Seconds()
	evs := 0.0
	if secs > 0 {
		evs = float64(res.Events) / secs
	}
	return fmt.Sprintf("wall=%.2fs ev/s=%.3g sim/real=%.3g", secs, evs, res.SimRate())
}

// loads returns the experiment's load sweep, honoring any override.
func (o *Options) loads(def []float64) []float64 {
	if len(o.Loads) > 0 {
		return o.Loads
	}
	return def
}

// lerpInt interpolates an integer parameter between the quick default and
// the paper's value.
func lerpInt(small, paper int, scale float64) int {
	v := float64(small) + scale*float64(paper-small)
	n := int(v + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// lerpTime interpolates a duration parameter.
func lerpTime(small, paper units.Time, scale float64) units.Time {
	return small + units.Time(scale*float64(paper-small))
}

// Report is an experiment's result table.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a free-form note shown under the table.
func (r *Report) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Format renders the report as an aligned text table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(r.Columns)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Experiment is a registered, runnable evaluation artifact.
type Experiment struct {
	ID    string
	Title string
	// PoolsReps reports whether Run pools Options.Reps replications per
	// sweep cell; the other experiments run one replication whatever Reps
	// says.
	PoolsReps bool
	Run       func(o Options) *Report
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given id, or nil.
func Get(id string) *Experiment { return registry[id] }

// All returns every registered experiment sorted by id.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// fmtMs formats a milliseconds value for report cells.
func fmtMs(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtF formats a generic float.
func fmtF(v float64) string { return fmt.Sprintf("%.3g", v) }
