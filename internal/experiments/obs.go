package experiments

import (
	"fmt"

	"drill/internal/obs"
)

// runnerMetrics is the experiment runner's metric family: sweep-level
// progress visible on a live scrape while cells are still running. It is
// updated only from the fan-out pool's serialized done callbacks, never
// from inside a simulation, so it has no determinism surface at all.
type runnerMetrics struct {
	cellsDone  *obs.Counter
	cellsTotal *obs.Counter
	events     *obs.Counter
	flows      *obs.Counter
	evRate     *obs.Gauge
	simRate    *obs.Gauge
}

// cellScope renders the per-cell label body for fabric/transport series.
func cellScope(expID string, cell int) string {
	if expID == "" {
		return fmt.Sprintf(`cell="%d"`, cell)
	}
	return fmt.Sprintf(`exp=%q,cell="%d"`, expID, cell)
}

func newRunnerMetrics(reg *obs.Registry, expID string, total int) *runnerMetrics {
	scope := ""
	if expID != "" {
		scope = fmt.Sprintf(`exp=%q`, expID)
	}
	rm := &runnerMetrics{
		cellsDone: reg.Counter("drill_runner_cells_done_total", scope,
			"Sweep cells completed."),
		cellsTotal: reg.Counter("drill_runner_cells_total", scope,
			"Sweep cells submitted."),
		events: reg.Counter("drill_runner_events_total", scope,
			"Simulation events dispatched across completed cells."),
		flows: reg.Counter("drill_runner_flows_total", scope,
			"Flows started across completed cells."),
		evRate: reg.Gauge("drill_runner_events_per_second", scope,
			"Events per wall second of the most recently completed cell."),
		simRate: reg.Gauge("drill_runner_sim_rate", scope,
			"Simulated seconds per wall second of the most recently completed cell."),
	}
	rm.cellsTotal.Add(int64(total))
	return rm
}

func (rm *runnerMetrics) observe(res *RunResult) {
	rm.cellsDone.Inc()
	rm.events.Add(int64(res.Events))
	rm.flows.Add(res.Flows)
	if secs := res.Wall.Seconds(); secs > 0 {
		rm.evRate.Set(float64(res.Events) / secs)
	}
	rm.simRate.Set(res.SimRate())
}
