package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"drill/internal/fabric"
)

// span is one timed interval of a traced run, in nanoseconds since the run
// started. Parent names the enclosing span: the tree is run → setup →
// {topo.build, lb.build_tables} and run → loop → lb.build_tables.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced run's spans in memory. Only the goroutine that
// runs set-up and global events (table builds happen in epoch rebuilds,
// which are barrier events under the sharded engine) records spans, so it
// needs no lock.
type recorder struct {
	origin time.Time
	phase  string // "setup" until the Hook, then "loop"
	spans  []span
}

// begin opens a span under the current phase; the returned func closes it.
func (r *recorder) begin(name string) func() {
	parent, start := r.phase, now()
	return func() { r.add(name, parent, start, now()) }
}

func (r *recorder) add(name, parent string, start, end time.Time) {
	r.spans = append(r.spans, span{Name: name, Parent: parent,
		Start: start.Sub(r.origin).Nanoseconds(), End: end.Sub(r.origin).Nanoseconds()})
}

// total sums the seconds of the spans with this name and parent.
func (r *recorder) total(name, parent string) float64 {
	var ns int64
	for _, s := range r.spans {
		if s.Name == name && s.Parent == parent {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// count is the number of spans with this name.
func (r *recorder) count(name string) int {
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// tracedBalancer observes a scheme's balancer from outside the program.
// Choose is forwarded unchanged and counted and timed per switch; every
// table build, at construction and at each epoch rebuild, becomes a span.
// It never steers: a traced run must reproduce the untraced fingerprint.
type tracedBalancer struct {
	inner fabric.Balancer
	rec   *recorder
	// Indexed by switch node ID. Each switch belongs to exactly one shard,
	// so under the sharded engine every slot has a single writer.
	calls, ns []int64
}

func newTracedBalancer(inner fabric.Balancer, nodes int, rec *recorder) *tracedBalancer {
	return &tracedBalancer{inner: inner, rec: rec, calls: make([]int64, nodes), ns: make([]int64, nodes)}
}

// checkWrappable refuses balancers with optional fabric interfaces the
// wrapper would hide from the network.
func checkWrappable(b fabric.Balancer) error {
	switch b.(type) {
	case fabric.TxObserver, fabric.ArriveObserver, fabric.SendHook, fabric.ShardUnsafe:
		return fmt.Errorf("balancer %s has hooks a traced wrapper would hide", b.Name())
	}
	return nil
}

func (b *tracedBalancer) Name() string { return b.inner.Name() }

func (b *tracedBalancer) Choose(net *fabric.Network, sw *fabric.Switch, eng *fabric.Engine, pkt *fabric.Packet) int32 {
	start := now()
	port := b.inner.Choose(net, sw, eng, pkt)
	b.ns[sw.Node] += now().Sub(start).Nanoseconds()
	b.calls[sw.Node]++
	return port
}

// BuildTables delegates to the inner TableBuilder, or installs the
// network's default tables as the fabric would.
func (b *tracedBalancer) BuildTables(net *fabric.Network) {
	defer b.rec.begin("lb.build_tables")()
	if tb, ok := b.inner.(fabric.TableBuilder); ok {
		tb.BuildTables(net)
		return
	}
	net.BuildDefaultTables()
}

// totals sums Choose calls and nanoseconds over all switches.
func (b *tracedBalancer) totals() (calls, ns int64) {
	for i := range b.calls {
		calls += b.calls[i]
		ns += b.ns[i]
	}
	return calls, ns
}

// writeChromeTrace writes each workload's spans as Chrome trace-event JSON
// (one process per workload), viewable in chrome://tracing or Perfetto.
func writeChromeTrace(path string, results []*result) error {
	type event struct {
		Name  string            `json:"name"`
		Phase string            `json:"ph"`
		TS    float64           `json:"ts"` // µs
		Dur   float64           `json:"dur,omitempty"`
		PID   int               `json:"pid"`
		TID   int               `json:"tid"`
		Args  map[string]string `json:"args,omitempty"`
	}
	var evs []event
	for i, r := range results {
		if len(r.spans) == 0 {
			continue
		}
		evs = append(evs, event{Name: "process_name", Phase: "M", PID: i + 1, TID: 1,
			Args: map[string]string{"name": r.w.name}})
		for _, s := range r.spans {
			evs = append(evs, event{Name: s.Name, Phase: "X", PID: i + 1, TID: 1,
				TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
				Args: map[string]string{"parent": s.Parent}})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
