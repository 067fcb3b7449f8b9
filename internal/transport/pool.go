package transport

import (
	"drill/internal/fabric"
	"drill/internal/sim"
)

// flowPool keeps the per-flow objects a shard domain's finished flows
// leave behind, for the next flows that domain opens: closed receivers
// with their shims, hold timers, GRO batchers, SACK-list capacity and
// bound callbacks, and finished senders' RTO timers with their callbacks.
// A reused object is reset to a new one's state. Flow handles (*Sender)
// are never pooled: a caller may keep one for the whole run.
//
// Inside a window only the domain's own shard touches its pool: a
// receiver opens and closes at its host, and a sender finishes at its
// host. StartFlow takes timers in barrier context, with every shard
// parked.
type flowPool struct {
	receivers []*Receiver
	timers    []*flowTimer
}

// flowTimer is a sender's RTO timer, held by value, and the callback bound
// to it once. It lives apart from its Sender so that a finished flow can
// hand both back to its pool while the handle stays valid.
type flowTimer struct {
	sim.Timer
	s *Sender // the flow it serves; nil while pooled
}

func (t *flowTimer) fire() { t.s.onTimeout() }

// pop removes and returns the last element of *list, or nil if it is empty.
func pop[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	x := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return x
}

// receiver returns a receiver opened on the flow of first: a pooled one,
// or a new one with a's registry's shim and batcher settings.
func (p *flowPool) receiver(a *Agent, first *fabric.Packet) *Receiver {
	r := pop(&p.receivers)
	if r == nil {
		r = newReceiver(a)
	}
	r.open(a, first)
	return r
}

// putReceiver resets a closed receiver and keeps it for reuse. Its shim
// must be idle: returning one that holds segments or has a hold armed
// panics.
func (p *flowPool) putReceiver(r *Receiver) {
	r.reset()
	p.receivers = append(p.receivers, r)
}

// timer returns an unarmed RTO timer on sm that runs s's onTimeout: a
// pooled one, or a new one.
func (p *flowPool) timer(sm *sim.Sim, s *Sender) *flowTimer {
	t := pop(&p.timers)
	if t == nil {
		t = new(flowTimer)
		t.Init(sm, t.fire)
	}
	t.s = s
	return t
}

// putTimer keeps a finished sender's RTO timer for reuse. Returning an
// armed timer panics: it would fire for a flow that has finished.
func (p *flowPool) putTimer(t *flowTimer) {
	if t.Armed() {
		panic("transport: an armed RTO timer returned to its pool")
	}
	t.s = nil
	p.timers = append(p.timers, t)
}
