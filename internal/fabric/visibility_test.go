package fabric

import (
	"fmt"
	"math/rand"
	"testing"

	"drill/internal/sim"
	"drill/internal/units"
)

// visModel is the eager reference for one port's visibility counters: one
// scheduler event per update, dispatched at the update's reserved (at,
// key) through a re-armed registered callback — the schedule the port's
// settled-when-read counters must reproduce. It mirrors every operation
// the test applies to the port, and the port's settled counters must
// equal its counters at every read.
type visModel struct {
	s     *sim.Sim
	id    sim.FnID
	ring  []visEntry
	pkts  int32
	bytes int64
	skip  int32
}

func newVisModel(s *sim.Sim) *visModel {
	m := &visModel{s: s}
	m.id = s.Register(m.fire)
	return m
}

// push schedules the update the port just parked, under the same key.
func (m *visModel) push(e visEntry) {
	m.ring = append(m.ring, e)
	if len(m.ring) == 1 {
		m.s.AtKeyID(e.at, e.key, m.id)
	}
}

// fire applies the head update and re-arms the next at its reserved slot.
func (m *visModel) fire() {
	e := m.ring[0]
	m.ring = m.ring[1:]
	if len(m.ring) > 0 {
		m.s.AtKeyID(m.ring[0].at, m.ring[0].key, m.id)
	}
	if m.skip > 0 {
		m.skip--
		return
	}
	m.pkts++
	m.bytes += int64(e.size)
}

func (m *visModel) depart(size units.ByteSize) {
	if m.pkts > 0 {
		m.pkts--
		m.bytes -= int64(size)
		return
	}
	m.skip++
}

// visCase is one port under test with its reference and its waiting
// queue (sizes in FIFO order).
type visCase struct {
	p       *Port
	m       *visModel
	waiting []units.ByteSize
}

// visCoverage counts the situations the property must reach.
type visCoverage struct {
	outrun      int // departures whose update had not yet taken effect
	readsBefore int // reads at an update's instant, keyed before it
	readsAfter  int // reads at an update's instant, keyed after it
	reads       int
}

// TestVisibilitySettledMatchesEager drives ports through random enqueues,
// departures, drains and reads — from inside events, and from outside the
// run loop after RunUntil and RunBefore park the clock — and compares the
// settled visibility counters with the eager reference at every read.
// Reads are also placed at exactly an update's instant, keyed both before
// and after the update, and departures often outrun their update.
func TestVisibilitySettledMatchesEager(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	var cov visCoverage
	for seed := int64(0); seed < int64(iters); seed++ {
		if err := runVisScript(seed, &cov); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if cov.outrun == 0 || cov.readsBefore == 0 || cov.readsAfter == 0 {
		t.Fatalf("script missed a case: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}

func runVisScript(seed int64, cov *visCoverage) error {
	rng := rand.New(rand.NewSource(seed))
	s := sim.New(seed)
	// Delays on and off the 20ns op grid, so updates land both on op
	// instants and between them.
	delays := []units.Time{60, 40, 75}
	ports := make([]*visCase, len(delays))
	for i, d := range delays {
		ports[i] = &visCase{p: &Port{Index: int32(i), visDelay: d, dom: &domain{sim: s}}, m: newVisModel(s)}
	}
	var failure error
	check := func(c *visCase, where string) {
		if failure != nil {
			return
		}
		cov.reads++
		vb := c.p.VisibleBytes()
		if vb != c.m.bytes || c.p.VisPkts != c.m.pkts || c.p.visSkip != c.m.skip {
			failure = fmt.Errorf("%s @%d port %d: settled pkts/bytes/skip %d/%d/%d, eager %d/%d/%d",
				where, s.Now(), c.p.Index, c.p.VisPkts, vb, c.p.visSkip, c.m.pkts, c.m.bytes, c.m.skip)
		}
	}
	enqueue := func(c *visCase, size units.ByteSize) {
		at := s.Now() + c.p.visDelay
		if rng.Intn(3) == 0 {
			// Keyed before the update reserved next.
			s.At(at, func() { cov.readsBefore++; check(c, "read before update key") })
		}
		c.p.pushVisibility(size)
		c.m.push(c.p.visRing.buf[len(c.p.visRing.buf)-1])
		c.waiting = append(c.waiting, size)
		if rng.Intn(3) == 0 {
			s.At(at, func() { cov.readsAfter++; check(c, "read after update key") })
		}
	}
	depart := func(c *visCase) {
		if len(c.waiting) == 0 {
			return
		}
		size := c.waiting[0]
		c.waiting = c.waiting[1:]
		if c.m.pkts == 0 {
			cov.outrun++
		}
		c.p.departVisibility(size)
		c.m.depart(size)
	}

	const ops = 200
	for i := 0; i < ops; i++ {
		c := ports[rng.Intn(len(ports))]
		at := units.Time(rng.Intn(150)) * 20
		switch op := rng.Intn(10); {
		case op < 4:
			size := units.ByteSize(64 + rng.Intn(1455))
			s.At(at, func() { enqueue(c, size) })
		case op < 7:
			s.At(at, func() { depart(c) })
		case op < 8:
			s.At(at, func() {
				for len(c.waiting) > 0 {
					depart(c)
				}
			})
		default:
			s.At(at, func() { check(c, "read") })
		}
	}
	// Advance in random strides, reading every port at each parked
	// instant — RunUntil leaves all of the instant dispatched, RunBefore
	// none of it — either from outside the run loop or from a global
	// event scheduled at the instant, which after RunUntil sorts behind
	// the updates already settled there and must not pull the frontier
	// back.
	for s.Now() < 3200 && failure == nil {
		to := s.Now() + units.Time(rng.Intn(12))*20
		where := "after RunUntil"
		if rng.Intn(2) == 0 {
			s.RunUntil(to)
		} else {
			s.RunBefore(to)
			where = "after RunBefore"
		}
		if rng.Intn(2) == 0 {
			for _, c := range ports {
				check(c, where)
			}
			continue
		}
		s.AtGlobal(s.Now(), func() {
			for _, c := range ports {
				check(c, "global event scheduled "+where)
			}
		})
	}
	s.Run()
	for _, c := range ports {
		check(c, "after Run")
		if !c.p.visRing.empty() || len(c.m.ring) != 0 {
			return fmt.Errorf("port %d: updates left after Run: settled ring %d, eager ring %d",
				c.p.Index, c.p.visRing.len(), len(c.m.ring))
		}
	}
	return failure
}
