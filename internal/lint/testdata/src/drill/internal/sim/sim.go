// Package sim is a fixture stub of the scheduler's scheduling surface,
// just enough signature for the hotpath analyzer's closure-scheduling
// rule to resolve callees against.
package sim

// Sim mirrors the scheduler's scheduling entry points.
type Sim struct{}

func (s *Sim) After(d int64, fn func())                 {}
func (s *Sim) At(t int64, fn func())                    {}
func (s *Sim) AtSeq(t int64, seq uint64, fn func())     {}
func (s *Sim) AtPort(t int64, key uint64, port int32)   {}
func (s *Sim) OnPort(fn func(port int32, arrival bool)) {}
func (s *Sim) NewTimer(fn func()) *Timer                { return &Timer{} }
func (s *Sim) Now() int64                               { return 0 }

// Global/barrier-class scheduling: callbacks run on the global sim
// between shard windows, so they are not shard-worker roots.
func (s *Sim) AtGlobal(t int64, fn func())      {}
func (s *Sim) AfterGlobal(d int64, fn func())   {}
func (s *Sim) AfterObserver(d int64, fn func()) {}

// Timer mirrors the cancellable timer.
type Timer struct{}

func (t *Timer) Reset(d int64) {}
func (t *Timer) Stop() bool    { return false }
