// Package sim provides the deterministic discrete-event engines that
// substitute for the paper's wall-clock testbed runs. Node logic is written
// against the Clock interface and never blocks; events execute in virtual-
// time order, so a 30-minute experiment completes in milliseconds and every
// run is reproducible from its seed.
//
// Two engines implement the Executor interface:
//
//   - Scheduler: the minimal event loop for unit tests. Every port
//     shares its one clock and one random stream.
//   - Kernel (kernel.go): the network simulator's engine. It also runs
//     one queue on one goroutine, like the paper's single-threaded
//     daemon, but gives each node its own Port, sequence numbers and
//     derived random stream, and enforces the cross-node scheduling
//     contract.
//
// A RealClock implementation of the same Clock interface lets identical
// node code run live on goroutine timers (used by the examples' live mode).
package sim

import (
	"math/rand"
	"sync"
	"time"
)

// Clock is the time service node logic is written against.
type Clock interface {
	// Now returns the current time as an offset from the experiment start.
	Now() time.Duration
	// After schedules fn to run once, d from now. It returns a Timer that
	// can cancel the callback before it fires.
	After(d time.Duration, fn func()) Timer
}

// Timer is a cancellable pending callback.
type Timer interface {
	// Cancel stops the timer; it reports whether the callback was still
	// pending (and is now guaranteed not to run).
	Cancel() bool
}

// Env is the scheduling surface one node's protocol stack runs against: a
// clock, a deterministic random stream, and the transmission-commit timer.
type Env interface {
	Clock
	// AfterTx schedules a transmission-commit event: the only kind of
	// event allowed to put a frame on the air (and hence to schedule
	// cross-node work). Engines may clamp d up to the configured radio
	// turnaround time; the MAC models that turnaround explicitly, so the
	// clamp is never hit in practice.
	AfterTx(d time.Duration, fn func()) Timer
	// Rand returns the stream all of this context's randomness must come
	// from, so runs are reproducible.
	Rand() *rand.Rand
}

// Port is one node's scheduling handle. Everything a node schedules goes
// through its own Port; cross-node effects go through ScheduleRemote, so
// the only way one node can affect another is a frame on the air.
type Port interface {
	Env
	// ScheduleRemote schedules fn to run in node to's context, d from now.
	// It may only be called from within a transmission-commit (AfterTx)
	// event, and d must be at least the engine's configured propagation
	// delay: a frame reaches another node only after it has propagated.
	ScheduleRemote(to uint32, d time.Duration, fn func())
}

// Executor is a deterministic discrete-event engine: the global (network-
// scoped) scheduling context plus per-node ports. Scheduler and Kernel
// implement it.
type Executor interface {
	Clock
	// Rand returns the global random stream (fault injection, experiment
	// drivers). Node-scoped code must use its Port's stream instead.
	Rand() *rand.Rand
	// Every schedules fn at now+d and then every period thereafter until
	// the returned Timer is cancelled. It panics when period is not
	// positive (a zero period would re-arm at the same timestamp forever,
	// livelocking the event loop).
	Every(d, period time.Duration, fn func()) Timer
	// Port returns node id's scheduling handle.
	Port(id uint32) Port
	// DeriveRand returns an independent deterministic stream derived from
	// the engine's seed and a tag path (see DeriveSeed).
	DeriveRand(tags ...uint64) *rand.Rand
	// RunUntil executes events with timestamps <= t, then advances the
	// clock to t.
	RunUntil(t time.Duration)
	// Run executes events until none remain (or Stop is called).
	Run()
	// Stop halts the event loop.
	Stop()
	// NextEventAt returns the timestamp of the next live event, or
	// ok=false when no events are queued.
	NextEventAt() (time.Duration, bool)
	// Pending returns the number of live queued events (diagnostics).
	Pending() int
}

// Scheduler is the single-queue deterministic executor implementing Clock.
// It is not safe for concurrent use; all node logic runs inside its event
// loop, exactly like the paper's single-threaded event-driven daemon.
type Scheduler struct {
	seed    int64
	now     time.Duration
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool
}

// New returns a Scheduler whose randomness derives entirely from seed.
func New(seed int64) *Scheduler {
	return &Scheduler{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's seeded random source. All simulation
// randomness (jitter, loss draws, backoff) must come from here so runs are
// reproducible.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// DeriveRand returns an independent stream derived from the scheduler's
// seed and a tag path.
func (s *Scheduler) DeriveRand(tags ...uint64) *rand.Rand {
	return newDerivedRand(s.seed, tags...)
}

// After schedules fn at now+d. Negative d is treated as zero.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.at(s.now+d, fn)
}

// AfterTx schedules a transmission-commit event. On the single-queue
// Scheduler it is equivalent to After; the Kernel uses the tx tag to admit
// ScheduleRemote calls.
func (s *Scheduler) AfterTx(d time.Duration, fn func()) Timer {
	return s.After(d, fn)
}

func (s *Scheduler) at(t time.Duration, fn func()) *event {
	s.seq++
	ev := &event{key: evKey{at: t, kind: kindGlobal, b: s.seq}, fn: fn}
	s.events.push(ev)
	return ev
}

// Port returns a scheduling handle for node id. On the single-queue
// Scheduler every port shares the one queue, clock and random stream, so
// unit tests can drive MACs and radios from a single seeded stream.
func (s *Scheduler) Port(id uint32) Port { return schedPort{s} }

// schedPort adapts the Scheduler to the Port interface.
type schedPort struct{ s *Scheduler }

func (p schedPort) Now() time.Duration                     { return p.s.now }
func (p schedPort) After(d time.Duration, fn func()) Timer { return p.s.After(d, fn) }
func (p schedPort) AfterTx(d time.Duration, fn func()) Timer {
	return p.s.After(d, fn)
}
func (p schedPort) Rand() *rand.Rand { return p.s.rng }
func (p schedPort) ScheduleRemote(to uint32, d time.Duration, fn func()) {
	p.s.After(d, fn)
}

// Every schedules fn at now+d and then every period thereafter until the
// returned Timer is cancelled. The first firing is at now+d. It panics when
// period is not positive: re-arming at the same timestamp would livelock
// the event loop.
func (s *Scheduler) Every(d, period time.Duration, fn func()) Timer {
	return repeatOn(s, d, period, fn)
}

// repeatOn implements Every over any Clock, validating the period.
func repeatOn(c Clock, d, period time.Duration, fn func()) Timer {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	rt := &repeatTimer{}
	var arm func(delay time.Duration)
	arm = func(delay time.Duration) {
		rt.inner = c.After(delay, func() {
			if rt.cancelled {
				return
			}
			fn()
			if !rt.cancelled {
				arm(period)
			}
		})
	}
	arm(d)
	return rt
}

type repeatTimer struct {
	inner     Timer
	cancelled bool
}

func (r *repeatTimer) Cancel() bool {
	if r.cancelled {
		return false
	}
	r.cancelled = true
	if r.inner != nil {
		return r.inner.Cancel()
	}
	return false
}

// Step executes the next pending event. It reports false when no events
// remain or the scheduler is stopped.
func (s *Scheduler) Step() bool {
	if s.stopped {
		return false
	}
	ev := s.events.popNext()
	if ev == nil {
		return false
	}
	if ev.key.at > s.now {
		s.now = ev.key.at
	}
	ev.fn()
	return true
}

// Run executes events until none remain (or Stop is called). Use RunUntil
// for open-ended workloads with repeating timers.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. Pending later events remain queued.
func (s *Scheduler) RunUntil(t time.Duration) {
	for !s.stopped {
		ev := s.events.peek()
		if ev == nil || ev.key.at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Stop halts the event loop; subsequent Step calls return false.
func (s *Scheduler) Stop() { s.stopped = true }

// NextEventAt returns the timestamp of the next live event, or ok=false
// when the queue is empty. Real-time pacing drivers use it to sleep until
// the wall clock catches up with virtual time.
func (s *Scheduler) NextEventAt() (time.Duration, bool) {
	ev := s.events.peek()
	if ev == nil {
		return 0, false
	}
	return ev.key.at, true
}

// Pending returns the number of live queued events (diagnostics). It is
// O(1): the heap tracks its live count as events are pushed, popped and
// cancelled.
func (s *Scheduler) Pending() int { return s.events.live }

// RealClock implements Clock over the wall clock, so the same node logic
// can run live (the examples use it for interactive demos). It is safe for
// concurrent use.
type RealClock struct {
	mu    sync.Mutex
	start time.Time
}

// NewRealClock returns a RealClock anchored at the current instant.
func NewRealClock() *RealClock { return &RealClock{start: time.Now()} }

// Now returns the elapsed wall time since the clock was created.
func (c *RealClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Since(c.start)
}

// After schedules fn on a goroutine timer.
func (c *RealClock) After(d time.Duration, fn func()) Timer {
	return &realTimer{t: time.AfterFunc(d, fn)}
}

type realTimer struct{ t *time.Timer }

func (r *realTimer) Cancel() bool { return r.t.Stop() }
