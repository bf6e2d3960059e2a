package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// staleEngine is the public scheduling surface of one executor, as the
// stale-handle property test drives it. Node 0 means the global context.
type staleEngine struct {
	now      func() time.Duration
	after    func(node int, d time.Duration, fn func()) Timer
	afterTx  func(node int, d time.Duration, fn func()) Timer
	remote   func(from, to int, d time.Duration, fn func())
	runUntil func(t time.Duration)
	pending  func() int
	q        *eventHeap
	// key computes the canonical key the executor assigns to a new event:
	// class is kindGlobal, kindLocal (After/AfterTx) or kindRemote.
	key   func(m *staleModel, class uint8, node int, at time.Duration) evKey
	turn  time.Duration // AfterTx clamp
	prop  time.Duration // ScheduleRemote floor
	nodes int
}

const staleNodes = 3

func kernelStaleEngine() staleEngine {
	k := newTestKernel(1, staleNodes)
	return staleEngine{
		now: k.Now,
		after: func(node int, d time.Duration, fn func()) Timer {
			if node == 0 {
				return k.After(d, fn)
			}
			return k.Port(uint32(node)).After(d, fn)
		},
		afterTx: func(node int, d time.Duration, fn func()) Timer {
			return k.Port(uint32(node)).AfterTx(d, fn)
		},
		remote: func(from, to int, d time.Duration, fn func()) {
			k.Port(uint32(from)).ScheduleRemote(uint32(to), d, fn)
		},
		runUntil: k.RunUntil,
		pending:  k.Pending,
		q:        &k.q,
		key: func(m *staleModel, class uint8, node int, at time.Duration) evKey {
			switch class {
			case kindGlobal:
				m.seq[0]++
				return evKey{at: at, kind: kindGlobal, b: m.seq[0]}
			case kindLocal:
				m.seq[node]++
				return evKey{at: at, kind: kindLocal, a: uint64(node), b: m.seq[node]}
			default:
				m.rseq[node]++
				return evKey{at: at, kind: kindRemote, a: uint64(node), b: m.rseq[node]}
			}
		},
		turn:  k.turn,
		prop:  k.prop,
		nodes: staleNodes,
	}
}

func schedulerStaleEngine() staleEngine {
	s := New(1)
	return staleEngine{
		now: s.Now,
		after: func(node int, d time.Duration, fn func()) Timer {
			if node == 0 {
				return s.After(d, fn)
			}
			return s.Port(uint32(node)).After(d, fn)
		},
		afterTx: func(node int, d time.Duration, fn func()) Timer {
			return s.Port(uint32(node)).AfterTx(d, fn)
		},
		remote: func(from, to int, d time.Duration, fn func()) {
			s.Port(uint32(from)).ScheduleRemote(uint32(to), d, fn)
		},
		runUntil: s.RunUntil,
		pending:  s.Pending,
		q:        &s.events,
		// The Scheduler has one queue and one sequence: every event is
		// global.
		key: func(m *staleModel, _ uint8, _ int, at time.Duration) evKey {
			m.seq[0]++
			return evKey{at: at, kind: kindGlobal, b: m.seq[0]}
		},
		prop:  3 * time.Microsecond,
		nodes: staleNodes,
	}
}

// staleModel is the reference: every event ever scheduled, by id, and the
// ids still pending, run by linear search for the smallest key.
type staleModel struct {
	now       time.Duration
	seq, rseq [staleNodes + 1]uint64
	evs       []*modelEvent
	live      []int
}

type modelEvent struct {
	key            evKey
	cancelled, ran bool
	cancellable    bool
	actions        []staleAction
	handle         Timer // the engine's handle; zero for remote events
}

// staleAction is one step an event's callback performs when it runs.
type staleAction struct {
	op     int // actSchedule, actCancel, actRemote
	target int // event id to cancel, or -1 for the running event itself
	class  int // for actSchedule: 0 After, 1 AfterTx, 2 global After
	node   int
	d      time.Duration
}

const (
	actSchedule = iota
	actCancel
	actRemote
)

func (m *staleModel) next(t time.Duration) int {
	best := -1
	for _, id := range m.live {
		if ev := m.evs[id]; ev.key.at <= t && (best < 0 || ev.key.less(m.evs[best].key)) {
			best = id
		}
	}
	return best
}

// retire removes id from the pending set once it has run or been
// cancelled.
func (m *staleModel) retire(id int) {
	for i, x := range m.live {
		if x == id {
			m.live[i] = m.live[len(m.live)-1]
			m.live = m.live[:len(m.live)-1]
			return
		}
	}
}

// staleHarness drives one engine and the model in lockstep: every callback
// the engine runs must be the event the model predicts, and every Cancel
// must return what the model says.
type staleHarness struct {
	t         *testing.T
	name      string
	e         staleEngine
	m         staleModel
	r         *rand.Rand
	running   time.Duration // the RunUntil bound in progress
	staleHits int           // Cancels through a handle whose record has a new occupant
	compacted int
}

func (h *staleHarness) fatalf(format string, args ...any) {
	h.t.Helper()
	h.t.Fatalf("%s: %s", h.name, fmt.Sprintf(format, args...))
}

// actions draws what a new event's callback will do.
func (h *staleHarness) actions(tx bool, node int) []staleAction {
	var acts []staleAction
	for n := h.r.Intn(3); n > 0; n-- {
		switch h.r.Intn(4) {
		case 0:
			acts = append(acts, staleAction{op: actCancel, target: -1})
		case 1:
			acts = append(acts, staleAction{op: actCancel, target: h.r.Intn(len(h.m.evs) + 1)})
		default:
			acts = append(acts, h.drawSchedule(node))
		}
	}
	if tx {
		for n := h.r.Intn(4); n > 0; n-- {
			to := 1 + h.r.Intn(h.e.nodes)
			acts = append(acts, staleAction{op: actRemote, node: to, d: h.e.prop + delay(h.r)})
		}
	}
	return acts
}

func (h *staleHarness) drawSchedule(node int) staleAction {
	if node == 0 {
		node = 1 + h.r.Intn(h.e.nodes)
	}
	return staleAction{op: actSchedule, class: h.r.Intn(3), node: node, d: delay(h.r) - time.Millisecond}
}

// schedule arms one event on both the engine and the model.
func (h *staleHarness) schedule(a staleAction, from int) {
	id := len(h.m.evs)
	ev := &modelEvent{}
	h.m.evs = append(h.m.evs, ev)
	h.m.live = append(h.m.live, id)
	fn := func() { h.fire(id) }
	d := max(a.d, 0) // the engines clamp negative delays to zero
	switch {
	case a.op == actRemote:
		ev.key = h.e.key(&h.m, kindRemote, from, h.m.now+d)
		ev.actions = h.actions(false, a.node)
		h.e.remote(from, a.node, a.d, fn)
		return
	case a.class == 2:
		ev.key = h.e.key(&h.m, kindGlobal, 0, h.m.now+d)
		ev.actions = h.actions(false, 0)
		ev.handle = h.e.after(0, a.d, fn)
	case a.class == 1:
		ev.key = h.e.key(&h.m, kindLocal, a.node, h.m.now+max(d, h.e.turn))
		ev.actions = h.actions(true, a.node)
		ev.handle = h.e.afterTx(a.node, a.d, fn)
	default:
		ev.key = h.e.key(&h.m, kindLocal, a.node, h.m.now+d)
		ev.actions = h.actions(false, a.node)
		ev.handle = h.e.after(a.node, a.d, fn)
	}
	ev.cancellable = true
}

// cancel cancels event id through the handle the engine returned for it
// and checks the result against the model.
func (h *staleHarness) cancel(id int) {
	if id >= len(h.m.evs) {
		return
	}
	ev := h.m.evs[id]
	if !ev.cancellable {
		return
	}
	want := !ev.cancelled && !ev.ran
	if !want && ev.handle.ev.gen != ev.handle.gen && ev.handle.ev.h != nil && !ev.handle.ev.cancelled {
		h.staleHits++ // the record now holds a live event armed by someone else
	}
	before := len(h.e.q.s)
	if got := ev.handle.Cancel(); got != want {
		h.fatalf("Cancel of event %d (cancelled=%v ran=%v) returned %v, want %v", id, ev.cancelled, ev.ran, got, want)
	}
	if want {
		ev.cancelled = true
		h.m.retire(id)
		if len(h.e.q.s) < before-1 {
			h.compacted++
		}
	}
}

// fire is every engine callback: it checks that the engine runs the event
// the model predicts, then performs the event's actions on both.
func (h *staleHarness) fire(id int) {
	want := h.m.next(h.running)
	if want != id {
		h.fatalf("engine ran event %d, model expects %d", id, want)
	}
	ev := h.m.evs[id]
	ev.ran = true
	h.m.retire(id)
	h.m.now = ev.key.at
	if got := h.e.now(); got != h.m.now {
		h.fatalf("event %d ran at %v, want %v", id, got, h.m.now)
	}
	from := int(ev.key.a)
	for _, a := range ev.actions {
		switch a.op {
		case actCancel:
			target := a.target
			if target < 0 {
				target = id
			}
			h.cancel(target)
		default:
			h.schedule(a, from)
		}
	}
}

// runUntil runs both to t and checks nothing the model expects was left
// behind.
func (h *staleHarness) runUntil(t time.Duration) {
	h.running = t
	h.e.runUntil(t)
	if id := h.m.next(t); id >= 0 {
		h.fatalf("RunUntil(%v) left event %d (at %v) unrun", t, id, h.m.evs[id].key.at)
	}
	if h.m.now < t {
		h.m.now = t
	}
	if got, want := h.e.pending(), len(h.m.live); got != want {
		h.fatalf("Pending=%d after RunUntil(%v), want %d", got, t, want)
	}
}

// TestStaleTimerHandles drives random mixes of After, AfterTx and
// ScheduleRemote, callbacks that schedule and cancel, cancels through
// live and stale handles (in bursts that force compaction) and RunUntil,
// on both engines, against a reference model. Cancel's result and the set
// and order of callbacks that run must match the model exactly: a Timer
// kept after its event ran, or was cancelled and compacted away, must
// never cancel the recycled record's next occupant.
func TestStaleTimerHandles(t *testing.T) {
	engines := map[string]func() staleEngine{
		"Kernel":    kernelStaleEngine,
		"Scheduler": schedulerStaleEngine,
	}
	for name, mk := range engines {
		for seed := int64(1); seed <= 4; seed++ {
			h := &staleHarness{t: t, name: fmt.Sprintf("%s seed %d", name, seed), e: mk(), r: rand.New(rand.NewSource(seed))}
			h.m.now = h.e.now()
			for step := 0; step < 3000; step++ {
				switch op := h.r.Intn(100); {
				case op < 40:
					h.schedule(h.drawSchedule(0), 0)
				case op < 60:
					h.cancel(h.r.Intn(len(h.m.evs) + 1))
				case op < 63:
					// Arm a burst far ahead and cancel most of it: the
					// cancelled records outnumber the live ones, so the
					// heap compacts and recycles them.
					first := len(h.m.evs)
					for i := 0; i < 40; i++ {
						a := h.drawSchedule(0)
						a.d += time.Hour
						h.schedule(a, 0)
					}
					for id := first; id < first+36; id++ {
						h.cancel(id)
					}
				default:
					h.runUntil(h.m.now + delay(h.r))
				}
				if h.t.Failed() {
					return
				}
			}
			h.runUntil(h.m.now + 2*time.Hour)
			if h.staleHits == 0 {
				t.Errorf("%s: no Cancel went through a handle whose record was reused", h.name)
			}
			if h.compacted == 0 {
				t.Errorf("%s: no compaction triggered", h.name)
			}
		}
	}
}
