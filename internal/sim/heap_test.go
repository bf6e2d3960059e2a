package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// heapEngine adapts one executor to the heap property test: schedule
// queues one event through the executor's public API and returns it (and
// the Timer the caller got for it, zero for remote events), so the test
// can follow each event through the executor's own heap.
type heapEngine struct {
	q        *eventHeap
	schedule func(r *rand.Rand) (ev *event, tm Timer)
	pending  func() int
	next     func() (time.Duration, bool)
}

// delay draws a short delay on a coarse grid, so many events share a
// timestamp and ties are broken by class, origin and sequence.
func delay(r *rand.Rand) time.Duration { return time.Duration(r.Intn(8)) * time.Millisecond }

func kernelHeapEngine() heapEngine {
	k := newTestKernel(1, 4)
	return heapEngine{
		q: &k.q,
		schedule: func(r *rand.Rand) (*event, Timer) {
			id := uint32(1 + r.Intn(4))
			var tm Timer
			switch r.Intn(4) {
			case 0:
				tm = k.After(delay(r), func() {})
			case 1:
				tm = k.Port(id).After(delay(r), func() {})
			case 2:
				tm = k.Port(id).AfterTx(delay(r), func() {})
			default:
				p := k.nodes[id]
				d := k.prop + delay(r)
				k.inTx = true
				p.ScheduleRemote(uint32(1+r.Intn(4)), d, func() {})
				k.inTx = false
				want := evKey{at: k.now + d, kind: kindRemote, a: uint64(id), b: p.rseq}
				for _, ev := range k.q.s {
					if ev.key == want {
						return ev, Timer{}
					}
				}
				panic("remote event not queued")
			}
			return tm.ev, tm
		},
		pending: k.Pending,
		next:    k.NextEventAt,
	}
}

func schedulerHeapEngine() heapEngine {
	s := New(1)
	return heapEngine{
		q: &s.events,
		schedule: func(r *rand.Rand) (*event, Timer) {
			var tm Timer
			if r.Intn(2) == 0 {
				tm = s.After(delay(r), func() {})
			} else {
				tm = s.Port(1).AfterTx(delay(r), func() {})
			}
			return tm.ev, tm
		},
		pending: s.Pending,
		next:    s.NextEventAt,
	}
}

// TestEventHeapProperty runs a seeded random mix of pushes, cancels (in
// bursts that trigger compaction) and pops against a sorted-slice
// reference, and after every step checks the pop order, Pending,
// NextEventAt, each queued event's index and the heap invariant.
func TestEventHeapProperty(t *testing.T) {
	engines := map[string]func() heapEngine{
		"Kernel":    kernelHeapEngine,
		"Scheduler": schedulerHeapEngine,
	}
	for name, mk := range engines {
		for seed := int64(1); seed <= 4; seed++ {
			checkHeapProperty(t, name, seed, mk())
		}
	}
}

func checkHeapProperty(t *testing.T, name string, seed int64, e heapEngine) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	type held struct {
		ev *event
		tm Timer
	}
	var ref []*event       // live events in key order
	var cancellable []held // live events the caller holds a Timer for
	var done []Timer       // Timers of popped or cancelled events
	compactions := 0
	remove := func(s []*event, ev *event) []*event {
		for i, x := range s {
			if x == ev {
				return append(s[:i], s[i+1:]...)
			}
		}
		t.Fatalf("%s seed %d: event %+v missing from reference", name, seed, ev.key)
		return nil
	}
	for step := 0; step < 4000; step++ {
		// Alternate push-heavy and cancel-heavy phases, so the heap both
		// grows and crosses the compaction threshold many times.
		pushP, cancelP := 70, 15
		if step%800 >= 400 {
			pushP, cancelP = 20, 65
		}
		switch op := r.Intn(100); {
		case op < pushP:
			ev, tm := e.schedule(r)
			i := sort.Search(len(ref), func(i int) bool { return ev.key.less(ref[i].key) })
			ref = append(ref, nil)
			copy(ref[i+1:], ref[i:])
			ref[i] = ev
			if tm != (Timer{}) {
				cancellable = append(cancellable, held{ev, tm})
			}
		case op < pushP+cancelP && len(cancellable) > 0:
			j := r.Intn(len(cancellable))
			c := cancellable[j]
			before := len(e.q.s)
			if !c.tm.Cancel() {
				t.Fatalf("%s seed %d step %d: Cancel of a queued event returned false", name, seed, step)
			}
			if len(e.q.s) < before-1 {
				compactions++
			}
			cancellable = append(cancellable[:j], cancellable[j+1:]...)
			ref = remove(ref, c.ev)
			done = append(done, c.tm)
		case op < pushP+cancelP && len(done) > 0:
			if done[r.Intn(len(done))].Cancel() {
				t.Fatalf("%s seed %d step %d: Cancel of a popped or cancelled event returned true", name, seed, step)
			}
		default:
			ev := e.q.popNext()
			if len(ref) == 0 {
				if ev != nil {
					t.Fatalf("%s seed %d step %d: popped %+v from an empty queue", name, seed, step, ev.key)
				}
				break
			}
			if ev != ref[0] {
				t.Fatalf("%s seed %d step %d: popped %+v, want %+v", name, seed, step, ev.key, ref[0].key)
			}
			ref = ref[1:]
			for i, x := range cancellable {
				if x.ev == ev {
					cancellable = append(cancellable[:i], cancellable[i+1:]...)
					done = append(done, x.tm)
					break
				}
			}
			e.q.release(ev)
		}
		checkHeapState(t, name, seed, step, e, ref)
	}
	if compactions == 0 {
		t.Errorf("%s seed %d: no compaction triggered; the test does not cover compact", name, seed)
	}
	for len(ref) > 0 {
		if ev := e.q.popNext(); ev != ref[0] {
			t.Fatalf("%s seed %d drain: popped %v, want %+v", name, seed, ev, ref[0].key)
		}
		ref = ref[1:]
	}
	if ev := e.q.popNext(); ev != nil {
		t.Fatalf("%s seed %d drain: popped %+v past the end", name, seed, ev.key)
	}
}

func checkHeapState(t *testing.T, name string, seed int64, step int, e heapEngine, ref []*event) {
	t.Helper()
	if got := e.pending(); got != len(ref) {
		t.Fatalf("%s seed %d step %d: Pending=%d, want %d", name, seed, step, got, len(ref))
	}
	at, ok := e.next()
	if ok != (len(ref) > 0) || ok && at != ref[0].key.at {
		t.Fatalf("%s seed %d step %d: NextEventAt=%v,%v; reference has %d events", name, seed, step, at, ok, len(ref))
	}
	for i, ev := range e.q.s {
		if ev.index != i || ev.h != e.q {
			t.Fatalf("%s seed %d step %d: slot %d holds an event with index %d", name, seed, step, i, ev.index)
		}
		if p := (i - 1) / heapArity; i > 0 && ev.key.less(e.q.s[p].key) {
			t.Fatalf("%s seed %d step %d: slot %d is earlier than its parent %d", name, seed, step, i, p)
		}
	}
}
