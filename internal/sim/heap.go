package sim

import "time"

// Event-class tags of the canonical order. Every event in a run is totally
// ordered by its evKey, so execution order is a pure function of the seed
// and the program.
const (
	kindGlobal uint8 = iota // network-scoped events
	kindLocal               // node-scoped events scheduled by the node itself
	kindRemote              // cross-node events (radio deliveries)
)

// evKey is the canonical total order of events: timestamp, then event
// class (globals before node events, locals before remote arrivals), then
// an origin/sequence pair that is unique within the class. For local
// events (a, b) is (node, per-node seq); for remote events it is (sender,
// per-sender send seq) — both assigned by a single deterministic writer.
type evKey struct {
	at   time.Duration
	kind uint8
	a, b uint64
}

func (k evKey) less(o evKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.kind != o.kind {
		return k.kind < o.kind
	}
	if k.a != o.a {
		return k.a < o.a
	}
	return k.b < o.b
}

type event struct {
	key evKey
	fn  func()
	// h is the owning heap (nil once popped); index is the heap position.
	h         *eventHeap
	index     int
	cancelled bool
	// tx marks transmission-commit events (AfterTx): the only events
	// allowed to schedule cross-node work.
	tx bool
	// gen counts the record's reuses. A Timer carries the generation it
	// was armed with, so a handle kept past its event's run or drop no
	// longer matches the record and cannot cancel its next occupant.
	gen uint64
}

// cancel implements Timer.Cancel for the generation gen. It reports false
// once the event has been popped to run, cancelled, or recycled: the
// callback is no longer pending.
func (e *event) cancel(gen uint64) bool {
	if e.gen != gen || e.cancelled || e.h == nil {
		return false
	}
	e.cancelled = true
	e.fn = nil
	e.h.onCancel()
	return true
}

// eventHeap is a 4-ary min-heap of events in canonical order with O(1)
// live accounting. It is typed on *event, so ordering compares evKeys
// directly instead of through heap.Interface, and it keeps every queued
// event's index equal to its slot. Keys are unique and totally ordered, so
// the pop order does not depend on the heap's shape.
//
// Cancelled events are removed lazily: on pop when they reach the head, or
// in a bulk compaction once they outnumber the live entries — so a
// workload that arms and cancels many timers (reassembly timeouts,
// gradient expiries) cannot grow the heap without bound.
//
// Every record leaves the heap through release: popped to run, discarded
// as a cancelled head, or dropped by compaction. release bumps the
// record's generation and parks it on free for schedule to reuse, so a
// steady-state run allocates no events.
type eventHeap struct {
	s    []*event
	live int
	free []*event
}

// heapArity is the heap's fan-out: four children per slot halve the depth
// of a binary heap, and the four keys compared per level sit together.
const heapArity = 4

// release recycles a record that has left the heap. The generation bump
// invalidates every Timer armed on it, and dropping fn keeps a pooled
// record from pinning its callback's captures.
func (h *eventHeap) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.cancelled = false
	ev.tx = false
	h.free = append(h.free, ev)
}

// schedule queues fn at key on a record from the free list, or a new one,
// and returns the record.
func (h *eventHeap) schedule(key evKey, fn func(), tx bool) *event {
	var ev *event
	if n := len(h.free); n > 0 {
		ev = h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.key, ev.fn, ev.tx = key, fn, tx
	h.push(ev)
	return ev
}

func (h *eventHeap) push(ev *event) {
	ev.h = h
	ev.index = len(h.s)
	h.s = append(h.s, ev)
	h.up(ev.index)
	h.live++
}

// peek returns the earliest live event (discarding cancelled heads), or
// nil when none remain.
func (h *eventHeap) peek() *event {
	for len(h.s) > 0 {
		ev := h.s[0]
		if !ev.cancelled {
			return ev
		}
		h.drop()
		h.release(ev)
	}
	return nil
}

// popNext removes and returns the earliest live event, or nil. The caller
// runs it and then hands it to release.
func (h *eventHeap) popNext() *event {
	ev := h.peek()
	if ev == nil {
		return nil
	}
	h.drop()
	h.live--
	return ev
}

// drop removes the head event without live accounting.
func (h *eventHeap) drop() {
	ev := h.s[0]
	n := len(h.s) - 1
	last := h.s[n]
	h.s[n] = nil
	h.s = h.s[:n]
	if n > 0 {
		h.s[0] = last
		h.down(0)
	}
	ev.h = nil
	ev.index = -1
}

// up moves the event at slot i toward the root until its parent is
// earlier.
func (h *eventHeap) up(i int) {
	s := h.s
	ev := s[i]
	for i > 0 {
		p := (i - 1) / heapArity
		parent := s[p]
		if !ev.key.less(parent.key) {
			break
		}
		s[i] = parent
		parent.index = i
		i = p
	}
	s[i] = ev
	ev.index = i
}

// down moves the event at slot i toward the leaves until no child is
// earlier.
func (h *eventHeap) down(i int) {
	s := h.s
	n := len(s)
	ev := s[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		end := first + heapArity
		if end > n {
			end = n
		}
		min := first
		for c := first + 1; c < end; c++ {
			if s[c].key.less(s[min].key) {
				min = c
			}
		}
		if !s[min].key.less(ev.key) {
			break
		}
		s[i] = s[min]
		s[i].index = i
		i = min
	}
	s[i] = ev
	ev.index = i
}

// onCancel is called by event.Cancel while the event is still queued; it
// triggers compaction once cancelled entries exceed half the heap.
func (h *eventHeap) onCancel() {
	h.live--
	if cancelled := len(h.s) - h.live; cancelled > h.live && cancelled > 16 {
		h.compact()
	}
}

// compact removes every cancelled entry and rebuilds the heap in place.
func (h *eventHeap) compact() {
	kept := h.s[:0]
	for _, ev := range h.s {
		if ev.cancelled {
			ev.h = nil
			ev.index = -1
			h.release(ev)
			continue
		}
		ev.index = len(kept)
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(h.s); i++ {
		h.s[i] = nil
	}
	h.s = kept
	if n := len(kept); n > 1 {
		for i := (n - 2) / heapArity; i >= 0; i-- {
			h.down(i)
		}
	}
}
