package sim

import (
	"container/heap"
	"time"
)

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
}

// Cancel implements Timer.
func (e *event) Cancel() bool {
	if e.cancelled {
		return false
	}
	e.cancelled = true
	e.fn = nil
	if e.h != nil {
		e.h.onCancel()
	}
	return true
}

// eventHeap is a min-heap of events in canonical order with O(1) live
// accounting. Cancelled events are removed lazily: on pop when they reach
// the head, or in a bulk compaction once they outnumber the live entries —
// so a workload that arms and cancels many timers (reassembly timeouts,
// gradient expiries) cannot grow the heap without bound.
type eventHeap struct {
	s    evSlice
	live int
}

func (h *eventHeap) push(ev *event) {
	ev.h = h
	heap.Push(&h.s, ev)
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
	}
	return nil
}

// popNext removes and returns the earliest live event, or nil.
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
	ev := heap.Pop(&h.s).(*event)
	ev.h = nil
	ev.index = -1
}

// onCancel is called by event.Cancel while the event is still queued; it
// triggers compaction once cancelled entries exceed half the heap.
func (h *eventHeap) onCancel() {
	h.live--
	if cancelled := len(h.s) - h.live; cancelled > h.live && cancelled > 16 {
		h.compact()
	}
}

// compact removes every cancelled entry and re-heapifies.
func (h *eventHeap) compact() {
	kept := h.s[:0]
	for _, ev := range h.s {
		if ev.cancelled {
			ev.h = nil
			ev.index = -1
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(h.s); i++ {
		h.s[i] = nil
	}
	h.s = kept
	heap.Init(&h.s)
}

// evSlice implements heap.Interface; eventHeap wraps it with live/lazy
// accounting.
type evSlice []*event

func (h evSlice) Len() int           { return len(h) }
func (h evSlice) Less(i, j int) bool { return h[i].key.less(h[j].key) }
func (h evSlice) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *evSlice) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *evSlice) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
