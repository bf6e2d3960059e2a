package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"diffusion/internal/message"
)

// layer names a module boundary the traced run times. Every span is
// opened by a wrapper in this package around a call into one module's
// public surface; the program itself is not instrumented.
type layer uint8

const (
	lGen            layer = iota // load generator callbacks
	lApp                         // sink delivery callbacks
	lRadio                       // radio-scheduled events (reception start/end, incl. the MAC's onFrame)
	lMac                         // MAC-scheduled events (backoff, commit, fire)
	lMacSend                     // core → mac.Send
	lCoreRecv                    // link → core.Node.Receive
	lCoreTimer                   // core timers (refresh, housekeeping, jitter)
	lCoreSend                    // application → core.Node.Send
	lFilter                      // FilterCallback chain
	lTransportSend               // core → transport.UDP Send/SendCustody
	lCustodyAccept               // transport → CustodyOptions.Accept
	lCustodyRelease              // transport → CustodyOptions.Release
	lJournal                     // custody.Queue → custody.Journal
	lPostWait                    // rt.Loop queueing: Deliver → posted func start
	nLayers
)

var layerNames = [nLayers]string{
	"gen", "app", "radio", "mac", "mac.send", "core.receive", "core.timer",
	"core.send", "filters", "transport.send", "custody.accept",
	"custody.release", "custody.journal", "rt.post_wait",
}

// frame is one open span on a track's stack.
type frame struct {
	l     layer
	start time.Duration
	child time.Duration
	span  int // index into track.spans, or -1
	seq   int32
}

// span is one closed span: name, start, end and parent, plus the message
// it concerns (live runs only).
type span struct {
	l      layer
	start  time.Duration
	end    time.Duration
	parent int
	id     message.ID
}

// track accumulates spans opened and closed by one goroutine (the
// simulator's event loop, a live node's rt.Loop, or a transport reader).
// Self time is a span's duration minus the part its child spans cover.
type track struct {
	node  int
	name  string
	base  time.Time
	stack []frame
	self  [nLayers]time.Duration
	calls [nLayers]int64
	top   time.Duration // summed duration of top-level spans
	tops  int64         // number of top-level spans
	keep  [nLayers]bool // keep per-call durations for percentiles
	durs  [nLayers][]time.Duration
	// record keeps every span (live runs); the simulator's millions of
	// callbacks per virtual minute are aggregated per layer instead.
	record  bool
	spans   []span
	idToSeq map[message.ID]int32
}

func newTrack(base time.Time, node int, name string, record bool, keep ...layer) *track {
	t := &track{node: node, name: name, base: base, record: record, idToSeq: map[message.ID]int32{}}
	for _, l := range keep {
		t.keep[l] = true
	}
	return t
}

func (t *track) now() time.Duration { return time.Since(t.base) }

func (t *track) enter(l layer, id message.ID) {
	f := frame{l: l, start: t.now(), span: -1}
	if t.record {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].span
		}
		f.span = len(t.spans)
		t.spans = append(t.spans, span{l: l, start: f.start, parent: parent, id: id})
	}
	t.stack = append(t.stack, f)
}

// enterCore opens a span attributed to the nearest enclosing core frame:
// the core work a filter hands on to with SendMessageToNext belongs to
// whatever core path (receive, timer or send) ran the filter.
func (t *track) enterCore() {
	l := lCoreRecv
	for i := len(t.stack) - 1; i >= 0; i-- {
		if k := t.stack[i].l; k == lCoreRecv || k == lCoreTimer || k == lCoreSend {
			l = k
			break
		}
	}
	t.enter(l, message.ID{})
}

func (t *track) exit() {
	end := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := end - f.start
	t.self[f.l] += d - f.child
	t.calls[f.l]++
	if t.keep[f.l] {
		t.durs[f.l] = append(t.durs[f.l], d)
	}
	if f.span >= 0 {
		t.spans[f.span].end = end
	}
	if n > 0 {
		t.stack[n-1].child += d
	} else {
		t.top += d
		t.tops++
	}
}

func (t *track) wrap(l layer, fn func()) func() {
	return func() {
		t.enter(l, message.ID{})
		fn()
		t.exit()
	}
}

// noteSend links a message ID to the generator sequence number whose
// Send produced it, so spans on other nodes can be charged to that
// message.
func (t *track) noteSend(id message.ID) {
	if len(t.stack) > 0 && t.stack[0].l == lCoreSend {
		t.idToSeq[id] = t.stack[0].seq
	}
}

// addSpan records a span measured outside the stack (queue waits).
func (t *track) addSpan(l layer, start, end time.Duration, id message.ID) {
	d := end - start
	t.self[l] += d
	t.calls[l]++
	if t.keep[l] {
		t.durs[l] = append(t.durs[l], d)
	}
	if t.record {
		t.spans = append(t.spans, span{l: l, start: start, end: end, parent: -1, id: id})
	}
}

// layerTotals is tracks merged into per-layer self time, call counts and
// per-call durations.
type layerTotals struct {
	self  [nLayers]time.Duration
	calls [nLayers]int64
	durs  [nLayers][]time.Duration
}

func mergeTracks(ts []*track) layerTotals {
	var lt layerTotals
	for _, t := range ts {
		for l := layer(0); l < nLayers; l++ {
			lt.self[l] += t.self[l]
			lt.calls[l] += t.calls[l]
			lt.durs[l] = append(lt.durs[l], t.durs[l]...)
		}
	}
	return lt
}

// writeSpans writes every recorded span as one JSON line to path.
func writeSpans(path string, ts []*track) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(w, `{"track":%q,"node":%d,"i":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"id":"%08x%08x"}`+"\n",
				t.name, t.node, i, layerNames[s.l], s.start, s.end, s.parent, s.id.RandID, s.id.PktNum)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the current goroutine's ID. The traced run uses it only to
// tell which goroutine a custody journal call came from; it is far too
// slow for anything on the untraced path.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
