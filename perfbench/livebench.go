package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/chaos"
	"diffusion/internal/core"
	"diffusion/internal/custody"
	"diffusion/internal/message"
	"diffusion/internal/rt"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
	"diffusion/internal/transport"
)

// liveWorkload is a source→relay→sink line of three in-process nodes, each
// wired as cmd/diffnode wires its data plane: its own rt.Loop, a
// transport.UDP endpoint on loopback with the failure detector on, and a
// core.Node; with custody, an fsync'd custody.Store journal behind a
// custody.Queue fed by the transport's custody accepts.
type liveWorkload struct {
	name    string
	custody bool
	rate    float64 // the fixed offered rate, msg/s
	// ladder is the fixed set of rates the capacity search probes, each
	// for trial; the fixed rate is one of its rungs.
	ladder []float64
	trial  time.Duration
	// p99Limit is the latency limit a ladder rung must meet.
	p99Limit time.Duration
	// drain bounds the wait for stragglers after the fixed-rate window;
	// a rung's wait also ends after idle without an arrival.
	drain, idle time.Duration
}

var relayPlain = liveWorkload{
	name:     "relay-plain",
	rate:     5000,
	ladder:   ladder(5000),
	trial:    2 * time.Second,
	p99Limit: 50 * time.Millisecond,
	drain:    2 * time.Second,
	idle:     200 * time.Millisecond,
}

var relayCustody = liveWorkload{
	name:     "relay-custody",
	custody:  true,
	rate:     500,
	ladder:   ladder(500),
	trial:    2 * time.Second,
	p99Limit: 100 * time.Millisecond,
	drain:    8 * time.Second,
	idle:     time.Second,
}

// ladder returns rates from rate/2 to 16×rate in steps of 8%, through
// rate.
func ladder(rate float64) []float64 {
	out := []float64{rate}
	for r := rate / 1.08; r >= rate/2; r /= 1.08 {
		out = append([]float64{float64(int(r))}, out...)
	}
	for r := rate * 1.08; r <= rate*16; r *= 1.08 {
		out = append(out, float64(int(r)))
	}
	return out
}

const (
	liveRounds   = 6
	tracedRounds = 3
	payloadSize  = 50
	// lossLimit is the share of a ladder rung's messages that may be
	// missing or duplicated. It is not zero: the vCPUs of a shared 2-core
	// VM stall for 10–35 ms at random, long enough to overflow a UDP
	// receive buffer at any rate above a few thousand messages per second,
	// so a zero-loss capacity measures when the last stall happened rather
	// than the data plane. The fixed-rate windows still count every loss as
	// a failure.
	lossLimit = 0.01
	// warmCap bounds the warm-up: sending at the fixed rate until
	// reinforced data arrives.
	warmCap = 15 * time.Second
)

var (
	benchInterest = attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "perfbench")}
	benchPub      = attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "perfbench")}
)

// liveNode is one node of the line.
type liveNode struct {
	id    uint32
	loop  *rt.Loop
	link  *transport.UDP
	node  *core.Node
	q     *custody.Queue
	store *custody.Store
	path  string
	// traced runs: one track per goroutine that runs node code
	lt, rd   *track
	loopGID  uint64
	depth    atomic.Int64
	maxDepth atomic.Int64
}

// line is one set-up source→relay→sink line and the generator's record of
// what it offered. The generator writes due times before posting a
// message; the sink loop writes arrivals; both are read only after the
// line is drained.
type line struct {
	w       liveWorkload
	round   int
	nodes   [3]*liveNode
	base    time.Time
	traced  bool
	pub     core.PublicationHandle
	payload []byte
	nextSeq int32
	due     []time.Duration
	arrived []time.Duration
	count   []int32
	sentEnd []time.Duration // traced: when the source's core.Send returned
	corrupt atomic.Int64    // deliveries whose payload differs from what was sent
	unknown atomic.Int64    // deliveries of sequence numbers never sent
	// from and inWindow count distinct arrivals of the window being
	// drained: sequence numbers at or above from.
	from      atomic.Int32
	inWindow  atomic.Int64
	plainSeen atomic.Bool // a reinforced (non-exploratory) data message arrived
}

func (l *line) src() *liveNode  { return l.nodes[0] }
func (l *line) sink() *liveNode { return l.nodes[2] }

// newLine builds and connects the three nodes. dir holds the custody
// journals.
func newLine(w liveWorkload, seed int64, round int, dir string, traced bool, capacity int) (*line, error) {
	ports, err := chaos.FreePorts("udp", 3)
	if err != nil {
		return nil, err
	}
	l := &line{
		w: w, round: round, base: time.Now(), traced: traced, nextSeq: 1,
		due:     make([]time.Duration, capacity),
		arrived: make([]time.Duration, capacity),
		count:   make([]int32, capacity),
	}
	if traced {
		l.sentEnd = make([]time.Duration, capacity)
	}
	rng := rand.New(rand.NewSource(seed*31 + int64(round)))
	l.payload = make([]byte, payloadSize)
	rng.Read(l.payload)
	addr := func(i int) string { return fmt.Sprintf("127.0.0.1:%d", ports[i]) }
	for i := 0; i < 3; i++ {
		ln := &liveNode{id: uint32(i + 1)}
		l.nodes[i] = ln
		nb := map[uint32]string{}
		if i > 0 {
			nb[uint32(i)] = addr(i - 1)
		}
		if i < 2 {
			nb[uint32(i+2)] = addr(i + 1)
		}
		if err := l.startNode(ln, addr(i), nb, seed*10+int64(i)+int64(round)*100, dir); err != nil {
			l.close()
			return nil, err
		}
	}
	return l, nil
}

func (l *line) startNode(ln *liveNode, listen string, nb map[uint32]string, seed int64, dir string) error {
	ln.loop = rt.NewLoop()
	if l.traced {
		ln.lt = newTrack(l.base, int(ln.id), fmt.Sprintf("round%d-loop%d", l.round, ln.id), true, lCoreRecv, lTransportSend, lPostWait, lJournal)
		ln.rd = newTrack(l.base, int(ln.id), fmt.Sprintf("round%d-reader%d", l.round, ln.id), true, lCustodyAccept, lJournal)
		ln.loop.Call(func() { ln.loopGID = goid() })
	}
	var cus *transport.CustodyOptions
	if l.w.custody {
		ln.path = filepath.Join(dir, fmt.Sprintf("node%d.journal", ln.id))
		os.Remove(ln.path)
		store, items, err := custody.OpenStore(ln.path)
		if err != nil {
			return fmt.Errorf("custody journal: %w", err)
		}
		ln.store = store
		var j custody.Journal = store
		if l.traced {
			j = journalWrap{store, ln}
		}
		ln.q = custody.NewQueue(0, j)
		ln.q.Restore(items)
		accept := func(from uint32, id message.ID, payload []byte) (bool, bool) {
			return ln.q.AcceptOffer(id, payload)
		}
		release := func(peer uint32, id message.ID) { ln.q.Release(id) }
		if l.traced {
			accept = func(from uint32, id message.ID, payload []byte) (bool, bool) {
				ln.rd.enter(lCustodyAccept, id)
				held, fresh := ln.q.AcceptOffer(id, payload)
				ln.rd.exit()
				return held, fresh
			}
			release = func(peer uint32, id message.ID) {
				ln.rd.enter(lCustodyRelease, id)
				ln.q.Release(id)
				ln.rd.exit()
			}
		}
		cus = &transport.CustodyOptions{Accept: accept, Release: release}
	}
	deliver := func(from uint32, payload []byte) {
		ln.loop.Post(func() { ln.node.Receive(from, payload) })
	}
	if l.traced {
		deliver = func(from uint32, payload []byte) {
			posted := time.Since(l.base)
			d := ln.depth.Add(1)
			for m := ln.maxDepth.Load(); d > m && !ln.maxDepth.CompareAndSwap(m, d); m = ln.maxDepth.Load() {
			}
			ln.loop.Post(func() {
				ln.depth.Add(-1)
				id := message.PeekID(payload)
				ln.lt.addSpan(lPostWait, posted, time.Since(l.base), id)
				ln.lt.enter(lCoreRecv, id)
				ln.node.Receive(from, payload)
				ln.lt.exit()
			})
		}
	}
	link, err := transport.ListenUDP(transport.UDPConfig{
		ID:        ln.id,
		Listen:    listen,
		Neighbors: nb,
		Seed:      seed,
		Liveness: &transport.LivenessConfig{
			OnStateChange: func(peer uint32, s transport.PeerState) {
				ln.loop.Post(func() {
					switch s {
					case transport.PeerDead:
						ln.node.NeighborDead(peer)
					case transport.PeerAlive:
						ln.node.NeighborRecovered(peer)
					}
				})
			},
		},
		Custody:   cus,
		SpanClock: ln.loop.Now,
		Deliver:   deliver,
	})
	if err != nil {
		return err
	}
	ln.link = link
	cfg := core.Config{Clock: ln.loop, Link: link, Custody: ln.q, Flight: telemetry.NewFlight(0)}
	if l.traced {
		cfg.Clock = loopClock{ln.loop, ln.lt}
		cfg.Link = udpLinkWrap{link, ln.lt}
		if ln.q != nil {
			cfg.Link = custodyLinkWrap{udpLinkWrap{link, ln.lt}}
		}
	}
	reg := telemetry.NewRegistry(fmt.Sprintf("node%d", ln.id))
	return ln.loop.Call(func() {
		cfg.Rand = rand.New(rand.NewSource(seed))
		ln.node = core.NewNode(cfg)
		ln.node.Instrument(reg)
		link.Stats().Instrument(reg)
	})
}

// close stops every node: node timers, endpoints (waiting for their
// reader goroutines), loops, journals.
func (l *line) close() {
	for _, ln := range l.nodes {
		if ln == nil {
			continue
		}
		if ln.node != nil {
			ln.loop.Call(ln.node.Close)
		}
		if ln.link != nil {
			ln.link.Close()
		}
		if ln.loop != nil {
			ln.loop.Stop()
		}
		if ln.store != nil {
			ln.store.Close()
			os.Remove(ln.path)
		}
	}
}

// loopClock is the sim.Clock wrapper the core's timers run through.
type loopClock struct {
	loop *rt.Loop
	tr   *track
}

func (c loopClock) Now() time.Duration { return c.loop.Now() }

func (c loopClock) After(d time.Duration, fn func()) sim.Timer {
	return c.loop.After(d, c.tr.wrap(lCoreTimer, fn))
}

// udpLinkWrap times core.Link sends into the transport.
type udpLinkWrap struct {
	u  *transport.UDP
	tr *track
}

func (w udpLinkWrap) ID() uint32 { return w.u.ID() }

func (w udpLinkWrap) Send(dst uint32, payload []byte) error {
	id := message.PeekID(payload)
	w.tr.noteSend(id)
	w.tr.enter(lTransportSend, id)
	err := w.u.Send(dst, payload)
	w.tr.exit()
	return err
}

// custodyLinkWrap also forwards the optional core.CustodyLink surface:
// core.NewNode type-asserts for it, and a wrapper without it would turn
// custody-link transfer into store-and-carry replay.
type custodyLinkWrap struct{ udpLinkWrap }

func (w custodyLinkWrap) SendCustody(dst uint32, id message.ID, payload []byte) error {
	w.tr.noteSend(id)
	w.tr.enter(lTransportSend, id)
	err := w.u.SendCustody(dst, id, payload)
	w.tr.exit()
	return err
}

var _ core.CustodyLink = custodyLinkWrap{}

// journalWrap times the custody queue's durable writes. The queue calls
// the journal from the node's loop (captures and discharges by the core)
// and from the transport reader (accepts, releases on ack); each call is
// charged to the goroutine it ran on.
type journalWrap struct {
	s  *custody.Store
	ln *liveNode
}

func (j journalWrap) track() *track {
	if goid() == j.ln.loopGID {
		return j.ln.lt
	}
	return j.ln.rd
}

func (j journalWrap) JournalAccept(id message.ID, payload []byte) error {
	t := j.track()
	t.enter(lJournal, id)
	err := j.s.JournalAccept(id, payload)
	t.exit()
	return err
}

func (j journalWrap) JournalRelease(id message.ID) error {
	t := j.track()
	t.enter(lJournal, id)
	err := j.s.JournalRelease(id)
	t.exit()
	return err
}

// subscribe installs the sink's subscription and the source's publication.
func (l *line) subscribe() error {
	sink := l.sink()
	cb := func(m *message.Message) {
		a, ok := m.Attrs.FindActual(attr.KeySequence)
		if !ok {
			l.unknown.Add(1)
			return
		}
		seq := a.Val.Int32()
		if seq <= 0 || int(seq) >= len(l.count) {
			l.unknown.Add(1)
			return
		}
		if p, ok := m.Attrs.FindActual(attr.KeyPayload); !ok || !bytes.Equal(p.Val.Blob(), l.payload) {
			l.corrupt.Add(1)
		}
		if m.Class == message.Data {
			l.plainSeen.Store(true)
		}
		l.count[seq]++
		if l.count[seq] == 1 {
			l.arrived[seq] = time.Since(l.base)
			if seq >= l.from.Load() {
				l.inWindow.Add(1)
			}
		}
	}
	if l.traced {
		inner := cb
		cb = func(m *message.Message) {
			sink.lt.enter(lApp, message.ID{})
			inner(m)
			sink.lt.exit()
		}
	}
	if err := sink.loop.Call(func() { sink.node.Subscribe(benchInterest, cb) }); err != nil {
		return err
	}
	src := l.src()
	return src.loop.Call(func() { l.pub = src.node.Publish(benchPub) })
}

// post hands message seq to the source's loop.
func (l *line) post(seq int32) {
	extra := attr.Vec{
		attr.Int32Attr(attr.KeySequence, attr.IS, seq),
		attr.BlobAttr(attr.KeyPayload, attr.IS, l.payload),
	}
	src := l.src()
	if !l.traced {
		src.loop.Post(func() { src.node.Send(l.pub, extra) })
		return
	}
	posted := time.Since(l.base)
	src.loop.Post(func() {
		src.lt.addSpan(lPostWait, posted, time.Since(l.base), message.ID{})
		src.lt.enter(lCoreSend, message.ID{})
		src.lt.stack[len(src.lt.stack)-1].seq = seq
		src.node.Send(l.pub, extra)
		l.sentEnd[seq] = src.lt.now()
		src.lt.exit()
	})
}

// window is a contiguous range of sequence numbers offered at one rate.
type window struct {
	first, last int32         // inclusive
	late        time.Duration // the generator's worst lateness
	use         usage
}

// generate offers n messages at rate from this goroutine, open loop: each
// message is due at a fixed offset from the start, and its latency is
// measured from when it was due, so a stall also delays everything queued
// behind it. stop, when non-nil, ends the window early once it reports
// true (checked every few milliseconds of schedule).
func (l *line) generate(rate float64, n int, stop func() bool) window {
	period := time.Duration(float64(time.Second) / rate)
	w := window{first: l.nextSeq}
	l.inWindow.Store(0)
	l.from.Store(w.first)
	start := time.Now()
	check := int(rate / 200) // about every 5 ms of schedule
	if check < 1 {
		check = 1
	}
	for i := 0; i < n && int(l.nextSeq) < len(l.due); i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			sleep(d)
		}
		if late := time.Since(due); late > w.late {
			w.late = late
		}
		seq := l.nextSeq
		l.nextSeq++
		l.due[seq] = due.Sub(l.base)
		l.post(seq)
		if stop != nil && i%check == 0 && stop() {
			break
		}
	}
	w.last = l.nextSeq - 1
	return w
}

// sleep blocks the calling thread in nanosleep. time.Sleep rounds a
// sub-millisecond wait up to the runtime poller's millisecond timeout,
// which made the generator's median lateness about 0.5 ms at any rate;
// nanosleep's is under 0.1 ms.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// waitDrained waits up to d for every message of the last generated
// window to arrive, or until idle passes without an arrival.
func (l *line) waitDrained(w window, d, idle time.Duration) {
	want := int64(w.last - w.first + 1)
	deadline := time.Now().Add(d)
	last, lastAt := l.inWindow.Load(), time.Now()
	for {
		n := l.inWindow.Load()
		now := time.Now()
		if n >= want || now.After(deadline) || now.Sub(lastAt) > idle {
			return
		}
		if n != last {
			last, lastAt = n, now
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sync orders the sink loop's writes before the caller's reads.
func (l *line) sync() { l.sink().loop.Call(func() {}) }

// tally counts a window's deliveries after drain.
type tally struct {
	offered, missing, dups int
	lat                    []float64 // ms
	lateHalf, earlyHalf    []float64
}

func (l *line) tally(w window) tally {
	var t tally
	mid := w.first + (w.last-w.first)/2
	for s := w.first; s <= w.last; s++ {
		t.offered++
		switch c := l.count[s]; {
		case c == 0:
			t.missing++
			continue
		case c > 1:
			t.dups += int(c - 1)
		}
		v := ms(l.arrived[s] - l.due[s])
		t.lat = append(t.lat, v)
		if s < mid {
			t.earlyHalf = append(t.earlyHalf, v)
		} else {
			t.lateHalf = append(t.lateHalf, v)
		}
	}
	return t
}

// setUp builds a line and warms it up: the interest must reach the source
// before anything is sent (the first exploratory message would otherwise
// find no gradient, and the next one is an exploratory interval away);
// then the generator runs at the workload's rate until reinforced data
// reaches the sink and, with custody, the source has drained what it
// captured before reinforcement. Everything up to that point is set-up
// time.
func setUp(w liveWorkload, seed int64, round int, dir string, traced bool, capacity int) (*line, window, time.Duration, error) {
	start := time.Now()
	l, err := newLine(w, seed, round, dir, traced, capacity)
	if err != nil {
		return nil, window{}, 0, err
	}
	fail := func(err error) (*line, window, time.Duration, error) {
		l.close()
		return nil, window{}, 0, err
	}
	if err := l.subscribe(); err != nil {
		return fail(err)
	}
	src := l.src()
	deadline := time.Now().Add(warmCap)
	for {
		entries := 0
		src.loop.Call(func() { entries = src.node.Entries() })
		if entries > 0 {
			break
		}
		if time.Now().After(deadline) {
			return fail(errors.New("interest never reached the source"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	ready := func() bool {
		return l.plainSeen.Load() && (src.q == nil || src.q.Len() < 10)
	}
	warm := l.generate(w.rate, int(w.rate*warmCap.Seconds()), ready)
	if !ready() {
		return l, warm, time.Since(start), errNotReady
	}
	return l, warm, time.Since(start), nil
}

// errNotReady reports a line whose warm-up ran out of time: reinforced
// data never reached the sink or, with custody, the source never drained
// its captures.
var errNotReady = errors.New("the line did not become ready within the warm-up limit")

// liveCounts are the per-layer counters read from the program after a
// round.
type liveCounts struct {
	core                  []core.Stats
	match                 core.MatchStats
	rx, retrans, drops    uint64
	shed, replayed, syncs uint64
}

func (l *line) counts() liveCounts {
	var c liveCounts
	for _, ln := range l.nodes {
		ln.loop.Call(func() {
			c.core = append(c.core, ln.node.Stats)
			c.match = addMatch(c.match, ln.node.MatchStats())
		})
		st := ln.link.Stats()
		c.rx += st.Recv.Load()
		c.retrans += st.CustodyRetransmits.Load()
		c.drops += st.SendErrors.Load() + st.RecvDropped.Load() + st.QueueDrops.Load() + st.CustodyRejected.Load()
		if ln.q != nil {
			qc := ln.q.Counters()
			c.shed += qc.Shed
			c.replayed += qc.Replayed
			c.syncs += ln.store.Stats().Syncs
		}
	}
	return c
}

// roundOut is what one round measured. It keeps nothing of the line
// itself, so finished rounds do not count toward the next one's heap.
type roundOut struct {
	setup    time.Duration
	fixed    window
	tally    tally
	warm     tally
	bytes    uint64 // transport bytes sent during the fixed window
	counts   liveCounts
	corrupt  bool // a delivery carried a payload or sequence number never sent
	notReady bool // the warm-up ran out of time; there is no fixed-rate window
	// traced rounds only
	tracks          []*track
	maxDepth        int64
	latSum, covered time.Duration // see residual
	waited          time.Duration
}

// search is a binary search for the highest passing rung of the ladder,
// one probe per round: each probe runs on a line that has just passed the
// fixed-rate window, so an earlier overload cannot damage it. The search
// assumes a rung passes when a higher one does.
type search struct{ lo, hi int } // ladder[lo] passed, ladder[hi] failed

func newSearch(w liveWorkload) *search {
	s := &search{lo: -1, hi: len(w.ladder)}
	for i, r := range w.ladder {
		if r == w.rate {
			s.lo = i // set from the first window's outcome in runRound
		}
	}
	return s
}

func (s *search) capacity(w liveWorkload) float64 {
	if s.lo < 0 {
		return 0
	}
	return w.ladder[s.lo]
}

// runRound sets up a line, offers the fixed rate for windowDur, then, with
// a search, probes one ladder rung.
func runRound(w liveWorkload, seed int64, round int, dir string, windowDur time.Duration, sr *search, traced bool, hp *heapPeak) (roundOut, error) {
	var out roundOut
	need := int(w.rate*(warmCap+windowDur).Seconds()) + 1
	if sr != nil {
		need += int(w.ladder[len(w.ladder)-1] * w.trial.Seconds())
	}
	l, warm, setup, err := setUp(w, seed, round, dir, traced, need)
	if err != nil && !errors.Is(err, errNotReady) {
		return out, err
	}
	defer l.close()
	out.setup = setup
	if err != nil {
		// The round still counts: its warm-up messages are attempts, and
		// with custody every one that never arrives is a failure.
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", w.name, round, err)
		l.waitDrained(warm, w.drain, w.drain)
		l.sync()
		out.warm = l.tally(warm)
		out.counts = l.counts()
		out.corrupt = l.corrupt.Load() > 0 || l.unknown.Load() > 0
		out.notReady = true
		return out, nil
	}

	b0 := l.sentBytes()
	u0 := snapshot()
	out.fixed = l.generate(w.rate, int(w.rate*windowDur.Seconds()), nil)
	l.waitDrained(out.fixed, w.drain, w.drain)
	out.fixed.use = since(u0)
	out.bytes = l.sentBytes() - b0
	l.sync()
	out.warm = l.tally(warm)
	out.tally = l.tally(out.fixed)
	out.counts = l.counts()
	out.corrupt = l.corrupt.Load() > 0 || l.unknown.Load() > 0
	if traced {
		for _, ln := range l.nodes {
			out.tracks = append(out.tracks, ln.lt, ln.rd)
			out.maxDepth = max(out.maxDepth, ln.maxDepth.Load())
		}
		out.latSum, out.covered, out.waited = l.residual(out.fixed)
	}
	if sr == nil {
		return out, nil
	}
	if why := out.tally.rungFailure(w.p99Limit); why != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d: fixed rate %.0f msg/s fails: %s\n", w.name, round, w.rate, why)
		if round == 0 {
			sr.hi, sr.lo = sr.lo, -1
		}
		return out, nil
	}
	if sr.hi-sr.lo <= 1 {
		return out, nil
	}
	hp.pause(true)
	mid := (sr.lo + sr.hi) / 2
	if sr.lo < 0 {
		mid = 0
	}
	r := w.ladder[mid]
	tw := l.generate(r, int(r*w.trial.Seconds()), nil)
	l.waitDrained(tw, w.drain, w.idle)
	l.sync()
	if why := l.tally(tw).rungFailure(w.p99Limit); why != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %.0f msg/s fails: %s\n", w.name, round, r, why)
		sr.hi = mid
	} else {
		sr.lo = mid
	}
	return out, nil
}

// rungFailure says why a ladder rung fails, or "" when it passes: at most
// lossLimit of its messages missing or duplicated, p99 within the limit,
// and no growing backlog (the second half of the rung no slower than
// twice the first).
func (t tally) rungFailure(limit time.Duration) string {
	switch p99 := quantile(t.lat, 0.99); {
	case float64(t.missing+t.dups) > lossLimit*float64(t.offered):
		return fmt.Sprintf("%d missing, %d duplicates of %d", t.missing, t.dups, t.offered)
	case p99 > ms(limit):
		return fmt.Sprintf("p99 %.2f ms over %v", p99, limit)
	case median(t.lateHalf) > 2*median(t.earlyHalf)+1:
		return fmt.Sprintf("backlog: median %.2f ms in the second half, %.2f ms in the first",
			median(t.lateHalf), median(t.earlyHalf))
	}
	return ""
}

func (l *line) sentBytes() uint64 {
	var n uint64
	for _, ln := range l.nodes {
		n += ln.link.Stats().SentBytes.Load()
	}
	return n
}

func benchDir(sub string) string {
	root := os.Getenv("CARGO_TARGET_DIR")
	if root == "" {
		root = ".bench_build"
	}
	return filepath.Join(root, sub)
}

func runLiveWorkload(w liveWorkload, seed int64, seconds int, trace bool) (result, error) {
	var res result
	journals := benchDir("journals")
	if err := os.MkdirAll(journals, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(journals, w.name+"-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	budget := time.Duration(seconds) * time.Second
	hp := startHeapPeak()
	defer hp.finish()
	rounds := func(n, first int, window time.Duration, sr *search, traced bool) ([]roundOut, error) {
		var outs []roundOut
		for r := 0; r < n; r++ {
			settle()
			hp.pause(false)
			o, err := runRound(w, seed, first+r, dir, window, sr, traced, hp)
			if err != nil {
				return nil, err
			}
			outs = append(outs, o)
		}
		return outs, nil
	}
	if !trace {
		outs, err := rounds(liveRounds, 0, budget/liveRounds, nil, false)
		if err != nil {
			return res, err
		}
		res = liveResult(w, outs)
		res.metrics = liveEndToEnd(w, outs, hp.finish())
		return res, nil
	}

	// The traced invocation makes an untraced pass first, with one capacity
	// probe per round, for the counts, p99, capacity and the overhead
	// baseline; then a traced pass for the layer times.
	sr := newSearch(w)
	outs, err := rounds(liveRounds, 0, budget/4/liveRounds, sr, false)
	if err != nil {
		return res, err
	}
	touts, err := rounds(tracedRounds, liveRounds, budget/4/tracedRounds, nil, true)
	if err != nil {
		return res, err
	}
	res = liveResult(w, outs)
	tres := liveResult(w, touts)
	res.attempted += tres.attempted
	res.failed += tres.failed
	res.correct = res.correct && tres.correct
	res.metrics = livePerLayer(outs, touts)
	res.metrics["capacity_msgs_s"] = sr.capacity(w)
	var tracks []*track
	for _, o := range touts {
		tracks = append(tracks, o.tracks...)
	}
	path := benchDir(filepath.Join("spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed)))
	if err := writeSpans(path, tracks); err != nil {
		return res, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	return res, nil
}

// liveResult counts every message of the fixed-rate windows as an
// attempt, and each missing or duplicate delivery as a failure. With
// custody the warm-up messages count too: custody promises to deliver
// data sent before the path was reinforced, where plain diffusion drops
// it by design. Ladder rungs are probes and do not count.
func liveResult(w liveWorkload, outs []roundOut) result {
	res := result{correct: true}
	for _, o := range outs {
		ts := []tally{o.tally}
		if w.custody {
			ts = append(ts, o.warm)
		}
		for _, t := range ts {
			res.attempted += t.offered
			res.failed += t.missing + t.dups
		}
		if o.corrupt {
			res.correct = false
		}
	}
	return res
}

func liveEndToEnd(w liveWorkload, outs []roundOut, peakMB float64) map[string]float64 {
	var setups []float64
	var use usage
	var offered, distinct int
	var bytes uint64
	for _, o := range outs {
		setups = append(setups, o.setup.Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: %s round: setup %.3fs p50 %.3fms p99 %.3fms generator late %.3fms\n",
			w.name, o.setup.Seconds(), quantile(o.tally.lat, 0.5), quantile(o.tally.lat, 0.99), ms(o.fixed.late))
		use.add(o.fixed.use)
		offered += o.tally.offered
		distinct += o.tally.offered - o.tally.missing
		bytes += o.bytes
	}
	minutes := use.wall.Minutes()
	return map[string]float64{
		"setup_s":          median(setups),
		"host_ms_per_vmin": ms(use.cpu) / minutes,
		"allocs_per_vmin":  float64(use.allocs) / minutes,
		"peak_heap_mb":     peakMB,
		"delivered_frac":   ratio(float64(distinct), float64(offered)),
		"bytes_per_event":  ratio(float64(bytes), float64(distinct)),
		"cpu_us_per_msg":   ratio(float64(use.cpu.Microseconds()), float64(distinct)),
		"allocs_per_msg":   ratio(float64(use.allocs), float64(distinct)),
	}
}

func livePerLayer(outs, touts []roundOut) map[string]float64 {
	m := zeroPerLayer()
	var lat []float64
	for _, o := range outs {
		lat = append(lat, o.tally.lat...)
	}
	m["p50_ms"], m["p99_ms"] = quantile(lat, 0.5), quantile(lat, 0.99)
	var use, tuse usage
	var delivered, tdelivered int
	var cores []core.Stats
	var match core.MatchStats
	var c liveCounts
	var late time.Duration
	for _, o := range outs {
		use.add(o.fixed.use)
		delivered += o.tally.offered - o.tally.missing
		cores = append(cores, o.counts.core...)
		match = addMatch(match, o.counts.match)
		c.rx += o.counts.rx
		c.retrans += o.counts.retrans
		c.drops += o.counts.drops
		c.shed += o.counts.shed
		c.replayed += o.counts.replayed
		c.syncs += o.counts.syncs
		if o.fixed.late > late {
			late = o.fixed.late
		}
	}
	var tracks []*track
	var maxDepth int64
	var latSum, covered, waited time.Duration
	for _, o := range touts {
		tuse.add(o.fixed.use)
		tdelivered += o.tally.offered - o.tally.missing
		tracks = append(tracks, o.tracks...)
		maxDepth = max(maxDepth, o.maxDepth)
		latSum += o.latSum
		covered += o.covered
		waited += o.waited
	}
	lt := mergeTracks(tracks)
	coreCounts(m, cores)
	matchCounts(m, match)
	m["core.receive_calls"] = float64(lt.calls[lCoreRecv])
	m["core.receive_self_ms"] = ms(lt.self[lCoreRecv])
	m["core.receive_us_p50"] = durQuantile(lt.durs[lCoreRecv], 0.5)
	m["core.receive_us_p99"] = durQuantile(lt.durs[lCoreRecv], 0.99)
	m["core.timer_self_ms"] = ms(lt.self[lCoreTimer])
	m["core.send_self_ms"] = ms(lt.self[lCoreSend])
	m["link.send_calls"] = float64(lt.calls[lTransportSend])
	m["link.send_us_p50"] = durQuantile(lt.durs[lTransportSend], 0.5)
	m["link.send_us_p99"] = durQuantile(lt.durs[lTransportSend], 0.99)
	m["transport.send_us_p50"] = durQuantile(lt.durs[lTransportSend], 0.5)
	m["transport.send_us_p99"] = durQuantile(lt.durs[lTransportSend], 0.99)
	m["transport.datagrams_rx"] = float64(c.rx)
	m["transport.custody_retransmits"] = float64(c.retrans)
	m["transport.drops"] = float64(c.drops)
	m["rt.post_wait_us_p50"] = durQuantile(lt.durs[lPostWait], 0.5)
	m["rt.post_wait_us_p99"] = durQuantile(lt.durs[lPostWait], 0.99)
	m["rt.queue_depth_max"] = float64(maxDepth)
	m["custody.accept_us_p50"] = durQuantile(lt.durs[lCustodyAccept], 0.5)
	m["custody.accept_us_p99"] = durQuantile(lt.durs[lCustodyAccept], 0.99)
	m["custody.journal_us_p50"] = durQuantile(lt.durs[lJournal], 0.5)
	m["custody.journal_us_p99"] = durQuantile(lt.durs[lJournal], 0.99)
	m["custody.syncs_per_msg"] = ratio(float64(c.syncs), float64(delivered))
	m["custody.shed"] = float64(c.shed)
	m["custody.replayed"] = float64(c.replayed)
	m["runtime.gc_cpu_frac"] = use.gcFrac()
	m["runtime.gc_cycles"] = float64(use.gcCycles)
	m["gen.late_ms"] = ms(late)
	untraced := ratio(float64(use.cpu), float64(delivered))
	traced := ratio(float64(tuse.cpu), float64(tdelivered))
	m["trace.overhead_frac"] = ratio(traced, untraced) - 1
	m["residual_frac"] = 1 - ratio(float64(covered), float64(latSum))
	m["rt.post_wait_frac"] = ratio(float64(waited), float64(latSum))
	return m
}

// residual returns, over a traced window's delivered messages, the summed
// end-to-end latency, the part of it spans account for, and the part spent
// waiting in the relay's and sink's rt.Loop queues. Spans account for the
// source's side from the due time to the end of core.Send, plus every
// top-level span on the relay and sink charged to the message's ID. What
// remains is mostly the kernel's UDP path and the reader goroutines'
// wake-ups, which the benchmark cannot wrap.
func (l *line) residual(w window) (latSum, covered, waited time.Duration) {
	idToSeq := map[message.ID]int32{}
	for _, ln := range l.nodes {
		for id, s := range ln.lt.idToSeq {
			idToSeq[id] = s
		}
	}
	spanSum, waitSum := map[int32]time.Duration{}, map[int32]time.Duration{}
	for _, ln := range l.nodes[1:] {
		for _, t := range []*track{ln.lt, ln.rd} {
			for _, s := range t.spans {
				seq, ok := idToSeq[s.id]
				if !ok || s.parent >= 0 {
					continue
				}
				spanSum[seq] += s.end - s.start
				if s.l == lPostWait {
					waitSum[seq] += s.end - s.start
				}
			}
		}
	}
	for s := w.first; s <= w.last; s++ {
		if l.count[s] == 0 || l.sentEnd[s] == 0 {
			continue
		}
		lat := l.arrived[s] - l.due[s]
		latSum += lat
		covered += min(lat, l.sentEnd[s]-l.due[s]+spanSum[s])
		waited += waitSum[s]
	}
	return latSum, covered, waited
}
