package main

import (
	"fmt"
	"math"
	"reflect"
	"time"

	"diffusion"
	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/filters"
	"diffusion/internal/mac"
	"diffusion/internal/message"
	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
	"diffusion/internal/topo"
)

// simNet is one simulated network: built by diffusion.NewNetwork for
// untraced runs, or by wireTraced, which repeats NewNetwork's wiring with
// a timing wrapper at every module boundary.
type simNet struct {
	exec  sim.Executor
	ids   []uint32
	nodes map[uint32]*core.Node
	macs  map[uint32]*mac.Mac
	env   func(id uint32) sim.Clock
	chans func() radio.ChannelStats
}

func buildUntraced(seed int64, tp *topo.Topology) *simNet {
	net := diffusion.NewNetwork(diffusion.NetworkConfig{Seed: seed, Topology: tp})
	sn := &simNet{
		exec:  net.Executor(),
		ids:   net.IDs(),
		nodes: map[uint32]*core.Node{},
		macs:  map[uint32]*mac.Mac{},
		env:   func(id uint32) sim.Clock { return net.NodeEnv(id) },
		chans: net.ChannelStats,
	}
	for _, id := range sn.ids {
		n := net.Node(id)
		sn.nodes[id], sn.macs[id] = n.Node, n.MAC
	}
	return sn
}

// wireTraced mirrors diffusion.NewNetwork for a sequential kernel with
// default radio and MAC parameters and no custody, tracing or motes. Each
// layer gets its scheduling context through a wrapper that opens a span
// around every callback it schedules: the radio through the executor the
// channel resolves ports from, the MAC through its sim.Env, the core
// through its sim.Clock. mac.Send and core.Node.Receive are wrapped at the
// core.Link and mac.Attach handler boundaries.
func wireTraced(seed int64, tp *topo.Topology, tr *track) *simNet {
	rp, mp := radio.DefaultParams(), mac.DefaultParams()
	if rp.PropDelay <= 0 {
		rp.PropDelay = time.Nanosecond
	}
	kern := sim.NewKernel(sim.KernelConfig{
		Seed: seed, Shards: 1, Propagation: rp.PropDelay, TxTurnaround: mp.Turnaround(),
	})
	hub := telemetry.NewHub(kern.Now)
	ch := radio.NewChannel(execWrap{kern, tr, lRadio}, tp, rp)
	ch.Instrument(hub.Register(telemetry.NewRegistry("channel")))
	sn := &simNet{
		exec:  execWrap{kern, tr, lGen},
		ids:   tp.IDs(),
		nodes: map[uint32]*core.Node{},
		macs:  map[uint32]*mac.Mac{},
		chans: ch.Stats,
	}
	ports := map[uint32]sim.Port{}
	for _, id := range sn.ids {
		port := kern.AddNode(id, 0)
		ports[id] = port
		reg := telemetry.NewRegistry(fmt.Sprintf("node-%d", id))
		hub.Register(reg)
		var n *core.Node
		m := mac.Attach(portWrap{port, tr, lMac}, ch, id, mp, func(from uint32, payload []byte) {
			tr.enter(lCoreRecv, message.ID{})
			n.Receive(from, payload)
			tr.exit()
		})
		n = core.NewNode(core.Config{
			Clock:  portWrap{port, tr, lCoreTimer},
			Rand:   port.Rand(),
			Link:   macLink{m, tr},
			Flight: telemetry.NewFlight(telemetry.DefaultFlightSize),
		})
		n.Instrument(reg)
		m.Instrument(reg)
		m.Radio().Instrument(reg)
		sn.nodes[id], sn.macs[id] = n, m
	}
	sn.env = func(id uint32) sim.Clock { return ports[id] }
	return sn
}

// execWrap hands out ports and global timers whose callbacks run inside a
// span of layer l.
type execWrap struct {
	sim.Executor
	tr *track
	l  layer
}

func (x execWrap) Port(id uint32) sim.Port { return portWrap{x.Executor.Port(id), x.tr, x.l} }

func (x execWrap) After(d time.Duration, fn func()) sim.Timer {
	return x.Executor.After(d, x.tr.wrap(x.l, fn))
}

func (x execWrap) Every(d, period time.Duration, fn func()) sim.Timer {
	return x.Executor.Every(d, period, x.tr.wrap(x.l, fn))
}

type portWrap struct {
	sim.Port
	tr *track
	l  layer
}

func (p portWrap) After(d time.Duration, fn func()) sim.Timer {
	return p.Port.After(d, p.tr.wrap(p.l, fn))
}

func (p portWrap) AfterTx(d time.Duration, fn func()) sim.Timer {
	return p.Port.AfterTx(d, p.tr.wrap(p.l, fn))
}

func (p portWrap) ScheduleRemote(to uint32, d time.Duration, fn func()) {
	p.Port.ScheduleRemote(to, d, p.tr.wrap(p.l, fn))
}

// macLink is the core.Link wrapper around the MAC. The MAC has no custody
// surface, so there is no core.CustodyLink to forward.
type macLink struct {
	m  *mac.Mac
	tr *track
}

func (l macLink) ID() uint32 { return l.m.ID() }

func (l macLink) Send(dst uint32, payload []byte) error {
	l.tr.enter(lMacSend, message.ID{})
	err := l.m.Send(dst, payload)
	l.tr.exit()
	return err
}

// simStats is everything a run simulated. Repeats of a seed, and the
// traced run of it, must produce identical values.
type simStats struct {
	Core       []core.Stats
	Mac        []mac.Stats
	Radio      []radio.TransceiverStats
	Chan       radio.ChannelStats
	Deliveries [][]delivery // per sink, in delivery order
}

type delivery struct {
	Seq int32
	At  time.Duration
}

func (sn *simNet) stats(sinks [][]delivery) simStats {
	st := simStats{Chan: sn.chans(), Deliveries: sinks}
	for _, id := range sn.ids {
		st.Core = append(st.Core, sn.nodes[id].Stats)
		st.Mac = append(st.Mac, sn.macs[id].Stats)
		st.Radio = append(st.Radio, sn.macs[id].Radio().Stats)
	}
	return st
}

// sameSim compares two runs' statistics. FilterInvocations is left out
// when one side was traced: its filter bracket adds two filter calls per
// message.
func sameSim(a, b simStats, traced bool) bool {
	if traced {
		a, b = stripFilterCalls(a), stripFilterCalls(b)
	}
	return reflect.DeepEqual(a, b)
}

func stripFilterCalls(s simStats) simStats {
	c := append([]core.Stats(nil), s.Core...)
	for i := range c {
		c[i].FilterInvocations = 0
	}
	s.Core = c
	return s
}

// simWorkload describes one simulated scenario.
type simWorkload struct {
	topo     func() *topo.Topology
	duration time.Duration // virtual time per run
	period   time.Duration // event period per source
	sinks    func(tp *topo.Topology) []uint32
	sources  func(tp *topo.Topology) []uint32
	interest attr.Vec
	pub      attr.Vec
	payload  int  // opaque bytes padding each event
	suppress bool // duplicate-suppression filter on every node
	// perSecond is the number of distinct seeds run per second of
	// --seconds, sized so a run takes about that long on a 2-core host.
	perSecond float64
}

var grid1024 = simWorkload{
	topo:     func() *topo.Topology { return topo.Grid(32, 32, 9) },
	duration: 2 * time.Minute,
	period:   5 * time.Second,
	sinks: func(tp *topo.Topology) []uint32 {
		n := uint32(tp.Len())
		return []uint32{1, 32, n - 32 + 1, n}
	},
	sources: func(*topo.Topology) []uint32 {
		const side = 32
		return []uint32{side/2 + 1, side*(side/2) + 1, side*(side/2) + side, side*(side-1) + side/2, side*(side/2) + side/2}
	},
	interest:  attr.Vec{attr.StringAttr(attr.KeyTask, attr.EQ, "wide-area")},
	pub:       attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "wide-area")},
	perSecond: 1.3,
}

var testbedFig8 = simWorkload{
	topo:     topo.Testbed,
	duration: 30 * time.Minute,
	period:   6 * time.Second,
	sinks:    func(*topo.Topology) []uint32 { return []uint32{topo.TestbedSink} },
	sources:  func(*topo.Topology) []uint32 { return topo.TestbedSources()[:4] },
	interest: attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, "surveillance"),
		attr.Int32Attr(attr.KeyInterval, attr.IS, 6000),
	},
	pub:       attr.Vec{attr.StringAttr(attr.KeyTask, attr.IS, "surveillance")},
	payload:   50,
	suppress:  true,
	perSecond: 7,
}

// seqBase spaces the sources' sequence numbers apart so a sink can tell
// events of different sources apart without an extra attribute. The
// Figure 8 workload keeps the paper's synchronized sequence numbers:
// there, the same number from every source is one event.
const seqBase = 1 << 20

// simRun is the outcome of one simulated run.
type simRun struct {
	stats      simStats
	setup      time.Duration
	use        usage // process counters over the event loop
	delivered  int   // distinct events summed over sinks
	originated int   // events offered to each sink, summed over sinks
	bytes      int   // diffusion bytes sent by all nodes
	sent       int   // diffusion messages sent by all nodes
	lat        []time.Duration
	match      core.MatchStats
	vmin       float64 // virtual minutes simulated
	heapMB     float64 // heap retained by the network when the run ends
	// traced runs only
	events  int64
	simSelf time.Duration
}

// runSim builds and runs one seed of w. A nil tr runs the program as
// diffusion.NewNetwork builds it.
func runSim(w simWorkload, seed int64, tr *track) simRun {
	settle()
	start := time.Now()
	tp := w.topo()
	var sn *simNet
	if tr == nil {
		sn = buildUntraced(seed, tp)
	} else {
		sn = wireTraced(seed, tp, tr)
	}
	if w.suppress {
		for _, id := range sn.ids {
			n := sn.nodes[id]
			filters.NewSuppression(n, sn.env(id), filters.SuppressionOptions{})
			if tr != nil {
				// The suppression filter registers its callback inside the
				// filters package, so the traced run brackets it with two
				// pass-through filters of its own: one above it opens the
				// filter span, one below it hands the message back to
				// the core.
				n.AddFilter(nil, 30000, func(m *message.Message, h core.FilterHandle) {
					tr.enter(lFilter, message.ID{})
					n.SendMessageToNext(m, h)
					tr.exit()
				})
				n.AddFilter(nil, 1, func(m *message.Message, h core.FilterHandle) {
					tr.enterCore()
					n.SendMessageToNext(m, h)
					tr.exit()
				})
			}
		}
	}
	sinks := w.sinks(tp)
	got := make([][]delivery, len(sinks))
	seen := make([]map[int32]bool, len(sinks))
	var lat []time.Duration
	sources := w.sources(tp)
	for i, id := range sinks {
		i, clock := i, sn.env(id)
		seen[i] = map[int32]bool{}
		cb := func(m *message.Message) {
			a, ok := m.Attrs.FindActual(attr.KeySequence)
			if !ok {
				return
			}
			seq := a.Val.Int32()
			if seen[i][seq] {
				return
			}
			seen[i][seq] = true
			now := clock.Now()
			got[i] = append(got[i], delivery{seq, now})
			lat = append(lat, now-time.Duration(seq%seqBase)*w.period)
		}
		if tr != nil {
			inner := cb
			cb = func(m *message.Message) {
				tr.enter(lApp, message.ID{})
				inner(m)
				tr.exit()
			}
		}
		sn.nodes[id].Subscribe(w.interest, cb)
	}
	pubs := make([]core.PublicationHandle, len(sources))
	for i, id := range sources {
		pubs[i] = sn.nodes[id].Publish(w.pub)
	}
	payload := make([]byte, w.payload)
	k := int32(0)
	sn.exec.Every(w.period, w.period, func() {
		k++
		for i, id := range sources {
			seq := k
			if !w.suppress {
				seq += int32(i) * seqBase
			}
			extra := attr.Vec{attr.Int32Attr(attr.KeySequence, attr.IS, seq)}
			if w.payload > 0 {
				extra = append(extra, attr.BlobAttr(attr.KeyPayload, attr.IS, payload))
			}
			if tr != nil {
				tr.enter(lCoreSend, message.ID{})
			}
			sn.nodes[id].Send(pubs[i], extra)
			if tr != nil {
				tr.exit()
			}
		}
	})
	r := simRun{vmin: w.duration.Minutes()}
	r.setup = time.Since(start)
	var top0 time.Duration
	var tops0 int64
	if tr != nil {
		top0, tops0 = tr.top, tr.tops
	}
	u0 := snapshot()
	sn.exec.RunUntil(sn.exec.Now() + w.duration)
	r.use = since(u0)
	if tr != nil {
		r.events = tr.tops - tops0
		r.simSelf = r.use.wall - (tr.top - top0)
	}
	r.stats = sn.stats(got)
	r.heapMB = retainedMB()
	events := int(k)
	if !w.suppress {
		events *= len(sources)
	}
	r.originated = events * len(sinks)
	for i := range got {
		r.delivered += len(got[i])
	}
	for _, st := range r.stats.Core {
		r.bytes += st.BytesSent
		for _, n := range st.SentByClass {
			r.sent += n
		}
	}
	for _, id := range sn.ids {
		r.match = addMatch(r.match, sn.nodes[id].MatchStats())
	}
	r.lat = lat
	return r
}

// subSeeds derives the run's distinct simulation seeds from --seed.
func subSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = seed*1000 + int64(i) + 1
	}
	return out
}

// repeats is how many of a pass's seeds run a second time, to check that
// a repeat reproduces the first run exactly.
const repeats = 2

// simPass runs every seed once and the first few again, and returns the
// first runs, all runs, and the number of repeats that differed.
func simPass(w simWorkload, seeds []int64) (first, all []simRun, failed int) {
	for _, s := range seeds {
		r := runSim(w, s, nil)
		first = append(first, r)
		all = append(all, r)
	}
	for i := 0; i < repeats && i < len(seeds); i++ {
		r := runSim(w, seeds[i], nil)
		all = append(all, r)
		if !sameSim(first[i].stats, r.stats, false) {
			failed++
		}
	}
	return first, all, failed
}

func runSimWorkload(w simWorkload, seed int64, seconds int, trace bool) result {
	n := int(w.perSecond*float64(seconds)+0.5) - repeats
	if n < 1 {
		n = 1
	}
	if trace {
		// The traced invocation spends half its time on an untraced pass
		// (for counts and the overhead baseline) and half tracing.
		n = (n + 1) / 2
	}
	seeds := subSeeds(seed, n)
	first, all, failed := simPass(w, seeds)
	var res result
	res.attempted = len(all)
	res.failed = failed
	res.correct = failed == 0
	if !trace {
		res.metrics = simEndToEnd(first, all)
		return res
	}

	tr := newTrack(time.Now(), 0, "sim", false, lCoreRecv, lMacSend)
	var traced []simRun
	for i, s := range seeds {
		r := runSim(w, s, tr)
		traced = append(traced, r)
		res.attempted++
		if !sameSim(first[i].stats, r.stats, true) {
			res.failed++
			res.correct = false
		}
	}
	res.metrics = simPerLayer(first, all, traced, tr)
	return res
}

// simEndToEnd derives the end-to-end metrics. The heap peak is the
// largest heap a network retains at the end of its run: the simulator's
// state grows with simulated time, and a sample taken mid-run would
// measure where the collector happened to be instead.
func simEndToEnd(first, all []simRun) map[string]float64 {
	var setups, perVmin []float64
	peakMB := 0.0
	var use usage
	var vmin float64
	sent := 0
	for _, r := range all {
		setups = append(setups, r.setup.Seconds())
		peakMB = math.Max(peakMB, r.heapMB)
		perVmin = append(perVmin, ms(r.use.cpu)/r.vmin)
		use.add(r.use)
		vmin += r.vmin
		sent += r.sent
	}
	var lat []float64
	distinct, originated, bytes := 0, 0, 0
	for _, r := range first {
		distinct += r.delivered
		originated += r.originated
		bytes += r.bytes
		for _, d := range r.lat {
			lat = append(lat, ms(d))
		}
	}
	p50, p99 := quantile(lat, 0.5), quantile(lat, 0.99)
	return map[string]float64{
		"setup_s":          median(setups),
		"host_ms_per_vmin": median(perVmin),
		"allocs_per_vmin":  float64(use.allocs) / vmin,
		"peak_heap_mb":     peakMB,
		"delivered_frac":   ratio(float64(distinct), float64(originated)),
		"bytes_per_event":  ratio(float64(bytes), float64(distinct)),
		"p50_ms":           p50,
		"p99_ms":           p99,
		"capacity_msgs_s":  ratio(float64(sent), use.wall.Seconds()),
		"cpu_us_per_msg":   ratio(float64(use.cpu.Microseconds()), float64(sent)),
		"allocs_per_msg":   ratio(float64(use.allocs), float64(sent)),
	}
}

func simPerLayer(first, all, traced []simRun, tr *track) map[string]float64 {
	m := zeroPerLayer()
	e2e := simEndToEnd(first, all)
	for _, k := range []string{"p50_ms", "p99_ms", "capacity_msgs_s"} {
		m[k] = e2e[k]
	}
	var use usage
	var untracedWall, tracedWall time.Duration
	for _, r := range all {
		use.add(r.use)
	}
	var st simStats
	var match core.MatchStats
	for i, r := range first {
		untracedWall += r.use.wall
		tracedWall += traced[i].use.wall
		match = addMatch(match, r.match)
		st = addStats(st, r.stats)
	}
	var events int64
	var simSelf time.Duration
	for _, r := range traced {
		events += r.events
		simSelf += r.simSelf
	}
	busy := float64(tracedWall)
	m["sim.events"] = float64(events)
	m["sim.self_ms"] = ms(simSelf)
	m["sim.self_frac"] = ratio(float64(simSelf), busy)
	m["radio.self_frac"] = ratio(float64(tr.self[lRadio]), busy)
	m["mac.self_frac"] = ratio(float64(tr.self[lMac]+tr.self[lMacSend]), busy)
	m["filters.self_frac"] = ratio(float64(tr.self[lFilter]), busy)
	m["link.send_calls"] = float64(tr.calls[lMacSend])
	m["link.send_us_p50"] = durQuantile(tr.durs[lMacSend], 0.5)
	m["link.send_us_p99"] = durQuantile(tr.durs[lMacSend], 0.99)
	m["sim.ns_per_event"] = ratio(float64(simSelf), float64(events))
	m["radio.callbacks"] = float64(tr.calls[lRadio])
	m["radio.self_ms"] = ms(tr.self[lRadio])
	for _, rs := range st.Radio {
		m["radio.frames_tx"] += float64(rs.FramesSent)
	}
	m["radio.receptions"] = float64(st.Chan.FramesDelivered + st.Chan.FramesLost + st.Chan.FramesCollided + st.Chan.FramesHalfDuplex)
	m["radio.collisions"] = float64(st.Chan.FramesCollided)
	m["mac.send_us"] = ratio(float64(tr.self[lMacSend])/1e3, float64(tr.calls[lMacSend]))
	m["mac.callbacks"] = float64(tr.calls[lMac])
	m["mac.self_ms"] = ms(tr.self[lMac])
	for _, ms := range st.Mac {
		m["mac.fragments_tx"] += float64(ms.FragmentsSent)
		m["mac.backoffs"] += float64(ms.Backoffs)
		m["mac.queue_drops"] += float64(ms.MessagesDropped)
	}
	coreCounts(m, st.Core)
	m["core.receive_calls"] = float64(tr.calls[lCoreRecv])
	m["core.receive_self_ms"] = ms(tr.self[lCoreRecv])
	m["core.receive_us_p50"] = durQuantile(tr.durs[lCoreRecv], 0.5)
	m["core.receive_us_p99"] = durQuantile(tr.durs[lCoreRecv], 0.99)
	m["core.timer_self_ms"] = ms(tr.self[lCoreTimer])
	m["core.send_self_ms"] = ms(tr.self[lCoreSend])
	matchCounts(m, match)
	m["filters.calls"] = float64(tr.calls[lFilter])
	m["filters.self_ms"] = ms(tr.self[lFilter])
	m["runtime.gc_cpu_frac"] = use.gcFrac()
	m["runtime.gc_cycles"] = float64(use.gcCycles)
	m["trace.overhead_frac"] = ratio(float64(tracedWall), float64(untracedWall)) - 1
	// Everything inside the event loop is inside some layer's span except
	// the benchmark's own generator and sink callbacks.
	m["residual_frac"] = ratio(float64(tr.self[lGen]+tr.self[lApp]), float64(tracedWall))
	return m
}

func addStats(a, b simStats) simStats {
	a.Core = append(a.Core, b.Core...)
	a.Mac = append(a.Mac, b.Mac...)
	a.Radio = append(a.Radio, b.Radio...)
	a.Chan.FramesSent += b.Chan.FramesSent
	a.Chan.FramesDelivered += b.Chan.FramesDelivered
	a.Chan.FramesLost += b.Chan.FramesLost
	a.Chan.FramesCollided += b.Chan.FramesCollided
	a.Chan.FramesHalfDuplex += b.Chan.FramesHalfDuplex
	a.Chan.FramesBlackout += b.Chan.FramesBlackout
	return a
}

func coreCounts(m map[string]float64, cs []core.Stats) {
	for _, s := range cs {
		m["core.duplicates"] += float64(s.Duplicates)
		m["core.neg_reinforcements"] += float64(s.NegReinforcements)
		m["core.data_no_path"] += float64(s.DataNoPath)
		m["core.custody_captured"] += float64(s.CustodyCaptured)
	}
}

// addMatch sums the match counters the benchmark reports.
func addMatch(a, b core.MatchStats) core.MatchStats {
	a.Lookups += b.Lookups
	a.CandidatesScanned += b.CandidatesScanned
	a.FallbackScans += b.FallbackScans
	return a
}

func matchCounts(m map[string]float64, ms core.MatchStats) {
	m["match.lookups"] = float64(ms.Lookups)
	m["match.candidates_per_lookup"] = ratio(float64(ms.CandidatesScanned), float64(ms.Lookups))
	m["match.fallback_scans"] = float64(ms.FallbackScans)
}
