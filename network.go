package diffusion

import (
	"fmt"
	"io"
	"time"

	"diffusion/internal/core"
	"diffusion/internal/custody"
	"diffusion/internal/energy"
	"diffusion/internal/mac"
	"diffusion/internal/message"
	"diffusion/internal/microdiff"
	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
	"diffusion/internal/topo"
)

// Topology places nodes; build one with TestbedTopology, GridTopology,
// LineTopology, RandomTopology, or topo.New for custom layouts.
type Topology = topo.Topology

// Topology constructors, re-exported.
var (
	// TestbedTopology is the paper's Figure 7 testbed: 14 PC/104 nodes on
	// two floors of ISI.
	TestbedTopology = topo.Testbed
	// GridTopology returns a cols×rows grid.
	GridTopology = topo.Grid
	// LineTopology returns n nodes in a line.
	LineTopology = topo.Line
	// RandomTopology places n nodes uniformly at random.
	RandomTopology = topo.Random
)

// Testbed roles from the paper's evaluation.
const (
	TestbedSink  = topo.TestbedSink
	TestbedUser  = topo.TestbedUser
	TestbedAudio = topo.TestbedAudio
)

// TestbedSources returns the Figure 8 sources / Figure 9 light sensors.
func TestbedSources() []uint32 { return topo.TestbedSources() }

// RadioParams configures the wireless channel; MACParams the link layer.
type (
	RadioParams = radio.Params
	MACParams   = mac.Params
)

// Substrate parameter presets.
var (
	// DefaultRadio is the testbed-calibrated lossy channel.
	DefaultRadio = radio.DefaultParams
	// PerfectRadio is loss-free (still rate-limited and collision-prone).
	PerfectRadio = radio.PerfectParams
	// DefaultMAC is the primitive testbed CSMA MAC.
	DefaultMAC = mac.DefaultParams
)

// Handles and callback types of the NR API, re-exported from the core.
type (
	// SubscriptionHandle identifies an active subscription.
	SubscriptionHandle = core.SubscriptionHandle
	// PublicationHandle identifies an active publication.
	PublicationHandle = core.PublicationHandle
	// FilterHandle identifies an installed filter.
	FilterHandle = core.FilterHandle
	// DataCallback receives locally delivered messages.
	DataCallback = core.DataCallback
	// FilterCallback receives messages matching a filter.
	FilterCallback = core.FilterCallback
)

// EnergyRatios is the section 6.1 radio energy model.
type EnergyRatios = energy.Ratios

// PaperEnergyRatios returns the paper's energy model parameters.
func PaperEnergyRatios() EnergyRatios { return energy.PaperRatios() }

// NetworkConfig configures a simulated diffusion network.
type NetworkConfig struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// Topology places the nodes (required).
	Topology *Topology
	// Radio and MAC default to the testbed presets when zero.
	Radio *RadioParams
	MAC   *MACParams
	// InterestInterval, GradientLifetime, ExploratoryInterval,
	// ExploratoryEvery, TTL and ForwardJitter configure the diffusion
	// protocol; zero values take the paper's testbed defaults (60 s
	// interests, exploratory data every 60 s). A positive
	// ExploratoryEvery switches to a count-based exploratory cadence.
	InterestInterval    time.Duration
	GradientLifetime    time.Duration
	ExploratoryInterval time.Duration
	ExploratoryEvery    int
	TTL                 uint8
	ForwardJitter       time.Duration
	// DisableNegativeReinforcement turns off duplicate-triggered path
	// teardown (ablation).
	DisableNegativeReinforcement bool
	// Custody gives every node a bounded custody queue (disruption
	// tolerance): reinforced-class data with no forward path is parked
	// and replayed when connectivity returns, instead of dropped. See
	// core.Config.Custody.
	Custody bool
	// CustodyLimit bounds each node's custody queue (0: 1024).
	CustodyLimit int
	// SeenTTL overrides the duplicate-suppression horizon (0: 2m). Mobile
	// and partitioned scenarios must keep it longer than the longest
	// disconnection, so replayed custody is still deduplicated.
	SeenTTL time.Duration
	// EnergyAware spreads reinforcement across exploratory deliverers
	// (see core.Config.EnergyAware).
	EnergyAware bool
	// TraceSampling, in (0,1], enables causal flight-path tracing: each
	// locally originated message is tagged with a 16-bit flow ID with this
	// probability, and every layer touching a sampled message (core, MAC,
	// custody) records a span into the node's span ring (see Spans and
	// Trace.Records). Zero disables tracing; runs are then bit-identical
	// to pre-trace builds — the sampling draw consumes no randomness.
	TraceSampling float64
	// MoteNodes lists topology IDs to instantiate as micro-diffusion
	// motes (second tier) instead of full diffusion nodes. Access them
	// with Mote(id); bridge the tiers with NewGateway.
	MoteNodes []uint32
}

// Network is a simulated sensor network: one diffusion node per topology
// node over a shared radio channel, driven by a deterministic virtual
// clock.
type Network struct {
	cfg     NetworkConfig
	kern    *sim.Kernel
	channel *radio.Channel
	nodes   map[uint32]*Node
	motes   map[uint32]*Mote
	ports   map[uint32]sim.Port
	order   []uint32
	// down tracks crashed nodes; faultHooks observe every injected fault
	// (see fault.go).
	down       map[uint32]bool
	faultHooks []func(FaultEvent)
	// Telemetry wiring (see telemetry.go): one registry per node plus one
	// for the shared channel, aggregated by the hub; one always-on flight
	// recorder per full node.
	hub        *telemetry.Hub
	regs       map[uint32]*telemetry.Registry
	flights    map[uint32]*telemetry.Flight
	flightSink io.Writer
	// spans holds one flight-path span ring per full node when
	// TraceSampling is enabled (see trace.go and cmd/difftrace paths).
	spans map[uint32]*telemetry.SpanRing
}

// Node is one network node: the diffusion engine plus its link stack. The
// embedded core node provides the paper's NR API — Subscribe, Unsubscribe,
// Publish, Unpublish, Send, AddFilter, RemoveFilter, SendMessageToNext,
// InjectMessage — and the Stats counters.
type Node struct {
	*core.Node
	// MAC is the node's link layer (fragmentation, CSMA, queue stats).
	MAC *mac.Mac
}

// RadioStats returns the node's physical-layer counters.
func (n *Node) RadioStats() radio.TransceiverStats { return n.MAC.Radio().Stats }

// Energy evaluates the energy model on this node's measured radio times.
func (n *Node) Energy(r EnergyRatios, elapsed time.Duration, dutyCycle float64) energy.Breakdown {
	st := n.MAC.Radio().Stats
	return r.Measured(st.TxTime, st.RxTime, elapsed, dutyCycle)
}

// NewNetwork builds the network with one node per topology entry.
func NewNetwork(cfg NetworkConfig) *Network {
	if cfg.Topology == nil {
		panic("diffusion: NetworkConfig.Topology is required")
	}
	rp := radio.DefaultParams()
	if cfg.Radio != nil {
		rp = *cfg.Radio
	}
	mp := mac.DefaultParams()
	if cfg.MAC != nil {
		mp = *cfg.MAC
	}
	if rp.PropDelay <= 0 {
		// The kernel requires a positive propagation delay; a nanosecond
		// keeps zero-delay configs running unchanged.
		rp.PropDelay = time.Nanosecond
	}
	kern := sim.NewKernel(sim.KernelConfig{
		Seed:         cfg.Seed,
		Propagation:  rp.PropDelay,
		TxTurnaround: mp.Turnaround(),
	})
	net := &Network{
		cfg:     cfg,
		kern:    kern,
		channel: radio.NewChannel(kern, cfg.Topology, rp),
		nodes:   map[uint32]*Node{},
		motes:   map[uint32]*Mote{},
		ports:   map[uint32]sim.Port{},
		order:   cfg.Topology.IDs(),
		down:    map[uint32]bool{},
		hub:     telemetry.NewHub(kern.Now),
		regs:    map[uint32]*telemetry.Registry{},
		flights: map[uint32]*telemetry.Flight{},
		spans:   map[uint32]*telemetry.SpanRing{},
	}
	net.channel.Instrument(net.hub.Register(telemetry.NewRegistry("channel")))
	moteSet := map[uint32]bool{}
	for _, id := range cfg.MoteNodes {
		moteSet[id] = true
	}
	for _, id := range net.order {
		port := kern.AddNode(id, 0)
		net.ports[id] = port
		reg := telemetry.NewRegistry(fmt.Sprintf("node-%d", id))
		net.hub.Register(reg)
		net.regs[id] = reg
		if moteSet[id] {
			var mote *Mote
			m := mac.Attach(port, net.channel, id, mp, func(from uint32, payload []byte) {
				mote.Receive(from, payload)
			})
			mote = microdiff.NewMote(m)
			net.motes[id] = mote
			net.instrumentLink(reg, m)
			continue
		}
		var n *Node
		m := mac.Attach(port, net.channel, id, mp, func(from uint32, payload []byte) {
			n.Receive(from, payload)
		})
		fl := telemetry.NewFlight(telemetry.DefaultFlightSize)
		net.flights[id] = fl
		var cusq *custody.Queue
		if cfg.Custody {
			// Journal-less in the simulator: the queue's partition
			// tolerance is what the scenarios measure, crash durability is
			// the live daemon's concern.
			cusq = custody.NewQueue(cfg.CustodyLimit, nil)
		}
		var ring *telemetry.SpanRing
		if cfg.TraceSampling > 0 {
			ring = telemetry.NewSpanRing(telemetry.DefaultSpanSize)
			net.spans[id] = ring
			m.Trace(ring, peekSpan)
		}
		n = &Node{
			Node: core.NewNode(core.Config{
				Clock:               port,
				Rand:                port.Rand(),
				Link:                m,
				InterestInterval:    cfg.InterestInterval,
				GradientLifetime:    cfg.GradientLifetime,
				ExploratoryInterval: cfg.ExploratoryInterval,
				ExploratoryEvery:    cfg.ExploratoryEvery,
				TTL:                 cfg.TTL,
				ForwardJitter:       cfg.ForwardJitter,
				SeenTTL:             cfg.SeenTTL,
				DisableNegRF:        cfg.DisableNegativeReinforcement,
				Custody:             cusq,
				EnergyAware:         cfg.EnergyAware,
				Flight:              fl,
				TraceSample:         cfg.TraceSampling,
				Spans:               ring,
			}),
			MAC: m,
		}
		net.nodes[id] = n
		n.Node.Instrument(reg)
		net.instrumentLink(reg, m)
	}
	// Stamp every fault into the affected nodes' flight recorders, and dump
	// them when a sink is set (SetFlightDump) so fault-laden runs
	// self-diagnose.
	net.OnFault(net.recordFaultFlight)
	return net
}

// peekSpan extracts a MAC-layer span template from an encoded diffusion
// payload without a full decode; ok only for sampled messages (non-zero
// flow). It keeps the MAC ignorant of the diffusion wire format.
func peekSpan(payload []byte) (telemetry.Span, bool) {
	flow, hop := message.PeekTrace(payload)
	if flow == 0 {
		return telemetry.Span{}, false
	}
	cls, _ := message.PeekClass(payload)
	return telemetry.Span{
		ID: message.PeekID(payload), Flow: flow, Hop: hop, Class: cls,
	}, true
}

// instrumentLink wires a node's MAC, radio and energy metrics onto reg.
func (net *Network) instrumentLink(reg *telemetry.Registry, m *mac.Mac) {
	m.Instrument(reg)
	m.Radio().Instrument(reg)
	reg.AddCollector(func(emit func(string, float64)) {
		st := m.Radio().Stats
		b := energy.PaperRatios().Measured(st.TxTime, st.RxTime, net.kern.Now(), 1.0)
		emit("energy.listen_j", b.Listen)
		emit("energy.receive_j", b.Receive)
		emit("energy.send_j", b.Send)
		emit("energy.total_j", b.Total())
	})
}

// Node returns the node with the given topology ID; it panics on unknown
// IDs (a configuration error).
func (net *Network) Node(id uint32) *Node {
	n, ok := net.nodes[id]
	if !ok {
		panic(fmt.Sprintf("diffusion: no diffusion node %d in topology %q", id, net.cfg.Topology.Name))
	}
	return n
}

// Mote returns the micro-diffusion mote at the given topology ID (listed
// in NetworkConfig.MoteNodes); it panics on unknown IDs.
func (net *Network) Mote(id uint32) *Mote {
	m, ok := net.motes[id]
	if !ok {
		panic(fmt.Sprintf("diffusion: no mote %d in topology %q", id, net.cfg.Topology.Name))
	}
	return m
}

// Nodes returns all full-diffusion nodes in topology order (motes are not
// included; see Mote).
func (net *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(net.order))
	for _, id := range net.order {
		if n, ok := net.nodes[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

// IDs returns the node IDs in topology order.
func (net *Network) IDs() []uint32 {
	out := make([]uint32, len(net.order))
	copy(out, net.order)
	return out
}

// Clock returns the network's global clock, for timers in experiment
// drivers and application setup code. Its timers run in global context,
// ahead of node events at the same instant. Code running inside a node's
// callbacks should schedule on that node's own clock (NodeEnv), so the
// timer belongs to the node and its sequence numbers.
func (net *Network) Clock() sim.Clock { return net.kern }

// Executor exposes the discrete-event engine.
func (net *Network) Executor() sim.Executor { return net.kern }

// NodeEnv returns the scheduling context of one node: its clock, random
// stream and transmission timer. Per-node services (filters, responders)
// run on it. Panics on unknown IDs.
func (net *Network) NodeEnv(id uint32) sim.Port {
	p, ok := net.ports[id]
	if !ok {
		panic(fmt.Sprintf("diffusion: no node %d in topology %q", id, net.cfg.Topology.Name))
	}
	return p
}

// Now returns the current simulated time.
func (net *Network) Now() time.Duration { return net.kern.Now() }

// After schedules fn once, d from now, in global context.
func (net *Network) After(d time.Duration, fn func()) sim.Timer {
	return net.kern.After(d, fn)
}

// Every schedules fn every period (first firing after one period), in
// global context.
func (net *Network) Every(period time.Duration, fn func()) sim.Timer {
	return net.kern.Every(period, period, fn)
}

// Run advances the simulation by d of virtual time.
func (net *Network) Run(d time.Duration) {
	net.kern.RunUntil(net.kern.Now() + d)
}

// RunRealtime advances the simulation by d of virtual time, pacing event
// execution against the wall clock scaled by speed (1 = real time, 10 =
// ten times faster). All node logic still runs deterministically on the
// single simulation thread; only the pacing is real — this is how the
// examples run "live" without any concurrency in the protocol code.
// Speeds <= 0 behave like Run.
func (net *Network) RunRealtime(d time.Duration, speed float64) {
	if speed <= 0 {
		net.Run(d)
		return
	}
	horizon := net.kern.Now() + d
	wallStart := time.Now()
	virtStart := net.kern.Now()
	for {
		at, ok := net.kern.NextEventAt()
		if !ok || at > horizon {
			break
		}
		wait := time.Duration(float64(at-virtStart)/speed) - time.Since(wallStart)
		if wait > 0 {
			time.Sleep(wait)
		}
		net.kern.RunUntil(at)
	}
	net.kern.RunUntil(horizon)
}

// ChannelStats returns medium-wide radio counters (collisions, losses).
func (net *Network) ChannelStats() radio.ChannelStats { return net.channel.Stats() }

// TotalDiffusionBytes sums BytesSent over every node's diffusion layer —
// the paper's Figure 8 metric ("bytes sent from all diffusion modules").
func (net *Network) TotalDiffusionBytes() int {
	total := 0
	for _, n := range net.nodes {
		total += n.Stats.BytesSent
	}
	return total
}
