package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Kernel is the network simulator's discrete-event executor: one event
// queue, drained in canonical order on one goroutine, like the paper's
// single-threaded diffusion daemon.
//
// # Execution model
//
// Every event carries a canonical key — see evKey: (timestamp, class,
// origin, origin-sequence) — assigned by its single-writer origin, and the
// kernel executes events strictly in key order. At equal timestamps,
// global events (Kernel.After/Every: fault injection, experiment drivers)
// run before node events, and a node's own timers run before radio
// arrivals. Per-node and per-link random streams are derived from the
// master seed (DeriveSeed) rather than drawn from a shared stream, so
// adding a node or a link never perturbs another stream's draws. A run is
// therefore a pure function of its seed; determinism_test.go pins the
// exact bytes of reference runs.
//
// Each node schedules through its own Port. Cross-node effects exist only
// through Port.ScheduleRemote, which is legal only inside a transmission-
// commit event (AfterTx) and requires a delay of at least the propagation
// time: a node can affect another only by putting a frame on the air, and
// no frame arrives before it has propagated.
type Kernel struct {
	seed int64
	prop time.Duration
	turn time.Duration

	now     time.Duration
	stopped bool
	rng     *rand.Rand

	q     eventHeap
	gseq  uint64
	nodes map[uint32]*nodePort
	// inTx is true while executing a transmission-commit event — the only
	// context allowed to ScheduleRemote.
	inTx bool
}

// KernelConfig configures a Kernel.
type KernelConfig struct {
	// Seed drives every stream of randomness, via DeriveSeed.
	Seed int64
	// Shards must be 0 or 1; anything else panics, because the kernel has
	// one event queue. The field is left over from the deleted sharded
	// kernel and remains only because perfbench (a separate module built
	// against this API) still sets it.
	Shards int
	// Propagation is the minimum ScheduleRemote delay: the radio
	// propagation time. It must be positive.
	Propagation time.Duration
	// TxTurnaround is the minimum AfterTx delay (smaller delays are
	// clamped up): the radio's receive-to-transmit turnaround.
	TxTurnaround time.Duration
}

// NewKernel builds a kernel. Register nodes with AddNode before running.
func NewKernel(cfg KernelConfig) *Kernel {
	if cfg.Propagation <= 0 {
		panic("sim: KernelConfig.Propagation must be positive")
	}
	if cfg.Shards != 0 && cfg.Shards != 1 {
		panic(fmt.Sprintf("sim: KernelConfig.Shards=%d; the kernel has one event queue (use 0 or 1)", cfg.Shards))
	}
	if cfg.TxTurnaround < 0 {
		cfg.TxTurnaround = 0
	}
	return &Kernel{
		seed:  cfg.Seed,
		prop:  cfg.Propagation,
		turn:  cfg.TxTurnaround,
		rng:   newDerivedRand(cfg.Seed),
		nodes: map[uint32]*nodePort{},
	}
}

// AddNode registers node id and returns its Port. The node's random stream
// is derived from the master seed and the id alone. shard must be 0 (see
// KernelConfig.Shards for why the argument remains).
func (k *Kernel) AddNode(id uint32, shard int) Port {
	if shard != 0 {
		panic(fmt.Sprintf("sim: AddNode shard %d; the kernel has one event queue (use 0)", shard))
	}
	if _, dup := k.nodes[id]; dup {
		panic(fmt.Sprintf("sim: node %d already registered", id))
	}
	p := &nodePort{
		k:   k,
		id:  id,
		rng: newDerivedRand(k.seed, NodeStream(id)...),
	}
	k.nodes[id] = p
	return p
}

// Port returns node id's scheduling handle; the node must have been
// registered with AddNode.
func (k *Kernel) Port(id uint32) Port {
	p, ok := k.nodes[id]
	if !ok {
		panic(fmt.Sprintf("sim: node %d not registered", id))
	}
	return p
}

// Now returns the current virtual time: the executing event's timestamp,
// in global and node context alike.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the global random stream (fault injection, experiment
// drivers). Node-scoped code must use its Port's stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// DeriveRand returns an independent stream derived from the kernel's seed
// and a tag path.
func (k *Kernel) DeriveRand(tags ...uint64) *rand.Rand {
	return newDerivedRand(k.seed, tags...)
}

// After schedules a global event at now+d.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	k.gseq++
	return timerOf(k.q.schedule(evKey{at: k.now + d, kind: kindGlobal, b: k.gseq}, fn, false))
}

// Every schedules fn at now+d and then every period thereafter until the
// returned Timer is cancelled. Panics when period is not positive.
func (k *Kernel) Every(d, period time.Duration, fn func()) Timer {
	return Every(k, d, period, fn)
}

// Stop halts the event loop after the executing event.
func (k *Kernel) Stop() { k.stopped = true }

// NextEventAt returns the timestamp of the next live event, or ok=false.
func (k *Kernel) NextEventAt() (time.Duration, bool) {
	if ev := k.q.peek(); ev != nil {
		return ev.key.at, true
	}
	return 0, false
}

// Pending returns the number of live queued events.
func (k *Kernel) Pending() int { return k.q.live }

// RunUntil executes events with timestamps <= t, then advances the clock
// to t.
func (k *Kernel) RunUntil(t time.Duration) {
	k.run(t)
	if k.now < t {
		k.now = t
	}
}

// Run executes events until none remain (or Stop is called).
func (k *Kernel) Run() { k.run(1<<63 - 1) }

// run executes events in canonical order while their timestamps are <= t.
func (k *Kernel) run(t time.Duration) {
	for !k.stopped {
		ev := k.q.peek()
		if ev == nil || ev.key.at > t {
			return
		}
		k.q.popNext()
		k.now = ev.key.at
		fn := ev.fn
		k.inTx = ev.tx
		k.q.release(ev)
		fn()
		k.inTx = false
	}
}

// nodePort is one node's scheduling handle on the Kernel.
type nodePort struct {
	k    *Kernel
	id   uint32
	seq  uint64 // local event sequence
	rseq uint64 // remote send sequence
	rng  *rand.Rand
}

// Now returns the current virtual time.
func (p *nodePort) Now() time.Duration { return p.k.now }

// Rand returns the node's derived random stream.
func (p *nodePort) Rand() *rand.Rand { return p.rng }

// After schedules fn in this node's context at now+d.
func (p *nodePort) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return p.push(p.k.now+d, fn, false)
}

// AfterTx schedules a transmission-commit event; d is clamped up to the
// kernel's turnaround time, the radio's physical receive-to-transmit
// limit.
func (p *nodePort) AfterTx(d time.Duration, fn func()) Timer {
	if d < p.k.turn {
		d = p.k.turn
	}
	return p.push(p.k.now+d, fn, true)
}

func (p *nodePort) push(at time.Duration, fn func(), tx bool) Timer {
	p.seq++
	return timerOf(p.k.q.schedule(evKey{at: at, kind: kindLocal, a: uint64(p.id), b: p.seq}, fn, tx))
}

// ScheduleRemote schedules fn in node to's context, d from now. Only legal
// inside a transmission-commit event with d >= the propagation delay:
// nodes influence each other only through frames on the air.
func (p *nodePort) ScheduleRemote(to uint32, d time.Duration, fn func()) {
	if d < p.k.prop {
		panic(fmt.Sprintf("sim: ScheduleRemote delay %v below the propagation floor %v", d, p.k.prop))
	}
	if !p.k.inTx {
		panic("sim: ScheduleRemote outside a transmission-commit (AfterTx) event")
	}
	if _, ok := p.k.nodes[to]; !ok {
		panic(fmt.Sprintf("sim: ScheduleRemote to unregistered node %d", to))
	}
	p.rseq++
	p.k.q.schedule(evKey{at: p.k.now + d, kind: kindRemote, a: uint64(p.id), b: p.rseq}, fn, false)
}
