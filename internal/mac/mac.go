// Package mac implements the paper's deliberately primitive link layer:
// carrier-sense multiple access with random backoff but "lacking RTS/CTS or
// ARQ", where every diffusion message is "broken into several 27-byte
// fragments" and "loss of a single fragment results in loss of the whole
// message" (section 6.1). The experiments depend on these weaknesses — they
// are what makes the testbed congest — so the MAC reproduces them rather
// than fixing them.
package mac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/telemetry"
)

// Params configures the MAC.
type Params struct {
	// FragmentPayload is the number of message bytes per fragment
	// (paper: 27).
	FragmentPayload int
	// MaxPayload bounds a single message.
	MaxPayload int
	// SlotTime is the backoff slot duration.
	SlotTime time.Duration
	// MaxBackoffSlots bounds the random backoff window.
	MaxBackoffSlots int
	// MaxAttempts bounds carrier-sense retries per fragment before the
	// whole message is dropped.
	MaxAttempts int
	// QueueLimit bounds the transmit queue (drop-tail beyond it).
	QueueLimit int
	// InterFragGap is idle time between fragments of one message.
	InterFragGap time.Duration
	// ReassemblyTimeout expires incomplete partial messages.
	ReassemblyTimeout time.Duration
	// TxTurnaround is the radio's receive-to-transmit turnaround: the
	// delay between a clear carrier-sense decision and energy on the air.
	// The transmission is committed when carrier sense passes and cannot
	// be aborted during the turnaround, exactly like the paper's
	// Radiometrix hardware. Zero means DefaultTxTurnaround.
	TxTurnaround time.Duration
	// DutyCycle enables energy-aware duty cycling (the paper's section
	// 6.1 analysis: "energy-conscious protocols like PAMAS or TDMA are
	// necessary for long-lived sensor networks"): the radio listens only
	// during the first DutyCycle fraction of every CyclePeriod, on a
	// schedule shared network-wide (as in TDMA/S-MAC-style designs).
	// Transmissions defer to active windows; frames that finish arriving
	// during sleep are lost. 0 or >=1 disables duty cycling.
	DutyCycle float64
	// CyclePeriod is the duty-cycle schedule period (default 500 ms when
	// duty cycling is enabled).
	CyclePeriod time.Duration
}

// DefaultParams returns testbed-like MAC parameters.
func DefaultParams() Params {
	return Params{
		FragmentPayload:   27,
		MaxPayload:        1024,
		SlotTime:          2 * time.Millisecond,
		MaxBackoffSlots:   64,
		MaxAttempts:       16,
		QueueLimit:        20,
		InterFragGap:      time.Millisecond,
		ReassemblyTimeout: 5 * time.Second,
		TxTurnaround:      DefaultTxTurnaround,
	}
}

// DefaultTxTurnaround is the receive-to-transmit turnaround assumed when
// Params.TxTurnaround is zero.
const DefaultTxTurnaround = time.Millisecond

// Broadcast is the link-layer broadcast address.
const Broadcast uint32 = 0xFFFFFFFF

// fragment header layout: dst(2) src(2) seq(2) idx(1) count(1). Node IDs
// are 16-bit on the air (the paper's radios used small ephemeral
// identifiers); the 32-bit broadcast address maps to 0xFFFF.
const fragHeaderSize = 8

// wireBroadcast is the 16-bit on-air broadcast address.
const wireBroadcast uint16 = 0xFFFF

// toWireID narrows a node ID for the air. IDs above 16 bits are a
// configuration error.
func toWireID(id uint32) uint16 {
	if id == Broadcast {
		return wireBroadcast
	}
	if id >= uint32(wireBroadcast) {
		panic(fmt.Sprintf("mac: node id %d exceeds the 16-bit air format", id))
	}
	return uint16(id)
}

// fromWireID widens an on-air ID.
func fromWireID(id uint16) uint32 {
	if id == wireBroadcast {
		return Broadcast
	}
	return uint32(id)
}

// Handler receives reassembled messages.
type Handler func(from uint32, payload []byte)

// Errors returned by Send.
var (
	ErrTooLarge  = errors.New("mac: payload exceeds MaxPayload")
	ErrQueueFull = errors.New("mac: transmit queue full")
	ErrDetached  = errors.New("mac: node is detached (crashed)")
)

// Stats counts MAC activity.
type Stats struct {
	MessagesQueued    int
	MessagesSent      int // all fragments transmitted
	MessagesDropped   int // queue overflow or backoff exhaustion
	MessagesDelivered int // reassembled and passed up
	FragmentsSent     int
	FragmentsReceived int
	Backoffs          int
	BackoffTime       time.Duration // cumulative carrier-sense backoff delay
	ReassemblyExpired int
	SleepDrops        int // frames missed because the radio was asleep
	SleepDeferrals    int // transmissions postponed to an active window
}

// Mac is one node's link layer instance.
type Mac struct {
	env     sim.Env
	tx      *radio.Transceiver
	params  Params
	handler Handler

	queue    []*outMsg
	sending  bool
	detached bool
	seq      uint16

	reasm map[reasmKey]*partial

	// backoffHist, when instrumented, observes every backoff wait (µs).
	backoffHist *telemetry.Histogram

	// spans and peek, when set via Trace, record flight-path span events
	// for sampled payloads without the MAC knowing the diffusion wire
	// format.
	spans *telemetry.SpanRing
	peek  func(payload []byte) (telemetry.Span, bool)

	Stats Stats
}

type outMsg struct {
	dst      uint32
	frags    [][]byte // pre-built frames including headers
	next     int
	attempts int
	// span is the trace-context template captured at enqueue time, so the
	// eventual tx (or drop) event carries the same flow and message ID.
	span   telemetry.Span
	traced bool
}

type reasmKey struct {
	src uint32
	seq uint16
}

type partial struct {
	frags   [][]byte
	have    int
	expires sim.Timer
}

// Attach creates a Mac for node id on the channel, delivering reassembled
// messages to h. env must be the node's own scheduling context (its
// sim.Port on the Kernel; a Scheduler works directly in unit tests).
func Attach(env sim.Env, ch *radio.Channel, id uint32, p Params, h Handler) *Mac {
	validate(p)
	m := &Mac{env: env, params: p, handler: h, reasm: map[reasmKey]*partial{}}
	m.tx = ch.Attach(id, m.onFrame)
	return m
}

func validate(p Params) {
	if p.FragmentPayload <= 0 || p.MaxPayload <= 0 || p.MaxAttempts <= 0 ||
		p.QueueLimit <= 0 || p.MaxBackoffSlots <= 0 || p.SlotTime <= 0 {
		panic(fmt.Sprintf("mac: invalid params %+v", p))
	}
	if p.DutyCycle < 0 {
		panic("mac: DutyCycle must be non-negative")
	}
}

// Turnaround returns the effective receive-to-transmit turnaround.
func (p Params) Turnaround() time.Duration {
	if p.TxTurnaround > 0 {
		return p.TxTurnaround
	}
	return DefaultTxTurnaround
}

// dutyCycled reports whether duty cycling is active.
func (m *Mac) dutyCycled() bool {
	return m.params.DutyCycle > 0 && m.params.DutyCycle < 1
}

// cyclePeriod returns the schedule period.
func (m *Mac) cyclePeriod() time.Duration {
	if m.params.CyclePeriod > 0 {
		return m.params.CyclePeriod
	}
	return 500 * time.Millisecond
}

// awake reports whether the radio is in its active window at time now.
func (m *Mac) awake(now time.Duration) bool {
	if !m.dutyCycled() {
		return true
	}
	period := m.cyclePeriod()
	phase := now % period
	return float64(phase) < m.params.DutyCycle*float64(period)
}

// activeRemaining returns how much of the current active window is left
// (zero while asleep).
func (m *Mac) activeRemaining(now time.Duration) time.Duration {
	if !m.dutyCycled() {
		return time.Duration(1<<62 - 1)
	}
	period := m.cyclePeriod()
	phase := now % period
	active := time.Duration(m.params.DutyCycle * float64(period))
	if phase >= active {
		return 0
	}
	return active - phase
}

// nextWake returns the start of the next active window.
func (m *Mac) nextWake(now time.Duration) time.Duration {
	period := m.cyclePeriod()
	return now - now%period + period
}

// ID returns the node's link-layer identifier.
func (m *Mac) ID() uint32 { return m.tx.ID() }

// Radio exposes the transceiver (for energy and traffic accounting).
func (m *Mac) Radio() *radio.Transceiver { return m.tx }

// Detach freezes the link layer for a crashed node: the transmit queue is
// dropped, pending reassembly state is discarded, and until Restart every
// Send errors and every incoming frame is ignored. The channel-level radio
// silence is the caller's job (radio.Channel.SetNodeDown); Detach makes
// sure no queued traffic survives the crash.
func (m *Mac) Detach() {
	if m.detached {
		return
	}
	m.detached = true
	m.Stats.MessagesDropped += len(m.queue)
	m.queue = nil
	m.sending = false
	for key, p := range m.reasm {
		p.expires.Cancel()
		delete(m.reasm, key)
	}
}

// Restart brings a detached link layer back up with an empty queue, as a
// freshly booted node's MAC would be. Restarting an attached MAC is a
// no-op.
func (m *Mac) Restart() { m.detached = false }

// Detached reports whether the MAC is currently detached.
func (m *Mac) Detached() bool { return m.detached }

// Send queues payload for dst (a neighbor ID or Broadcast). The message is
// fragmented; delivery is best-effort.
func (m *Mac) Send(dst uint32, payload []byte) error {
	if m.detached {
		return ErrDetached
	}
	if len(payload) > m.params.MaxPayload {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, len(payload), m.params.MaxPayload)
	}
	if len(m.queue) >= m.params.QueueLimit {
		m.Stats.MessagesDropped++
		return ErrQueueFull
	}
	m.seq++
	om := &outMsg{dst: dst, frags: m.fragment(dst, m.seq, payload)}
	if m.spans != nil && m.peek != nil {
		if sp, ok := m.peek(payload); ok {
			sp.At = m.env.Now()
			sp.Node = m.ID()
			sp.Peer = dst
			sp.Event = telemetry.SpanEnqueue
			sp.Layer = telemetry.SpanLayerMac
			om.span = sp
			om.traced = true
			m.spans.Record(sp)
		}
	}
	m.queue = append(m.queue, om)
	m.Stats.MessagesQueued++
	m.kick()
	return nil
}

// Trace enables flight-path span recording: peek extracts a span template
// (flow, hop count, message ID, class) from an encoded payload, returning
// false for unsampled payloads, and ring receives an enqueue event per
// sampled message admitted plus a tx event when its last fragment goes on
// the air (or a drop event when backoff exhaustion discards it).
func (m *Mac) Trace(ring *telemetry.SpanRing, peek func(payload []byte) (telemetry.Span, bool)) {
	m.spans = ring
	m.peek = peek
}

// fragment splits payload into framed fragments.
func (m *Mac) fragment(dst uint32, seq uint16, payload []byte) [][]byte {
	fp := m.params.FragmentPayload
	count := (len(payload) + fp - 1) / fp
	if count == 0 {
		count = 1 // empty payloads still occupy one fragment
	}
	frags := make([][]byte, 0, count)
	for i := 0; i < count; i++ {
		lo := i * fp
		hi := lo + fp
		if hi > len(payload) {
			hi = len(payload)
		}
		f := make([]byte, fragHeaderSize, fragHeaderSize+hi-lo)
		binary.BigEndian.PutUint16(f[0:], toWireID(dst))
		binary.BigEndian.PutUint16(f[2:], toWireID(m.ID()))
		binary.BigEndian.PutUint16(f[4:], seq)
		f[6] = byte(i)
		f[7] = byte(count)
		f = append(f, payload[lo:hi]...)
		frags = append(frags, f)
	}
	return frags
}

// kick starts the transmit pump if idle. The pump defers a random slot
// count before its first carrier-sense attempt: without this, neighbors
// that heard the same fragment end synchronize and collide in the
// inter-fragment gaps.
func (m *Mac) kick() {
	if m.sending || len(m.queue) == 0 {
		return
	}
	m.sending = true
	defer0 := time.Duration(m.env.Rand().Intn(4)) * m.params.SlotTime
	m.env.After(defer0, m.attempt)
}

// attempt tries to transmit the current fragment, backing off on carrier.
func (m *Mac) attempt() {
	if m.detached || len(m.queue) == 0 {
		m.sending = false
		return
	}
	cur := m.queue[0]
	if m.dutyCycled() {
		now := m.env.Now()
		needed := m.params.Turnaround() + m.airtimeOf(cur.frags[cur.next]) + m.params.InterFragGap
		if !m.awake(now) || m.activeRemaining(now) < needed {
			// Sleep (or not enough window left for the whole fragment):
			// defer to the next active window plus a small random offset
			// so deferred senders do not stampede at wake-up.
			m.Stats.SleepDeferrals++
			jitter := time.Duration(m.env.Rand().Intn(4)) * m.params.SlotTime
			m.env.After(m.nextWake(now)-now+jitter, m.attempt)
			return
		}
	}
	if m.tx.Busy() {
		cur.attempts++
		m.Stats.Backoffs++
		if cur.attempts > m.params.MaxAttempts {
			// Drop the whole message, as a primitive MAC would.
			m.queue = m.queue[1:]
			m.Stats.MessagesDropped++
			if cur.traced && m.spans != nil {
				sp := cur.span
				sp.At = m.env.Now()
				sp.Event = telemetry.SpanDrop
				sp.Reason = telemetry.DropLinkRefused
				m.spans.Record(sp)
			}
			m.env.After(0, m.attempt)
			return
		}
		// Binary-exponential-flavored backoff bounded by MaxBackoffSlots.
		window := 1 << uint(cur.attempts)
		if window > m.params.MaxBackoffSlots {
			window = m.params.MaxBackoffSlots
		}
		slots := 1 + m.env.Rand().Intn(window)
		wait := time.Duration(slots) * m.params.SlotTime
		m.Stats.BackoffTime += wait
		if m.backoffHist != nil {
			m.backoffHist.Observe(wait.Microseconds())
		}
		m.env.After(wait, m.attempt)
		return
	}
	// Carrier is clear: commit the transmission. After the turnaround the
	// fragment goes on the air regardless of what the channel does in the
	// meantime — the hardware cannot abort a committed send.
	m.env.AfterTx(m.params.Turnaround(), m.fire)
}

// fire puts the head fragment on the air (a committed transmission) and
// re-arms the pump after the airtime plus the inter-fragment gap.
func (m *Mac) fire() {
	if m.detached || len(m.queue) == 0 {
		// Crashed (or the queue was flushed) during the turnaround.
		m.sending = false
		return
	}
	if m.tx.Busy() {
		// Carrier appeared during the turnaround: the radio keeps sensing
		// right up to transmit start, so abort and take the normal
		// carrier-sense backoff path. Without this, two senders whose
		// pumps drift within one turnaround of each other would collide
		// every fragment forever.
		m.env.After(0, m.attempt)
		return
	}
	cur := m.queue[0]
	air := m.tx.Transmit(cur.frags[cur.next])
	m.Stats.FragmentsSent++
	cur.next++
	cur.attempts = 0
	if cur.next == len(cur.frags) {
		m.queue = m.queue[1:]
		m.Stats.MessagesSent++
		if cur.traced && m.spans != nil {
			sp := cur.span
			sp.At = m.env.Now()
			sp.Event = telemetry.SpanTx
			m.spans.Record(sp)
		}
	}
	m.env.After(air+m.params.InterFragGap, m.attempt)
}

// onFrame handles a frame from the radio.
func (m *Mac) onFrame(from uint32, frame []byte) {
	if m.detached {
		return // crashed nodes hear nothing
	}
	if len(frame) < fragHeaderSize {
		return // runt
	}
	if !m.awake(m.env.Now()) {
		m.Stats.SleepDrops++
		return // the radio was asleep when the frame finished arriving
	}
	dst := fromWireID(binary.BigEndian.Uint16(frame[0:]))
	src := fromWireID(binary.BigEndian.Uint16(frame[2:]))
	seq := binary.BigEndian.Uint16(frame[4:])
	idx := int(frame[6])
	count := int(frame[7])
	if dst != Broadcast && dst != m.ID() {
		return // unicast for someone else
	}
	if count == 0 || idx >= count {
		return // malformed
	}
	m.Stats.FragmentsReceived++
	key := reasmKey{src: src, seq: seq}
	p, ok := m.reasm[key]
	if !ok {
		p = &partial{frags: make([][]byte, count)}
		p.expires = m.env.After(m.params.ReassemblyTimeout, func() {
			if _, still := m.reasm[key]; still {
				delete(m.reasm, key)
				m.Stats.ReassemblyExpired++
			}
		})
		m.reasm[key] = p
	}
	if len(p.frags) != count {
		return // inconsistent fragment train; ignore
	}
	if p.frags[idx] != nil {
		return // duplicate fragment
	}
	p.frags[idx] = frame[fragHeaderSize:]
	p.have++
	if p.have < count {
		return
	}
	p.expires.Cancel()
	delete(m.reasm, key)
	var payload []byte
	for _, f := range p.frags {
		payload = append(payload, f...)
	}
	m.Stats.MessagesDelivered++
	if m.handler != nil {
		m.handler(src, payload)
	}
}

// airtimeOf estimates a frame's airtime via the transceiver's channel.
func (m *Mac) airtimeOf(frame []byte) time.Duration {
	return m.tx.Airtime(len(frame))
}

// QueueLen reports the number of queued messages (diagnostics).
func (m *Mac) QueueLen() int { return len(m.queue) }
