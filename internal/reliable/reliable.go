// Package reliable implements the retransmission scheme the paper leaves
// as future work (section 3.1: "we are also developing retransmission
// scheme for applications that transfer large, persistent data objects").
//
// A large object is named by attributes like any other diffusion data and
// transferred as a train of chunk messages. Recovery is receiver-driven:
// after the train goes quiet, the receiver floods a compact NACK listing
// its missing chunks on a companion repair channel, and the sender
// retransmits exactly those chunks. Both directions are ordinary diffusion
// flows — the chunks ride reinforced gradients, the NACKs flood — so the
// scheme needs nothing from the core beyond the public API.
package reliable

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// Channel types on the wire.
const (
	typeBulk = "bulk"
	typeNack = "bulk-nack"
)

// dataAttrs names the chunk channel of an object.
func dataAttrs(name string) attr.Vec {
	return attr.Vec{
		attr.StringAttr(attr.KeyType, attr.IS, typeBulk),
		attr.StringAttr(attr.KeyInstance, attr.IS, name),
	}
}

// dataInterest is the receiver's subscription for the chunk channel.
func dataInterest(name string) attr.Vec {
	return attr.Vec{
		attr.StringAttr(attr.KeyType, attr.EQ, typeBulk),
		attr.StringAttr(attr.KeyInstance, attr.EQ, name),
		// Supply actuals so senders' passive taps could match if needed.
		attr.StringAttr(attr.KeyTask, attr.IS, "fetch"),
	}
}

// nackAttrs and nackInterest name the repair channel.
func nackAttrs(name string) attr.Vec {
	return attr.Vec{
		attr.StringAttr(attr.KeyType, attr.IS, typeNack),
		attr.StringAttr(attr.KeyInstance, attr.IS, name),
	}
}

func nackInterest(name string) attr.Vec {
	return attr.Vec{
		attr.StringAttr(attr.KeyType, attr.EQ, typeNack),
		attr.StringAttr(attr.KeyInstance, attr.EQ, name),
	}
}

// encodeMissing packs chunk indices as uint16s, capped at cap entries.
func encodeMissing(missing []int, cap int) []byte {
	if len(missing) > cap {
		missing = missing[:cap]
	}
	out := make([]byte, 0, 2*len(missing))
	for _, m := range missing {
		out = binary.BigEndian.AppendUint16(out, uint16(m))
	}
	return out
}

func decodeMissing(b []byte) ([]int, bool) {
	if len(b)%2 != 0 {
		return nil, false
	}
	out := make([]int, 0, len(b)/2)
	for off := 0; off < len(b); off += 2 {
		out = append(out, int(binary.BigEndian.Uint16(b[off:])))
	}
	return out, true
}

// Sender serves one object.
type Sender struct {
	cfg    SenderConfig
	chunks [][]byte
	pub    core.PublicationHandle
	nackIn core.SubscriptionHandle
	queue  []int
	queued map[int]bool
	pump   bool
	// reprime forces the next transmission exploratory: a NACK proves the
	// receiver is alive but the delivery path may be cold, so the first
	// repair floods to re-establish it.
	reprime bool

	// ChunksSent counts all chunk transmissions; Retransmits counts the
	// NACK-driven subset.
	ChunksSent, Retransmits int
}

// SenderConfig configures Offer.
type SenderConfig struct {
	Node  *core.Node
	Clock sim.Clock
	Rand  *rand.Rand
	// Name identifies the object; receivers fetch it by this name.
	Name string
	// ChunkSize is the payload bytes per chunk (default 64, comfortably
	// inside one radio message train).
	ChunkSize int
	// Pace is the inter-chunk send spacing (default 250 ms — the radio
	// is slow, and pacing keeps the train from overrunning MAC queues).
	Pace time.Duration
}

// Offer starts serving the object: the chunk train begins immediately
// (chunk 0 is exploratory and establishes the delivery path) and NACKs are
// served for as long as the Sender lives.
func Offer(cfg SenderConfig, data []byte) *Sender {
	if cfg.Node == nil || cfg.Clock == nil || cfg.Rand == nil || cfg.Name == "" {
		panic("reliable: SenderConfig requires Node, Clock, Rand and Name")
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 64
	}
	if cfg.Pace <= 0 {
		cfg.Pace = 250 * time.Millisecond
	}
	s := &Sender{cfg: cfg, queued: map[int]bool{}}
	for off := 0; off < len(data); off += cfg.ChunkSize {
		end := off + cfg.ChunkSize
		if end > len(data) {
			end = len(data)
		}
		chunk := make([]byte, end-off)
		copy(chunk, data[off:end])
		s.chunks = append(s.chunks, chunk)
	}
	if len(s.chunks) == 0 {
		s.chunks = [][]byte{{}}
	}
	if len(s.chunks) > 0xFFFF {
		panic(fmt.Sprintf("reliable: object needs %d chunks; the 16-bit chunk index allows 65535", len(s.chunks)))
	}
	s.pub = cfg.Node.Publish(dataAttrs(cfg.Name))
	s.nackIn = cfg.Node.Subscribe(nackInterest(cfg.Name), s.onNack)
	for i := range s.chunks {
		s.enqueue(i, false)
	}
	return s
}

// Close stops serving (pending queue entries still drain).
func (s *Sender) Close() {
	_ = s.cfg.Node.Unsubscribe(s.nackIn)
	_ = s.cfg.Node.Unpublish(s.pub)
}

// Chunks returns the chunk count of the object.
func (s *Sender) Chunks() int { return len(s.chunks) }

func (s *Sender) enqueue(i int, retransmit bool) {
	if i < 0 || i >= len(s.chunks) || s.queued[i] {
		return
	}
	if retransmit {
		s.Retransmits++
	}
	s.queued[i] = true
	s.queue = append(s.queue, i)
	s.kick()
}

func (s *Sender) kick() {
	if s.pump || len(s.queue) == 0 {
		return
	}
	s.pump = true
	s.cfg.Clock.After(s.cfg.Pace, s.sendNext)
}

func (s *Sender) sendNext() {
	s.pump = false
	if len(s.queue) == 0 {
		return
	}
	i := s.queue[0]
	s.queue = s.queue[1:]
	delete(s.queued, i)
	s.ChunksSent++
	extras := attr.Vec{
		attr.Int32Attr(attr.KeySequence, attr.IS, int32(i)),
		attr.Int32Attr(attr.KeyCount, attr.IS, int32(len(s.chunks))),
		attr.BlobAttr(attr.KeyPayload, attr.IS, s.chunks[i]),
	}
	if s.reprime {
		s.reprime = false
		_ = s.cfg.Node.SendExploratory(s.pub, extras)
	} else {
		_ = s.cfg.Node.Send(s.pub, extras)
	}
	s.kick()
}

func (s *Sender) onNack(m *message.Message) {
	blob, ok := m.Attrs.FindActual(attr.KeyPayload)
	if !ok || blob.Val.Type != attr.TypeBlob {
		return
	}
	missing, ok := decodeMissing(blob.Val.Blob())
	if !ok {
		return
	}
	s.reprime = true
	if len(missing) == 0 {
		// An empty list is a restart request: the receiver never caught
		// any of the train (for example, the initial interest flood was
		// lost and the whole train fell into the void).
		for i := range s.chunks {
			s.enqueue(i, true)
		}
		return
	}
	for _, i := range missing {
		s.enqueue(i, true)
	}
}

// Receiver reassembles one object.
type Receiver struct {
	cfg      ReceiverConfig
	sub      core.SubscriptionHandle
	nackPub  core.PublicationHandle
	chunks   [][]byte
	have     int
	total    int
	nacks    int
	timer    sim.Timer
	complete bool
	failed   bool

	// NacksSent counts repair requests issued.
	NacksSent int
}

// ReceiverConfig configures Fetch.
type ReceiverConfig struct {
	Node  *core.Node
	Clock sim.Clock
	// Name identifies the object to fetch.
	Name string
	// OnComplete receives the reassembled object exactly once.
	OnComplete func(data []byte)
	// OnFail fires once if MaxNacks repair rounds pass without progress.
	OnFail func(missing int)
	// NackDelay is the quiet time before requesting repairs (default 3 s;
	// it should exceed the sender's pace comfortably).
	NackDelay time.Duration
	// MaxNacks bounds repair rounds without progress (default 12).
	MaxNacks int
	// MaxNackList caps missing indices per NACK (default 64).
	MaxNackList int
}

// Fetch subscribes for the object and drives receiver-side repair.
func Fetch(cfg ReceiverConfig) *Receiver {
	if cfg.Node == nil || cfg.Clock == nil || cfg.Name == "" || cfg.OnComplete == nil {
		panic("reliable: ReceiverConfig requires Node, Clock, Name and OnComplete")
	}
	if cfg.NackDelay <= 0 {
		cfg.NackDelay = 3 * time.Second
	}
	if cfg.MaxNacks <= 0 {
		cfg.MaxNacks = 12
	}
	if cfg.MaxNackList <= 0 {
		cfg.MaxNackList = 64
	}
	r := &Receiver{cfg: cfg}
	r.nackPub = cfg.Node.Publish(nackAttrs(cfg.Name))
	r.sub = cfg.Node.Subscribe(dataInterest(cfg.Name), r.onChunk)
	r.arm()
	return r
}

// Close stops the receiver (it fires neither callback afterwards).
func (r *Receiver) Close() {
	r.complete = true
	r.timer.Cancel()
	_ = r.cfg.Node.Unsubscribe(r.sub)
	_ = r.cfg.Node.Unpublish(r.nackPub)
}

// Progress returns (received, total) chunk counts; total is 0 until the
// first chunk arrives.
func (r *Receiver) Progress() (int, int) { return r.have, r.total }

func (r *Receiver) arm() {
	r.timer.Cancel()
	r.timer = r.cfg.Clock.After(r.cfg.NackDelay, r.quiet)
}

func (r *Receiver) onChunk(m *message.Message) {
	if r.complete || r.failed {
		return
	}
	seq, ok1 := m.Attrs.FindActual(attr.KeySequence)
	count, ok2 := m.Attrs.FindActual(attr.KeyCount)
	blob, ok3 := m.Attrs.FindActual(attr.KeyPayload)
	if !ok1 || !ok2 || !ok3 || blob.Val.Type != attr.TypeBlob {
		return
	}
	total := int(count.Val.Int32())
	i := int(seq.Val.Int32())
	if total <= 0 || total > 0xFFFF || i < 0 || i >= total {
		return
	}
	if r.chunks == nil {
		r.chunks = make([][]byte, total)
		r.total = total
	}
	if r.total != total || r.chunks[i] != nil {
		return // inconsistent train or duplicate
	}
	c := blob.Val.Blob()
	cp := make([]byte, len(c))
	copy(cp, c)
	r.chunks[i] = cp
	r.have++
	r.nacks = 0 // progress resets the give-up budget
	if r.have == r.total {
		r.finish()
		return
	}
	r.arm()
}

func (r *Receiver) finish() {
	r.complete = true
	r.timer.Cancel()
	var data []byte
	for _, c := range r.chunks {
		data = append(data, c...)
	}
	r.cfg.OnComplete(data)
}

// quiet fires when the train stalls: request repairs or give up.
func (r *Receiver) quiet() {
	if r.complete || r.failed {
		return
	}
	missing := r.missing()
	if r.chunks != nil && len(missing) == 0 {
		return // finished concurrently
	}
	r.nacks++
	if r.nacks > r.cfg.MaxNacks {
		r.failed = true
		if r.cfg.OnFail != nil {
			r.cfg.OnFail(len(missing))
		}
		return
	}
	// NACKs flood (exploratory): they are rare, small, and must reach the
	// sender even when the repair channel's path is cold. An empty list
	// (nothing received yet) asks the sender to restart the train.
	r.NacksSent++
	_ = r.cfg.Node.SendExploratory(r.nackPub, attr.Vec{
		attr.BlobAttr(attr.KeyPayload, attr.IS,
			encodeMissing(missing, r.cfg.MaxNackList)),
	})
	r.arm()
}

func (r *Receiver) missing() []int {
	var out []int
	for i, c := range r.chunks {
		if c == nil {
			out = append(out, i)
		}
	}
	return out
}
