// Package congestion closes the loop the paper says diffusion lacks
// (section 6.4: "the diffusion applications we currently use operate in an
// open loop; feedback and congestion control are needed").
//
// A sink-side Feedback agent counts the distinct events it receives per
// window and periodically publishes a feedback report on a companion
// channel. A source-side Controller subscribes to those reports, compares
// them with what it offered in the same window, and adapts its admission
// rate AIMD-style: heavy loss halves the rate (the source decimates its
// event stream), light loss restores it additively. The mechanism is
// application-level — pure diffusion flows, no core changes — exactly the
// kind of integrated, application-specific processing the paper's
// architecture is built for.
package congestion

import (
	"fmt"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// feedback channel naming: (type IS feedback, task IS <flow>).
const typeFeedback = "feedback"

func feedbackAttrs(flow string) attr.Vec {
	return attr.Vec{
		attr.StringAttr(attr.KeyType, attr.IS, typeFeedback),
		attr.StringAttr(attr.KeyTask, attr.IS, flow),
	}
}

func feedbackInterest(flow string) attr.Vec {
	return attr.Vec{
		attr.StringAttr(attr.KeyType, attr.EQ, typeFeedback),
		attr.StringAttr(attr.KeyTask, attr.EQ, flow),
	}
}

// Feedback is the sink-side reporter for one flow.
type Feedback struct {
	node   *core.Node
	clock  sim.Clock
	flow   string
	window time.Duration
	pub    core.PublicationHandle
	timer  sim.Timer
	seen   map[int32]bool
	epoch  int32
	closed bool

	// Reports counts feedback messages sent.
	Reports int
}

// FeedbackConfig configures NewFeedback.
type FeedbackConfig struct {
	Node  *core.Node
	Clock sim.Clock
	// Flow names the data flow being controlled; sources and sinks must
	// agree on it (typically the task attribute value).
	Flow string
	// Window is the reporting period (default 30 s).
	Window time.Duration
}

// NewFeedback starts sink-side reporting. The application must call Saw
// for every distinct event it receives (typically from its subscription
// callback).
func NewFeedback(cfg FeedbackConfig) *Feedback {
	if cfg.Node == nil || cfg.Clock == nil || cfg.Flow == "" {
		panic("congestion: FeedbackConfig requires Node, Clock and Flow")
	}
	if cfg.Window <= 0 {
		cfg.Window = 30 * time.Second
	}
	f := &Feedback{
		node:   cfg.Node,
		clock:  cfg.Clock,
		flow:   cfg.Flow,
		window: cfg.Window,
		seen:   map[int32]bool{},
	}
	f.pub = cfg.Node.Publish(feedbackAttrs(cfg.Flow))
	f.arm()
	return f
}

// Close stops reporting.
func (f *Feedback) Close() {
	f.closed = true
	f.timer.Cancel()
	_ = f.node.Unpublish(f.pub)
}

// Saw records one received event by its sequence number.
func (f *Feedback) Saw(seq int32) {
	f.seen[seq] = true
}

func (f *Feedback) arm() {
	f.timer = f.clock.After(f.window, f.report)
}

func (f *Feedback) report() {
	if f.closed {
		return
	}
	f.epoch++
	count := int32(len(f.seen))
	f.seen = map[int32]bool{}
	f.Reports++
	// Feedback floods: it is small, rare, and must survive the very
	// congestion it reports. Reports deliberately carry no sequence
	// attribute, so event-identity filters (suppression) never mistake
	// them for the flow's own events.
	_ = f.node.SendExploratory(f.pub, attr.Vec{
		attr.Int32Attr(attr.KeyCount, attr.IS, count),
	})
	f.arm()
}

// Controller is the source-side rate adapter for one flow.
type Controller struct {
	node  *core.Node
	clock sim.Clock
	flow  string
	sub   core.SubscriptionHandle

	window      time.Duration
	windowStart time.Duration
	offered     int // app events offered this window
	admitted    int // events actually sent this window

	// rate is the admitted fraction in [MinRate, 1], adapted AIMD-style.
	rate     float64
	minRate  float64
	backoff  float64 // multiplicative decrease factor
	increase float64 // additive increase per good report
	highLoss float64 // loss ratio that triggers decrease
	lowLoss  float64 // loss ratio under which rate recovers
	carry    float64 // fractional admission accumulator

	// Offered, Admitted and Decimated count app events over the whole
	// run; Decreases and Increases count rate adaptations.
	Offered, Admitted, Decimated int
	Decreases, Increases         int
}

// ControllerConfig configures NewController.
type ControllerConfig struct {
	Node  *core.Node
	Clock sim.Clock
	// Flow must match the sink's Feedback flow.
	Flow string
	// Window should match the sink's reporting window (default 30 s).
	Window time.Duration
	// MinRate floors the admitted fraction (default 0.1).
	MinRate float64
	// HighLoss and LowLoss are the AIMD thresholds (defaults 0.4/0.15).
	HighLoss, LowLoss float64
}

// NewController starts source-side adaptation. The application routes its
// sends through Admit.
func NewController(cfg ControllerConfig) *Controller {
	if cfg.Node == nil || cfg.Clock == nil || cfg.Flow == "" {
		panic("congestion: ControllerConfig requires Node, Clock and Flow")
	}
	if cfg.Window <= 0 {
		cfg.Window = 30 * time.Second
	}
	if cfg.MinRate <= 0 {
		cfg.MinRate = 0.1
	}
	if cfg.HighLoss <= 0 {
		cfg.HighLoss = 0.4
	}
	if cfg.LowLoss <= 0 {
		cfg.LowLoss = 0.15
	}
	c := &Controller{
		node:     cfg.Node,
		clock:    cfg.Clock,
		flow:     cfg.Flow,
		window:   cfg.Window,
		rate:     1,
		minRate:  cfg.MinRate,
		backoff:  0.5,
		increase: 0.1,
		highLoss: cfg.HighLoss,
		lowLoss:  cfg.LowLoss,
	}
	c.sub = cfg.Node.Subscribe(feedbackInterest(cfg.Flow), c.onFeedback)
	return c
}

// Close stops adaptation.
func (c *Controller) Close() { _ = c.node.Unsubscribe(c.sub) }

// Rate returns the current admitted fraction.
func (c *Controller) Rate() float64 { return c.rate }

// Admit decides whether the next application event should be sent. The
// application calls it once per event and sends only when it returns true;
// under backoff the stream is decimated evenly rather than paused.
func (c *Controller) Admit() bool {
	c.Offered++
	c.offered++
	c.carry += c.rate
	if c.carry >= 1 {
		c.carry--
		c.Admitted++
		c.admitted++
		return true
	}
	c.Decimated++
	return false
}

func (c *Controller) onFeedback(m *message.Message) {
	count, ok := m.Attrs.FindActual(attr.KeyCount)
	if !ok {
		return
	}
	received := float64(count.Val.Int32())
	sent := float64(c.admitted)
	c.admitted = 0
	c.offered = 0
	if sent <= 0 {
		return // nothing offered in the window; no signal
	}
	loss := 1 - received/sent
	if loss < 0 {
		loss = 0 // multiple sinks or window skew can over-count
	}
	switch {
	case loss >= c.highLoss:
		c.rate *= c.backoff
		if c.rate < c.minRate {
			c.rate = c.minRate
		}
		c.Decreases++
	case loss <= c.lowLoss && c.rate < 1:
		c.rate += c.increase
		if c.rate > 1 {
			c.rate = 1
		}
		c.Increases++
	}
}

// String renders controller state.
func (c *Controller) String() string {
	return fmt.Sprintf("congestion: flow=%q rate=%.2f offered=%d admitted=%d (-%d +%d)",
		c.flow, c.rate, c.Offered, c.Admitted, c.Decreases, c.Increases)
}
