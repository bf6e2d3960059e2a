package filters

import (
	"math/rand"
	"time"

	"diffusion/internal/attr"
	"diffusion/internal/core"
	"diffusion/internal/message"
	"diffusion/internal/sim"
)

// Election implements the paper's SRM-inspired triggered-sensor election
// (section 5.2): when multiple sensors could serve a nested query and one
// "best" sensor is wanted, candidates "nominate themselves after a random
// delay as the best, informing their peers of their location and
// election... better peers can then dispute the claim. Use of location as
// an external frame of reference defines a best node and allows timers to
// be weighted by distance to minimize the number of disputed claims."
//
// Scores are caller-defined (typically distance to an ideal point); lower
// is better. Claim timers are proportional to score plus jitter, so the
// best candidate usually claims first and everyone else stands down
// silently.
type Election struct {
	cfg      ElectionConfig
	node     *core.Node
	sub      core.SubscriptionHandle
	pub      core.PublicationHandle
	claim    sim.Timer
	decide   sim.Timer
	myClaim  bool
	bestSeen float64
	bestID   int32
	anySeen  bool
	done     bool

	// Claims counts nomination messages this candidate sent; Disputes
	// counts claims it sent after hearing a worse claim.
	Claims, Disputes int
}

// ElectionConfig configures one candidate's participation.
type ElectionConfig struct {
	Node  *core.Node
	Clock sim.Clock
	Rand  *rand.Rand
	// Name identifies the election; all candidates must agree on it.
	Name string
	// Score ranks this candidate; lower is better. Ties break toward the
	// lower node ID.
	Score float64
	// ScoreScale converts score units into claim delay (delay =
	// Score/ScoreScale × Window/4). Defaults to the score itself taking
	// up to a quarter window.
	ScoreScale float64
	// Window is the total election duration; the decision fires at its
	// end.
	Window time.Duration
	// OnDecided is called exactly once with the outcome.
	OnDecided func(won bool)
}

// NewElection enters this node into the election. Candidates must be
// created on all participating nodes within roughly one claim delay of
// each other (the paper's election likewise assumes a common trigger).
func NewElection(cfg ElectionConfig) *Election {
	if cfg.Node == nil || cfg.Clock == nil || cfg.Rand == nil {
		panic("filters: ElectionConfig requires Node, Clock and Rand")
	}
	if cfg.Window <= 0 {
		cfg.Window = 10 * time.Second
	}
	if cfg.ScoreScale <= 0 {
		cfg.ScoreScale = 1
	}
	e := &Election{cfg: cfg, node: cfg.Node}
	task := "election:" + cfg.Name

	e.sub = cfg.Node.Subscribe(attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.EQ, task),
	}, e.onClaim)
	e.pub = cfg.Node.Publish(attr.Vec{
		attr.StringAttr(attr.KeyTask, attr.IS, task),
	})

	// Claim delay: proportional to score, at most a quarter window, plus
	// up to 10% window of jitter to split equal scores.
	frac := cfg.Score / cfg.ScoreScale
	if frac > 1 {
		frac = 1
	}
	if frac < 0 {
		frac = 0
	}
	delay := time.Duration(frac * float64(cfg.Window) / 4)
	delay += time.Duration(cfg.Rand.Int63n(int64(cfg.Window)/10 + 1))
	e.claim = cfg.Clock.After(delay, e.sendClaim)
	e.decide = cfg.Clock.After(cfg.Window, e.conclude)
	return e
}

// onClaim processes a peer's nomination.
func (e *Election) onClaim(m *message.Message) {
	if e.done {
		return
	}
	score, ok := m.Attrs.FindActual(attr.KeyConfidence)
	idAttr, ok2 := m.Attrs.FindActual(attr.KeySequence)
	if !ok || !ok2 {
		return
	}
	s := score.Val.AsFloat()
	id := idAttr.Val.Int32()
	if !e.anySeen || s < e.bestSeen || (s == e.bestSeen && id < e.bestID) {
		e.anySeen = true
		e.bestSeen = s
		e.bestID = id
	}
	if e.peerBetter() {
		// Stand down: a better peer claimed first.
		e.claim.Cancel()
		return
	}
	// We are better than the claimant: dispute immediately (the paper's
	// "better peers can then dispute the claim").
	if !e.myClaim {
		e.Disputes++
		e.sendClaim()
	}
}

// peerBetter reports whether the best heard claim beats us.
func (e *Election) peerBetter() bool {
	if !e.anySeen {
		return false
	}
	if e.bestSeen != e.cfg.Score {
		return e.bestSeen < e.cfg.Score
	}
	return e.bestID < int32(e.node.ID())
}

// sendClaim broadcasts our nomination.
func (e *Election) sendClaim() {
	if e.done || e.myClaim || e.peerBetter() {
		return
	}
	e.myClaim = true
	e.Claims++
	_ = e.node.Send(e.pub, attr.Vec{
		attr.Float64Attr(attr.KeyConfidence, attr.IS, e.cfg.Score),
		attr.Int32Attr(attr.KeySequence, attr.IS, int32(e.node.ID())),
	})
}

// conclude decides the election for this candidate.
func (e *Election) conclude() {
	if e.done {
		return
	}
	e.done = true
	won := e.myClaim && !e.peerBetter()
	_ = e.node.Unsubscribe(e.sub)
	_ = e.node.Unpublish(e.pub)
	if e.cfg.OnDecided != nil {
		e.cfg.OnDecided(won)
	}
}
