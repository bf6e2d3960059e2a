package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"diffusion/internal/message"
)

// Discovery tests drive the membership engine two ways: raw-socket fake
// peers craft exact frames (boot nonces, digests, peering bits) to pin
// down the protocol state machine, and small all-real-endpoint meshes
// prove gossip, probing and the two-way handshake compose end to end.

var testVocab = VocabDigest([]string{"class", "temperature", "seq"})

// memberLog records OnMember callbacks as "peer:event" strings.
type memberLog struct {
	mu  sync.Mutex
	evs []string
}

func (l *memberLog) on(peer uint32, ev MemberEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs = append(l.evs, fmt.Sprintf("%d:%s", peer, ev))
}

func (l *memberLog) has(want string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.evs {
		if e == want {
			return true
		}
	}
	return false
}

// await waits for the event want to be logged. Member callbacks fire
// after the state change they report is visible, so a test that has just
// seen the new state must wait for the event too.
func (l *memberLog) await(t *testing.T, want string) {
	t.Helper()
	waitFor(t, func() bool { return l.has(want) }, want+" event")
}

// discoEndpoint builds a discovery-enabled endpoint with fast timers.
func discoEndpoint(t *testing.T, id uint32, disco DiscoveryConfig, mod func(*UDPConfig)) (*UDP, *memberLog) {
	t.Helper()
	log := &memberLog{}
	if disco.Interval == 0 {
		disco.Interval = 40 * time.Millisecond
	}
	if disco.VocabDigest == 0 {
		disco.VocabDigest = testVocab
	}
	if disco.OnMember == nil {
		disco.OnMember = log.on
	}
	cfg := UDPConfig{
		ID:     id,
		Listen: "127.0.0.1:0",
		Seed:   int64(id),
		Deliver: func(uint32, []byte) {
		},
		Liveness:  &LivenessConfig{Interval: 25 * time.Millisecond},
		Discovery: &disco,
	}
	if mod != nil {
		mod(&cfg)
	}
	u, err := ListenUDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	return u, log
}

// memberOf finds one row of the endpoint's membership view.
func memberOf(u *UDP, id uint32) (Member, bool) {
	for _, m := range u.Members() {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// fakePeer is a raw UDP socket speaking hand-crafted v2 frames.
type fakePeer struct {
	t    *testing.T
	id   uint32
	boot uint32
	conn *net.UDPConn
}

func newFakePeer(t *testing.T, id, boot uint32) *fakePeer {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &fakePeer{t: t, id: id, boot: boot, conn: conn}
}

func (p *fakePeer) addr() string { return p.conn.LocalAddr().String() }

func (p *fakePeer) send(to *net.UDPAddr, kind uint8, payload []byte) {
	p.t.Helper()
	if _, err := p.conn.WriteToUDP(encodeFrame(kind, p.id, Broadcast, p.boot, 0, payload), to); err != nil {
		p.t.Fatal(err)
	}
}

// announce sends an announce with this peer's own address, the test
// vocabulary digest unless overridden, and the given peering bit.
func (p *fakePeer) announce(to *net.UDPAddr, peered bool, digest uint64, gossip ...gossipEntry) {
	p.t.Helper()
	var flags byte
	if peered {
		flags |= annFlagPeered
	}
	p.announceFlags(to, flags, digest, gossip...)
}

// announceFlags is announce with the raw flags byte exposed.
func (p *fakePeer) announceFlags(to *net.UDPAddr, flags byte, digest uint64, gossip ...gossipEntry) {
	p.t.Helper()
	a := announce{flags: flags, digest: digest, httpPort: 8080, energy: 1000, addr: p.addr(), gossip: gossip}
	p.send(to, kindAnnounce, encodeAnnounce(a))
}

// expectKind reads frames until one of the wanted kind arrives (true) or
// the deadline passes (false).
func (p *fakePeer) expectKind(kind uint8, timeout time.Duration) (frame, bool) {
	p.t.Helper()
	buf := make([]byte, maxPayload+headerSize+traceExtSize)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		p.conn.SetReadDeadline(deadline)
		n, _, err := p.conn.ReadFromUDP(buf)
		if err != nil {
			return frame{}, false
		}
		f, err := decodeFrame(buf[:n])
		if err != nil {
			continue
		}
		if f.kind == kind {
			// The payload aliases buf; copy so callers can keep it.
			cp := make([]byte, len(f.payload))
			copy(cp, f.payload)
			f.payload = cp
			return f, true
		}
	}
	return frame{}, false
}

func TestVocabDigest(t *testing.T) {
	a := VocabDigest([]string{"class", "type"})
	if a != VocabDigest([]string{"class", "type"}) {
		t.Error("digest not deterministic")
	}
	if a == VocabDigest([]string{"type", "class"}) {
		t.Error("digest must be order-sensitive: keys are numbered by registration order")
	}
	if VocabDigest([]string{"ab"}) == VocabDigest([]string{"a", "b"}) {
		t.Error("digest must separate key boundaries")
	}
}

func TestClusterScore(t *testing.T) {
	if clusterScore(7, 42) != clusterScore(7, 42) {
		t.Error("score not deterministic")
	}
	if clusterScore(7, 42) == clusterScore(7, 43) {
		t.Error("score must rotate with the boot nonce")
	}
	if clusterScore(7, 42) == clusterScore(8, 42) {
		t.Error("score must vary with the node ID")
	}
}

func TestAnnounceCodecRoundTrip(t *testing.T) {
	in := announce{
		flags:    annFlagPeered,
		digest:   0xDEADBEEFCAFE1234,
		httpPort: 8443,
		energy:   750,
		addr:     "127.0.0.1:7001",
		gossip: []gossipEntry{
			{id: 9, addr: "127.0.0.1:7009"},
			{id: 11, addr: "10.0.0.2:7011"},
		},
	}
	out, err := decodeAnnounce(encodeAnnounce(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.flags != in.flags || out.digest != in.digest || out.httpPort != in.httpPort ||
		out.energy != in.energy || out.addr != in.addr || len(out.gossip) != 2 ||
		out.gossip[0] != in.gossip[0] || out.gossip[1] != in.gossip[1] {
		t.Errorf("round trip mismatch: %+v != %+v", out, in)
	}

	if _, err := decodeAnnounce(nil); err == nil {
		t.Error("empty payload must not decode")
	}
	enc := encodeAnnounce(in)
	enc[0] = 99
	if _, err := decodeAnnounce(enc); err == nil {
		t.Error("unknown codec version must not decode")
	}
	enc[0] = discoVersion
	if _, err := decodeAnnounce(enc[:len(enc)-3]); err == nil {
		t.Error("truncated gossip must not decode")
	}
}

func TestDiscoveryPromotesAnnouncingPeer(t *testing.T) {
	u, log := discoEndpoint(t, 1, DiscoveryConfig{}, nil)
	x := newFakePeer(t, 2, 7)

	x.announce(u.LocalAddr(), false, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "neighbor"
	}, "peer 2 promoted")
	log.await(t, "2:joined")
	m, _ := memberOf(u, 2)
	if m.Origin != "discovered" {
		t.Errorf("origin = %q, want discovered", m.Origin)
	}
	if m.HTTPAddr != "127.0.0.1:8080" {
		t.Errorf("http addr = %q", m.HTTPAddr)
	}
	if m.Score != clusterScore(2, 7) {
		t.Errorf("score = %d, want clusterScore(2,7)", m.Score)
	}
	if !m.HasHealth {
		t.Error("promoted peer must be tracked by the failure detector")
	}

	// The promotion announce must carry the peering bit — that is the
	// handshake completing from our side.
	f, ok := x.expectKind(kindAnnounce, 2*time.Second)
	if !ok {
		t.Fatal("no announce reply")
	}
	a, err := decodeAnnounce(f.payload)
	if err != nil {
		t.Fatal(err)
	}
	if a.flags&annFlagPeered == 0 {
		t.Error("promotion announce must set the peering bit")
	}

	// Completing the handshake from the peer's side marks it peered.
	x.announce(u.LocalAddr(), true, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Peered
	}, "handshake completion")
}

func TestDiscoveryQuarantineOnVocabMismatch(t *testing.T) {
	u, log := discoEndpoint(t, 1, DiscoveryConfig{}, nil)
	x := newFakePeer(t, 2, 7)

	x.announce(u.LocalAddr(), false, testVocab+1)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "quarantined"
	}, "peer 2 quarantined")
	log.await(t, "2:quarantined")
	if got := u.Stats().MemberQuarantined.Load(); got == 0 {
		t.Error("quarantine counter not bumped")
	}
	// The reply lets the mismatched peer quarantine us symmetrically.
	if _, ok := x.expectKind(kindAnnounce, 2*time.Second); !ok {
		t.Fatal("quarantined peer must still get an announce reply")
	}
	if health := u.PeerHealth(); len(health) != 0 {
		t.Errorf("quarantined peer must not reach the detector: %v", health)
	}

	// A restart with the fixed vocabulary clears the quarantine.
	x.boot = 8
	x.announce(u.LocalAddr(), false, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "neighbor"
	}, "peer 2 rehabilitated")
}

func TestDiscoveryDegreeCapEviction(t *testing.T) {
	u, log := discoEndpoint(t, 1, DiscoveryConfig{DegreeCap: 1}, nil)
	weak, strong := newFakePeer(t, 2, 7), newFakePeer(t, 3, 7)
	if better(
		&discoRec{id: weak.id, score: clusterScore(weak.id, weak.boot), energy: 1000},
		&discoRec{id: strong.id, score: clusterScore(strong.id, strong.boot), energy: 1000},
	) {
		weak, strong = strong, weak
	}

	weak.announce(u.LocalAddr(), false, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, weak.id)
		return ok && m.Membership == "neighbor"
	}, "weak peer promoted into the free slot")

	// A better-scored peer displaces it; the cap holds at 1.
	strong.announce(u.LocalAddr(), false, testVocab)
	waitFor(t, func() bool {
		s, ok1 := memberOf(u, strong.id)
		w, ok2 := memberOf(u, weak.id)
		return ok1 && ok2 && s.Membership == "neighbor" && w.Membership == "candidate"
	}, "strong peer evicts weak")
	// The strong peer reciprocates, as a real peer does. Otherwise its
	// one-way slot expires at the handshake deadline and the weak peer's
	// announce below takes the freed slot back.
	strong.announce(u.LocalAddr(), true, testVocab)
	waitFor(t, func() bool {
		s, ok := memberOf(u, strong.id)
		return ok && s.Peered
	}, "strong peer completes the handshake")
	log.await(t, fmt.Sprintf("%d:evicted", weak.id))
	if len(u.Neighbors()) != 1 {
		t.Errorf("degree cap violated: table %v", u.Neighbors())
	}
	// The evictee is told immediately (announce without the peering bit).
	// Earlier announces from its promotion still sit in the socket buffer,
	// so drain until the bit-clear one arrives.
	deadline := time.Now().Add(2 * time.Second)
	notified := false
	for !notified && time.Now().Before(deadline) {
		f, ok := weak.expectKind(kindAnnounce, time.Until(deadline))
		if !ok {
			break
		}
		if a, err := decodeAnnounce(f.payload); err == nil && a.flags&annFlagPeered == 0 {
			notified = true
		}
	}
	if !notified {
		t.Error("evictee never got a peering-bit-clear announce")
	}

	// The weak peer announcing again does not displace the strong one,
	// which keeps announcing so its failure detector stays quiet.
	strong.announce(u.LocalAddr(), true, testVocab)
	weak.announce(u.LocalAddr(), true, testVocab)
	time.Sleep(150 * time.Millisecond)
	if m, _ := memberOf(u, strong.id); m.Membership != "neighbor" {
		t.Error("weaker peer displaced a stronger neighbor")
	}
}

// TestDiscoveryLonelyRescue: pure score preference starves the globally
// weakest node once the mesh saturates (at n = cap+2 the top cap+1 nodes
// form a full clique and the bottom one is isolated forever). An
// announce carrying the loneliness flag must be admitted even though its
// score beats nobody, and the rescued slot must be protected so a
// stronger peer cannot score its way back in and re-isolate it.
func TestDiscoveryLonelyRescue(t *testing.T) {
	u, log := discoEndpoint(t, 1, DiscoveryConfig{DegreeCap: 1}, nil)
	weak, strong := newFakePeer(t, 2, 7), newFakePeer(t, 3, 7)
	if better(
		&discoRec{id: weak.id, score: clusterScore(weak.id, weak.boot), energy: 1000},
		&discoRec{id: strong.id, score: clusterScore(strong.id, strong.boot), energy: 1000},
	) {
		weak, strong = strong, weak
	}

	strong.announce(u.LocalAddr(), true, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, strong.id)
		return ok && m.Membership == "neighbor"
	}, "strong peer promoted into the free slot")

	// Without the flag the weaker peer loses on score and stays out.
	weak.announce(u.LocalAddr(), true, testVocab)
	time.Sleep(150 * time.Millisecond)
	if m, _ := memberOf(u, weak.id); m.Membership == "neighbor" {
		t.Fatal("weaker peer displaced a stronger neighbor without the loneliness flag")
	}

	// The loneliness flag overrides the score order: weak is admitted and
	// the stronger occupant is evicted.
	weak.announceFlags(u.LocalAddr(), annFlagPeered|annFlagLonely, testVocab)
	waitFor(t, func() bool {
		w, ok1 := memberOf(u, weak.id)
		s, ok2 := memberOf(u, strong.id)
		return ok1 && ok2 && w.Membership == "neighbor" && s.Membership != "neighbor"
	}, "lonely peer admitted over the score order")
	log.await(t, fmt.Sprintf("%d:joined", weak.id))
	log.await(t, fmt.Sprintf("%d:evicted", strong.id))

	// The rescued slot is protected: the stronger peer's re-announce must
	// not evict the lonely-admitted neighbor.
	strong.announce(u.LocalAddr(), true, testVocab)
	time.Sleep(150 * time.Millisecond)
	if m, _ := memberOf(u, weak.id); m.Membership != "neighbor" {
		t.Error("score eviction re-isolated the lonely-admitted neighbor")
	}
	if m, _ := memberOf(u, strong.id); m.Membership == "neighbor" {
		t.Error("degree cap violated: both peers promoted")
	}
}

func TestDiscoveryHandshakeTimeoutDemotes(t *testing.T) {
	u, log := discoEndpoint(t, 1, DiscoveryConfig{}, nil)
	x := newFakePeer(t, 2, 7)

	// X announces but never sets the peering bit (it is full elsewhere):
	// the one-way slot must be reclaimed after three announce intervals.
	x.announce(u.LocalAddr(), false, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "neighbor"
	}, "peer 2 promoted")
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "candidate"
	}, "one-way peer demoted")
	log.await(t, "2:demoted")
}

// TestHandshakeBackoffEscalation pins the damping schedule: 5 intervals
// after the first failed handshake, doubling per failure, then jumping
// to the quiescent ceiling after courtshipQuiesceAfter straight
// failures — a saturated peer is left alone until it courts us itself.
func TestHandshakeBackoffEscalation(t *testing.T) {
	d := &discovery{cfg: DiscoveryConfig{Interval: time.Millisecond}}
	r := &discoRec{}
	for i, want := range []time.Duration{5, 10, 20, 5 << 10, 5 << 10} {
		if got := d.handshakeBackoffLocked(r); got != want*time.Millisecond {
			t.Errorf("failure %d: delay %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
}

// TestDiscoveryHandshakeBackoff drives the courtship damping end to end:
// a failed handshake notifies the peer with a bit-clear announce and
// opens a retry window during which unpeered announces cannot re-promote;
// a reciprocating announce bypasses the window and completes the link.
func TestDiscoveryHandshakeBackoff(t *testing.T) {
	u, _ := discoEndpoint(t, 1, DiscoveryConfig{}, nil)
	x := newFakePeer(t, 2, 7)

	x.announce(u.LocalAddr(), false, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "neighbor"
	}, "peer 2 promoted")
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "candidate"
	}, "one-way peer demoted")

	// The demote is announced to the peer with the peering bit cleared so
	// it can free its own slot without waiting out its failure detector.
	sawClear := false
	for !sawClear {
		f, ok := x.expectKind(kindAnnounce, time.Second)
		if !ok {
			t.Fatal("no bit-clear announce after the handshake demote")
		}
		if a, err := decodeAnnounce(f.payload); err == nil && a.flags&annFlagPeered == 0 {
			sawClear = true
		}
	}

	// Inside the retry window an unpeered announce must not re-promote —
	// that repeat courtship is exactly what the backoff damps.
	x.announce(u.LocalAddr(), false, testVocab)
	time.Sleep(100 * time.Millisecond) // window is 5 announce intervals (200ms)
	if m, _ := memberOf(u, 2); m.Membership != "candidate" {
		t.Fatalf("unpeered announce re-promoted inside the retry window: %s", m.Membership)
	}

	// A reciprocating announce completes the handshake immediately: the
	// peer holds a slot for us, so the damping no longer applies.
	x.announce(u.LocalAddr(), true, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "neighbor" && m.Peered
	}, "reciprocating announce promoted through the retry window")
}

func TestDiscoveryLeaveDemotes(t *testing.T) {
	u, log := discoEndpoint(t, 1, DiscoveryConfig{}, nil)
	x := newFakePeer(t, 2, 7)

	x.announce(u.LocalAddr(), true, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "neighbor"
	}, "peer 2 promoted")

	x.send(u.LocalAddr(), kindLeave, nil)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "left"
	}, "peer 2 left")
	log.await(t, "2:left")
	if health := u.PeerHealth(); len(health) != 0 {
		t.Errorf("departed peer still tracked by the detector: %v", health)
	}
}

// TestDiscoveryChurnToRemoval walks a discovered peer through the full
// liveness lifecycle: promoted → suspect → dead → removed from the table,
// then re-announced under a new boot nonce as a fresh incarnation.
func TestDiscoveryChurnToRemoval(t *testing.T) {
	var states struct {
		mu  sync.Mutex
		seq []PeerState
	}
	u, log := discoEndpoint(t, 1, DiscoveryConfig{}, func(cfg *UDPConfig) {
		cfg.Liveness = &LivenessConfig{
			Interval:     20 * time.Millisecond,
			SuspectAfter: 60 * time.Millisecond,
			DeadAfter:    140 * time.Millisecond,
			OnStateChange: func(peer uint32, s PeerState) {
				states.mu.Lock()
				states.seq = append(states.seq, s)
				states.mu.Unlock()
			},
		}
	})
	x := newFakePeer(t, 2, 7)

	x.announce(u.LocalAddr(), true, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "neighbor"
	}, "peer 2 promoted")

	// Silence: the detector must walk it through suspect to dead, and
	// discovery must then remove it from the live table.
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "dead"
	}, "silent peer removed as dead")
	states.mu.Lock()
	seq := append([]PeerState(nil), states.seq...)
	states.mu.Unlock()
	sawSuspect, sawDead := false, false
	for _, s := range seq {
		if s == PeerSuspect {
			sawSuspect = true
		}
		if s == PeerDead && sawSuspect {
			sawDead = true
		}
	}
	if !sawDead {
		t.Errorf("liveness transitions missing suspect→dead: %v", seq)
	}
	log.await(t, "2:dead")
	if len(u.Neighbors()) != 0 {
		t.Errorf("dead peer still in the table: %v", u.Neighbors())
	}
	if health := u.PeerHealth(); len(health) != 0 {
		t.Errorf("dead peer still probed: %v", health)
	}

	// A new incarnation re-announces and walks back in as a fresh peer.
	x.boot = 8
	x.announce(u.LocalAddr(), true, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "neighbor" && m.HasHealth && m.Health.State == PeerAlive
	}, "new incarnation promoted")
	if m, _ := memberOf(u, 2); m.Score != clusterScore(2, 8) {
		t.Error("score must be recomputed for the new boot nonce")
	}
}

// TestDiscoveryRebootClearsRetransmitState pins the no-stale-state
// guarantee: a promoted peer re-announcing under a new boot nonce must
// not inherit pending reliable retransmissions or custody offers aimed at
// its previous incarnation.
func TestDiscoveryRebootClearsRetransmitState(t *testing.T) {
	u, log := discoEndpoint(t, 1, DiscoveryConfig{}, func(cfg *UDPConfig) {
		// Huge RTOs: nothing retires on its own during the test.
		cfg.Reliable = &ReliableConfig{RTO: time.Hour, MaxRTO: time.Hour}
		cfg.Custody = &CustodyOptions{
			RTO: time.Hour, MaxRTO: time.Hour,
			Accept:  func(uint32, message.ID, []byte) (bool, bool) { return true, true },
			Release: func(uint32, message.ID) {},
		}
	})
	x := newFakePeer(t, 2, 1)

	x.announce(u.LocalAddr(), true, testVocab)
	waitFor(t, func() bool {
		m, ok := memberOf(u, 2)
		return ok && m.Membership == "neighbor"
	}, "peer 2 promoted")

	// One unacked reliable frame and one unacked custody offer in flight
	// toward incarnation 1 (the fake peer never acks anything).
	if err := u.Send(2, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := u.SendCustody(2, message.ID{RandID: 42}, []byte("custody")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return u.rel.pending(2) == 1 && u.CustodyPending() == 1 }, "in-flight state")

	// New incarnation announces: both must be dropped, not retransmitted
	// into the reset sequence space.
	x.boot = 2
	x.announce(u.LocalAddr(), true, testVocab)
	waitFor(t, func() bool { return u.rel.pending(2) == 0 && u.CustodyPending() == 0 },
		"stale retransmit state dropped on boot change")
	log.await(t, "2:rejoined")
	if m, _ := memberOf(u, 2); m.Membership != "neighbor" {
		t.Error("rejoined peer must stay a neighbor")
	}
}

// TestDiscoveryGossipMesh proves the full bootstrap path with real
// endpoints: two nodes seeded only with a third find each other through
// its gossip, probe, handshake, and end up mutually promoted; a graceful
// Leave then demotes everywhere without waiting for timeouts.
func TestDiscoveryGossipMesh(t *testing.T) {
	seed, _ := discoEndpoint(t, 1, DiscoveryConfig{}, nil)
	seedAddr := seed.LocalAddr().String()
	b, _ := discoEndpoint(t, 2, DiscoveryConfig{Seeds: []string{seedAddr}}, nil)
	c, _ := discoEndpoint(t, 3, DiscoveryConfig{Seeds: []string{seedAddr}}, nil)

	mutual := func(x *UDP, id uint32) bool {
		m, ok := memberOf(x, id)
		return ok && m.Membership == "neighbor" && m.Peered
	}
	waitFor(t, func() bool {
		return mutual(seed, 2) && mutual(seed, 3) && mutual(b, 1) && mutual(c, 1) &&
			mutual(b, 3) && mutual(c, 2) // via the seed's gossip
	}, "three-node mesh fully meshed through one seed")
	if got := b.Stats().GossipLearned.Load() + c.Stats().GossipLearned.Load(); got == 0 {
		t.Error("b and c must have learned each other from gossip")
	}

	c.Leave()
	waitFor(t, func() bool {
		mb, okb := memberOf(b, 3)
		ms, oks := memberOf(seed, 3)
		return okb && oks && mb.Membership == "left" && ms.Membership == "left"
	}, "graceful leave demoted everywhere")
}

// TestDiscoverySaturationQuiesce reproduces the DESIGN.md §10 saturation
// case: n = cap + 2 at degree cap 8, so the regular graph cannot fit
// everyone at full degree and at least one node converges sub-cap next
// to a saturated clique. Before the courtship quiesce ceiling that node
// re-courted its full peers forever — the damped candidate record
// expired after ten quiet intervals, gossip re-taught it with a fresh
// backoff counter, and discovery.demotions grew without bound. The fix
// must make the mesh go quiet: after convergence the fleet-wide demotion
// total has to stop growing and stay stopped.
func TestDiscoverySaturationQuiesce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second saturation soak skipped in -short mode")
	}
	const (
		n        = 10
		cap      = 8
		interval = 20 * time.Millisecond
	)
	nodes := make([]*UDP, 0, n)
	defer func() {
		for _, u := range nodes {
			u.Close()
		}
	}()
	mk := func(id uint32, seeds []string) *UDP {
		u, err := ListenUDP(UDPConfig{
			ID:       id,
			Listen:   "127.0.0.1:0",
			Seed:     int64(id),
			Deliver:  func(uint32, []byte) {},
			Liveness: &LivenessConfig{Interval: 50 * time.Millisecond},
			Discovery: &DiscoveryConfig{
				Seeds:       seeds,
				Interval:    interval,
				DegreeCap:   cap,
				VocabDigest: testVocab,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	seed := mk(1, nil)
	nodes = append(nodes, seed)
	seedAddr := []string{seed.LocalAddr().String()}
	for id := 2; id <= n; id++ {
		nodes = append(nodes, mk(uint32(id), seedAddr))
	}

	converged := func() bool {
		for _, u := range nodes {
			ok := false
			for _, m := range u.Members() {
				if m.MembershipCode == MembershipNeighbor && m.Peered {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(30 * time.Second)
	for !converged() {
		if time.Now().After(deadline) {
			t.Fatal("saturated mesh did not converge in 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}

	demotions := func() uint64 {
		var total uint64
		for _, u := range nodes {
			total += u.Stats().MemberDemotions.Load()
		}
		return total
	}
	// Quiescence: no demotion anywhere for 4 full seconds (200 announce
	// intervals — pre-fix the churn loop demoted roughly every dozen
	// intervals per courting pair, so a window this long cannot happen by
	// luck). Allow up to 45s for the escalating schedule to play out.
	last, lastChange := demotions(), time.Now()
	soak := time.Now().Add(45 * time.Second)
	for {
		time.Sleep(100 * time.Millisecond)
		if now, cur := time.Now(), demotions(); cur != last {
			last, lastChange = cur, now
		} else if now.Sub(lastChange) >= 4*time.Second {
			break
		}
		if time.Now().After(soak) {
			t.Fatalf("demotions never quiesced: total %d still growing after 45s", last)
		}
	}
	t.Logf("saturated n=%d cap=%d mesh quiesced at %d total demotions", n, cap, last)
}
