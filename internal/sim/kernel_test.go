package sim

import (
	"fmt"
	"testing"
	"time"
)

// newTestKernel returns a kernel with nodes 1..nodes registered.
func newTestKernel(seed int64, nodes int) *Kernel {
	k := NewKernel(KernelConfig{
		Seed:         seed,
		Propagation:  3 * time.Microsecond,
		TxTurnaround: time.Millisecond,
	})
	for i := 0; i < nodes; i++ {
		k.AddNode(uint32(i+1), 0)
	}
	return k
}

func TestKernelEveryRejectsNonPositivePeriod(t *testing.T) {
	for _, period := range []time.Duration{0, -time.Second} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Every(period=%v) must panic", period)
				}
			}()
			newTestKernel(1, 1).Every(time.Second, period, func() {})
		}()
	}
}

func TestSchedulerEveryRejectsNonPositivePeriod(t *testing.T) {
	for _, period := range []time.Duration{0, -time.Millisecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Every(period=%v) must panic", period)
				}
			}()
			New(1).Every(time.Second, period, func() {})
		}()
	}
}

func TestKernelGlobalBeforeNodeAtEqualTime(t *testing.T) {
	k := newTestKernel(7, 2)
	var order []string
	k.Port(1).After(time.Second, func() { order = append(order, "node") })
	k.After(time.Second, func() { order = append(order, "global") })
	k.Run()
	if len(order) != 2 || order[0] != "global" || order[1] != "node" {
		t.Errorf("order = %v, want [global node]", order)
	}
}

func TestKernelPortClockExactDuringWindow(t *testing.T) {
	k := newTestKernel(3, 2)
	p := k.Port(1)
	var at time.Duration
	p.After(1500*time.Microsecond, func() { at = p.Now() })
	k.RunUntil(time.Second)
	if at != 1500*time.Microsecond {
		t.Errorf("node clock read %v inside its event, want 1.5ms", at)
	}
}

// TestKernelNowExactInNodeContext is a regression test: the kernel's
// global clock must read the executing event's time inside node events
// too (sink callbacks read it through Network.Now), not the time of the
// first event in a batch.
func TestKernelNowExactInNodeContext(t *testing.T) {
	k := newTestKernel(3, 2)
	var at time.Duration
	k.Port(1).After(time.Millisecond, func() {})
	k.Port(2).After(1500*time.Microsecond, func() { at = k.Now() })
	k.RunUntil(time.Second)
	if at != 1500*time.Microsecond {
		t.Errorf("Kernel.Now() read %v inside a node event at 1.5ms", at)
	}
}

func TestKernelRejectsShards(t *testing.T) {
	for name, f := range map[string]func(){
		"KernelConfig.Shards=2": func() {
			NewKernel(KernelConfig{Shards: 2, Propagation: time.Microsecond})
		},
		"AddNode shard 1": func() {
			NewKernel(KernelConfig{Shards: 1, Propagation: time.Microsecond}).AddNode(1, 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			f()
		}()
	}
}

func TestScheduleRemoteOutsideTxPanics(t *testing.T) {
	k := newTestKernel(5, 2)
	p := k.Port(1)
	panicked := false
	p.After(time.Millisecond, func() {
		defer func() { panicked = recover() != nil }()
		p.ScheduleRemote(2, 3*time.Microsecond, func() {})
	})
	k.Run()
	if !panicked {
		t.Error("ScheduleRemote outside a transmission-commit event must panic")
	}
}

func TestScheduleRemoteBelowPropagationPanics(t *testing.T) {
	k := newTestKernel(5, 2)
	p := k.Port(1)
	panicked := false
	p.AfterTx(time.Millisecond, func() {
		defer func() { panicked = recover() != nil }()
		p.ScheduleRemote(2, time.Microsecond, func() {})
	})
	k.Run()
	if !panicked {
		t.Error("ScheduleRemote below the propagation floor must panic")
	}
}

// kernelWorkload drives a synthetic cross-node traffic pattern and returns
// per-node execution transcripts concatenated in node order: every event's
// (time, tag) as seen by its node. Node i periodically commits a
// transmission that delivers to both neighbors, which respond with their
// own local timers.
func kernelWorkload(seed int64, nodes int) []string {
	k := newTestKernel(seed, nodes)
	logs := make([][]string, nodes+1)
	for i := 1; i <= nodes; i++ {
		id := uint32(i)
		p := k.Port(id)
		step := time.Duration(1+i%3) * 10 * time.Millisecond
		k.Every(step, step, func() { // global driver, like an experiment script
			p.AfterTx(time.Millisecond, func() {
				logs[id] = append(logs[id], fmt.Sprintf("%v tx", p.Now()))
				for _, nb := range []uint32{id%uint32(nodes) + 1, (id+1)%uint32(nodes) + 1} {
					to := nb
					tp := k.Port(to)
					jitter := time.Duration(p.Rand().Intn(1000)) * time.Microsecond
					p.ScheduleRemote(to, 3*time.Microsecond+jitter, func() {
						logs[to] = append(logs[to], fmt.Sprintf("%v rx", tp.Now()))
						tp.After(time.Duration(tp.Rand().Intn(2000))*time.Microsecond, func() {
							logs[to] = append(logs[to], fmt.Sprintf("%v app", tp.Now()))
						})
					})
				}
			})
		})
	}
	k.RunUntil(2 * time.Second)
	var out []string
	for i := 1; i <= nodes; i++ {
		for _, line := range logs[i] {
			out = append(out, fmt.Sprintf("n%d %s", i, line))
		}
	}
	return out
}

func TestKernelSameSeedSameTranscript(t *testing.T) {
	a := kernelWorkload(23, 6)
	b := kernelWorkload(23, 6)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at %d: %q != %q", i, a[i], b[i])
		}
	}
	if c := kernelWorkload(24, 6); len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical transcripts")
		}
	}
}

func TestKernelRunUntilAdvancesClock(t *testing.T) {
	k := newTestKernel(1, 2)
	k.RunUntil(5 * time.Second)
	if k.Now() != 5*time.Second {
		t.Errorf("Now()=%v after RunUntil(5s)", k.Now())
	}
	fired := false
	k.Port(1).After(time.Second, func() { fired = true })
	k.RunUntil(5500 * time.Millisecond)
	if fired {
		t.Error("event before its time")
	}
	k.RunUntil(7 * time.Second)
	if !fired {
		t.Error("event missed by RunUntil")
	}
}

func TestKernelPendingAndNextEventAt(t *testing.T) {
	k := newTestKernel(1, 3)
	if _, ok := k.NextEventAt(); ok {
		t.Error("empty kernel reports a next event")
	}
	k.Port(1).After(2*time.Second, func() {})
	tm := k.Port(2).After(time.Second, func() {})
	k.After(3*time.Second, func() {})
	if n := k.Pending(); n != 3 {
		t.Errorf("Pending=%d want 3", n)
	}
	if at, ok := k.NextEventAt(); !ok || at != time.Second {
		t.Errorf("NextEventAt=%v,%v want 1s", at, ok)
	}
	tm.Cancel()
	if n := k.Pending(); n != 2 {
		t.Errorf("Pending=%d after cancel, want 2", n)
	}
	if at, ok := k.NextEventAt(); !ok || at != 2*time.Second {
		t.Errorf("NextEventAt=%v,%v after cancel, want 2s", at, ok)
	}
}

func TestEventHeapCompaction(t *testing.T) {
	// Arm-and-cancel churn must not grow the heap without bound: cancelled
	// entries are compacted away once they outnumber the live ones.
	s := New(1)
	keep := s.After(time.Hour, func() {})
	_ = keep
	for i := 0; i < 10_000; i++ {
		s.After(time.Minute, func() {}).Cancel()
	}
	if got := len(s.events.s); got > 32 {
		t.Errorf("heap holds %d entries after cancel churn, want <= 32", got)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending=%d want 1", s.Pending())
	}
}

func TestPendingConstantTimeAccounting(t *testing.T) {
	s := New(1)
	timers := make([]Timer, 0, 100)
	for i := 0; i < 100; i++ {
		timers = append(timers, s.After(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	if s.Pending() != 100 {
		t.Fatalf("Pending=%d want 100", s.Pending())
	}
	for i, tm := range timers {
		if i%2 == 0 {
			tm.Cancel()
		}
	}
	if s.Pending() != 50 {
		t.Errorf("Pending=%d after 50 cancels, want 50", s.Pending())
	}
	// Double-cancel must not double-count.
	timers[0].Cancel()
	if s.Pending() != 50 {
		t.Errorf("Pending=%d after double cancel, want 50", s.Pending())
	}
	s.Run()
	if s.Pending() != 0 {
		t.Errorf("Pending=%d after Run, want 0", s.Pending())
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := map[int64]bool{}
	for node := uint32(1); node <= 100; node++ {
		s := DeriveSeed(7, NodeStream(node)...)
		if seen[s] {
			t.Fatalf("derived seed collision at node %d", node)
		}
		seen[s] = true
	}
	if DeriveSeed(7, LinkStream(1, 2)...) == DeriveSeed(7, LinkStream(2, 1)...) {
		t.Error("link streams must be direction-sensitive")
	}
	if DeriveSeed(7, NodeStream(1)...) == DeriveSeed(8, NodeStream(1)...) {
		t.Error("derived seeds must depend on the master seed")
	}
}
