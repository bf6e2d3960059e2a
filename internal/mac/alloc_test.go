package mac

import (
	"testing"
	"time"

	"diffusion/internal/radio"
	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// TestAllocBudgetPump checks the transmit pump's allocations for one
// queued multi-fragment message on a lone node: the message record, its
// fragment table and backing buffer, and the kick's timer event, then per
// fragment the AfterTx commit event, the radio's payload copy and the
// re-arm event. The pump's callbacks are bound once at Attach, so no step
// allocates a method value.
func TestAllocBudgetPump(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rp, mp := radio.PerfectParams(), DefaultParams()
	k := sim.NewKernel(sim.KernelConfig{Seed: 1, Propagation: rp.PropDelay, TxTurnaround: mp.Turnaround()})
	port := k.AddNode(1, 0)
	ch := radio.NewChannel(k, topo.Line(1, 5), rp)
	m := Attach(port, ch, 1, mp, nil)
	payload := make([]byte, 100)
	frags := (len(payload) + mp.FragmentPayload - 1) / mp.FragmentPayload
	step := func() {
		if err := m.Send(Broadcast, payload); err != nil {
			t.Fatal(err)
		}
		k.RunUntil(k.Now() + 10*time.Second)
	}
	step()
	budget := float64(4 + 3*frags)
	if allocs := testing.AllocsPerRun(100, step); allocs > budget {
		t.Errorf("sending a %d-fragment message allocated %v times, want at most %v", frags, allocs, budget)
	}
	if m.Stats.MessagesSent != 102 || m.Stats.FragmentsSent != 102*frags {
		t.Errorf("sent %d messages in %d fragments, want 102 in %d", m.Stats.MessagesSent, m.Stats.FragmentsSent, 102*frags)
	}
}
