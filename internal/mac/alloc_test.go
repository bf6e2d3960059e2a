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
// fragment table and backing buffer, then per fragment the radio's payload
// copy. The pump's callbacks are bound once at Attach, so no step
// allocates a method value, and its timer events are recycled by the
// kernel.
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
	budget := float64(3 + frags)
	if allocs := testing.AllocsPerRun(100, step); allocs > budget {
		t.Errorf("sending a %d-fragment message allocated %v times, want at most %v", frags, allocs, budget)
	}
	if m.Stats.MessagesSent != 102 || m.Stats.FragmentsSent != 102*frags {
		t.Errorf("sent %d messages in %d fragments, want 102 in %d", m.Stats.MessagesSent, m.Stats.FragmentsSent, 102*frags)
	}
}

// TestAllocBudgetReassembly checks that reassembling a delivered
// multi-fragment message allocates only its payload: the reassembly
// record, its fragment table and expiry callback are recycled through the
// MAC's free list, and the expiry timer through the kernel's.
func TestAllocBudgetReassembly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rp, mp := radio.PerfectParams(), DefaultParams()
	k := sim.NewKernel(sim.KernelConfig{Seed: 1, Propagation: rp.PropDelay, TxTurnaround: mp.Turnaround()})
	k.AddNode(1, 0)
	k.AddNode(2, 0)
	ch := radio.NewChannel(k, topo.Line(2, 5), rp)
	src := Attach(k.Port(1), ch, 1, mp, nil)
	delivered := 0
	dst := Attach(k.Port(2), ch, 2, mp, func(uint32, []byte) { delivered++ })
	frames := src.fragment(Broadcast, 1, make([]byte, 100))
	step := func() {
		for _, f := range frames {
			dst.onFrame(1, f)
		}
	}
	step() // fill the free lists
	if allocs := testing.AllocsPerRun(100, step); allocs > 1 {
		t.Errorf("reassembling a %d-fragment message allocated %v times, want at most 1 (the payload)", len(frames), allocs)
	}
	if delivered != 102 || dst.Stats.ReassemblyExpired != 0 {
		t.Errorf("delivered %d messages with %d expirations, want 102 and 0", delivered, dst.Stats.ReassemblyExpired)
	}
}
