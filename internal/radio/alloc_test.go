package radio

import (
	"testing"
	"time"

	"diffusion/internal/sim"
	"diffusion/internal/topo"
)

// TestAllocBudgetBroadcast checks that one broadcast to k receivers on the
// Kernel allocates only the payload copy the receivers share. Reception
// records and their begin/end callbacks are recycled through the channel's
// free list; the hosting AfterTx event, the arrival events and the
// end-of-reception timers through the kernel's.
func TestAllocBudgetBroadcast(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const receivers = 8
	p := PerfectParams()
	tp := topo.New("star")
	tp.Add(topo.Node{ID: 1})
	for i := 0; i < receivers; i++ {
		tp.Add(topo.Node{ID: uint32(i + 2), X: float64(1 + i)})
	}
	k := sim.NewKernel(sim.KernelConfig{Seed: 1, Propagation: p.PropDelay, TxTurnaround: time.Millisecond})
	for _, id := range tp.IDs() {
		k.AddNode(id, 0)
	}
	c := NewChannel(k, tp, p)
	delivered := 0
	var tx *Transceiver
	for _, id := range tp.IDs() {
		tr := c.Attach(id, func(uint32, []byte) { delivered++ })
		if id == 1 {
			tx = tr
		}
	}
	payload := make([]byte, 35)
	send := func() { tx.Transmit(payload) }
	step := func() {
		k.Port(1).AfterTx(0, send)
		k.RunUntil(k.Now() + time.Second)
	}
	step() // fill the free lists and grow the heap
	if allocs := testing.AllocsPerRun(100, step); allocs > 1 {
		t.Errorf("one broadcast to %d receivers allocated %v times, want at most 1 (the payload copy)", receivers, allocs)
	}
	if want := receivers * 102; delivered != want {
		t.Errorf("delivered %d frames, want %d", delivered, want)
	}
}
