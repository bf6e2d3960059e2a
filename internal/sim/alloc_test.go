package sim

import (
	"testing"
	"time"
)

// TestAllocBudgetScheduleRemote checks that ScheduleRemote events are
// recycled: once warm, a burst of remote events and their execution
// allocate nothing; the one allocation per run is the AfterTx event that
// hosts the burst, which is returned as a Timer and so never recycled.
func TestAllocBudgetScheduleRemote(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const burstLen = 64
	k := newTestKernel(1, 2)
	p := k.Port(1)
	delivered := 0
	deliver := func() { delivered++ }
	burst := func() {
		for i := 0; i < burstLen; i++ {
			p.ScheduleRemote(2, k.prop, deliver)
		}
	}
	step := func() {
		p.AfterTx(0, burst)
		k.RunUntil(k.Now() + time.Second)
	}
	step() // fill the free list and grow the heap
	if allocs := testing.AllocsPerRun(100, step); allocs > 1 {
		t.Errorf("a burst of %d remote events allocated %v times, want at most 1 (the hosting AfterTx event)", burstLen, allocs)
	}
	if want := burstLen * 102; delivered != want {
		t.Errorf("delivered %d remote events, want %d", delivered, want)
	}
}
