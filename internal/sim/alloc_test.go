package sim

import (
	"testing"
	"time"
)

// TestAllocBudgetScheduleRemote checks that a warm burst of remote events
// and its execution allocate nothing: the remote events and the AfterTx
// event that hosts the burst all come from the kernel's free list.
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
	if allocs := testing.AllocsPerRun(100, step); allocs > 0 {
		t.Errorf("a burst of %d remote events allocated %v times, want 0", burstLen, allocs)
	}
	if want := burstLen * 102; delivered != want {
		t.Errorf("delivered %d remote events, want %d", delivered, want)
	}
}

// TestAllocBudgetAfter checks that steady-state After and AfterTx with a
// pre-bound callback allocate nothing on either engine: every event
// record, fired or cancelled, is recycled, and a Timer is a value.
func TestAllocBudgetAfter(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	k := newTestKernel(1, 1)
	s := New(1)
	ran := 0
	fn := func() { ran++ }
	engines := map[string]struct {
		port Port
		run  func()
	}{
		"Kernel":    {k.Port(1), func() { k.RunUntil(k.Now() + time.Second) }},
		"Scheduler": {s.Port(1), func() { s.RunUntil(s.Now() + time.Second) }},
	}
	for name, e := range engines {
		step := func() {
			for i := 0; i < 8; i++ {
				e.port.After(time.Duration(i)*time.Millisecond, fn)
				e.port.AfterTx(time.Duration(i)*time.Millisecond, fn)
			}
			for i := 0; i < 8; i++ {
				e.port.After(time.Minute, fn).Cancel()
			}
			e.run()
		}
		step() // fill the free list and grow the heap
		if allocs := testing.AllocsPerRun(100, step); allocs > 0 {
			t.Errorf("%s: 16 armed and 8 cancelled events allocated %v times, want 0", name, allocs)
		}
	}
	if want := 2 * 16 * 102; ran != want {
		t.Errorf("ran %d callbacks, want %d", ran, want)
	}
}
