package rt

import "testing"

// TestAllocBudgetPost checks that posting a pre-bound callback allocates
// nothing once the loop's two queue slices have grown: the loop goroutine
// swaps them per batch, so Post appends into spare capacity.
func TestAllocBudgetPost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	l := NewLoop()
	defer l.Stop()
	done := make(chan struct{})
	ping := func() { done <- struct{}{} }
	burst := func() {
		for i := 0; i < 3; i++ {
			l.Post(ping)
		}
		for i := 0; i < 3; i++ {
			<-done
		}
	}
	for i := 0; i < 10; i++ {
		burst() // grow both queue slices
	}
	if allocs := testing.AllocsPerRun(200, burst); allocs > 0 {
		t.Errorf("a burst of 3 posts allocated %v times, want 0", allocs)
	}
}
