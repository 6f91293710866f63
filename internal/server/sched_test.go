package server

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// waitQueued blocks until the tenant has n waiters registered — the only
// way to order concurrent acquires deterministically from a test.
func waitQueued(t *testing.T, s *sched, tenant string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		st, ok := s.tenants[tenant]
		queued := 0
		if ok {
			queued = len(st.waiters)
		}
		s.mu.Unlock()
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %s never reached %d queued waiters", tenant, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedClampSlots(t *testing.T) {
	s := newSched(4)
	for in, want := range map[int]int{-1: 1, 0: 1, 1: 1, 4: 4, 9: 4} {
		if got := s.clampSlots(in); got != want {
			t.Fatalf("clampSlots(%d) = %d, want %d", in, got, want)
		}
	}
}

// TestSchedFairness: with one slot and a hot tenant already served once, a
// cold tenant's first acquisition jumps ahead of the hot tenant's next,
// even though the hot tenant queued first.
func TestSchedFairness(t *testing.T) {
	s := newSched(1)
	if err := s.acquire(context.Background(), "hot", 1); err != nil {
		t.Fatal(err)
	}
	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.acquire(context.Background(), "hot", 1); err != nil {
			t.Errorf("hot: %v", err)
			return
		}
		order <- "hot"
		s.release("hot", 1)
	}()
	waitQueued(t, s, "hot", 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.acquire(context.Background(), "cold", 1); err != nil {
			t.Errorf("cold: %v", err)
			return
		}
		order <- "cold"
		s.release("cold", 1)
	}()
	waitQueued(t, s, "cold", 1)
	s.release("hot", 1) // frees the slot; dispatch picks the next tenant
	wg.Wait()
	if first := <-order; first != "cold" {
		t.Fatalf("slot went to %q first; deficit fairness should favor the cold tenant", first)
	}
}

// TestSchedWideWaiterNotStarved: when the most deserving tenant needs more
// slots than are free, freed slots accumulate for it instead of leaking to
// narrower latecomers — the head-of-line rule that makes multi-slot
// acquisition starvation-free.
func TestSchedWideWaiterNotStarved(t *testing.T) {
	s := newSched(4)
	for i := 0; i < 4; i++ {
		if err := s.acquire(context.Background(), "holder", 1); err != nil {
			t.Fatal(err)
		}
	}
	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.acquire(context.Background(), "wide", 4); err != nil {
			t.Errorf("wide: %v", err)
			return
		}
		order <- "wide"
		s.release("wide", 4)
	}()
	waitQueued(t, s, "wide", 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.acquire(context.Background(), "narrow", 1); err != nil {
			t.Errorf("narrow: %v", err)
			return
		}
		order <- "narrow"
		s.release("narrow", 1)
	}()
	waitQueued(t, s, "narrow", 1)
	// Free slots one at a time: none of them may leak to the narrow waiter
	// while the wide one (earlier, equally deserving) still waits.
	for i := 0; i < 4; i++ {
		s.release("holder", 1)
	}
	wg.Wait()
	if first := <-order; first != "wide" {
		t.Fatalf("slot went to %q first; freed slots must accumulate for the wide waiter", first)
	}
}

// TestSchedCancelReturnsSlots: a waiter whose context expires leaves
// nothing held, and the capacity remains fully grantable afterwards.
func TestSchedCancelReturnsSlots(t *testing.T) {
	s := newSched(2)
	if err := s.acquire(context.Background(), "a", 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.acquire(ctx, "b", 2); err == nil {
		t.Fatal("acquire succeeded with all slots held and an expiring context")
	}
	s.release("a", 2)
	// The cancelled waiter must be gone: the full capacity grants again.
	if err := s.acquire(context.Background(), "b", 2); err != nil {
		t.Fatalf("capacity not fully restored after cancellation: %v", err)
	}
	s.release("b", 2)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free != 2 {
		t.Fatalf("free = %d after all releases, want 2", s.free)
	}
}

// TestSchedCancellationStress hammers multi-slot acquisition with
// aggressive cancellation racing the grants (run under -race). Afterwards
// every slot must be back — a cancellation that raced a concurrent grant
// must return the granted slots, not leak them — and no waiter may be
// stranded.
func TestSchedCancellationStress(t *testing.T) {
	const capacity = 4
	s := newSched(capacity)
	tenants := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				tenant := tenants[rng.Intn(len(tenants))]
				n := 1 + rng.Intn(capacity)
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if rng.Intn(2) == 0 {
					// Short fuse: frequently expires mid-wait, racing grants.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				if err := s.acquire(ctx, tenant, n); err == nil {
					if rng.Intn(4) == 0 {
						time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					}
					s.release(tenant, n)
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free != capacity {
		t.Fatalf("free = %d after stress, want %d — cancellation leaked slots", s.free, capacity)
	}
	for name, st := range s.tenants {
		if st.inUse != 0 || len(st.waiters) != 0 {
			t.Fatalf("tenant %s stranded: inUse=%d waiters=%d", name, st.inUse, len(st.waiters))
		}
	}
}
