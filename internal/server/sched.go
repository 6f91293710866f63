package server

import (
	"context"
	"sync"
)

// sched is the fair CPU-slot scheduler shared by every session actor (and
// by session construction). It replaces a plain counting semaphore with
// deficit-style fairness across tenants: waiters queue per tenant, and a
// freed slot goes to the eligible tenant currently using the fewest slots
// (ties broken by the smaller lifetime grant count, then arrival order), so
// a hot tenant with a deep backlog cannot monopolize the Workers budget —
// a cold tenant's first command jumps ahead of the hot tenant's fortieth.
//
// Grants are all-or-nothing: a waiter needing n slots is granted only when
// n are free, and nothing is handed out while the chosen head waiter cannot
// fit (slots accumulate for it instead), which is what makes multi-slot
// acquisition deadlock- and starvation-free — the property the old
// acquireSlots mutex provided, now with fairness.
type sched struct {
	capacity int

	mu      sync.Mutex
	free    int                     // gdr:guarded-by mu
	seq     uint64                  // gdr:guarded-by mu — arrival stamp for FIFO ties
	tenants map[string]*schedTenant // gdr:guarded-by mu
	order   []*schedTenant          // gdr:guarded-by mu — creation order, for deterministic scans
}

// schedTenant is one tenant's scheduling state. Every mutable field is
// guarded by the owning sched's mu.
type schedTenant struct {
	name    string
	inUse   int       // slots held right now
	granted uint64    // lifetime grants, the deficit tie-break
	waiters []*waiter // FIFO
}

// waiter is one queued acquisition; granted is guarded by the owning
// sched's mu.
type waiter struct {
	n       int
	seq     uint64
	ready   chan struct{}
	granted bool
}

func newSched(capacity int) *sched {
	if capacity < 1 {
		capacity = 1
	}
	return &sched{
		capacity: capacity,
		free:     capacity,
		tenants:  make(map[string]*schedTenant),
	}
}

// clampSlots bounds a requested fan-out to what the scheduler can ever
// grant at once.
func (s *sched) clampSlots(n int) int {
	if n < 1 {
		return 1
	}
	if n > s.capacity {
		return s.capacity
	}
	return n
}

func (s *sched) tenantLocked(name string) *schedTenant {
	t, ok := s.tenants[name]
	if !ok {
		t = &schedTenant{name: name}
		s.tenants[name] = t
		s.order = append(s.order, t)
	}
	return t
}

// acquire takes n slots on behalf of tenant, waiting its fair turn. A ctx
// expiry while waiting removes the waiter and leaves nothing held — even
// when it races a concurrent grant, the granted slots are returned before
// the error, so cancellation can never leak slots.
func (s *sched) acquire(ctx context.Context, tenant string, n int) error {
	n = s.clampSlots(n)
	s.mu.Lock()
	t := s.tenantLocked(tenant)
	w := &waiter{n: n, seq: s.seq, ready: make(chan struct{})}
	s.seq++
	t.waiters = append(t.waiters, w)
	s.dispatchLocked()
	granted := w.granted
	s.mu.Unlock()
	if granted {
		return nil
	}
	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// Lost the race with a grant: give the slots straight back.
			t.inUse -= n
			s.free += n
			s.dispatchLocked()
			s.mu.Unlock()
			return ctx.Err()
		}
		for i, cand := range t.waiters {
			if cand == w {
				t.waiters = append(t.waiters[:i], t.waiters[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// release returns n slots taken by acquire and hands them to whoever is
// next by the fairness order.
func (s *sched) release(tenant string, n int) {
	n = s.clampSlots(n)
	s.mu.Lock()
	t := s.tenantLocked(tenant)
	t.inUse -= n
	s.free += n
	s.dispatchLocked()
	s.mu.Unlock()
}

// dispatchLocked grants as many queued waiters as the free slots allow,
// always picking the most deserving tenant first. When that tenant's head
// waiter needs more slots than are free, dispatch stops entirely — the
// slots accumulate for it rather than leaking to narrower latecomers, so a
// wide (multi-slot) acquisition is never starved.
func (s *sched) dispatchLocked() {
	for {
		var best *schedTenant
		for _, t := range s.order {
			if len(t.waiters) == 0 {
				continue
			}
			if best == nil || tenantBefore(t, best) {
				best = t
			}
		}
		if best == nil {
			return
		}
		w := best.waiters[0]
		if w.n > s.free {
			return
		}
		best.waiters = best.waiters[1:]
		s.free -= w.n
		best.inUse += w.n
		best.granted++
		w.granted = true
		close(w.ready)
	}
}

// tenantBefore is the fairness order: fewest slots in use first, then the
// smaller lifetime grant count (deficit round-robin), then the earlier
// head waiter. The final tie-break is a unique arrival stamp, so the
// relation is a strict total order and dispatch is deterministic.
func tenantBefore(a, b *schedTenant) bool {
	if a.inUse != b.inUse {
		return a.inUse < b.inUse
	}
	if a.granted != b.granted {
		return a.granted < b.granted
	}
	return a.waiters[0].seq < b.waiters[0].seq
}
