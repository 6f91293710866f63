// Package faultfs injects faults at named points in the serving stack —
// checkpoint write/fsync/rename failures (disk full, sick disks), slow
// session commands — for tests. An Injector is seeded, so a failing chaos
// test reproduces exactly; call sites hold a possibly-nil *Injector and
// consult it unconditionally (every method is nil-receiver safe, and a nil
// injector never faults), which keeps the production paths free of
// feature flags.
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// Point names one injection site. The serving tier consults these; tests
// may define their own.
type Point string

const (
	// Write fails the checkpoint temp-file write (simulated disk full).
	Write Point = "write"
	// Sync fails the checkpoint fsync.
	Sync Point = "sync"
	// Rename fails the rename that lands a checkpoint.
	Rename Point = "rename"
	// Actor delays a session command while it holds CPU slots (slow actor).
	Actor Point = "actor"
)

// ErrInjected is the default error returned at a faulting point.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrDiskFull is the injected disk-full error; it wraps syscall.ENOSPC so
// code inspecting errno semantics sees the real thing.
var ErrDiskFull = fmt.Errorf("faultfs: injected disk full: %w", syscall.ENOSPC)

// Rule decides what happens when a point is hit: with probability P the
// point sleeps Delay and returns Err (ErrInjected when Err is nil and the
// rule has no delay-only purpose — a rule with a Delay and a nil Err just
// slows the caller down).
type Rule struct {
	P     float64
	Err   error
	Delay time.Duration
}

// Injector holds the active rules. The zero value (and nil) never faults.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand      // gdr:guarded-by mu
	rules map[Point]Rule  // gdr:guarded-by mu
	hits  map[Point]int64 // gdr:guarded-by mu
}

// New returns an injector whose probabilistic decisions replay from seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[Point]Rule),
		hits:  make(map[Point]int64),
	}
}

// Set installs (or replaces) the rule at a point.
func (in *Injector) Set(p Point, r Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.rules[p] = r
	in.mu.Unlock()
}

// Clear heals the injector: every rule is dropped, hit counts are kept.
func (in *Injector) Clear() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.rules = make(map[Point]Rule)
	in.mu.Unlock()
}

// Fault rolls the point's rule. It returns nil when the injector is nil,
// the point has no rule, or the roll passes; otherwise it sleeps the
// rule's Delay and returns its error (a delay-only rule returns nil after
// sleeping — a slowdown, not a failure).
func (in *Injector) Fault(p Point) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	r, ok := in.rules[p]
	if !ok || r.P <= 0 || in.rng.Float64() >= r.P {
		in.mu.Unlock()
		return nil
	}
	in.hits[p]++
	in.mu.Unlock()
	if r.Delay > 0 {
		time.Sleep(r.Delay)
	}
	if r.Err != nil {
		return r.Err
	}
	if r.Delay > 0 {
		return nil
	}
	return ErrInjected
}

// Hits reports how many times a point has actually faulted (or delayed).
func (in *Injector) Hits(p Point) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[p]
}
