package faultfs

import (
	"errors"
	"syscall"
	"testing"
	"time"
)

func TestNilInjectorNeverFaults(t *testing.T) {
	var in *Injector
	if err := in.Fault(Write); err != nil {
		t.Fatalf("nil injector faulted: %v", err)
	}
	in.Set(Write, Rule{P: 1})
	in.Clear()
	if got := in.Hits(Write); got != 0 {
		t.Fatalf("nil injector hits = %d", got)
	}
}

func TestFaultProbabilities(t *testing.T) {
	in := New(1)
	in.Set(Write, Rule{P: 1, Err: ErrDiskFull})
	in.Set(Sync, Rule{P: 0})
	for i := 0; i < 50; i++ {
		if err := in.Fault(Write); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("p=1 write fault %d: %v", i, err)
		}
		if err := in.Fault(Sync); err != nil {
			t.Fatalf("p=0 sync faulted: %v", err)
		}
	}
	if got := in.Hits(Write); got != 50 {
		t.Fatalf("write hits = %d, want 50", got)
	}
	// No rule at all → no fault.
	if err := in.Fault(Rename); err != nil {
		t.Fatalf("ruleless point faulted: %v", err)
	}
}

func TestSeededRollsReplay(t *testing.T) {
	roll := func() []bool {
		in := New(42)
		in.Set(Rename, Rule{P: 0.5, Err: ErrInjected})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Fault(Rename) != nil
		}
		return out
	}
	a, b := roll(), roll()
	faulted := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("roll %d diverged between equal seeds", i)
		}
		if a[i] {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(a) {
		t.Fatalf("p=0.5 produced %d/%d faults — rule not probabilistic", faulted, len(a))
	}
}

func TestDelayOnlyRuleSlowsWithoutFailing(t *testing.T) {
	in := New(3)
	in.Set(Actor, Rule{P: 1, Delay: 5 * time.Millisecond})
	start := time.Now()
	if err := in.Fault(Actor); err != nil {
		t.Fatalf("delay-only rule errored: %v", err)
	}
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("delay not applied")
	}
	if in.Hits(Actor) != 1 {
		t.Fatalf("actor hits = %d", in.Hits(Actor))
	}
}

func TestClearHeals(t *testing.T) {
	in := New(9)
	in.Set(Write, Rule{P: 1, Err: ErrDiskFull})
	if in.Fault(Write) == nil {
		t.Fatal("rule not active")
	}
	in.Clear()
	if err := in.Fault(Write); err != nil {
		t.Fatalf("cleared injector still faults: %v", err)
	}
	if in.Hits(Write) != 1 {
		t.Fatalf("hits must survive Clear: %d", in.Hits(Write))
	}
}
