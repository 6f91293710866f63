package server

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gdr/internal/core"
)

// waitWaiting blocks until n commands wait for a session's turn, as
// gdrd_actor_queue_depth reports it.
func waitWaiting(t *testing.T, e *entry, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.actor.queueGauge().Value() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", n, e.actor.queueGauge().Value())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutinePerSession: a live session parks no goroutine of its
// own; its commands run on their callers' goroutines.
func TestNoGoroutinePerSession(t *testing.T) {
	st, _ := newTestStore(t, time.Minute, 0)
	before := runtime.NumGoroutine()
	for i := 0; i < 32; i++ {
		if _, _, err := st.Create(context.Background(), fig1Request()); err != nil {
			t.Fatal(err)
		}
	}
	if grown := runtime.NumGoroutine() - before; grown >= 4 {
		t.Fatalf("32 sessions grew the goroutine count by %d, want fewer than 4", grown)
	}
}

// TestTurnIsFIFO: commands waiting for a session's turn run in the order
// they arrived.
func TestTurnIsFIFO(t *testing.T) {
	st, _ := newTestStore(t, time.Minute, 0)
	info, _, err := st.Create(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := st.Get(info.ID)
	release := jam(t, e)
	defer release()
	const k = 8
	var order []int
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			errs <- e.actor.do(context.Background(), "test", func(*core.Session) {
				order = append(order, i)
			})
		}()
		waitWaiting(t, e, int64(i+1))
	}
	release()
	for range k {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(order, want) {
		t.Fatalf("commands ran in order %v, want %v", order, want)
	}
}

// TestCloseAgainstWaiters: close returns only after the running command
// has finished, every command still waiting gets ErrSessionClosed without
// running, nothing starts after close, and the queue depth gauge reads 0
// again.
func TestCloseAgainstWaiters(t *testing.T) {
	st, _ := newTestStore(t, time.Minute, 0)
	info, _, err := st.Create(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := st.Get(info.ID)
	entered := make(chan struct{})
	proceed := make(chan struct{})
	finished := false
	runErr := make(chan error, 1)
	go func() {
		runErr <- e.actor.do(context.Background(), "test", func(*core.Session) {
			close(entered)
			<-proceed
			finished = true
		})
	}()
	<-entered
	const waiters = 4
	var ran atomic.Bool
	waitErrs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			waitErrs <- e.actor.do(context.Background(), "test", func(*core.Session) { ran.Store(true) })
		}()
	}
	waitWaiting(t, e, waiters)
	closed := make(chan struct{})
	go func() {
		e.actor.close()
		close(closed)
	}()
	for range waiters {
		if err := <-waitErrs; !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("waiter during close: err = %v, want ErrSessionClosed", err)
		}
	}
	select {
	case <-closed:
		t.Fatal("close returned while a command was still running")
	default:
	}
	close(proceed)
	<-closed
	if !finished {
		t.Fatal("close returned before the running command finished")
	}
	if err := <-runErr; err != nil {
		t.Fatalf("running command: %v", err)
	}
	if ran.Load() {
		t.Fatal("a waiting command ran after close began")
	}
	if err := e.actor.do(context.Background(), "test", func(*core.Session) { ran.Store(true) }); !errors.Is(err, ErrSessionClosed) || ran.Load() {
		t.Fatalf("do after close: err = %v, ran = %v", err, ran.Load())
	}
	if n := e.actor.queueGauge().Value(); n != 0 {
		t.Fatalf("queue depth gauge reads %d after close", n)
	}
	e.actor.close() // idempotent
}
