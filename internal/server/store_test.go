package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gdr/internal/core"
	"gdr/internal/metrics"
)

// fakeClock is a settable time source for eviction tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestStore(t *testing.T, ttl time.Duration, maxLive int) (*Store, *fakeClock) {
	t.Helper()
	reg := metrics.NewRegistry()
	st := NewStore(Config{TTL: ttl, MaxSessions: maxLive, Workers: 2, Session: core.Config{Workers: 1}}, reg)
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	st.now = clk.now
	t.Cleanup(st.Close)
	return st, clk
}

func fig1Request() CreateSessionRequest {
	return CreateSessionRequest{CSV: figure1CSV, Rules: figure1Rules, Seed: 1}
}

func TestStoreTTLEviction(t *testing.T) {
	st, clk := newTestStore(t, time.Minute, 0)
	info, _, err := st.Create(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	// Just under the TTL: still there, and the lookup refreshes the clock.
	clk.advance(59 * time.Second)
	if _, ok := st.Get(info.ID); !ok {
		t.Fatal("session evicted before its TTL")
	}
	// The touch above restarted the idle clock: another 59s is still fine.
	clk.advance(59 * time.Second)
	if _, ok := st.Get(info.ID); !ok {
		t.Fatal("touched session evicted before its TTL")
	}
	// Past the TTL with no touches: the lazy check evicts on lookup.
	clk.advance(2 * time.Minute)
	if _, ok := st.Get(info.ID); ok {
		t.Fatal("expired session still served")
	}
	if st.Len() != 0 {
		t.Fatalf("store still holds %d sessions", st.Len())
	}
}

func TestStoreJanitorEvicts(t *testing.T) {
	st, clk := newTestStore(t, time.Minute, 0)
	if _, _, err := st.Create(context.Background(), fig1Request()); err != nil {
		t.Fatal(err)
	}
	clk.advance(5 * time.Minute)
	st.evictIdle() // what the janitor tick runs
	if st.Len() != 0 {
		t.Fatal("janitor pass did not evict the idle session")
	}
}

// TestJanitorSkipsCreateReservations: a create that is mid-build holds a
// reservation, not a session. The janitor, Len and List do not see it; a
// second create for its assigned token gets 409 with no watermark, since
// there is no live copy to report; and the reservation counts against the
// cap. The build is held mid-way by taking every CPU slot of the store's
// scheduler.
func TestJanitorSkipsCreateReservations(t *testing.T) {
	srv, ts := newTestServer(t, Config{ClusterMode: true, TTL: time.Minute, MaxSessions: 2, Workers: 2, Session: core.Config{Workers: 1}})
	st := srv.Store()
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	st.now = clk.now
	idle := createFigure1Session(t, ts).Session.ID

	slots := st.sched.capacity
	if err := st.sched.acquire(context.Background(), "hog", slots); err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { st.sched.release("hog", slots) })
	defer release() // a failing test must not leave the held create blocking shutdown
	token := strings.Repeat("f00d", 8)
	create := func(token string) (int, string) {
		body, _ := json.Marshal(fig1Request())
		req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", bytes.NewReader(body))
		req.Header.Set(AssignTokenHeader, token)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get(MutationSeqHeader)
	}
	built := make(chan int, 1)
	go func() {
		code, _ := create(token)
		built <- code
	}()
	for {
		st.mu.Lock()
		_, reserved := st.building[token]
		st.mu.Unlock()
		if reserved {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if code, seq := create(token); code != http.StatusConflict || seq != "" {
		t.Fatalf("create for a token still building: code %d, watermark %q; want 409 and none", code, seq)
	}
	if code, _ := create(strings.Repeat("0", 32)); code != http.StatusTooManyRequests {
		t.Fatalf("create beside one live session and one reservation under a cap of 2: code %d, want 429", code)
	}
	clk.advance(5 * time.Minute)
	st.evictIdle()
	if st.Len() != 0 || len(st.List()) != 0 {
		t.Fatalf("after the janitor: Len %d, List %v; want the idle session gone and the reservation unseen", st.Len(), st.List())
	}
	if _, ok := st.Get(idle); ok {
		t.Fatal("the idle session survived the janitor")
	}

	release()
	if code := <-built; code != http.StatusCreated {
		t.Fatalf("the held create: code %d, want 201", code)
	}
	if list := st.List(); len(list) != 1 || list[0].ID != token {
		t.Fatalf("after the build: List %v, want only %s", list, token)
	}
}

func TestStoreCap(t *testing.T) {
	st, _ := newTestStore(t, time.Minute, 2)
	for i := 0; i < 2; i++ {
		if _, _, err := st.Create(context.Background(), fig1Request()); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := st.Create(context.Background(), fig1Request()); err != ErrTooManySessions {
		t.Fatalf("over-cap create: %v", err)
	}
	// Freeing one slot lets the next create through.
	victims := st.List()
	if !st.Delete(victims[0].ID) {
		t.Fatal("delete failed")
	}
	if _, _, err := st.Create(context.Background(), fig1Request()); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

func TestStoreCloseStopsActors(t *testing.T) {
	st, _ := newTestStore(t, time.Minute, 0)
	info, _, err := st.Create(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	e, ok := st.Get(info.ID)
	if !ok {
		t.Fatal("session missing")
	}
	st.Close()
	if err := e.actor.do(context.Background(), "test", func(*core.Session) {}); err != ErrSessionClosed {
		t.Fatalf("do after close: %v", err)
	}
	if _, _, err := st.Create(context.Background(), fig1Request()); err != ErrSessionClosed {
		t.Fatalf("create after close: %v", err)
	}
}

func TestActorSerializesCommands(t *testing.T) {
	st, _ := newTestStore(t, time.Minute, 0)
	info, _, err := st.Create(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := st.Get(info.ID)
	// Fire concurrent commands that would race if not serialized: all
	// append to one plain slice through the actor.
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = e.actor.do(context.Background(), "test", func(*core.Session) {
				order = append(order, i)
			})
		}(i)
	}
	wg.Wait()
	if len(order) != 32 {
		t.Fatalf("ran %d commands, want 32", len(order))
	}
}

// TestActorContainsPanics pins the multi-tenant survival property: one
// session's command panicking must error that one call, not unwind the
// actor goroutine (which would kill the daemon and every other tenant).
func TestActorContainsPanics(t *testing.T) {
	st, _ := newTestStore(t, time.Minute, 0)
	info, _, err := st.Create(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := st.Get(info.ID)
	err = e.actor.do(context.Background(), "test", func(*core.Session) { panic("tenant edge case") })
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking command: err = %v", err)
	}
	// The actor must still serve subsequent commands.
	ran := false
	if err := e.actor.do(context.Background(), "test", func(*core.Session) { ran = true }); err != nil || !ran {
		t.Fatalf("actor dead after contained panic: err=%v ran=%v", err, ran)
	}
}

func TestActorContextCancellation(t *testing.T) {
	st, _ := newTestStore(t, time.Minute, 0)
	info, _, err := st.Create(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	e, _ := st.Get(info.ID)
	// Occupy the actor so the next command stays queued, then expire its
	// caller's context while it waits.
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = e.actor.do(context.Background(), "test", func(*core.Session) {
			close(entered)
			<-release
		})
	}()
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	ranLate := make(chan struct{})
	err = e.actor.do(ctx, "test", func(*core.Session) { close(ranLate) })
	close(release)
	// A context that expires while the command is queued maps to the single
	// deterministic overload error (503 + Retry-After on the wire), not the
	// raw context error — clients see one retryable status for every
	// flavor of "the server didn't get to it in time".
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued command under expired context: err = %v, want ErrOverloaded", err)
	}
	// The abandoned command must never execute once its caller was told it
	// failed — otherwise an errored request is not safely retryable. Flush
	// the queue with a follow-up command and check.
	if err := e.actor.do(context.Background(), "test", func(*core.Session) {}); err != nil {
		t.Fatalf("follow-up command: %v", err)
	}
	select {
	case <-ranLate:
		t.Fatal("abandoned command executed after its caller errored")
	default:
	}
}
