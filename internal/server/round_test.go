package server

import (
	"bytes"
	"context"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gdr/internal/core"
	"gdr/internal/faultfs"
	"gdr/internal/obs"
	"gdr/internal/snapshot"
)

// answer is what postRound reports.
type answer struct {
	code int
	err  error
}

// postRound sends one feedback body and reads the answer to its end; it
// reports the status, or the error that kept it from arriving.
func postRound(ts *httptest.Server, base string, payload []byte) (int, error) {
	resp, err := ts.Client().Post(base+"/feedback", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.ReadAll(resp.Body)
	return resp.StatusCode, err
}

// goRound sends one feedback body from another goroutine; the answer
// arrives on the returned channel.
func goRound(ts *httptest.Server, base string, payload []byte) <-chan answer {
	answered := make(chan answer, 1)
	go func() {
		code, err := postRound(ts, base, payload)
		answered <- answer{code, err}
	}()
	return answered
}

// awaitFiledTrace waits until the newest trace at /debug/traces is on
// route: the tracer files a trace only after its spans reached the stage
// histograms.
func awaitFiledTrace(t *testing.T, ts *httptest.Server, route string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var body obs.TracesBody
		if code := doJSON(t, ts.Client(), "GET", ts.URL+"/debug/traces", nil, &body); code != 200 {
			t.Fatalf("/debug/traces: status %d", code)
		}
		if len(body.Recent) > 0 && body.Recent[0].Route == route {
			return
		}
	}
	t.Fatalf("no %s trace was filed", route)
}

// TestDurableRoundCountsEachStageOnce: a durable feedback round is one
// session command that captures its own checkpoint, so
// gdrd_stage_seconds{route="feedback"} counts each of its stages once —
// the turn, the slots and the command, the encode inside it, and the disk
// write after it. A memory-only round encodes and persists nothing.
func TestDurableRoundCountsEachStageOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  string
		want map[string]uint64
	}{
		{"durable", t.TempDir(), map[string]uint64{
			"queue": 1, "slot": 1, "exec": 1, "encode": 1, "persist": 1, "write": 1, "fsync": 1, "rename": 1}},
		{"memory-only", "", map[string]uint64{
			"queue": 1, "slot": 1, "exec": 1, "encode": 0, "persist": 0, "write": 0, "fsync": 0, "rename": 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t, Config{DataDir: tc.dir, Trace: obs.Config{Seed: 1}})
			base := ts.URL + "/v1/sessions/" + createFigure1Session(t, ts).Session.ID
			if code, err := postRound(ts, base, firstGroupFeedback(t, ts, base)); err != nil || code != 200 {
				t.Fatalf("feedback: status %d, err %v", code, err)
			}
			awaitFiledTrace(t, ts, "feedback")
			for stage, want := range tc.want {
				h := srv.Registry().LabeledHistogram("gdrd_stage_seconds", "stage", stage, "route", "feedback")
				if got := h.Count(); got != want {
					t.Errorf("stage %s on route feedback counted %d times, want %d", stage, got, want)
				}
			}
		})
	}
}

// TestDurableRoundAnswersWhileLaterCommandHoldsTurn: the round's checkpoint
// is written after its command released the turn, so a command queued
// behind the round cannot delay the answer.
func TestDurableRoundAnswersWhileLaterCommandHoldsTurn(t *testing.T) {
	srv, ts := newTestServer(t, Config{DataDir: t.TempDir()})
	id := createFigure1Session(t, ts).Session.ID
	base := ts.URL + "/v1/sessions/" + id
	payload := firstGroupFeedback(t, ts, base)
	e, ok := srv.Store().Get(id)
	if !ok {
		t.Fatal("session vanished")
	}
	waiting := func(n int32) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); e.actor.waiting.Load() != n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d commands waiting for the turn, want %d", e.actor.waiting.Load(), n)
			}
		}
	}
	// hold runs a command that keeps the turn until the returned release
	// is called; the test releases every holder before the server closes.
	hold := func(held chan struct{}) (release func()) {
		ch := make(chan struct{})
		go e.actor.do(context.Background(), "hold", func(*core.Session) {
			close(held)
			<-ch
		})
		release = sync.OnceFunc(func() { close(ch) })
		t.Cleanup(release)
		return release
	}
	firstHeld, laterHeld := make(chan struct{}), make(chan struct{})
	releaseFirst := hold(firstHeld)
	<-firstHeld
	answered := goRound(ts, base, payload)
	waiting(1) // the round waits for the turn
	hold(laterHeld)
	waiting(2) // and the later command behind it
	releaseFirst()
	<-laterHeld // the round's command has run; the later one holds the turn
	select {
	case a := <-answered:
		if a.err != nil || a.code != 200 {
			t.Fatalf("feedback: status %d, err %v", a.code, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the round's answer waited for the command queued behind it")
	}
	if e.isDirty() {
		t.Error("the round answered before its checkpoint landed")
	}
}

// TestDurableRoundOutlivesItsDeadline: a round whose request deadline runs
// out while its command runs is still applied, and its checkpoint lands
// before the answer — the write does not consult the expired context.
func TestDurableRoundOutlivesItsDeadline(t *testing.T) {
	dir := t.TempDir()
	faults, srv, ts := faultedServer(t, dir, Config{RequestTimeout: 100 * time.Millisecond})
	id := createFigure1Session(t, ts).Session.ID
	base := ts.URL + "/v1/sessions/" + id
	payload := firstGroupFeedback(t, ts, base)
	e, ok := srv.Store().Get(id)
	if !ok {
		t.Fatal("session vanished")
	}
	faults.Set(faultfs.Actor, faultfs.Rule{P: 1, Delay: 150 * time.Millisecond})
	code, err := postRound(ts, base, payload)
	faults.Clear()
	if err != nil || code != 200 {
		t.Fatalf("feedback: status %d, err %v", code, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, id+snapSuffix))
	if err != nil {
		t.Fatal(err)
	}
	mark, err := snapshot.Watermark(data)
	if err != nil {
		t.Fatal(err)
	}
	if live := e.mutSeq.Load(); live != 1 || mark != live {
		t.Errorf("snapshot on disk at watermark %d, live mut_seq %d; want both 1", mark, live)
	}
	if n := srv.Registry().Counter("gdrd_checkpoint_failures_total").Value(); n != 0 {
		t.Errorf("gdrd_checkpoint_failures_total = %d, want 0", n)
	}
}

// TestDeleteDuringDurableRoundLeavesNoSnapshot: a DELETE that arrives while
// a durable round's command runs retires the session before the round's
// write, so the write is refused: no snapshot file remains, and a restart
// does not bring the deleted session back.
func TestDeleteDuringDurableRoundLeavesNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	faults, _, ts := faultedServer(t, dir, Config{})
	id := createFigure1Session(t, ts).Session.ID
	base := ts.URL + "/v1/sessions/" + id
	payload := firstGroupFeedback(t, ts, base)
	// The round's command holds the turn for 300 ms, long enough for the
	// DELETE to close it; the slow fsync would land a write that was not
	// refused after the DELETE's removal.
	faults.Set(faultfs.Actor, faultfs.Rule{P: 1, Delay: 300 * time.Millisecond})
	faults.Set(faultfs.Sync, faultfs.Rule{P: 1, Delay: 50 * time.Millisecond})
	answered := goRound(ts, base, payload)
	for deadline := time.Now().Add(5 * time.Second); faults.Hits(faultfs.Actor) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the round's command never started")
		}
	}
	if code := doJSON(t, ts.Client(), "DELETE", base, nil, nil); code != 200 {
		t.Fatalf("delete: status %d", code)
	}
	select {
	case a := <-answered:
		if a.err != nil || a.code != 200 {
			t.Fatalf("feedback: status %d, err %v", a.code, a.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the round never answered")
	}
	faults.Clear()
	if _, err := os.Stat(filepath.Join(dir, id+snapSuffix)); !os.IsNotExist(err) {
		t.Errorf("the deleted session's snapshot is still on disk (stat: %v)", err)
	}
	srv := New(Config{Workers: 2, Session: core.Config{Workers: 1}, DataDir: dir})
	defer srv.Close()
	if _, ok := srv.Store().Get(id); ok {
		t.Error("a restart restored the deleted session")
	}
}
