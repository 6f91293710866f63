package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gdr"
	"gdr/internal/faultfs"
	"gdr/internal/server"
)

// TestChaosSoak is the overload acceptance run: a multi-tenant server with
// intermittent checkpoint fsync failures and slow actors serves two
// well-behaved tenants under full gdrload runs while a third tenant hammers
// it far past its rate quota. Well-behaved tenants must finish with zero
// real 5xx responses and bounded p99 latency; the abuser must be shed with
// 429 + Retry-After; the injected disk faults must be visible in metrics;
// and after the faults heal, a drain + reboot must restore the surviving
// session to a byte-identical export.
func TestChaosSoak(t *testing.T) {
	n, rounds, users := 200, 8, 3
	if testing.Short() {
		n, rounds, users = 100, 4, 2
	}

	dir := t.TempDir()
	faults := faultfs.New(99)
	faults.Set(faultfs.Sync, faultfs.Rule{P: 0.5, Err: faultfs.ErrInjected})
	faults.Set(faultfs.Actor, faultfs.Rule{P: 0.3, Delay: 2 * time.Millisecond})
	tenants := []server.TenantConfig{
		{Name: "good1", Key: "good1key1234"},
		{Name: "good2", Key: "good2key1234"},
		{Name: "abuser", Key: "abuserkey999", RatePerSec: 2, Burst: 2},
	}
	cfg := server.Config{
		Workers: 4, MaxSessions: 16, DataDir: dir, Faults: faults,
		Tenants: tenants, CheckpointEvery: 50 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	addr := "http://" + ln.Addr().String()

	// A durable session driven through the soak — the subject of the
	// post-recovery byte-identity check.
	d := gdr.HospitalData(gdr.DataConfig{N: n, Seed: 5})
	var csvBuf bytes.Buffer
	if err := d.Dirty.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	var rules strings.Builder
	for _, r := range d.Rules {
		rules.WriteString(r.String() + "\n")
	}
	lc := newLoadClient(&http.Client{Timeout: time.Minute}, "good1key1234", 11)
	var created server.CreateSessionResponse
	code, err := lc.doJSON("POST", addr+"/v1/sessions", server.CreateSessionRequest{
		Name: "durable", CSV: csvBuf.String(), Rules: rules.String(), Seed: 5,
	}, &created)
	if err != nil || code != http.StatusCreated {
		t.Fatalf("creating durable session: code %d err %v", code, err)
	}
	durableID := created.Session.ID

	// The abusive tenant: a raw client (no retries, no backoff) hammering
	// the API far past its 2/s quota until the soak ends.
	stop := make(chan struct{})
	var abuserWG sync.WaitGroup
	var abuserMu sync.Mutex
	abuser429, abuserMissingRA, abuserOK := 0, 0, 0
	abuserWG.Add(1)
	go func() {
		defer abuserWG.Done()
		hc := &http.Client{Timeout: 10 * time.Second}
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, err := http.NewRequest("GET", addr+"/v1/sessions", nil)
			if err != nil {
				return
			}
			req.Header.Set("Authorization", "Bearer abuserkey999")
			resp, err := hc.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			abuserMu.Lock()
			switch {
			case resp.StatusCode == http.StatusTooManyRequests:
				abuser429++
				if resp.Header.Get("Retry-After") == "" {
					abuserMissingRA++
				}
			case resp.StatusCode == http.StatusOK:
				abuserOK++
			}
			abuserMu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// The well-behaved tenants: full gdrload runs, concurrently,
	// plus the durable session's own user. run() fails on any unexpected
	// status, so a clean return already means no unhandled 5xx.
	reports := make([]Report, 2)
	errs := make([]error, 3)
	var workWG sync.WaitGroup
	for i, key := range []string{"good1key1234", "good2key1234"} {
		workWG.Add(1)
		go func(i int, key string) {
			defer workWG.Done()
			var out bytes.Buffer
			if err := run(runConfig{
				addr: addr, key: key, sessions: 1, users: users, rounds: rounds,
				n: n, seed: 31 + int64(i),
			}, &out); err != nil {
				errs[i] = fmt.Errorf("tenant %d load run: %w", i, err)
				return
			}
			errs[i] = json.Unmarshal(out.Bytes(), &reports[i])
		}(i, key)
	}
	workWG.Add(1)
	go func() {
		defer workWG.Done()
		lats := &latRecorder{byOp: make(map[string][]float64)}
		var cnt counters
		errs[2] = drive(lc, addr, durableID, d.Truth, 0, rounds, false, lats, &cnt)
	}()
	workWG.Wait()
	close(stop)
	abuserWG.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The abuser was shed, every shed carried Retry-After.
	if abuser429 == 0 {
		t.Fatal("abusive tenant was never shed despite a 2/s quota")
	}
	if abuserMissingRA != 0 {
		t.Fatalf("%d of %d sheds lacked a Retry-After header", abuserMissingRA, abuser429)
	}

	// Well-behaved tenants: bounded p99, and zero real 5xx server-wide
	// (sheds carry Retry-After and are excluded from the error counter).
	for i, rep := range reports {
		fb, ok := rep.Latency["feedback"]
		if !ok || fb.Count == 0 {
			t.Fatalf("tenant %d drove no feedback", i)
		}
		if fb.P99 > 10.0 {
			t.Fatalf("tenant %d feedback p99 %.2fs exceeds the 10s soak bound", i, fb.P99)
		}
	}
	if got := srv.Registry().Counter("gdrd_http_errors_total").Value(); got != 0 {
		t.Fatalf("%d real 5xx responses during the soak, want 0", got)
	}

	// The injected disk faults actually fired and are visible in metrics.
	if faults.Hits(faultfs.Sync) == 0 {
		t.Fatal("no fsync faults fired; the soak did not exercise the disk path")
	}
	if srv.Registry().Counter("gdrd_checkpoint_failures_total").Value() == 0 {
		t.Fatal("checkpoint failures not counted despite injected fsync faults")
	}
	scrape := func() string {
		resp, err := http.Get(addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if got := scrape(); !strings.Contains(got, `gdrd_shed_total{reason="rate",tenant="abuser"}`) {
		t.Fatalf("abuser sheds not on /metrics:\n%s", got)
	}

	// Recovery: heal the disk, export, drain (flushes dirty sessions),
	// reboot over the same data directory — the restored session must serve
	// a byte-identical export under the same token and owner.
	faults.Clear()
	export := func(base string) string {
		req, err := http.NewRequest("GET", base+"/v1/sessions/"+durableID+"/export", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer good1key1234")
		resp, err := (&http.Client{Timeout: time.Minute}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("export: status %d: %s", resp.StatusCode, body)
		}
		return string(body)
	}
	before := export(addr)
	hs.Close()
	srv.Close()

	cfg.Faults = nil
	srv2 := server.New(cfg)
	defer srv2.Close()
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs2 := &http.Server{Handler: srv2.Handler()}
	go func() { _ = hs2.Serve(ln2) }()
	defer hs2.Close()
	after := export("http://" + ln2.Addr().String())
	if before != after {
		t.Fatal("export diverges after chaos + drain + reboot")
	}
}
