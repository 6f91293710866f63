package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// recorder keeps the benchmark's spans in memory and writes them out when
// the run ends. A nil recorder records nothing: timed runs pass nil, so
// their measurements carry no tracing cost.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, round int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Round: round, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a completed span.
func (r *recorder) add(name string, round int64, parent int, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	s := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Round: round, Parent: parent, Start: s, End: s + dur.Nanoseconds()})
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerStats aggregates spans by name: total duration, total self time and
// count.
type layerStats struct {
	n          int
	total, own time.Duration
}

func (l layerStats) meanMS() float64 { return ratio(ms(l.total), float64(l.n)) }
func (l layerStats) selfMS() float64 { return ratio(ms(l.own), float64(l.n)) }

// byName sums the spans of each name.
func byName(spans []span) map[string]layerStats {
	self := selfTimes(spans)
	out := map[string]layerStats{}
	for i, s := range spans {
		l := out[s.Name]
		l.n++
		l.total += time.Duration(s.End - s.Start)
		l.own += time.Duration(self[i])
		out[s.Name] = l
	}
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
