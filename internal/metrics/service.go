package metrics

// Service-side observability primitives for the gdrd daemon: counters,
// gauges and latency histograms collected in a Registry and exposed in the
// Prometheus text format. They complement this package's paper-evaluation
// measures (Quality, Accuracy): those score repairs against a ground truth,
// these watch a running repair service. Everything here is dependency-free
// and safe for concurrent use.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric (e.g. feedbacks served).
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d (d < 0 is ignored: counters only grow).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.n.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a metric that can go up and down (e.g. live sessions).
type Gauge struct {
	n atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add moves the gauge by d (either sign).
func (g *Gauge) Add(d int64) { g.n.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// FloatGauge is a gauge holding a float64 (e.g. cumulative GC pause seconds
// re-exported from runtime counters). The value is stored as its IEEE bits
// in one atomic word, so Set and Value never tear.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefaultLatencyBuckets spans 100µs–10s in roughly 3×-ish steps — wide
// enough for both the sub-millisecond status reads and multi-second
// session-creation uploads of a repair service.
var DefaultLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram accumulates observations into cumulative buckets, Prometheus
// style: counts[i] tallies observations ≤ uppers[i], plus a +Inf overflow.
type Histogram struct {
	mu sync.Mutex
	// uppers is immutable after construction (Observe reads it without the
	// lock), so it is deliberately not guarded.
	uppers []float64
	counts []uint64 // len(uppers)+1; last is +Inf; gdr:guarded-by mu
	sum    float64  // gdr:guarded-by mu
	total  uint64   // gdr:guarded-by mu
}

// NewHistogram builds a histogram over the given ascending upper bounds;
// nil selects DefaultLatencyBuckets.
func NewHistogram(uppers []float64) *Histogram {
	if uppers == nil {
		uppers = DefaultLatencyBuckets
	}
	uppers = append([]float64(nil), uppers...)
	sort.Float64s(uppers)
	return &Histogram{uppers: uppers, counts: make([]uint64, len(uppers)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket counts by
// attributing each bucket's mass to its upper bound — the same conservative
// estimate Prometheus' histogram_quantile makes without intra-bucket
// interpolation. It returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.uppers) {
				return h.uppers[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// Registry is a named collection of metrics with a stable text exposition.
// Counters may carry label pairs (LabeledCounter); all series of one family
// share a single # TYPE line and are grouped together in the exposition,
// each family in first-registration order.
type Registry struct {
	mu       sync.Mutex
	families []string               // gdr:guarded-by mu
	series   map[string][]string    // gdr:guarded-by mu — family → series keys
	counts   map[string]*Counter    // gdr:guarded-by mu — keyed by series
	gauges   map[string]*Gauge      // gdr:guarded-by mu
	fgauges  map[string]*FloatGauge // gdr:guarded-by mu
	hists    map[string]*Histogram  // gdr:guarded-by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series:  make(map[string][]string),
		counts:  make(map[string]*Counter),
		gauges:  make(map[string]*Gauge),
		fgauges: make(map[string]*FloatGauge),
		hists:   make(map[string]*Histogram),
	}
}

// registerLocked records a series under its family, keeping both orders.
func (r *Registry) registerLocked(family, key string) {
	if _, ok := r.series[family]; !ok {
		r.families = append(r.families, family)
	}
	r.series[family] = append(r.series[family], key)
}

// seriesKey renders a family name plus label pairs (k1, v1, k2, v2, ...)
// as the canonical Prometheus series string. Labels are sorted by key so
// the same logical series always maps to the same entry, whatever order
// the caller listed the pairs in.
func seriesKey(family string, labels []string) string {
	if len(labels) == 0 {
		return family
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, (len(labels)+1)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b []byte
	b = append(b, family...)
	b = append(b, '{')
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p.k...)
		b = append(b, '=', '"')
		b = append(b, labelEscaper.Replace(p.v)...)
		b = append(b, '"')
	}
	b = append(b, '}')
	return string(b)
}

// labelEscaper escapes label values per the Prometheus text format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	return r.LabeledCounter(name)
}

// LabeledCounter returns (registering on first use) the counter for the
// family with the given label pairs, e.g.
// LabeledCounter("gdrd_shed_total", "reason", "rate", "tenant", "acme").
func (r *Registry) LabeledCounter(name string, labels ...string) *Counter {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[key]
	if !ok {
		c = &Counter{}
		r.counts[key] = c
		r.registerLocked(name, key)
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return r.LabeledGauge(name)
}

// LabeledGauge returns (registering on first use) the gauge for the family
// with the given label pairs, e.g.
// LabeledGauge("gdrd_build_info", "go_version", "go1.24.0").
func (r *Registry) LabeledGauge(name string, labels ...string) *Gauge {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
		r.registerLocked(name, key)
	}
	return g
}

// FloatGauge returns (registering on first use) the named float gauge.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.fgauges[name]
	if !ok {
		g = &FloatGauge{}
		r.fgauges[name] = g
		r.registerLocked(name, name)
	}
	return g
}

// Histogram returns (registering on first use) the named histogram over
// DefaultLatencyBuckets.
func (r *Registry) Histogram(name string) *Histogram {
	return r.LabeledHistogram(name)
}

// LabeledHistogram returns (registering on first use) the histogram for the
// family with the given label pairs, e.g.
// LabeledHistogram("gdrd_stage_seconds", "stage", "exec", "route", "feedback").
// All series of one family share the DefaultLatencyBuckets bounds.
func (r *Registry) LabeledHistogram(name string, labels ...string) *Histogram {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = NewHistogram(nil)
		r.hists[key] = h
		r.registerLocked(name, key)
	}
	return h
}

// WriteProm writes every registered metric in the Prometheus text format,
// families in registration order, one # TYPE line per family with its
// series grouped beneath it (stable across scrapes once the server is
// warm).
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	families := append([]string(nil), r.families...)
	keysOf := make(map[string][]string, len(families))
	for _, f := range families {
		keysOf[f] = append([]string(nil), r.series[f]...)
	}
	r.mu.Unlock()
	for _, family := range families {
		typed := false
		for _, key := range keysOf[family] {
			r.mu.Lock()
			c, g, fg, h := r.counts[key], r.gauges[key], r.fgauges[key], r.hists[key]
			r.mu.Unlock()
			var kind string
			switch {
			case c != nil:
				kind = "counter"
			case g != nil, fg != nil:
				kind = "gauge"
			case h != nil:
				kind = "histogram"
			default:
				continue
			}
			if !typed {
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, kind); err != nil {
					return err
				}
				typed = true
			}
			var err error
			switch {
			case c != nil:
				_, err = fmt.Fprintf(w, "%s %d\n", key, c.Value())
			case g != nil:
				_, err = fmt.Fprintf(w, "%s %d\n", key, g.Value())
			case fg != nil:
				_, err = fmt.Fprintf(w, "%s %g\n", key, fg.Value())
			case h != nil:
				err = h.writeProm(w, key)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (h *Histogram) writeProm(w io.Writer, key string) error {
	h.mu.Lock()
	uppers := h.uppers
	counts := append([]uint64(nil), h.counts...)
	sum, total := h.sum, h.total
	h.mu.Unlock()
	// A labeled series key arrives as family{a="b"}; the histogram's
	// per-line suffixes (_bucket, _sum, _count) attach to the family, with
	// the labels re-spliced inside each line's brace set.
	family, labels := splitSeriesKey(key)
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, up := range uppers {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", family, labels, sep, trimFloat(up), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			family, cum, family, sum, family, total)
		return err
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n%s_sum{%s} %g\n%s_count{%s} %d\n",
		family, labels, cum, family, labels, sum, family, labels, total)
	return err
}

// splitSeriesKey recovers the family name and the rendered label pairs
// (without braces) from a seriesKey result.
func splitSeriesKey(key string) (family, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, ""
	}
	return key[:i], key[i+1 : len(key)-1]
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
