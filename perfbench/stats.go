package main

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 over 200 samples is the second-largest value, not a tail.
const minBeyond = 10

// sortedCopy returns the values in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank permille quantile of ascending values
// (500 = median, 990 = p99); 0 for no values.
func quantile(sorted []float64, permille int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := rankOf(n, permille)
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// rankOf is the 1-based nearest rank of the permille quantile of n values.
// Integer arithmetic keeps p90 of 100 values at rank 90 exactly.
func rankOf(n, permille int) int { return (permille*n + 999) / 1000 }

// beyond counts the values that lie strictly above the permille quantile.
func beyond(n, permille int) int { return n - rankOf(n, permille) }

// tailPermille picks the highest of p99.9, p99 and p90 that has at least
// minBeyond samples beyond it, or 0 when not even p90 qualifies.
func tailPermille(n int) int {
	for _, pm := range []int{999, 990, 900} {
		if beyond(n, pm) >= minBeyond {
			return pm
		}
	}
	return 0
}

// mean is the arithmetic mean (0 for no values).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// parseServerTiming reads a Server-Timing header value ("queue;dur=0.312,
// exec;dur=4.821", durations in milliseconds) into stage → milliseconds.
// Repeated stages add up; entries without a dur parameter, and anything
// malformed, are skipped.
func parseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		if parts[0] == "" {
			continue
		}
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			d, err := strconv.ParseFloat(strings.Trim(v, `"`), 64)
			if err != nil || d < 0 {
				continue
			}
			out[parts[0]] += d
		}
	}
	return out
}

// timing is one client round trip joined with the stage breakdown the
// server reported for the same response.
type timing struct {
	route  string
	rtMS   float64            // client-observed round trip, body included
	stages map[string]float64 // Server-Timing stage → ms
}

// joinTiming pairs a client round trip with its response's Server-Timing.
func joinTiming(route string, rt time.Duration, serverTiming string) timing {
	return timing{route: route, rtMS: ms(rt), stages: parseServerTiming(serverTiming)}
}

// serverMS is the time the server accounted for: the sum of its root
// stages (admit, queue, slot, exec, persist).
func (t timing) serverMS() float64 {
	s := 0.0
	for _, d := range t.stages {
		s += d
	}
	return s
}

// httpMS is the rest of the round trip — transport, HTTP handling, JSON
// and, through the gateway, the proxy hop.
func (t timing) httpMS() float64 { return t.rtMS - t.serverMS() }

// span is one timed call recorded by the benchmark. Parent indexes the
// enclosing span in the same list (-1 for a root); Round ties the spans of
// one expert round together.
type span struct {
	Name   string `json:"name"`
	Round  int64  `json:"round"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children may overlap each other or spill
// past the parent; only the covered part of the parent's own interval
// counts.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	for i, s := range spans {
		ivs := make([]iv, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// roundTime is one open-loop round, as offsets from the schedule's start:
// when it was due, when it was sent and when its last response arrived.
type roundTime struct {
	due, start, end time.Duration
}

// lag is how late the generator sent the round.
func (r roundTime) lag() time.Duration { return r.start - r.due }

// latency counts from the due time, so a stall also charges the rounds
// that queued behind it (no coordinated omission).
func (r roundTime) latency() time.Duration { return r.end - r.due }

// backlogGrowth is how much later than its first quarter an open loop may
// send its last quarter of rounds before the backlog counts as rising.
const backlogGrowth = 50 * time.Millisecond

// risingBacklog reports whether lateness kept growing over the run: the
// median send lag of the last quarter of rounds (in due order) exceeds
// that of the first quarter by more than backlogGrowth. A stall that the
// system recovers from leaves the last quarter on time; a rate above
// capacity makes lag grow linearly with time.
func risingBacklog(rounds []roundTime) bool {
	q := len(rounds) / 4
	if q == 0 {
		return false
	}
	lags := func(rs []roundTime) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = float64(r.lag())
		}
		return sortedCopy(out)
	}
	first := quantile(lags(rounds[:q]), 500)
	last := quantile(lags(rounds[len(rounds)-q:]), 500)
	return last-first > float64(backlogGrowth)
}
