// Package strsim provides GDR's one update evaluation function, Eq. 7 of
// the paper, and the Levenshtein distance under it. The candidate
// generator scores every update with Similarity, and the learning
// component reads that score back from the update as its relationship
// feature R(t[A], v).
//
// All functions operate on UTF-8 strings at rune granularity and are safe for
// concurrent use.
package strsim

import "unicode/utf8"

// Levenshtein returns the edit distance between a and b: the minimum number
// of single-rune insertions, deletions and substitutions needed to transform
// a into b.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	ra := []rune(a)
	rb := []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// Keep the inner loop over the shorter string so the scratch row stays
	// small for the common short-attribute-value case.
	if len(rb) > len(ra) {
		ra, rb = rb, ra
	}
	row := make([]int, len(rb)+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		prev := row[0] // row[i-1][j-1]
		row[0] = i
		for j := 1; j <= len(rb); j++ {
			cur := row[j] // row[i-1][j]
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			row[j] = min3(row[j]+1, row[j-1]+1, prev+cost)
			prev = cur
		}
	}
	return row[len(rb)]
}

// Similarity implements the update evaluation function of Eq. 7:
//
//	sim(v, v') = 1 - dist(v, v') / max(|v|, |v'|)
//
// It returns a value in [0, 1]; 1 means the strings are equal, 0 means they
// share no structure at all. Two empty strings are defined to be identical.
// It is the only evaluation function: the candidate generator scores every
// update with it (repair.Update.Score), and that score is also the
// learner's relationship feature.
func Similarity(v, vp string) float64 {
	if v == vp {
		return 1
	}
	la := utf8.RuneCountInString(v)
	lb := utf8.RuneCountInString(vp)
	m := la
	if lb > m {
		m = lb
	}
	if m == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(v, vp))/float64(m)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
