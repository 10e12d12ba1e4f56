package gio

import (
	"errors"
	"math"
	"strconv"
)

// The readers' shared tokenizer. Every reader scans lines with a
// bufio.Scanner and tokenizes the scanner's bytes in place: no line or
// token is copied into a string, so a multi-million-line upload costs no
// per-line allocation. The grammar of every token is pinned to the standard
// library's: atoi accepts exactly what strconv.Atoi does, and parseWeight
// exactly what parseFinite does (FuzzTokens holds both).

// fielder iterates the whitespace-separated tokens of a line without
// allocating a field slice. Tokens alias the line, which aliases the
// scanner's buffer until its next Scan.
type fielder struct {
	s []byte
	i int
}

func (f *fielder) next() ([]byte, bool) {
	for f.i < len(f.s) && isSpace(f.s[f.i]) {
		f.i++
	}
	if f.i >= len(f.s) {
		return nil, false
	}
	start := f.i
	for f.i < len(f.s) && !isSpace(f.s[f.i]) {
		f.i++
	}
	return f.s[start:f.i], true
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' }

// atoi parses tok as strconv.Atoi(string(tok)) would, without making a
// string: an optional sign, then one or more decimal digits, within int's
// range. ok is false exactly where Atoi returns an error.
func atoi(tok []byte) (n int, ok bool) {
	neg := false
	if len(tok) > 0 && (tok[0] == '+' || tok[0] == '-') {
		neg = tok[0] == '-'
		tok = tok[1:]
	}
	if len(tok) == 0 {
		return 0, false
	}
	// limit is the magnitude of the most negative int; the largest positive
	// one is limit-1.
	const limit = uint64(1) << (strconv.IntSize - 1)
	var u uint64
	for _, c := range tok {
		d := c - '0'
		if d > 9 || u > limit/10 {
			return 0, false
		}
		if u = u*10 + uint64(d); u > limit {
			return 0, false
		}
	}
	if neg {
		return int(-u), true // -limit wraps to the most negative int
	}
	if u == limit {
		return 0, false
	}
	return int(u), true
}

// parseWeight parses a weight or coordinate as parseFinite(string(tok))
// would. A token of decimal digits alone whose value is below 2^53 is that
// integer exactly, which is ParseFloat's result for it, so it is
// accumulated in place; every other token goes through parseFinite.
func parseWeight(tok []byte) (float64, error) {
	var u uint64
	for _, c := range tok {
		d := c - '0'
		if d > 9 || u >= 1<<53 {
			return parseFinite(string(tok))
		}
		u = u*10 + uint64(d)
	}
	if len(tok) == 0 || u >= 1<<53 {
		return parseFinite(string(tok))
	}
	return float64(u), nil
}

// parseFinite parses a weight or coordinate. METIS specifies integer
// weights; floats are tolerated on input for interop, but every reader
// rejects NaN and infinities (they would silently poison every downstream
// metric). The readers name the token in their own errors, so neither
// error here keeps tok, and parseWeight's string(tok) need not be copied to
// the heap.
func parseFinite(tok string) (float64, error) {
	w, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, errNonFinite
	}
	return w, nil
}

var errNonFinite = errors.New("gio: non-finite weight")
