package service

import "fmt"

// Assignment is a result's part vector on the wire: a JSON array of part
// ids, one per node. It encodes as the plain []uint16 it is, and decodes
// through a hand-written parser instead of encoding/json's reflective
// per-element path, because the vector is the bulk of every result-bearing
// response and every reader of a JobInfo pays for it.
type Assignment []uint16

// UnmarshalJSON accepts exactly what encoding/json accepts for a []uint16:
// null (a nil vector), or an array whose elements are integers in
// [0, 65535] or null (which leaves the element 0), with JSON whitespace
// between tokens. Signs, fractions, exponents, leading zeros, strings,
// booleans and nested values are refused.
func (a *Assignment) UnmarshalJSON(data []byte) error {
	i := skipSpace(data, 0)
	if end, ok := literal(data, i, "null"); ok {
		if skipSpace(data, end) != len(data) {
			return badAssignment(end)
		}
		*a = nil
		return nil
	}
	if i == len(data) || data[i] != '[' {
		return badAssignment(i)
	}
	// An element and its separator take at least two bytes, so this holds
	// every element without growing and allocates no more than the input's
	// own size.
	out := make(Assignment, 0, (len(data)-i)/2)
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return a.finish(out, data, i+1)
	}
	for {
		v, next, ok := partID(data, i)
		if !ok {
			return badAssignment(i)
		}
		out = append(out, v)
		i = skipSpace(data, next)
		switch {
		case i < len(data) && data[i] == ',':
			i = skipSpace(data, i+1)
		case i < len(data) && data[i] == ']':
			return a.finish(out, data, i+1)
		default:
			return badAssignment(i)
		}
	}
}

// finish stores out once nothing but whitespace follows data[:end].
func (a *Assignment) finish(out Assignment, data []byte, end int) error {
	if i := skipSpace(data, end); i != len(data) {
		return badAssignment(i)
	}
	*a = out
	return nil
}

func badAssignment(at int) error {
	return fmt.Errorf("service: assignment: byte %d: want a JSON array of part ids in [0, 65535]", at)
}

// partID parses the array element at data[i]: null, or a decimal integer in
// [0, 65535] with no sign, fraction, exponent or leading zero. It returns
// the value and the index just past the element.
func partID(data []byte, i int) (uint16, int, bool) {
	if end, ok := literal(data, i, "null"); ok {
		return 0, end, true
	}
	start, v := i, 0
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		if i > start && data[start] == '0' {
			return 0, 0, false // leading zero
		}
		if v = v*10 + int(data[i]-'0'); v > 0xFFFF {
			return 0, 0, false
		}
		i++
	}
	if i == start || i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return 0, 0, false
	}
	return uint16(v), i, true
}

// literal reports whether data[i:] starts with word, and the index past it.
func literal(data []byte, i int, word string) (int, bool) {
	if len(data)-i >= len(word) && string(data[i:i+len(word)]) == word {
		return i + len(word), true
	}
	return i, false
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace, or len(data).
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
