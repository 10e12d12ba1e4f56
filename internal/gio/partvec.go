package gio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/partition"
)

// Partition vectors use the METIS convention: one part id per line, line i
// holding the part of node i. Blank lines and '#'/'%' comments are skipped.

// WritePartition serializes p, one part id per line.
func WritePartition(w io.Writer, p *partition.Partition) error {
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, q := range p.Assign {
		buf = strconv.AppendInt(buf[:0], int64(q), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadPartition parses a partition vector. parts fixes the expected part
// count (ids must lie in [0, parts)); pass parts <= 0 to infer it as the
// maximum id + 1.
func ReadPartition(r io.Reader, parts int) (*partition.Partition, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var assign []uint16
	maxPart := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		f := fielder{s: sc.Bytes()}
		tok, ok := f.next()
		if !ok || tok[0] == '#' || tok[0] == '%' {
			continue
		}
		q, ok := atoi(tok)
		if !ok || q < 0 || q >= 1<<16 {
			return nil, fmt.Errorf("gio: partition line %d: bad part id %q", lineNo, tok)
		}
		if parts > 0 && q >= parts {
			return nil, fmt.Errorf("gio: partition line %d: part id %d out of range [0,%d)", lineNo, q, parts)
		}
		if _, extra := f.next(); extra {
			return nil, fmt.Errorf("gio: partition line %d: trailing fields", lineNo)
		}
		if q > maxPart {
			maxPart = q
		}
		assign = append(assign, uint16(q))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gio: partition: %w", err)
	}
	if len(assign) == 0 {
		return nil, fmt.Errorf("gio: partition: empty input")
	}
	if parts <= 0 {
		parts = maxPart + 1
	}
	return &partition.Partition{Assign: assign, Parts: parts}, nil
}
