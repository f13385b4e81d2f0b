package client

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
)

// PackVec encodes a float32 vector as base64 little-endian bytes — the
// wire form of every vector-carrying op, shared by client and server. A
// JSON number array costs a strconv float parse per element, and on a
// one-shot attend or a step wave that parsing dominates the whole
// request; the packed form parses with one base64 decode and round-trips
// float32 bit-exactly, so served outputs stay bit-identical to in-process
// execution.
func PackVec(v []float32) string {
	buf := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// UnpackVec decodes a PackVec string back into float32s.
func UnpackVec(s string) ([]float32, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("packed vector: %w", err)
	}
	if len(buf)%4 != 0 {
		return nil, fmt.Errorf("packed vector is %d bytes, not a multiple of 4", len(buf))
	}
	v := make([]float32, len(buf)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return v, nil
}

// PackRows packs each row of a matrix with PackVec — the wire form of the
// qp/kp/vp fields and of a packed context.
func PackRows(rows [][]float32) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = PackVec(row)
	}
	return out
}

// UnpackRows decodes a PackRows matrix row by row with UnpackVec. It does
// not check that the rows share a width; callers validate the shape.
func UnpackRows(rows []string) ([][]float32, error) {
	out := make([][]float32, len(rows))
	for i, s := range rows {
		v, err := UnpackVec(s)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
