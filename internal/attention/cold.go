package attention

import (
	"elsa/internal/fixed"
	"elsa/internal/tensor"
)

// ColdPrefix is the demoted front of a stream's key/value storage: the
// oldest tokens' K/V rows bit-packed in the Q(1,5,3) fixed-point format
// (9 bits per element instead of 32), the compression the accelerator's
// own input format already imposes in quantized mode. Hashes and norms
// are not demoted — the candidate filter scans them at full precision
// regardless of where a row's K/V lives — so demotion never changes
// which keys are selected in quantized mode, and in float mode perturbs
// only the exact-score/value stage of already-cold rows.
//
// Logical row y of a Preprocessed with a cold prefix lives in
// Cold.Keys/Cold.Values for y < Cold.N() and in Keys/Values at row
// y - Cold.N() otherwise.
type ColdPrefix struct {
	Keys, Values *fixed.PackedCodes
}

// N returns the number of demoted rows.
func (c *ColdPrefix) N() int {
	if c == nil {
		return 0
	}
	return c.Keys.Rows()
}

// Bytes returns the cold store's resident payload size.
func (c *ColdPrefix) Bytes() int {
	if c == nil {
		return 0
	}
	return c.Keys.Bytes() + c.Values.Bytes()
}

// newColdPrefix allocates an empty cold store for head dimension d.
func newColdPrefix(d, capRows int) *ColdPrefix {
	return &ColdPrefix{
		Keys:   fixed.NewPackedCodes(fixed.QKV, d, capRows),
		Values: fixed.NewPackedCodes(fixed.QKV, d, capRows),
	}
}

// keyRow resolves logical key row y: a direct hot-tail view, or the cold
// row dequantized into the workspace's scratch buffer (overwritten by the
// next cold fetch on the same workspace). ws may be nil when p has no
// cold prefix.
func (p *Preprocessed) keyRow(y int, ws *Workspace) []float32 {
	if p.Cold == nil {
		return p.Keys.Row(y)
	}
	return rowAt(p.Keys, p.Cold.Keys, y, ws.coldKey)
}

// valueRow resolves logical value row y, mirroring keyRow.
func (p *Preprocessed) valueRow(y int, ws *Workspace) []float32 {
	if p.Cold == nil {
		return p.Values.Row(y)
	}
	return rowAt(p.Values, p.Cold.Values, y, ws.coldVal)
}

// rowAt resolves logical row y of one side (keys or values) of a prefix
// whose oldest rows live in cold (nil when nothing is demoted) and the
// rest in hot: a view of the hot row, or the cold row decoded into buf.
func rowAt(hot *tensor.Matrix, cold *fixed.PackedCodes, y int, buf []float32) []float32 {
	if cold != nil {
		cn := cold.Rows()
		if y < cn {
			buf = buf[:hot.Cols]
			cold.DecodeInto(buf, y)
			return buf
		}
		y -= cn
	}
	return hot.Row(y)
}

// rows4 resolves logical rows y..y+3 like rowAt, decoding cold rows into
// four disjoint d-wide slots of buf (4·d elements; unused when cold is
// nil), so all four views stay valid together.
func rows4(hot *tensor.Matrix, cold *fixed.PackedCodes, y int, buf []float32) (r0, r1, r2, r3 []float32) {
	d := hot.Cols
	if cold == nil {
		rows := hot.Data[y*d : (y+4)*d]
		return rows[:d], rows[d : 2*d], rows[2*d : 3*d], rows[3*d:]
	}
	return rowAt(hot, cold, y, buf[:d]), rowAt(hot, cold, y+1, buf[d:2*d]),
		rowAt(hot, cold, y+2, buf[2*d:3*d]), rowAt(hot, cold, y+3, buf[3*d:4*d])
}
