package main

import (
	"math"
	"math/rand"

	"elsa/internal/tensor"
	"elsa/internal/workload"
)

// Input sizes. They are fixed so a seed alone determines every input.
const (
	headDim = 64

	// attend-mixed: a pool of one-shot SQuAD v1.1 instances, n drawn from
	// the dataset's length distribution by stratified sampling; even pool
	// entries run at p=0, odd ones at p=1.
	attendPool     = 96
	attendRequests = 1 << 15

	// decode-longctx: sessions alternate pinned ELSA p=1 and the exact
	// linear-scan backend. Each is prefilled with decodePrefix tokens of
	// its own long document; waves append the document's next tokens.
	decodeSessions = 8
	decodePrefix   = 2048
	decodeExtra    = 1024
	// decodeWatermark is the sessions' cold watermark: the hot tail
	// demotes every decodeWatermark appends, so demotion runs during the
	// timed phase.
	decodeWatermark = 64

	// engine-n512: instances of the paper's n=512 per set, plus
	// calibration instances that are never timed.
	engineN     = 512
	enginePool  = 24
	engineCalib = 8
)

// attn is one self-attention instance as the public APIs take it.
type attn struct {
	Q, K, V [][]float32
}

// inputs is everything a run feeds the program, generated from the seed
// before any set-up is timed.
type inputs struct {
	attend []attn
	// order is the pool index of each successive request: a run of
	// shuffled passes over the pool, so every stretch of requests carries
	// the pool's mix of lengths.
	order []int

	decode []attn // one document per session, decodePrefix+decodeExtra rows

	conc, unconc           []attn // engineN-row instances
	concCalib, unconcCalib []attn
}

func rows(m *tensor.Matrix) [][]float32 {
	out := make([][]float32, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

func fromInstance(in workload.Instance) attn {
	return attn{Q: rows(in.Q), K: rows(in.K), V: rows(in.V)}
}

func unitNormal(rng *rand.Rand, n int) attn {
	return attn{
		Q: rows(tensor.RandomNormal(rng, n, headDim)),
		K: rows(tensor.RandomNormal(rng, n, headDim)),
		V: rows(tensor.RandomNormal(rng, n, headDim)),
	}
}

// generate builds the inputs for seed. Each family draws from its own
// stream, so changing one family's size leaves the others' inputs alone.
func generate(seed int64) *inputs {
	in := &inputs{}
	rng := rand.New(rand.NewSource(seed))
	lengths := stratifiedLengths(rng, workload.SQuAD11, attendPool)
	for _, n := range lengths {
		in.attend = append(in.attend, fromInstance(workload.SQuAD11.GenerateLen(rng, headDim, n)))
	}
	rng = rand.New(rand.NewSource(seed + 1))
	for len(in.order) < attendRequests {
		in.order = append(in.order, rng.Perm(attendPool)...)
	}
	rng = rand.New(rand.NewSource(seed + 2))
	doc := workload.LongDoc4K
	doc.Len = decodePrefix + decodeExtra
	for i := 0; i < decodeSessions; i++ {
		in.decode = append(in.decode, fromInstance(doc.Generate(rng, headDim)))
	}
	rng = rand.New(rand.NewSource(seed + 3))
	for i := 0; i < enginePool+engineCalib; i++ {
		a := fromInstance(workload.SQuAD11.GenerateLen(rng, headDim, engineN))
		b := unitNormal(rng, engineN)
		if i < enginePool {
			in.conc, in.unconc = append(in.conc, a), append(in.unconc, b)
		} else {
			in.concCalib, in.unconcCalib = append(in.concCalib, a), append(in.unconcCalib, b)
		}
	}
	return in
}

// stratifiedLengths draws k sequence lengths from ds's truncated normal
// length distribution, one from each of k equal-probability strata, in a
// seeded order. Every seed then gets the same spread of lengths, so the
// seed changes the instances and not how much work they carry.
func stratifiedLengths(rng *rand.Rand, ds workload.Dataset, k int) []int {
	out := make([]int, k)
	for i, j := range rng.Perm(k) {
		u := (float64(j) + rng.Float64()) / float64(k)
		x := ds.MeanLen + ds.StdLen*math.Sqrt2*math.Erfinv(2*u-1) // -Inf at u=0
		out[i] = int(math.Round(math.Min(math.Max(x, float64(ds.MinLen)), float64(ds.CapLen))))
	}
	return out
}

// hashRows fingerprints an output bit for bit, so outputs can be kept
// as 8 bytes until the checks after the timed phase.
func hashRows(m [][]float32) uint64 {
	h := fnvOffset
	for _, r := range m {
		h = hashVec(h, r)
	}
	return h
}

const fnvOffset = uint64(14695981039346656037)

func hashVec(h uint64, v []float32) uint64 {
	for _, x := range v {
		h ^= uint64(math.Float32bits(x))
		h *= 1099511628211
	}
	return h
}
