package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"math"
	"os"
	"testing"
	"time"

	"elsa/internal/serve"
)

func TestInputsSameSeedSameBytes(t *testing.T) {
	a, b := generate(7).digest(), generate(7).digest()
	if a != b {
		t.Fatal("two generations from seed 7 differ")
	}
	if generate(8).digest() == a {
		t.Fatal("seeds 7 and 8 generated the same inputs")
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		code, spec []metricDef
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.code) != len(c.spec) {
			t.Fatalf("%s: code prints %d metrics, BENCHMARK.json lists %d", c.name, len(c.code), len(c.spec))
		}
		for i := range c.code {
			if c.code[i] != c.spec[i] {
				t.Errorf("%s[%d]: code prints %+v, BENCHMARK.json lists %+v", c.name, i, c.code[i], c.spec[i])
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i])
		}
	}
}

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	// root [0,100) has children a [10,40) and b [30,60) that overlap on
	// [30,40), and c [90,120) that runs past the root's end. a has a
	// child d [15,25).
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 15, End: 25},
	}
	want := map[uint64]int64{
		1: 100 - 50 - 10, // covered: [10,60) and [90,100)
		2: 30 - 10,
		3: 30,
		4: 30,
		5: 10,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
	lt := layerTimes(spans)["root"]
	if lt.N != 1 || lt.MeanMs != 100e-6 || lt.SelfMs != 40e-6 {
		t.Errorf("root layer time %+v", lt)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestGoodputCountsAnswersWithinLimit(t *testing.T) {
	// Ten answers, the last at 2 s; one failed and two past the limit.
	var recs []attendRec
	for i := 1; i <= 10; i++ {
		done := time.Duration(i) * 200 * time.Millisecond
		r := attendRec{sent: done - 50*time.Millisecond, done: done}
		switch i {
		case 3:
			r.err = true
		case 5, 9:
			r.sent = done - 2*attendLimit
		}
		recs = append(recs, r)
	}
	// Issue order need not be completion order.
	recs[0], recs[9] = recs[9], recs[0]
	if got := goodput(recs); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("goodput %v, want 3.5", got)
	}
	if got := goodput(nil); got != 0 {
		t.Fatalf("goodput of nothing %v, want 0", got)
	}
}

// digest hashes every generated value, so two generations can be
// compared byte for byte.
func (in *inputs) digest() [32]byte {
	h := sha256.New()
	writeAttn := func(as []attn) {
		for _, a := range as {
			for _, m := range [][][]float32{a.Q, a.K, a.V} {
				writeRows(h, m)
			}
		}
	}
	writeAttn(in.attend)
	var buf [8]byte
	for _, o := range in.order {
		binary.LittleEndian.PutUint64(buf[:], uint64(o))
		h.Write(buf[:])
	}
	writeAttn(in.decode)
	writeAttn(in.conc)
	writeAttn(in.unconc)
	writeAttn(in.concCalib)
	writeAttn(in.unconcCalib)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func writeRows(h hash.Hash, m [][]float32) {
	var buf [4]byte
	for _, r := range m {
		for _, x := range r {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			h.Write(buf[:])
		}
	}
}

func TestTracedRequestsLinkSpans(t *testing.T) {
	in := generate(3)
	tr := newTracer()
	r, err := startRig(serve.Config{}, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	// Two goroutines at once, as the load generator drives the rig.
	err = parallel(4, 2, func(i int) error {
		ctx, end := tr.begin(context.Background(), "client.attend")
		defer end()
		a := in.attend[i]
		_, err := r.cl.Attend(ctx, a.Q, a.K, a.V, attendOptions(i))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.snapshot()
	byID := map[uint64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	parentName := map[string]string{"http": "client.attend", "serve.handler": "http", "serve.body_read": "serve.handler"}
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
		if want, ok := parentName[s.Name]; ok {
			p := byID[s.Parent]
			if p.Name != want || p.Req != s.Req {
				t.Errorf("%s span %d: parent %q in request %d, want %q in request %d", s.Name, s.ID, p.Name, p.Req, want, s.Req)
			}
		}
	}
	for _, name := range []string{"client.attend", "http", "serve.handler", "serve.body_read"} {
		if count[name] != 4 {
			t.Errorf("%d %s spans, want 4", count[name], name)
		}
	}
}
