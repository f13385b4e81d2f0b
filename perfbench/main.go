// Command perfbench is the repository's benchmark. One run executes one
// workload against the program's public entry points — serve.New behind a
// loopback HTTP server driven through serve/client, and elsa.Engine /
// elsa.Stream in process — checks its outputs after the timed phase, and
// prints one JSON result line last. See README.md.
//
//	perfbench --workload attend-mixed --seed 1 --seconds 32 --trace 0
//	perfbench baseline -label <commit> -o baseline/<name>.json results...
//	perfbench compare -baseline baseline/<name>.json results...
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The workloads; README.md says why each is there.
const (
	wlAttend = "attend-mixed"
	wlDecode = "decode-longctx"
	wlEngine = "engine-n512"
)

var workloads = []string{wlAttend, wlDecode, wlEngine}

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 5

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// resultFile is what a run writes for the baseline and compare commands.
type resultFile struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	Seconds     int         `json:"seconds"`
	Trace       bool        `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	resultLine
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "baseline":
			os.Exit(baselineCmd(os.Args[2:]))
		case "compare":
			os.Exit(compareCmd(os.Args[2:]))
		}
	}
	os.Exit(runCmd(os.Args[1:]))
}

func runCmd(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 32, "timed seconds")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics")
	out := fs.String("out", "", "result file (default .bench_build/results/<workload>-seed<n>-trace<t>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *wl
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds >= 1, --trace 0 or 1\n", strings.Join(workloads, ", "))
		return 2
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-seed%d-trace%d.json", *wl, *seed, *trace))
	}
	res, spans, err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rf := resultFile{Workload: *wl, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Fingerprint: takeFingerprint("."), resultLine: res}
	fmt.Printf("fingerprint: %s | source %s\n", rf.Fingerprint.machineKey(), rf.Fingerprint.Source)
	defs := endToEnd
	if rf.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-32s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if err := writeJSON(*out, rf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing result:", err)
		return 1
	}
	if spans != nil {
		path := strings.TrimSuffix(*out, ".json") + ".spans.json"
		if err := writeJSON(path, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: output mismatch")
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// phase is one workload's measurement: set up by a setup function, then
// timed, then checked.
type phase interface {
	run(budget time.Duration) error
	check() error
	close()
	// endToEnd fills the end-to-end metrics other than the shared three.
	endToEnd(vals map[string]float64)
	// layers fills the per-layer metrics this phase's layers produce.
	layers(vals map[string]float64, spans []span) error
	// counts returns operations attempted, failed, and outputs mismatched.
	counts() (attempted, failed, mismatches int)
}

func setupPhase(wl string, in *inputs, workers int, t *tracer) (phase, error) {
	switch wl {
	case wlAttend:
		return setupAttend(in, t)
	case wlDecode:
		return setupDecode(in, workers, t)
	default:
		return setupEngine(in, workers)
	}
}

// run sets up, measures and checks one workload, and returns the result
// line (and, when traced, the recorded spans).
func run(wl string, seed int64, total time.Duration, traced bool) (resultLine, []span, error) {
	in := generate(seed)
	workers := runtime.NumCPU()
	var t *tracer
	if traced {
		t = newTracer()
	}

	// Set up setupRounds times and keep the last; only the median counts.
	var setups []float64
	var ph phase
	for round := 0; round < setupRounds; round++ {
		if ph != nil {
			ph.close()
		}
		start := time.Now()
		var err error
		if ph, err = setupPhase(wl, in, workers, t); err != nil {
			return resultLine{}, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer ph.close()

	if err := ph.run(total); err != nil {
		return resultLine{}, nil, err
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	checkStart := time.Now()
	if err := ph.check(); err != nil {
		return resultLine{}, nil, fmt.Errorf("check: %w", err)
	}
	fmt.Printf("set-up %.2fs (median of %d), timed %v, checks %.2fs\n",
		median(setups), setupRounds, total, time.Since(checkStart).Seconds())

	attempted, failed, mismatches := ph.counts()
	res := resultLine{
		Correct:   mismatches == 0,
		Attempted: int64(attempted),
		Failed:    int64(failed + mismatches),
		Metrics:   make(map[string]metricVal),
	}
	if res.Attempted == 0 {
		return resultLine{}, nil, errors.New("no operation attempted")
	}
	vals := map[string]float64{
		"setup_s":       median(setups),
		"success_ratio": 1 - float64(res.Failed)/float64(res.Attempted),
		"heap_mb":       float64(mem.HeapAlloc) / (1 << 20),
	}
	ph.endToEnd(vals)
	defs := endToEnd
	var spans []span
	if traced {
		spans = t.snapshot()
		vals = make(map[string]float64, len(perLayer))
		for _, d := range perLayer {
			vals[d.Name] = 0 // a layer this workload does not reach
		}
		vals["trace.spans"] = float64(len(spans))
		if err := ph.layers(vals, spans); err != nil {
			return resultLine{}, nil, err
		}
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return resultLine{}, nil, fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		res.Metrics[d.Name] = metricVal{Value: v, Unit: d.Unit}
	}
	return res, spans, nil
}
