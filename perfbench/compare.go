package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// summary is the median and quartiles of one metric over repeated runs,
// with quartiles computed as Python's statistics.quantiles(n=4) does.
type summary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (Q3-Q1)/Median
	Values []float64 `json:"values"`
}

// aggregate is a set of same-fingerprint untraced runs per workload.
type aggregate struct {
	Label       string                        `json:"label,omitempty"`
	Machine     string                        `json:"machine"`
	Fingerprint fingerprint                   `json:"fingerprint"`
	Seeds       map[string][]int64            `json:"seeds"`
	Workloads   map[string]map[string]summary `json:"workloads"`
}

// pyQuartiles mirrors statistics.quantiles(xs, n=4) (method "exclusive").
func pyQuartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		j = min(max(j, 1), n-1)
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func summarize(unit string, xs []float64) summary {
	q1, q2, q3 := pyQuartiles(xs)
	s := summary{Unit: unit, N: len(xs), Median: q2, Q1: q1, Q3: q3, Values: xs}
	if q2 != 0 {
		s.Spread = (q3 - q1) / q2
	}
	return s
}

// loadAggregate reads untraced result files; they must share one machine
// fingerprint.
func loadAggregate(paths []string) (*aggregate, error) {
	agg := &aggregate{Seeds: map[string][]int64{}, Workloads: map[string]map[string]summary{}}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rf.Trace {
			continue
		}
		key := rf.Fingerprint.machineKey()
		switch {
		case agg.Machine == "":
			agg.Machine, agg.Fingerprint = key, rf.Fingerprint
		case agg.Machine != key:
			return nil, fmt.Errorf("%s was measured on %q, others on %q", p, key, agg.Machine)
		case agg.Fingerprint.Source != rf.Fingerprint.Source || agg.Fingerprint.Commit != rf.Fingerprint.Commit:
			agg.Fingerprint.Source, agg.Fingerprint.Commit = "mixed", "mixed"
		}
		agg.Seeds[rf.Workload] = append(agg.Seeds[rf.Workload], rf.Seed)
		if values[rf.Workload] == nil {
			values[rf.Workload] = map[string][]float64{}
		}
		for name, mv := range rf.Metrics {
			values[rf.Workload][name] = append(values[rf.Workload][name], mv.Value)
			units[name] = mv.Unit
		}
	}
	if agg.Machine == "" {
		return nil, fmt.Errorf("no untraced result among %d files", len(paths))
	}
	for wl, ms := range values {
		agg.Workloads[wl] = map[string]summary{}
		for name, xs := range ms {
			agg.Workloads[wl][name] = summarize(units[name], xs)
		}
	}
	return agg, nil
}

// baselineCmd aggregates result files into a baseline file.
func baselineCmd(args []string) int {
	fs := flag.NewFlagSet("perfbench baseline", flag.ContinueOnError)
	label := fs.String("label", "", "what was measured, e.g. the commit")
	out := fs.String("o", "", "baseline file to write")
	if err := fs.Parse(args); err != nil || *out == "" || fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench baseline -label L -o FILE results...")
		return 2
	}
	agg, err := loadAggregate(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench baseline:", err)
		return 1
	}
	agg.Label = *label
	printAggregate(agg)
	if err := writeJSON(*out, agg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench baseline:", err)
		return 1
	}
	return 0
}

func printAggregate(agg *aggregate) {
	fmt.Printf("machine: %s\n", agg.Machine)
	for _, wl := range workloads {
		ms, ok := agg.Workloads[wl]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			s := ms[d.Name]
			fmt.Printf("%-19s %-14s n=%-3d median %12.6g %-8s spread %5.1f%%\n", wl, d.Name, s.N, s.Median, d.Unit, 100*s.Spread)
		}
	}
}

// benchSpec is the part of BENCHMARK.json the gate reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareCmd gates new results against a baseline: medians may be worse
// by at most each metric's bound. Results from another machine are not
// compared at all.
func compareCmd(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	basePath := fs.String("baseline", "", "baseline file")
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	if err := fs.Parse(args); err != nil || *basePath == "" || fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare -baseline FILE [-bench BENCHMARK.json] results...")
		return 2
	}
	var base aggregate
	var spec benchSpec
	for path, v := range map[string]any{*basePath: &base, *benchPath: &spec} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, v)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	cur, err := loadAggregate(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if cur.Machine != base.Machine {
		fmt.Printf("incomparable, re-baseline\n  baseline: %s\n  results:  %s\n", base.Machine, cur.Machine)
		return 3
	}
	failed := false
	for _, wl := range workloads {
		b, c := base.Workloads[wl], cur.Workloads[wl]
		if b == nil || c == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			bs, cs := b[m.Name], c[m.Name]
			if bs.N == 0 || cs.N == 0 {
				continue
			}
			worse := (cs.Median - bs.Median) / bs.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict, failed = "WORSE", true
			}
			fmt.Printf("%-19s %-14s base %12.6g  new %12.6g  worse by %6.1f%% (bound %4.1f%%)  %s\n",
				wl, m.Name, bs.Median, cs.Median, 100*worse, 100*m.Bound, verdict)
		}
	}
	if failed {
		return 1
	}
	return 0
}
