package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareReports applies the end-to-end bounds to two -o reports, A the
// parent and B the change, one row per workload × metric:
//
//	ok          B is not worse than A by more than the bound
//	regressed   B is worse than A by more than the bound
//	unresolved  the spread inside the runs is wider than the bound, so
//	            neither can be said — unless every slice of B beats
//	            every slice of A, which is ok
//
// It returns an error when any row regressed.
func compareReports(pathA, pathB string, w io.Writer) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	regressed := 0
	fmt.Fprintf(w, "%-18s %-15s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "spread", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if rb == nil {
			fmt.Fprintf(w, "%-18s missing from %s\n", ra.Name, pathB)
			regressed++
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ra.EndToEnd[d.name], rb.EndToEnd[d.name]
			worse := worsening(d, ma.Value, mb.Value)
			spread := max(spreadOf(ma), spreadOf(mb))
			verdict := "ok"
			switch {
			case spread > d.bound && !allBetter(d, ma.Slices, mb.Slices):
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-18s %-15s %12.6g %12.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				ra.Name, d.name, ma.Value, mb.Value, 100*worse, 100*d.bound, 100*spread, verdict)
		}
		if fa, fb := ra.EndToEnd["fail_ratio"].Value, rb.EndToEnd["fail_ratio"].Value; fb > fa {
			fmt.Fprintf(w, "%-18s %-15s %12.6g %12.6g %37s\n", ra.Name, "fail_ratio", fa, fb, "regressed")
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spreadOf is the interquartile range of a metric's slices as a share
// of their median; 0 for a metric reported as one value.
func spreadOf(m metric) float64 {
	if len(m.Slices) < 4 || m.Value == 0 {
		return 0
	}
	s := append([]float64(nil), m.Slices...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return (q(0.75) - q(0.25)) / median(s)
}

// allBetter reports whether every slice of b beats every slice of a.
func allBetter(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worsening(d, x, y) >= 0 {
				return false
			}
		}
	}
	return true
}
