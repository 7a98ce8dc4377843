package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResults loads the JSON lines a run appended with -out.
func readResults(path string) ([]outcome, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []outcome
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res outcome
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// valuesOf collects one metric's values over the runs of one workload.
func valuesOf(results []outcome, workload, name string, traced bool) []float64 {
	var xs []float64
	for _, r := range results {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload && r.Traced == traced {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// verdict judges b against a for one metric. A metric on an exact clock
// must repeat to the last digit. Otherwise b may be worse than a by at
// most bound, as a share of a; when either side's own spread is wider
// than the bound the runs cannot tell, and the answer is "unresolved",
// never "ok".
func verdict(a, b []float64, better string, bound float64, exact bool) string {
	ma, mb := median(a), median(b)
	if exact {
		if ma == mb && spread(a) == 0 && spread(b) == 0 {
			return "ok"
		}
		return "worse"
	}
	if max(spread(a), spread(b)) > bound {
		return "unresolved"
	}
	worse := mb > ma*(1+bound)
	if better == "higher" {
		worse = mb < ma*(1-bound)
	}
	if worse {
		return "worse"
	}
	return "ok"
}

// runCompare prints, per workload and end-to-end metric, both medians,
// the ratio b/a, the bound and the verdict; then the same for the
// per-layer metrics that must repeat exactly. It returns the exit code:
// 1 if anything is worse.
func runCompare(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		logf("%v", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		logf("%v", err)
		return 2
	}
	return compare(w, a, b)
}

func compare(w io.Writer, a, b []outcome) int {
	code := 0
	row := func(workload, name, unit, better string, bound float64, exact, traced bool) {
		xa, xb := valuesOf(a, workload, name, traced), valuesOf(b, workload, name, traced)
		if len(xa) == 0 || len(xb) == 0 {
			return
		}
		v := verdict(xa, xb, better, bound, exact)
		if v == "worse" {
			code = 1
		}
		limit := fmt.Sprintf("%.2f", bound)
		if exact {
			limit = "=="
		}
		ratio := 0.0
		if ma := median(xa); ma != 0 {
			ratio = median(xb) / ma
		}
		fmt.Fprintf(w, "%-13s %-32s %14.6g %14.6g %-6s b/a %7.4f  spread %5.3f/%5.3f  bound %-5s %s\n",
			workload, name, median(xa), median(xb), unit, ratio, spread(xa), spread(xb), limit, v)
	}
	fmt.Fprintf(w, "%-13s %-32s %14s %14s\n", "workload", "metric", "median a", "median b")
	for _, wl := range workloadDefs {
		for _, d := range endToEndDefs {
			row(wl.name, d.name, d.unit, d.better, d.bound, d.clock.exact(), false)
		}
	}
	for _, wl := range workloadDefs {
		for _, d := range layerDefs {
			if d.clock.exact() && d.measuredOn(wl.name) {
				row(wl.name, d.name, d.unit, d.better, 0, true, true)
			}
		}
	}
	return code
}
