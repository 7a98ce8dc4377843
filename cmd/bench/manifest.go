package main

import "encoding/json"

// The manifest is BENCHMARK.json: the driver's view of this benchmark.
// Its field set and order are the driver's contract.
type manifestFile struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

func manifestJSON() []byte {
	m := manifestFile{
		Command:    []string{"go", "run", "./cmd/bench"},
		Paths:      []string{"cmd/bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWorkload{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range layerDefs {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.name, d.unit, d.better, nil})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // the tables hold only strings and floats
	}
	return append(out, '\n')
}
