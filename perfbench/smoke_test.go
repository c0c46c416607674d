package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

// tiny shrinks a workload to a campaign of a few hundred tags and three
// server sessions.
func tiny(w workload) workload {
	w.campaign.tags = min(w.campaign.tags, 300)
	w.campaign.runs = 1
	w.server.churnSessions = 2
	w.server.conveyorSessions = 1
	w.server.conveyorCycles = 1
	return w
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				var out, errs bytes.Buffer
				res, err := runBench(tiny(w), options{seed: 3, trace: trace, out: t.TempDir()}, &out, &errs)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct %v, %d of %d operations failed:\n%s", res.Correct, res.Failed, res.Attempted, errs.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s missing from the result", name)
					}
					if !strings.Contains(out.String(), "  "+name+" ") {
						t.Errorf("metric %s not printed by name", name)
					}
				}
			})
		}
	}
}

func TestBrokenAccountingIsAFailure(t *testing.T) {
	idents := func(n int, dup bool) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%024x", i)
		}
		if dup && n > 1 {
			out[1] = out[0]
		}
		return out
	}
	cases := []struct {
		name   string
		st     sessionStatus
		idents []string
		fails  bool
	}{
		{"sound", sessionStatus{Admitted: 100, Identified: 90, Departed: 3, Active: 7}, idents(90, false), false},
		{"tag lost from the ledger", sessionStatus{Admitted: 100, Identified: 90, Departed: 3, Active: 6}, idents(90, false), true},
		{"admission forgotten", sessionStatus{Admitted: 96, Identified: 90, Departed: 0, Active: 6}, idents(90, false), true},
		{"duplicate ident", sessionStatus{Admitted: 100, Identified: 90, Departed: 3, Active: 7}, idents(90, true), true},
		{"duplicate counted", sessionStatus{Admitted: 100, Identified: 90, Departed: 3, Active: 7, DupIdents: 1}, idents(90, false), true},
	}
	for _, c := range cases {
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/idents") {
				json.NewEncoder(w).Encode(map[string]any{"idents": c.idents})
				return
			}
			json.NewEncoder(w).Encode(c.st)
		})
		tl := &tally{w: io.Discard}
		auditSession(h, "s-1", 100, tl)
		if tl.attempted.Load() != 1 {
			t.Errorf("%s: %d operations attempted, want 1", c.name, tl.attempted.Load())
		}
		if got := tl.failed.Load() == 1; got != c.fails {
			t.Errorf("%s: reported as failed %v, want %v", c.name, got, c.fails)
		}
	}
}
