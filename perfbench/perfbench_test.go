package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"yosompc/internal/telemetry"
	"yosompc/internal/tte"
)

// TestTracedMatchesUntraced pins the traced run to the program the timed
// runs measure: identical outputs on every workload, identical comm
// reports where byte counts are exact, and the batched-encryption path
// still taken on the real backend.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := newInstance(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := in.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := in.check(plain); err != nil {
				t.Fatal(err)
			}
			tr := telemetry.NewTracer()
			m, traced, err := in.tracedRun(tr, tr.Start("workload"))
			if err != nil {
				t.Fatal(err)
			}
			if err := in.check(traced); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(traced.outputs, plain.outputs) {
				t.Fatal("traced outputs differ from untraced outputs")
			}
			if w.exactBytes && !reflect.DeepEqual(traced.report, plain.report) {
				t.Fatalf("traced comm report differs:\n%v\nuntraced:\n%v", traced.report, plain.report)
			}
			if w.real && m["tte.encrypt_many.calls"] == 0 {
				t.Fatal("traced real run made no EncryptMany call: the decorator hid tte.BatchEncrypter")
			}
			if !w.real && m["modexp.table_hits"]+m["modexp.table_misses"] != 0 {
				t.Fatalf("sim run touched the modexp table cache: %v hits, %v misses",
					m["modexp.table_hits"], m["modexp.table_misses"])
			}
			if got := m["transport.posts"]; got == 0 {
				t.Fatal("board instrumentation saw no postings")
			}
		})
	}
}

func TestWrapTEKeepsBatchEncrypter(t *testing.T) {
	if _, ok := wrapTE(tte.NewSim(2048), &tteOps{}).(tte.BatchEncrypter); !ok {
		t.Fatal("wrapped Sim backend lost tte.BatchEncrypter")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 75 || v != 30 {
		t.Fatalf("tail of 1..40 = %v at p%d, want 30 at p75 (ten samples beyond)", v, p)
	}
	if v, p := tail(xs[:12]); p != 50 || v != 6.5 {
		t.Fatalf("tail of 1..12 = %v at p%d, want the median 6.5 at p50", v, p)
	}
}

func TestCovered(t *testing.T) {
	spans := []telemetry.SpanRecord{
		{StartUS: 0, DurUS: 10}, {StartUS: 5, DurUS: 10}, {StartUS: 30, DurUS: 5}, {StartUS: 90, DurUS: 20},
	}
	if got := covered(interval{0, 100}, spans); got != 15+5+10 {
		t.Fatalf("covered = %d, want 30", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v, want 2", got)
	}
}

// TestMetricsMatchBenchmarkJSON pins the metric names and units the
// program prints to the ones BENCHMARK.json declares, and checks that the
// end-to-end metrics are never 0.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	w, err := findWorkload("cdn-deep")
	if err != nil {
		t.Fatal(err)
	}
	in, err := newInstance(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	e2e := &result{Metrics: map[string]metric{}}
	tl := in.timedLoop(0, e2e)
	tl.putEndToEnd(e2e, []float64{0.5})
	layers := &result{Metrics: map[string]metric{}}
	if err := in.traced(tl, 0, "", layers); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		res  *result
		spec []struct{ Name, Unit string }
	}{{e2e, spec.EndToEnd}, {layers, spec.PerLayer}} {
		if len(c.res.Metrics) != len(c.spec) {
			t.Errorf("program reports %d metrics, BENCHMARK.json declares %d", len(c.res.Metrics), len(c.spec))
		}
		for _, m := range c.spec {
			got, ok := c.res.Metrics[m.Name]
			if !ok {
				t.Errorf("metric %s declared but not reported", m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
	}
	for name, m := range e2e.Metrics {
		if m.Value == 0 {
			t.Errorf("end-to-end metric %s reads 0", name)
		}
	}
}
