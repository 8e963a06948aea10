// Command perfbench is the repository benchmark. It runs one workload in
// a closed loop with one client — the next protocol run starts only after
// the previous one returns — inside this process, with the worker pool at
// its default of one worker per CPU. It drives core.New → Prepare →
// Execute (or baseline.New → Run) on inputs generated from -seed, checks
// every run against circuit.Eval, prints every metric by name with its
// unit, and ends with one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics of untraced runs. With
// -trace 1 it also runs the workload again with a shared tracer, a
// metrics registry and timing decorators on the tte and pke layers, and
// reports the per-layer metrics of those traced runs. METRICS.md lists
// every metric and the end-to-end metric each layer metric should move.
//
//	go build -o perfbench . && ./perfbench -workload sim-deep-adv -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"yosompc/internal/comm"
	"yosompc/internal/telemetry"
)

// processStart is the earliest instant the benchmark can observe; setup_s
// runs from here to the first timed run.
var processStart = time.Now()

// warmupRuns fill the process-global modexp-table and sharing-domain
// caches before timing; their cost is part of setup_s.
const warmupRuns = 1

// setupProbes is the number of extra fresh processes whose set-up is
// timed; setup_s is the median over them and the measuring process.
const setupProbes = 2

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: client inputs and the adversary's Seed")
	seconds := flag.Float64("seconds", 10, "measuring time of the timed loop")
	trace := flag.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
	traceDir := flag.String("trace-dir", "", "directory for the traced run's span file")
	probe := flag.Bool("setup-probe", false, "set up, print setup_s and exit")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	in, err := setup(w, *seed)
	if err != nil {
		fatal(err)
	}
	setupS := time.Since(processStart).Seconds()
	if *probe {
		fmt.Println(strconv.FormatFloat(setupS, 'g', -1, 64))
		return
	}

	res := &result{Metrics: map[string]metric{}}
	tl := in.timedLoop(time.Duration(*seconds*float64(time.Second)), res)
	if *trace == 1 {
		if err := in.traced(tl, time.Duration(*seconds*float64(time.Second)/2), *traceDir, res); err != nil {
			fatal(err)
		}
	} else {
		// Hand the loop's heap back before fresh processes start, so two
		// large heaps do not overlap.
		debug.FreeOSMemory()
		samples := []float64{setupS}
		for i := 0; i < setupProbes; i++ {
			s, err := probeSetup(w.name, *seed)
			if err != nil {
				fatal(err)
			}
			samples = append(samples, s)
		}
		tl.putEndToEnd(res, samples)
	}
	res.Correct = res.Failed == 0
	res.print()
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// setup builds the workload's backends, circuit and inputs and runs the
// warm-up runs.
func setup(w *workload, seed int64) (*instance, error) {
	in, err := newInstance(w, seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < warmupRuns; i++ {
		o, err := in.run(nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
		if err := in.check(o); err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
	}
	return in, nil
}

// probeSetup times set-up in a fresh process: the modexp and sharing
// caches are process-global, so only a new process pays their warm-up.
func probeSetup(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(self, "-setup-probe", "-workload", name, "-seed", strconv.FormatInt(seed, 10)).Output()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// timed holds the samples of the untraced loop.
type timed struct {
	runs, failed               int
	gates                      float64 // mul gates per run
	wall                       time.Duration
	total, prepare, online     []float64 // ms
	offBytes, onBytes, allocMB []float64 // per run
	heapLiveMB                 float64
	gcCycles, gcPauseNS        float64 // whole loop
	allocObjects               float64 // whole loop
}

var (
	allocBytes   = "/gc/heap/allocs:bytes"
	allocObjects = "/gc/heap/allocs:objects"
	gcCycles     = "/gc/cycles/total:gc-cycles"
	heapLive     = "/gc/heap/live:bytes"
)

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// timedLoop runs the workload back to back for d (at least three runs)
// with no tracer, registry or decorator attached.
func (in *instance) timedLoop(d time.Duration, res *result) *timed {
	tl := &timed{gates: float64(in.circ.NumMul())}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	loop0 := readMetrics(allocObjects, gcCycles)
	var last *outcome
	start := time.Now()
	for tl.runs < 3 || time.Since(start) < d {
		a0 := readMetrics(allocBytes)[0].Value.Uint64()
		o, err := in.run(nil)
		a1 := readMetrics(allocBytes)[0].Value.Uint64()
		tl.runs++
		if err == nil {
			err = in.check(o)
		}
		if err != nil {
			tl.failed++
			fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
			continue
		}
		last = o
		tl.total = append(tl.total, ms(o.total))
		tl.prepare = append(tl.prepare, ms(o.prepare))
		tl.online = append(tl.online, ms(o.online))
		tl.offBytes = append(tl.offBytes, float64(o.report.Phase(comm.PhaseSetup)+o.report.Phase(comm.PhaseOffline))/tl.gates)
		tl.onBytes = append(tl.onBytes, float64(o.report.Phase(comm.PhaseOnline))/tl.gates)
		tl.allocMB = append(tl.allocMB, float64(a1-a0)/(1<<20))
	}
	tl.wall = time.Since(start)
	loop1 := readMetrics(allocObjects, gcCycles)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	tl.allocObjects = float64(loop1[0].Value.Uint64() - loop0[0].Value.Uint64())
	tl.gcCycles = float64(loop1[1].Value.Uint64() - loop0[1].Value.Uint64())
	tl.gcPauseNS = float64(ms1.PauseTotalNs - ms0.PauseTotalNs)
	// Live heap after a run, with that run's board still reachable.
	runtime.GC()
	tl.heapLiveMB = float64(readMetrics(heapLive)[0].Value.Uint64()) / (1 << 20)
	runtime.KeepAlive(last)
	res.Attempted += tl.runs
	res.Failed += tl.failed
	return tl
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// putEndToEnd reports the end-to-end metrics of the timed loop.
func (tl *timed) putEndToEnd(res *result, setupSamples []float64) {
	fmt.Printf("runs %d in %.3f s, setup samples %v s, nproc %d\n",
		tl.runs, tl.wall.Seconds(), setupSamples, runtime.NumCPU())
	runTail, runPct := tail(tl.total)
	onTail, onPct := tail(tl.online)
	fmt.Printf("run_ms_tail resolves to p%d of %d runs, online_ms_tail to p%d of %d runs\n",
		runPct, len(tl.total), onPct, len(tl.online))
	fmt.Printf("run_ms samples %.1f\n", tl.total)
	fmt.Printf("online_ms samples %.1f\n", tl.online)
	ok := float64(tl.runs - tl.failed)
	res.put("setup_s", median(setupSamples), "s")
	res.put("run_ms_p50", median(tl.total), "ms")
	res.put("run_ms_tail", runTail, "ms")
	res.put("prepare_ms_p50", median(tl.prepare), "ms")
	res.put("online_ms_p50", median(tl.online), "ms")
	res.put("online_ms_tail", onTail, "ms")
	res.put("mul_gates_per_s", ok*tl.gates/tl.wall.Seconds(), "1/s")
	res.put("offline_bytes_per_gate", median(tl.offBytes), "B")
	res.put("online_bytes_per_gate", median(tl.onBytes), "B")
	res.put("alloc_mb_per_run", median(tl.allocMB), "MB")
	res.put("heap_live_mb", tl.heapLiveMB, "MB")
	fmt.Printf("metric fail_ratio = %g ratio (reported as failed/attempted)\n",
		float64(tl.failed)/float64(tl.runs))
}

// traced runs the workload again with every instrument for d (at least
// two runs) and reports the per-layer medians.
func (in *instance) traced(tl *timed, d time.Duration, dir string, res *result) error {
	tr := telemetry.NewTracer()
	root := tr.Start("workload:" + in.w.name)
	root.SetInt("seed", in.seed)
	var per []map[string]float64
	var runMS []float64
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < d; n++ {
		m, o, err := in.tracedRun(tr, root)
		res.Attempted++
		if err == nil {
			err = in.check(o)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: traced run failed:", err)
			continue
		}
		per = append(per, m)
		runMS = append(runMS, ms(o.total))
	}
	root.End()
	if len(per) == 0 {
		return fmt.Errorf("no traced run succeeded")
	}
	runs := float64(tl.runs)
	keys := make([]string, 0, len(per[0]))
	for k := range per[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var xs []float64
		for _, m := range per {
			xs = append(xs, m[k])
		}
		res.put(k, median(xs), unitOf(k))
	}
	res.put("runtime.gc_cycles", tl.gcCycles/runs, "count")
	res.put("runtime.gc_pause_ms", tl.gcPauseNS/1e6/runs, "ms")
	res.put("runtime.alloc_objects", tl.allocObjects/runs, "count")
	res.put("trace.overhead_ratio", median(runMS)/median(tl.total), "ratio")
	fmt.Printf("traced runs %d, untraced runs %d\n", len(per), tl.runs)
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return telemetry.WriteTraceFile(filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", in.w.name, in.seed)), tr)
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, ".ms") || strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.Contains(name, "_ns_"):
		return "ns"
	case strings.HasSuffix(name, "ratio") || strings.HasSuffix(name, "utilization"):
		return "ratio"
	case strings.HasPrefix(name, "transport.bytes.") || strings.HasPrefix(name, "transport.post_bytes."):
		return "B"
	}
	return "count"
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %s = %s %s\n", name, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

func (r *result) print() {
	b, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
