package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"yosompc/internal/baseline"
	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/core"
	"yosompc/internal/field"
	"yosompc/internal/paillier"
	"yosompc/internal/pke"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// workload is one benchmark input set: a circuit shape, a committee, a
// backend and an adversary mix. The workload seed (a command-line
// argument) sets the client inputs and the adversary's Seed; nothing else
// depends on it.
type workload struct {
	name string
	// real selects threshold Paillier (512-bit fixed key) + ECIES-X25519;
	// otherwise the Sim backends model 2048-bit Paillier sizes.
	real bool
	// baseline runs the CDN baseline (internal/baseline) instead of the
	// packed protocol.
	baseline     bool
	n, t, k      int
	width, depth int
	// malicious and failStops are per committee.
	malicious, failStops int
	robust               bool
	// exactBytes marks workloads whose board byte counts repeat exactly;
	// real-backend big-int encodings vary by a few bytes per run.
	exactBytes bool
}

var workloads = []*workload{
	{name: "real-n16", real: true, n: 16, t: 3, k: 4, width: 16, depth: 1},
	{name: "sim-wide-n64", n: 64, t: 15, k: 8, width: 256, depth: 1, exactBytes: true},
	{name: "sim-deep-adv", n: 32, t: 7, k: 4, width: 8, depth: 32,
		malicious: 3, failStops: 4, robust: true, exactBytes: true},
	{name: "cdn-deep", baseline: true, n: 32, t: 7, width: 8, depth: 32,
		malicious: 3, failStops: 4, exactBytes: true},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// adversarial reports whether the workload corrupts committees; such
// runs must exclude at least one role.
func (w *workload) adversarial() bool { return w.malicious > 0 || w.failStops > 0 }

// instance is a workload made concrete for one seed: backends, circuit,
// inputs and the expected outputs from circuit.Eval.
type instance struct {
	w      *workload
	seed   int64
	te     core.TE
	pke    pke.Scheme
	circ   *circuit.Circuit
	inputs map[int][]field.Element
	want   map[int][]field.Element
}

func newInstance(w *workload, seed int64) (*instance, error) {
	in := &instance{w: w, seed: seed}
	if w.real {
		te, err := tte.NewThreshold(paillier.FixedTestKey(0))
		if err != nil {
			return nil, err
		}
		in.te, in.pke = te, pke.NewECIES()
	} else {
		in.te, in.pke = tte.NewSim(2048), pke.NewSim()
	}
	circ, err := circuit.WideMul(w.width, w.depth)
	if err != nil {
		return nil, err
	}
	in.circ = circ
	rng := rand.New(rand.NewSource(seed))
	in.inputs = map[int][]field.Element{}
	for _, c := range circ.Clients() {
		vals := make([]field.Element, circ.InputCount(c))
		for i := range vals {
			vals[i] = field.New(rng.Uint64())
		}
		in.inputs[c] = vals
	}
	if in.want, err = circ.Eval(in.inputs); err != nil {
		return nil, err
	}
	return in, nil
}

// probes are the traced run's instruments. A nil *probes is a timed run:
// no tracer, no registry, no decorators.
type probes struct {
	trace   *telemetry.Tracer
	metrics *telemetry.Registry
	te      core.TE
	pke     *pkeProbe
	parent  *telemetry.Span
	observe func(transport.Posting)
}

// outcome is one protocol run as the benchmark sees it.
type outcome struct {
	prepare, online, total time.Duration
	outputs                map[int][]field.Element
	report                 comm.Report
	excluded               []string
	// board keeps the run's board reachable for heap_live_mb.
	board *transport.Board
}

// run executes the workload once: core.New → Prepare → Execute, or
// baseline.New → Run.
func (in *instance) run(pr *probes) (*outcome, error) {
	if in.w.baseline {
		return in.runBaseline(pr)
	}
	return in.runCore(pr)
}

func (in *instance) adversary() *yoso.Adversary {
	if !in.w.adversarial() {
		return nil
	}
	return yoso.NewAdversary(in.w.malicious, in.w.failStops, in.seed)
}

func (in *instance) runCore(pr *probes) (*outcome, error) {
	params := core.Params{N: in.w.n, T: in.w.t, K: in.w.k, TE: in.te, PKE: in.pke,
		Adversary: in.adversary(), Robust: in.w.robust}
	if pr != nil {
		params.TE, params.PKE = pr.te, pr.pke
		params.Trace, params.Metrics = pr.trace, pr.metrics
	}
	proto, err := core.New(params, in.circ, nil)
	if err != nil {
		return nil, err
	}
	if pr != nil {
		proto.Board().Instrument(pr.metrics)
		proto.Board().Observe(pr.observe)
	}
	sp := pr.span("prepare")
	t0 := time.Now()
	prep, err := proto.Prepare()
	t1 := time.Now()
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = pr.span("execute")
	res, err := prep.Execute(in.inputs)
	t2 := time.Now()
	sp.End()
	if err != nil {
		return nil, err
	}
	return &outcome{prepare: t1.Sub(t0), online: t2.Sub(t1), total: t2.Sub(t0),
		outputs: res.Outputs, report: res.Report, excluded: res.Excluded, board: proto.Board()}, nil
}

// runBaseline runs the CDN baseline. It has no Prepare/Execute split, so
// its offline/online boundary is the first online-phase posting, read
// through Board.Observe (the only hook on a timed run, one comparison per
// posting).
func (in *instance) runBaseline(pr *probes) (*outcome, error) {
	params := baseline.Params{N: in.w.n, T: in.w.t, TE: in.te, PKE: in.pke, Adversary: in.adversary()}
	if pr != nil {
		params.TE, params.PKE = pr.te, pr.pke
	}
	proto, err := baseline.New(params, in.circ, nil)
	if err != nil {
		return nil, err
	}
	var online time.Time
	proto.Board().Observe(func(p transport.Posting) {
		if online.IsZero() && p.Phase == comm.PhaseOnline {
			online = time.Now()
		}
	})
	if pr != nil {
		proto.Board().Instrument(pr.metrics)
		proto.Board().Observe(pr.observe)
	}
	sp := pr.span("run")
	t0 := time.Now()
	res, err := proto.Run(in.inputs)
	t2 := time.Now()
	sp.End()
	if err != nil {
		return nil, err
	}
	if online.IsZero() {
		return nil, fmt.Errorf("baseline posted nothing in the online phase")
	}
	return &outcome{prepare: online.Sub(t0), online: t2.Sub(online), total: t2.Sub(t0),
		outputs: res.Outputs, report: res.Report, excluded: res.Excluded, board: proto.Board()}, nil
}

// check is the correctness gate: outputs equal circuit.Eval on the same
// inputs, and adversarial workloads exclude at least one role.
func (in *instance) check(o *outcome) error {
	if !reflect.DeepEqual(o.outputs, in.want) {
		return fmt.Errorf("%s: outputs differ from circuit.Eval", in.w.name)
	}
	if in.w.adversarial() && len(o.excluded) == 0 {
		return fmt.Errorf("%s: adversarial run excluded no role", in.w.name)
	}
	return nil
}

// span opens a benchmark span under the traced run's current parent; nil
// (a no-op) on timed runs.
func (pr *probes) span(name string) *telemetry.Span {
	if pr == nil {
		return nil
	}
	return pr.parent.Child(name)
}
