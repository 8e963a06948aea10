package main

import (
	"sort"
	"strings"
	"sync"
	"time"

	"yosompc/internal/comm"
	"yosompc/internal/modexp"
	"yosompc/internal/sharing"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
)

// categories are the board's byte categories, reported as
// transport.bytes.<category>.
var categories = []comm.Category{
	comm.CatBeaver, comm.CatLambda, comm.CatPacking, comm.CatPartial, comm.CatReshare,
	comm.CatReencrypt, comm.CatKFF, comm.CatProof, comm.CatMu, comm.CatInput,
	comm.CatOutput, comm.CatRoleKeys, comm.CatCRS, comm.CatManifest,
}

// offlineSteps and onlineSteps map the core package's step span names to
// metric names.
var (
	offlineSteps = []string{"beaver", "wire-randomness", "dependent-wires", "packing", "reencrypt-to-kffs"}
	onlineSteps  = []string{"input", "mu-layer"}
)

func metricName(s string) string { return strings.ReplaceAll(s, "-", "_") }

// boardTally counts postings as the board reports them.
type boardTally struct {
	mu     sync.Mutex
	sizes  []float64
	byCat  map[comm.Category]int64
	nByCat map[comm.Category]int64
}

func newBoardTally() *boardTally {
	return &boardTally{byCat: map[comm.Category]int64{}, nByCat: map[comm.Category]int64{}}
}

func (b *boardTally) observe(p transport.Posting) {
	b.mu.Lock()
	b.sizes = append(b.sizes, float64(p.Size))
	b.byCat[p.Category] += int64(p.Size)
	b.nByCat[p.Category]++
	b.mu.Unlock()
}

// tracedRun runs the workload once with every instrument attached and
// returns its per-layer metrics.
func (in *instance) tracedRun(tr *telemetry.Tracer, parent *telemetry.Span) (map[string]float64, *outcome, error) {
	reg := telemetry.NewRegistry()
	tops, pops := &tteOps{}, &pkeOps{}
	tally := newBoardTally()
	pr := &probes{trace: tr, metrics: reg, te: wrapTE(in.te, tops), pke: &pkeProbe{inner: in.pke, ops: pops},
		observe: tally.observe}
	pr.parent = parent.Child("run")

	// The pool's queue-depth gauge holds the latest value only, so its
	// maximum is sampled.
	stop := sampleMax(reg.Gauge("core.pool.queue_depth"))
	mh0, mm0 := modexp.CacheStats()
	sh0, sm0 := sharing.DomainCacheStats()
	from := time.Now().UnixMicro() - tr.EpochMicros()
	o, err := in.run(pr)
	to := time.Now().UnixMicro() - tr.EpochMicros()
	mh1, mm1 := modexp.CacheStats()
	sh1, sm1 := sharing.DomainCacheStats()
	qmax := stop()
	pr.parent.End()
	if err != nil {
		return nil, nil, err
	}

	m := map[string]float64{}
	tops.put(m)
	pops.put(m)
	putRatio(m, "modexp", "table", mh1-mh0, mm1-mm0)
	putRatio(m, "sharing", "domain", sh1-sh0, sm1-sm0)

	snap := reg.Snapshot()
	m["transport.posts"] = float64(snap.Counters["board.posts"])
	m["transport.post_bytes.p50"] = percentile(tally.sizes, 50)
	m["transport.post_bytes.p99"] = percentile(tally.sizes, 99)
	for _, c := range categories {
		m["transport.bytes."+string(c)] = float64(tally.byCat[c])
	}
	m["nizk.proof_posts"] = float64(tally.nByCat[comm.CatProof])
	m["yoso.committees"] = float64(tally.nByCat[comm.CatManifest])
	m["yoso.role_keys"] = float64(tally.nByCat[comm.CatRoleKeys])

	workers := float64(snap.Gauges["core.pool.workers"])
	busy := float64(snap.Counters["core.pool.busy_ns"])
	m["parallel.tasks"] = float64(snap.Counters["core.pool.tasks"])
	m["parallel.busy_ms"] = busy / 1e6
	m["parallel.utilization"] = 0
	if workers > 0 {
		m["parallel.utilization"] = busy / (workers * float64(o.total.Nanoseconds()))
	}
	taskNS := snap.Histograms["core.pool.task_ns"]
	m["parallel.task_ns_p50"] = taskNS.Quantile(0.50)
	m["parallel.task_ns_p99"] = taskNS.Quantile(0.99)
	m["parallel.queue_depth_max"] = float64(qmax)

	putSpanMetrics(m, spansBetween(tr.Spans(), from, to))
	m["core.excluded_roles"] = float64(len(o.excluded))
	m["baseline.run.ms"] = 0
	if in.w.baseline {
		m["baseline.run.ms"] = ms(o.total)
	}
	return m, o, nil
}

func putRatio(m map[string]float64, layer, kind string, hits, misses int64) {
	m[layer+"."+kind+"_hits"] = float64(hits)
	m[layer+"."+kind+"_misses"] = float64(misses)
	m[layer+".hit_ratio"] = 0
	if hits+misses > 0 {
		m[layer+".hit_ratio"] = float64(hits) / float64(hits+misses)
	}
}

// sampleMax polls g every 200µs until the returned stop is called, which
// waits for the poller to exit and returns the largest value seen.
func sampleMax(g *telemetry.Gauge) (stop func() int64) {
	done := make(chan struct{})
	res := make(chan int64, 1)
	go func() {
		var max int64
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			if v := g.Value(); v > max {
				max = v
			}
			select {
			case <-done:
				res <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 { close(done); return <-res }
}

// spansBetween keeps the spans that started inside [from, to] (tracer
// microseconds).
func spansBetween(all []telemetry.SpanRecord, from, to int64) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, s := range all {
		if s.StartUS >= from && s.StartUS <= to {
			out = append(out, s)
		}
	}
	return out
}

// putSpanMetrics derives the core.* metrics from one run's spans. The
// core package opens step, committee and batch spans all as children of the
// phase span, so a step's children are its own children plus the phase
// siblings that lie inside its interval; self time is the step's duration
// minus the union of its children's intervals.
func putSpanMetrics(m map[string]float64, spans []telemetry.SpanRecord) {
	for _, p := range []string{"setup", "offline", "online"} {
		m["core."+p+".ms"] = 0
	}
	for _, s := range offlineSteps {
		m["core.offline."+metricName(s)+".ms"] = 0
	}
	for _, s := range append(onlineSteps, "output") {
		m["core.online."+metricName(s)+".ms"] = 0
	}
	for _, k := range []string{"core.committee.ms", "core.pack_batch.ms", "core.reconstruct_batch.ms",
		"core.member.busy_ms", "core.committee_steps"} {
		m[k] = 0
	}

	byParent := map[uint64][]telemetry.SpanRecord{}
	for _, s := range spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "phase:"):
			m["core."+strings.TrimPrefix(s.Name, "phase:")+".ms"] += float64(s.DurUS) / 1e3
			if s.Name == "phase:online" {
				m["core.online.output.ms"] += outputSelfMS(s, byParent[s.ID])
			}
		case strings.HasPrefix(s.Name, "offline:"):
			m["core.offline."+metricName(strings.TrimPrefix(s.Name, "offline:"))+".ms"] += selfMS(s, byParent)
		case s.Name == "input" || s.Name == "mu-layer":
			m["core.online."+metricName(s.Name)+".ms"] += selfMS(s, byParent)
			if s.Name == "mu-layer" && !containsCommittee(s, byParent[s.Parent]) {
				// A robust μ layer runs its committee inline, without a
				// committee span; it is still one committee step.
				m["core.committee_steps"]++
			}
		case strings.HasPrefix(s.Name, "committee:"):
			m["core.committee_steps"]++
			m["core.committee.ms"] += float64(s.DurUS) / 1e3
		case s.Name == "pack-batch":
			m["core.pack_batch.ms"] += float64(s.DurUS) / 1e3
		case s.Name == "reconstruct-batch":
			m["core.reconstruct_batch.ms"] += float64(s.DurUS) / 1e3
		case s.Name == "member":
			m["core.member.busy_ms"] += float64(s.DurUS) / 1e3
		}
	}
}

func containsCommittee(s telemetry.SpanRecord, siblings []telemetry.SpanRecord) bool {
	for _, sib := range siblings {
		if strings.HasPrefix(sib.Name, "committee:") && sib.StartUS >= s.StartUS && end(sib) <= end(s) {
			return true
		}
	}
	return false
}

type interval struct{ lo, hi int64 }

func end(s telemetry.SpanRecord) int64 { return s.StartUS + s.DurUS }

// selfMS is s's duration minus the part its children cover.
func selfMS(s telemetry.SpanRecord, byParent map[uint64][]telemetry.SpanRecord) float64 {
	kids := append([]telemetry.SpanRecord(nil), byParent[s.ID]...)
	for _, sib := range byParent[s.Parent] {
		if sib.ID != s.ID && sib.StartUS >= s.StartUS && end(sib) <= end(s) {
			kids = append(kids, sib)
		}
	}
	return float64(s.DurUS-covered(interval{s.StartUS, end(s)}, kids)) / 1e3
}

// outputSelfMS is the online phase's tail after its last input or
// μ-layer step (core opens no span around the output step), minus
// the committee steps inside it.
func outputSelfMS(phase telemetry.SpanRecord, kids []telemetry.SpanRecord) float64 {
	lo := phase.StartUS
	for _, k := range kids {
		if (k.Name == "input" || k.Name == "mu-layer") && end(k) > lo {
			lo = end(k)
		}
	}
	win := interval{lo, end(phase)}
	return float64(win.hi-win.lo-covered(win, kids)) / 1e3
}

// covered is the length of win covered by the union of the spans'
// intervals.
func covered(win interval, spans []telemetry.SpanRecord) int64 {
	var ivs []interval
	for _, s := range spans {
		lo, hi := max(s.StartUS, win.lo), min(end(s), win.hi)
		if hi > lo {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, iv := range ivs {
		if i == 0 || iv.lo > curHi {
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		} else if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	return total + curHi - curLo
}
