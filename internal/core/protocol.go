package core

import (
	"context"
	"fmt"
	"math/big"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/modexp"
	"yosompc/internal/nizk"
	"yosompc/internal/parallel"
	"yosompc/internal/pke"
	"yosompc/internal/sharing"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// Protocol is a configured instance of the paper's YOSO MPC protocol for
// one circuit. Create it with New and execute it with Run.
type Protocol struct {
	params Params
	circ   *circuit.Circuit
	board  *transport.Board
	assign *yoso.Assignment
	auth   *nizk.Authority
	audit  *Auditor
}

// Result is the outcome of a protocol run.
type Result struct {
	// Outputs maps each client to its output values in gate order.
	Outputs map[int][]field.Element
	// Report is the communication breakdown of the run.
	Report comm.Report
	// Excluded lists roles whose proofs failed verification (malicious)
	// and roles that never spoke (fail-stop).
	Excluded []string
	// Audit is the key-usage trace (paper Figure 1).
	Audit []AuditEvent
	// Rounds is the number of sequential broadcast rounds (committee
	// speaks; parallel client speaks count as one round).
	Rounds int
}

// New configures a protocol run. A nil meter creates a private one.
func New(params Params, circ *circuit.Circuit, meter *comm.Meter) (*Protocol, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if circ == nil {
		return nil, fmt.Errorf("%w: nil circuit", ErrBadParams)
	}
	auth, err := nizk.NewAuthority()
	if err != nil {
		return nil, err
	}
	board := transport.NewBoard(meter)
	board.SetProc(params.Proc)
	assign := yoso.NewAssignment(board, params.PKE, params.Adversary)
	// Committee manifests advertise the packed reconstruction quorum, so a
	// board observer knows how many fail-stops each committee tolerates.
	assign.Quorum = params.ReconstructionThreshold()
	return &Protocol{
		params: params,
		circ:   circ,
		board:  board,
		assign: assign,
		auth:   auth,
		audit:  &Auditor{},
	}, nil
}

// Board exposes the bulletin board (for inspection in tests and tools).
func (p *Protocol) Board() *transport.Board { return p.board }

// Run executes setup, offline and online phases and returns the outputs.
// It is Prepare followed by a single Execute; callers that want the
// deployment-realistic split (preprocess ahead of time, run online when
// inputs arrive) use those directly.
func (p *Protocol) Run(inputs map[int][]field.Element) (*Result, error) {
	for _, client := range p.circ.Clients() {
		if len(inputs[client]) != p.circ.InputCount(client) {
			return nil, fmt.Errorf("%w: client %d supplied %d of %d inputs",
				ErrWrongInputs, client, len(inputs[client]), p.circ.InputCount(client))
		}
	}
	prepared, err := p.Prepare()
	if err != nil {
		return nil, err
	}
	return prepared.Execute(inputs)
}

// beaverTriple holds the tpk-encrypted triple of one multiplication gate.
type beaverTriple struct {
	a, b, c tte.Ciphertext
}

// batchState carries everything the protocol accumulates for one batch of
// (at most) k multiplication gates.
type batchState struct {
	circuit.MulBatch
	// k is the effective packing width (may be below params.K on the
	// tail batch of a layer).
	k int
	// helpers[kind][j] are the summed helper encryptions for packing
	// (kind 0 = left λ, 1 = right λ, 2 = Γ), t per vector.
	helpers [][]tte.Ciphertext
	// packed[kind] are the per-index packed-share ciphertexts under tpk
	// (offline Step 4), kind 0 = left λ, 1 = right λ, 2 = Γ.
	packed [3][]tte.Ciphertext
	// env[kind][i] is the Re-encrypt envelope set addressed to online
	// role i+1's KFF (offline Step 6): one envelope per accepted member
	// of the re-encrypting committee, carrying a partial decryption.
	env [3][][]pke.Ciphertext
}

// run is the mutable state of one protocol execution.
type run struct {
	p *Protocol
	// ctx cancels the run between committee steps.
	ctx context.Context

	// committees (see the schedule in the package comment)
	offB1, offB2, offR, offDec, offRe *yoso.Committee
	// offBridge holds tsk across the offline/online boundary: OffRe can
	// then speak entirely within the offline phase (all its targets are
	// KFFs and offBridge's role keys), and only this single-purpose
	// committee waits for the online role keys.
	offBridge   *yoso.Committee
	onC1, onOut *yoso.Committee
	layers      []*yoso.Committee

	// clients
	clients map[int]*clientState

	// threshold encryption state
	tpk tte.PublicKey
	// tskShares holds the current committee's reconstructed shares while
	// the driver executes that committee's step; the dealer's epoch-0
	// shares go to offDec.
	offDecShares []tte.KeyShare
	// handoffs[committee name][i-1] collects the sealed tsk subshares
	// addressed to that committee's member i.
	handoffs map[string][][]pke.Ciphertext

	// keys-for-future: one per online mul-layer role and one per client
	kffLayer  [][]kffEntry // [layer][index-1]
	kffClient map[int]*kffEntry

	// per-wire λ ciphertexts under tpk
	wireCt []tte.Ciphertext

	// per-mul-gate Beaver triples (indexed by gate index in circ.Gates())
	beaver map[int]*beaverTriple

	// per-mul-gate Γ ciphertexts (λ^α·λ^β − λ^γ under tpk)
	gammaCt map[int]tte.Ciphertext

	// batches in layer order
	batches []*batchState

	// input-wire λ envelopes: for each input gate index, the Re-encrypt
	// envelopes addressed to the owning client's KFF.
	inputEnv map[int][]pke.Ciphertext

	// public μ values per wire
	mu      []field.Element
	muKnown []bool

	// eng runs every speaking step and records the excluded roles.
	eng yoso.Engine
	// w sizes every step message and every malicious member's lie.
	w yoso.Widths

	// telemetry (all nil when disabled — every use is a nil-receiver
	// no-op, so the hot paths stay allocation-free without branching)
	rootSp  *telemetry.Span // whole-run span
	phaseSp *telemetry.Span // currently open phase span
	obs     parallel.Observer
}

// clientState is the driver's view of one client (an input/output role).
type clientState struct {
	id   int
	role *yoso.Role
}

// kffEntry is one key-for-future: the public key, the TEnc of the secret,
// and (after OnC1's step) the envelope re-encrypting the secret to the
// owner's role key.
type kffEntry struct {
	pub       pke.PublicKey
	secretCt  tte.Ciphertext
	delivered []pke.Ciphertext // partial-decryption envelopes under the owner's role key
}

// --- shared helpers ---------------------------------------------------

// stepMsg is one speaker's message: flat slices that encode as
// cts ‖ parts ‖ envs ‖ mus. Each step fixes the order within every slice,
// so consumers read an item by its position (docs/WIRE.md lists the
// layouts); envs ends with the tsk hand-off, member j's subshare at
// len(envs)-n+j-1.
type stepMsg struct {
	cts   []tte.Ciphertext
	parts []tte.PartialDec
	envs  []pke.Ciphertext
	mus   []field.Element
}

// encode produces the message's board bytes in one buffer, sized from
// the item widths. It takes only the codecs and the widths, never secret
// run state: everything a message encodes is public (ciphertexts,
// partials of openings, sealed envelopes, masked openings).
func (m stepMsg) encode(p *Params, w yoso.Widths) ([]byte, error) {
	size := w.Of(yoso.Shape{Cts: len(m.cts), Parts: len(m.parts), Elems: len(m.mus)})
	for _, e := range m.envs {
		size += e.Size()
	}
	out := make([]byte, 0, size)
	for _, ct := range m.cts {
		enc, err := p.TE.EncodeCiphertext(ct)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	for _, part := range m.parts {
		enc, err := p.TE.EncodePartial(part)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	for _, e := range m.envs {
		enc, err := p.PKE.EncodeCiphertext(e)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	return field.AppendVecBytes(out, m.mus), nil
}

// logStep emits a structured progress event when a logger is configured.
// Events under an open phase span carry its ID, so log lines and trace
// files cross-reference.
func (r *run) logStep(label string, attrs ...any) {
	r.logSpan(r.phaseSp, label, attrs...)
}

// logSpan is logStep against an explicit span (phase transitions log
// against the span they open, not the one they close).
func (r *run) logSpan(sp *telemetry.Span, label string, attrs ...any) {
	if lg := r.p.params.Logger; lg != nil {
		if id := sp.ID(); id != 0 {
			attrs = append([]any{"span", id}, attrs...)
		}
		lg.Info("yosompc: "+label, attrs...)
	}
}

// initTelemetry opens the run's root span, bridges the tracer to the
// board meter (spans then carry byte deltas), and builds the worker-pool
// observer. With telemetry disabled everything stays nil.
func (r *run) initTelemetry() {
	pr := &r.p.params
	pr.Trace.BindMeter(r.p.board.Meter())
	// Name the trace export after the process so merged cross-process
	// views attribute this run's spans (the board already carries Proc on
	// every posting via SetProc in New).
	if pr.Proc != "" {
		pr.Trace.SetProc(pr.Proc)
	}
	r.rootSp = pr.Trace.Start("protocol")
	r.p.board.SetTraceSpan(r.rootSp.ID())
	r.rootSp.SetInt("n", int64(pr.N))
	r.rootSp.SetInt("t", int64(pr.T))
	r.rootSp.SetInt("k", int64(pr.K))
	r.rootSp.SetInt("workers", int64(pr.EffectiveWorkers()))
	if pr.Metrics != nil {
		r.obs = telemetry.NewPoolStats(pr.Metrics, "core.pool", pr.EffectiveWorkers())
		// Mirror the share-algebra domain-cache and modexp table-cache
		// counters into this run's registry (process-global caches: last
		// instrumented run wins).
		sharing.Instrument(pr.Metrics)
		modexp.Instrument(pr.Metrics)
	}
}

// beginPhase opens a phase span (setup/offline/online) under the run
// root; step spans child from it until endPhase.
func (r *run) beginPhase(name string) *telemetry.Span {
	r.phaseSp = r.rootSp.Child("phase:" + name)
	// Postings made during the phase carry the phase span's ID in their
	// trace context, linking board entries back to this trace.
	r.p.board.SetTraceSpan(r.phaseSp.ID())
	return r.phaseSp
}

// endPhase closes the current phase span.
func (r *run) endPhase() {
	r.phaseSp.End()
	r.phaseSp = nil
	r.p.board.SetTraceSpan(r.rootSp.ID())
}

// stepSpan opens a span under the current phase (or the run root outside
// any phase). Nil — and allocation-free — when tracing is disabled.
func (r *run) stepSpan(name string) *telemetry.Span { return r.stepParent().Child(name) }

// stepParent is the span steps child from: the open phase, else the run
// root.
func (r *run) stepParent() *telemetry.Span {
	if r.phaseSp != nil {
		return r.phaseSp
	}
	return r.rootSp
}

// pfor fans fn over the run's worker pool, feeding per-task events to
// the pool observer when metrics are enabled.
func (r *run) pfor(n int, fn func(i int) error) error {
	return parallel.ForObserved(r.ctx, r.workers(), n, fn, r.obs)
}

// workers resolves the run's worker-pool size (see Params.Workers).
func (r *run) workers() int { return r.p.params.EffectiveWorkers() }

// stepOf builds an engine step from core's messages: honest members post
// their encoded message, malicious members a lie as wide as a message of
// shape lie.
func (r *run) stepOf(phase comm.Phase, cat comm.Category, label string,
	honest func(i int) (stepMsg, error), lie yoso.Shape) yoso.Step {
	return yoso.Step{
		Phase: phase,
		Cat:   cat,
		Label: label,
		Honest: func(i int) (yoso.Msg, error) {
			m, err := honest(i)
			if err != nil {
				return yoso.Msg{}, err
			}
			return r.msg(m)
		},
		Malicious: r.w.Lie(lie),
	}
}

// msg hands m to the engine: the value the driver reads back, and the
// bytes that go on the board.
func (r *run) msg(m stepMsg) (yoso.Msg, error) {
	enc, err := m.encode(&r.p.params, r.w)
	return yoso.Msg{Payload: m, Wire: enc}, err
}

// committeeStep runs one proof-carrying committee step on the run's
// engine and returns the verified messages in member order; excluded
// members land in the engine's record.
func (r *run) committeeStep(c *yoso.Committee, phase comm.Phase, cat comm.Category, label string,
	honest func(i int) (stepMsg, error), lie yoso.Shape) ([]stepMsg, error) {
	posts, err := r.eng.Run(r.stepParent(), c, r.stepOf(phase, cat, label, honest, lie))
	if err != nil {
		return nil, err
	}
	msgs := make([]stepMsg, 0, len(posts))
	for i := 1; i <= c.N(); i++ {
		if m, ok := posts[i]; ok {
			msgs = append(msgs, m.(stepMsg))
		}
	}
	return msgs, nil
}

// reduceToField maps a decrypted integer to the MPC field.
func reduceToField(v *big.Int) field.Element { return field.FromBig(v) }

// combineEnvelopes decrypts the partial-decryption envelopes addressed to
// `who`, decodes them, and combines them into the integer plaintext.
func (r *run) combineEnvelopes(sk pke.SecretKey, envs []pke.Ciphertext, ct tte.Ciphertext) (*big.Int, error) {
	te := r.p.params.TE
	var parts []tte.PartialDec
	for _, env := range envs {
		part, err := r.decryptPartial(sk, env)
		if err != nil {
			// Envelope not for us or corrupted — skip; GOD relies on
			// the honest majority of envelopes.
			continue
		}
		parts = append(parts, part)
	}
	v, err := te.Combine(r.tpk, ct, parts)
	if err != nil {
		return nil, fmt.Errorf("%w: combining %d envelopes: %v", ErrNotEnough, len(envs), err)
	}
	return v, nil
}

// decryptPartial opens one partial-decryption envelope and decodes it,
// wiping the decrypted plaintext before returning — the raw bytes carry
// the partial decryption and must not outlive the decode.
func (r *run) decryptPartial(sk pke.SecretKey, ct pke.Ciphertext) (tte.PartialDec, error) {
	data, err := sk.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	defer clear(data)
	return r.p.params.TE.DecodePartial(r.tpk, data)
}

// reconstructShares interpolates packed secrets from μ-shares.
func reconstructShares(shares []sharing.Share, degree, k int) ([]field.Element, error) {
	if len(shares) < degree+1 {
		return nil, fmt.Errorf("%w: have %d shares, need %d", ErrNotEnough, len(shares), degree+1)
	}
	return sharing.ReconstructPacked(shares[:degree+1], degree, k)
}
