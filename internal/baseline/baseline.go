// Package baseline implements the CDN-style YOSO MPC of Gentry et al.
// (CRYPTO 2021) — the comparison point of the paper's evaluation. The
// circuit is evaluated gate by gate on ciphertexts under a system-wide
// threshold key: addition is free, and every multiplication consumes a
// Beaver triple and two threshold decryptions, so each committee member
// publishes two partial decryptions per gate and reshares its tsk share to
// the next committee. Online communication is therefore Θ(n) elements per
// gate — the cost the packed protocol in internal/core removes.
//
// The implementation runs on the same substrate (threshold encryption,
// bulletin board, YOSO roles, adversary) and the same committee-step
// engine (yoso.Engine) as the packed protocol, so byte counts and wall
// clock are directly comparable.
package baseline

import (
	"errors"
	"fmt"
	"math/big"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/nizk"
	"yosompc/internal/pke"
	"yosompc/internal/transport"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// TE is the threshold-encryption surface the baseline needs.
type TE interface {
	tte.Scheme
	tte.Codec
}

// Params configures a baseline run.
type Params struct {
	// N is the committee size and T the corruption bound (t < n/2).
	N, T int
	// TE is the threshold-encryption backend.
	TE TE
	// PKE is the role-key encryption backend.
	PKE pke.Scheme
	// Adversary corrupts committees; nil means all-honest.
	Adversary *yoso.Adversary
}

// Errors reported by the baseline.
var (
	ErrBadParams = errors.New("baseline: invalid parameters")
	ErrNotEnough = errors.New("baseline: not enough honest contributions")
)

// Validate checks the parameters.
func (p *Params) Validate() error {
	switch {
	case p.N < 1 || p.T < 0 || p.T >= p.N:
		return fmt.Errorf("%w: n=%d t=%d", ErrBadParams, p.N, p.T)
	case 2*p.T+1 > p.N:
		return fmt.Errorf("%w: needs honest majority, n=%d t=%d", ErrBadParams, p.N, p.T)
	case p.TE == nil || p.PKE == nil:
		return fmt.Errorf("%w: missing backend", ErrBadParams)
	}
	return nil
}

// Result is the outcome of a baseline run.
type Result struct {
	// Outputs maps each client to its outputs in gate order.
	Outputs map[int][]field.Element
	// Report is the communication breakdown.
	Report comm.Report
	// Excluded lists roles whose proofs failed or who stayed silent.
	Excluded []string
	// Rounds is the number of sequential broadcast rounds.
	Rounds int
}

// Protocol is a configured baseline instance.
type Protocol struct {
	params Params
	circ   *circuit.Circuit
	board  *transport.Board
	assign *yoso.Assignment
	auth   *nizk.Authority
}

// New configures a baseline run. A nil meter creates a private one.
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
	assign := yoso.NewAssignment(board, params.PKE, params.Adversary)
	// Unpacked Shamir reconstruction needs t+1 shares, so committee
	// manifests advertise that quorum for fail-stop margin tracking.
	assign.Quorum = params.T + 1
	return &Protocol{
		params: params,
		circ:   circ,
		board:  board,
		assign: assign,
		auth:   auth,
	}, nil
}

// Board exposes the bulletin board.
func (p *Protocol) Board() *transport.Board { return p.board }

type run struct {
	p          *Protocol
	tpk        tte.PublicKey
	w          yoso.Widths
	clients    map[int]*yoso.Role
	wireCt     []tte.Ciphertext
	beaver     map[int]*triple
	depthCache map[int]int
	// eng runs every speaking step and records the excluded roles.
	eng yoso.Engine
}

type triple struct{ a, b, c tte.Ciphertext }

// Run executes the baseline protocol.
func (p *Protocol) Run(inputs map[int][]field.Element) (*Result, error) {
	for _, client := range p.circ.Clients() {
		if len(inputs[client]) != p.circ.InputCount(client) {
			return nil, fmt.Errorf("baseline: client %d supplied %d of %d inputs",
				client, len(inputs[client]), p.circ.InputCount(client))
		}
	}
	r := &run{p: p, clients: map[int]*yoso.Role{}, beaver: map[int]*triple{}}
	// Members fan out on the default pool (Workers 0), untraced.
	r.eng = yoso.Engine{Board: p.board, Auth: p.auth, Domain: "baseline/"}
	r.wireCt = make([]tte.Ciphertext, p.circ.NumWires())

	// Setup: TKGen + client keys.
	tpk, shares, err := p.params.TE.KeyGen(p.params.N, p.params.T)
	if err != nil {
		return nil, err
	}
	r.tpk = tpk
	if r.w, err = yoso.MeasureWidths(p.params.TE, p.params.PKE, tpk, shares[0]); err != nil {
		return nil, fmt.Errorf("baseline: measuring message widths: %w", err)
	}
	tpkEnc, err := p.params.TE.EncodePublicKey(tpk)
	if err != nil {
		return nil, fmt.Errorf("baseline: encoding tpk announcement: %w", err)
	}
	p.board.Post("setup", comm.PhaseSetup, comm.CatCRS, tpkEnc)
	for _, id := range p.circ.Clients() {
		role, err := p.assign.NewKnownParty("client", id, comm.PhaseSetup)
		if err != nil {
			return nil, err
		}
		r.clients[id] = role
	}

	if err := r.offlineBeaver(); err != nil {
		return nil, fmt.Errorf("baseline offline: %w", err)
	}
	outputs, err := r.online(inputs, shares)
	if err != nil {
		return nil, fmt.Errorf("baseline online: %w", err)
	}
	// bOff1, bOff2, one client-input round, one committee per layer, bOut.
	return &Result{
		Outputs:  outputs,
		Report:   p.board.Report(),
		Excluded: r.eng.Excluded,
		Rounds:   4 + p.circ.Depth(),
	}, nil
}

// offlineBeaver prepares one encrypted Beaver triple per multiplication
// gate, exactly as in the packed protocol's Step 1.
func (r *run) offlineBeaver() error {
	p := r.p.params
	te := p.TE
	var muls []int
	for i, g := range r.p.circ.Gates() {
		if g.Kind == circuit.KindMul {
			muls = append(muls, i)
		}
	}
	if len(muls) == 0 {
		return nil
	}
	b1, err := r.p.assign.FormCommittee("bOff1", p.N, comm.PhaseOffline)
	if err != nil {
		return err
	}
	b2, err := r.p.assign.FormCommittee("bOff2", p.N, comm.PhaseOffline)
	if err != nil {
		return err
	}

	aShape := yoso.Shape{Cts: len(muls)}
	aPosts, err := r.eng.Run(nil, b1, yoso.Step{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-a",
		Honest: func(i int) (yoso.Msg, error) {
			cts := make([]tte.Ciphertext, len(muls))
			wire := make([]byte, 0, r.w.Of(aShape))
			for g := range muls {
				ct, err := te.Encrypt(r.tpk, field.MustRandom().Big(), field.ModulusBig())
				if err != nil {
					return yoso.Msg{}, err
				}
				cts[g] = ct
				enc, err := te.EncodeCiphertext(ct)
				if err != nil {
					return yoso.Msg{}, err
				}
				wire = append(wire, enc...)
			}
			return yoso.Msg{Payload: cts, Wire: wire}, nil
		},
		Malicious: r.w.Lie(aShape),
	})
	if err != nil {
		return err
	}
	cA, err := r.sumPer(aPosts, len(muls))
	if err != nil {
		return err
	}

	type bc struct{ b, c []tte.Ciphertext }
	bcShape := yoso.Shape{Cts: 2 * len(muls)}
	bcPosts, err := r.eng.Run(nil, b2, yoso.Step{Phase: comm.PhaseOffline, Cat: comm.CatBeaver, Label: "beaver-bc",
		Honest: func(i int) (yoso.Msg, error) {
			out := bc{b: make([]tte.Ciphertext, len(muls)), c: make([]tte.Ciphertext, len(muls))}
			wire := make([]byte, 0, r.w.Of(bcShape))
			for g := range muls {
				bv := field.MustRandom()
				bct, err := te.Encrypt(r.tpk, bv.Big(), field.ModulusBig())
				if err != nil {
					return yoso.Msg{}, err
				}
				cct, err := te.Eval(r.tpk, []tte.Ciphertext{cA[g]}, []*big.Int{bv.Big()})
				if err != nil {
					return yoso.Msg{}, err
				}
				out.b[g], out.c[g] = bct, cct
				for _, ct := range []tte.Ciphertext{bct, cct} {
					enc, err := te.EncodeCiphertext(ct)
					if err != nil {
						return yoso.Msg{}, err
					}
					wire = append(wire, enc...)
				}
			}
			return yoso.Msg{Payload: out, Wire: wire}, nil
		},
		Malicious: r.w.Lie(bcShape),
	})
	if err != nil {
		return err
	}
	for g, gi := range muls {
		var bParts, cParts []tte.Ciphertext
		for _, raw := range bcPosts {
			pb, ok := raw.(bc)
			if !ok {
				continue
			}
			bParts = append(bParts, pb.b[g])
			cParts = append(cParts, pb.c[g])
		}
		if len(bParts) == 0 {
			return fmt.Errorf("%w: no Beaver b-contributions", ErrNotEnough)
		}
		sumB, err := te.Eval(r.tpk, bParts, tte.Ones(len(bParts)))
		if err != nil {
			return err
		}
		sumC, err := te.Eval(r.tpk, cParts, tte.Ones(len(cParts)))
		if err != nil {
			return err
		}
		r.beaver[gi] = &triple{a: cA[g], b: sumB, c: sumC}
	}
	return nil
}

func (r *run) sumPer(posts map[int]any, count int) ([]tte.Ciphertext, error) {
	te := r.p.params.TE
	out := make([]tte.Ciphertext, count)
	for pos := 0; pos < count; pos++ {
		var parts []tte.Ciphertext
		for _, raw := range posts {
			cts, ok := raw.([]tte.Ciphertext)
			if !ok {
				continue
			}
			parts = append(parts, cts[pos])
		}
		if len(parts) == 0 {
			return nil, fmt.Errorf("%w: position %d", ErrNotEnough, pos)
		}
		sum, err := te.Eval(r.tpk, parts, tte.Ones(len(parts)))
		if err != nil {
			return nil, err
		}
		out[pos] = sum
	}
	return out, nil
}

// online evaluates the circuit gate by gate: clients post encrypted
// inputs; one committee per multiplication layer opens the Beaver masks
// and reshares tsk onward; a final committee re-encrypts outputs.
func (r *run) online(inputs map[int][]field.Element, dealerShares []tte.KeyShare) (map[int][]field.Element, error) {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()
	// Inputs: each client broadcasts TEnc(tpk, v) per input wire.
	for _, client := range r.p.circ.Clients() {
		role := r.clients[client]
		inGates := r.p.circ.InputGates(client)
		wire := make([]byte, 0, r.w.Of(yoso.Shape{Cts: len(inGates)}))
		cts := make([]tte.Ciphertext, len(inGates))
		for j := range inGates {
			ct, err := te.Encrypt(r.tpk, inputs[client][j].Big(), field.ModulusBig())
			if err != nil {
				return nil, err
			}
			cts[j] = ct
			enc, err := te.EncodeCiphertext(ct)
			if err != nil {
				return nil, err
			}
			wire = append(wire, enc...)
		}
		if len(wire) > 0 {
			ok, err := r.eng.Speak(role, yoso.Step{Phase: comm.PhaseOnline, Cat: comm.CatInput, Label: "input",
				Honest: func(int) (yoso.Msg, error) { return yoso.Msg{Payload: cts, Wire: wire}, nil }})
			if err != nil {
				return nil, err
			}
			if !ok {
				return nil, fmt.Errorf("%w: client %d input rejected", ErrNotEnough, client)
			}
		}
		for j, gi := range inGates {
			r.wireCt[gates[gi].Out] = cts[j]
		}
	}

	// Committees: one per multiplication layer plus the output committee.
	depth := r.p.circ.Depth()
	committees := make([]*yoso.Committee, 0, depth+1)
	for l := 1; l <= depth; l++ {
		c, err := r.p.assign.FormCommittee(fmt.Sprintf("bLayer%d", l), p.N, comm.PhaseOnline)
		if err != nil {
			return nil, err
		}
		committees = append(committees, c)
	}
	outC, err := r.p.assign.FormCommittee("bOut", p.N, comm.PhaseOnline)
	if err != nil {
		return nil, err
	}
	committees = append(committees, outC)

	// Dealer delivery of epoch-0 shares to the first committee: each share
	// travels as a real PKE envelope sealed under the receiving role's key
	// (the driver additionally hands the shares over in-process).
	shares := dealerShares
	dealerSeal := pke.NewSealer(p.PKE)
	for i, sh := range shares {
		data, err := te.EncodeKeyShare(sh)
		if err != nil {
			return nil, fmt.Errorf("baseline: encoding dealer tsk share %d: %w", i+1, err)
		}
		env, err := dealerSeal.Encrypt(committees[0].Role(i+1).PublicKey(), data)
		if err != nil {
			return nil, fmt.Errorf("baseline: sealing dealer tsk share %d: %w", i+1, err)
		}
		enc, err := p.PKE.EncodeCiphertext(env)
		if err != nil {
			return nil, fmt.Errorf("baseline: encoding dealer envelope %d: %w", i+1, err)
		}
		r.p.board.Post("setup-dealer", comm.PhaseSetup, comm.CatReshare, enc)
	}

	// Group mul gates by layer.
	byLayer := map[int][]int{}
	for i, g := range gates {
		if g.Kind == circuit.KindMul {
			byLayer[r.mulDepthOf(i)] = append(byLayer[r.mulDepthOf(i)], i)
		}
	}

	handoff := map[int][]tte.SubShare{} // target index → subshares for next committee
	for l := 1; l <= depth; l++ {
		c := committees[l-1]
		next := committees[l]
		if l > 1 {
			if shares, err = r.recoverShares(c, handoff); err != nil {
				return nil, err
			}
		}
		// Linear propagation up to this layer.
		if err := r.propagateLinear(); err != nil {
			return nil, err
		}
		layerGates := byLayer[l]
		open := make([]tte.Ciphertext, 0, 2*len(layerGates))
		for _, gi := range layerGates {
			g := gates[gi]
			bt := r.beaver[gi]
			eps, err := te.Eval(r.tpk, []tte.Ciphertext{r.wireCt[g.A], bt.a}, tte.Ones(2))
			if err != nil {
				return nil, err
			}
			del, err := te.Eval(r.tpk, []tte.Ciphertext{r.wireCt[g.B], bt.b}, tte.Ones(2))
			if err != nil {
				return nil, err
			}
			open = append(open, eps, del)
		}
		handoffNext := map[int][]tte.SubShare{}
		layerShape := yoso.Shape{Parts: len(open), SubEnvs: next.N()}
		posts, err := r.eng.Run(nil, c, yoso.Step{Phase: comm.PhaseOnline, Cat: comm.CatPartial, Label: fmt.Sprintf("layer%d", l),
			Honest: func(i int) (yoso.Msg, error) {
				sh := shares[i-1]
				if sh == nil {
					return yoso.Msg{}, fmt.Errorf("role %d has no tsk share", i)
				}
				parts := make([]tte.PartialDec, len(open))
				wire := make([]byte, 0, r.w.Of(layerShape))
				for j, ct := range open {
					part, err := te.PartialDecrypt(r.tpk, sh, ct)
					if err != nil {
						return yoso.Msg{}, err
					}
					parts[j] = part
					penc, err := te.EncodePartial(part)
					if err != nil {
						return yoso.Msg{}, err
					}
					wire = append(wire, penc...)
				}
				subs, err := te.Reshare(r.tpk, sh)
				if err != nil {
					return yoso.Msg{}, err
				}
				// Each subshare travels sealed under the receiving role's
				// key in the next committee.
				seal := pke.NewSealer(p.PKE)
				for _, sub := range subs {
					data, err := te.EncodeSubShare(sub)
					if err != nil {
						return yoso.Msg{}, err
					}
					env, err := seal.Encrypt(next.Role(sub.To()).PublicKey(), data)
					if err != nil {
						return yoso.Msg{}, err
					}
					enc, err := p.PKE.EncodeCiphertext(env)
					if err != nil {
						return yoso.Msg{}, err
					}
					wire = append(wire, enc...)
				}
				return yoso.Msg{Payload: partialBundle{parts: parts, subs: subs}, Wire: wire}, nil
			},
			Malicious: r.w.Lie(layerShape),
		})
		if err != nil {
			return nil, err
		}
		// Combine openings and apply the Beaver identity.
		for j, gi := range layerGates {
			g := gates[gi]
			bt := r.beaver[gi]
			eps, err := r.combine(open[2*j], posts, 2*j)
			if err != nil {
				return nil, err
			}
			del, err := r.combine(open[2*j+1], posts, 2*j+1)
			if err != nil {
				return nil, err
			}
			// c^xy = ε·c^y + (p−δ)·c^a + c^c.
			out, err := te.Eval(r.tpk,
				[]tte.Ciphertext{r.wireCt[g.B], bt.a, bt.c},
				[]*big.Int{eps.Big(), del.Neg().Big(), big.NewInt(1)})
			if err != nil {
				return nil, err
			}
			r.wireCt[g.Out] = out
		}
		// File the resharing for the next committee.
		for _, raw := range posts {
			pb, ok := raw.(partialBundle)
			if !ok {
				continue
			}
			for _, sub := range pb.subs {
				handoffNext[sub.To()] = append(handoffNext[sub.To()], sub)
			}
		}
		handoff = handoffNext
	}
	if err := r.propagateLinear(); err != nil {
		return nil, err
	}

	// Output: the final committee re-encrypts output wires to clients.
	if depth > 0 {
		if shares, err = r.recoverShares(outC, handoff); err != nil {
			return nil, err
		}
	}
	return r.outputs(outC, shares)
}

type partialBundle struct {
	parts []tte.PartialDec
	subs  []tte.SubShare
}

// mulDepthOf computes a gate's multiplicative depth via the circuit's
// batch metadata (MulBatches with k=1 yields one gate per batch).
func (r *run) mulDepthOf(gi int) int {
	if r.depthCache == nil {
		r.depthCache = map[int]int{}
		for _, mb := range r.p.circ.MulBatches(1) {
			for _, g := range mb.Gates {
				r.depthCache[g] = mb.Layer
			}
		}
	}
	return r.depthCache[gi]
}

// combine merges the verified partial decryptions at position pos.
func (r *run) combine(ct tte.Ciphertext, posts map[int]any, pos int) (field.Element, error) {
	te := r.p.params.TE
	var parts []tte.PartialDec
	for _, raw := range posts {
		pb, ok := raw.(partialBundle)
		if !ok || pos >= len(pb.parts) {
			continue
		}
		parts = append(parts, pb.parts[pos])
	}
	v, err := te.Combine(r.tpk, ct, parts)
	if err != nil {
		return field.Zero, fmt.Errorf("%w: %v", ErrNotEnough, err)
	}
	return field.FromBig(v), nil
}

// recoverShares rebuilds committee members' tsk shares from the previous
// committee's resharing.
func (r *run) recoverShares(c *yoso.Committee, handoff map[int][]tte.SubShare) ([]tte.KeyShare, error) {
	te := r.p.params.TE
	shares := make([]tte.KeyShare, c.N())
	for i := 1; i <= c.N(); i++ {
		if c.Role(i).Behavior == yoso.FailStop {
			continue
		}
		sh, err := te.RecoverShare(r.tpk, i, handoff[i])
		if err != nil {
			return nil, fmt.Errorf("%w: recovering tsk share for %s: %v", ErrNotEnough, c.Role(i).Name(), err)
		}
		shares[i-1] = sh
	}
	return shares, nil
}

// propagateLinear fills λ-free linear wires from their inputs.
func (r *run) propagateLinear() error {
	te := r.p.params.TE
	pm1 := new(big.Int).SetUint64(field.Modulus - 1)
	for _, g := range r.p.circ.Gates() {
		if g.Kind != circuit.KindAdd && g.Kind != circuit.KindSub &&
			g.Kind != circuit.KindConstMul && g.Kind != circuit.KindConst {
			continue
		}
		if r.wireCt[g.Out] != nil {
			continue
		}
		switch g.Kind {
		case circuit.KindConst:
			// Anyone can encrypt a public constant under tpk.
			ct, err := te.Encrypt(r.tpk, g.Const.Big(), field.ModulusBig())
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindAdd:
			if r.wireCt[g.A] == nil || r.wireCt[g.B] == nil {
				continue
			}
			ct, err := te.Eval(r.tpk, []tte.Ciphertext{r.wireCt[g.A], r.wireCt[g.B]}, tte.Ones(2))
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindSub:
			if r.wireCt[g.A] == nil || r.wireCt[g.B] == nil {
				continue
			}
			ct, err := te.Eval(r.tpk, []tte.Ciphertext{r.wireCt[g.A], r.wireCt[g.B]},
				[]*big.Int{big.NewInt(1), pm1})
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindConstMul:
			if r.wireCt[g.A] == nil {
				continue
			}
			ct, err := te.Eval(r.tpk, []tte.Ciphertext{r.wireCt[g.A]}, []*big.Int{g.Const.Big()})
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		}
	}
	return nil
}

// outputs has the final committee re-encrypt each output wire to its
// client, who combines and unmasks.
func (r *run) outputs(outC *yoso.Committee, shares []tte.KeyShare) (map[int][]field.Element, error) {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()
	type outGate struct {
		gi, client int
		wire       circuit.WireID
	}
	var outs []outGate
	for _, client := range r.p.circ.Clients() {
		for _, gi := range r.p.circ.OutputGates(client) {
			outs = append(outs, outGate{gi: gi, client: client, wire: gates[gi].A})
		}
	}
	outShape := yoso.Shape{PartEnvs: len(outs)}
	posts, err := r.eng.Run(nil, outC, yoso.Step{Phase: comm.PhaseOnline, Cat: comm.CatOutput, Label: "output",
		Honest: func(i int) (yoso.Msg, error) {
			sh := shares[i-1]
			if sh == nil {
				return yoso.Msg{}, fmt.Errorf("role %d has no tsk share", i)
			}
			envs := make(map[int]pke.Ciphertext, len(outs))
			wire := make([]byte, 0, r.w.Of(outShape))
			seal := pke.NewSealer(p.PKE)
			for _, og := range outs {
				part, err := te.PartialDecrypt(r.tpk, sh, r.wireCt[og.wire])
				if err != nil {
					return yoso.Msg{}, err
				}
				data, err := te.EncodePartial(part)
				if err != nil {
					return yoso.Msg{}, err
				}
				env, err := seal.Encrypt(r.clients[og.client].PublicKey(), data)
				if err != nil {
					return yoso.Msg{}, err
				}
				envs[og.gi] = env
				enc, err := p.PKE.EncodeCiphertext(env)
				if err != nil {
					return yoso.Msg{}, err
				}
				wire = append(wire, enc...)
			}
			return yoso.Msg{Payload: envs, Wire: wire}, nil
		},
		Malicious: r.w.Lie(outShape),
	})
	if err != nil {
		return nil, err
	}
	outputs := map[int][]field.Element{}
	for _, og := range outs {
		var parts []tte.PartialDec
		for _, raw := range posts {
			envs, ok := raw.(map[int]pke.Ciphertext)
			if !ok {
				continue
			}
			data, err := r.clients[og.client].SecretKey().Decrypt(envs[og.gi])
			if err != nil {
				continue
			}
			part, err := te.DecodePartial(r.tpk, data)
			if err != nil {
				continue
			}
			parts = append(parts, part)
		}
		v, err := te.Combine(r.tpk, r.wireCt[og.wire], parts)
		if err != nil {
			return nil, fmt.Errorf("%w: output %d: %v", ErrNotEnough, og.gi, err)
		}
		outputs[og.client] = append(outputs[og.client], field.FromBig(v))
	}
	return outputs, nil
}
