package core

import (
	"fmt"
	"math/big"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/sharing"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// initWireState allocates the run's per-wire bookkeeping.
func (r *run) initWireState() {
	n := r.p.circ.NumWires()
	r.wireCt = make([]tte.Ciphertext, n)
	r.mu = make([]field.Element, n)
	r.muKnown = make([]bool, n)
	r.beaver = map[int]*beaverTriple{}
	r.handoffs = map[string]map[int][]envelope{}
	r.inputEnv = map[int][]envelope{}
}

// garbage is the type-correct stand-in a malicious role broadcasts: the
// driver never consumes its content (the forged proof excludes it), so only
// the modelled size matters for metering.
type garbage struct{ size int }

func (g garbage) wireSize() int { return g.size }

// encodeWire emits size zero bytes: garbage content is never consumed, but
// it must occupy exactly the modelled space on the board.
func (g garbage) encodeWire(*Params) ([]byte, error) { return make([]byte, g.size), nil }

// ctBundle is a broadcast bundle of threshold ciphertexts.
type ctBundle struct{ cts []tte.Ciphertext }

func (b ctBundle) wireSize() int {
	s := 0
	for _, ct := range b.cts {
		s += ct.Size()
	}
	return s
}

func (b ctBundle) encodeWire(p *Params) ([]byte, error) {
	out := make([]byte, 0, b.wireSize())
	for _, ct := range b.cts {
		enc, err := p.TE.EncodeCiphertext(ct)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
	}
	return out, nil
}

// offline executes the whole of Π_YOSO-Offline: Steps 1–4, the OffDec
// committee's speak (ε/δ decryption + tsk resharing), and the OffRe
// committee's speak (Steps 5–6: re-encryption of all preprocessed secrets
// to the recipients' KFFs). Nothing here depends on inputs or on online
// role keys — tsk crosses the boundary via the dedicated offBridge
// committee, which speaks at online start (see online.go).
func (r *run) offline() error {
	p := r.p.params
	var err error
	if r.offB1, err = r.p.assign.FormCommittee("offB1", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offB2, err = r.p.assign.FormCommittee("offB2", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offR, err = r.p.assign.FormCommittee("offR", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offDec, err = r.p.assign.FormCommittee("offDec", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offRe, err = r.p.assign.FormCommittee("offRe", p.N, comm.PhaseOffline); err != nil {
		return err
	}
	if r.offBridge, err = r.p.assign.FormCommittee("offBridge", p.N, comm.PhaseOffline); err != nil {
		return err
	}

	// Trusted-dealer delivery of epoch-0 tsk shares to OffDec (the paper's
	// "give tsk_i to C^Off_{1,i}"): each share travels as a real PKE
	// envelope sealed under the receiving role's key, metered as setup
	// bytes. The driver additionally hands the shares over in-process.
	te := p.TE
	seal := pke.NewSealer(p.PKE)
	for i, sh := range r.offDecShares {
		data, err := te.EncodeKeyShare(sh)
		if err != nil {
			return fmt.Errorf("encoding dealer tsk share %d: %w", i+1, err)
		}
		ct, err := seal.Encrypt(r.offDec.Role(i+1).PublicKey(), data)
		if err != nil {
			return fmt.Errorf("sealing dealer tsk share %d: %w", i+1, err)
		}
		enc, err := p.PKE.EncodeCiphertext(ct)
		if err != nil {
			return fmt.Errorf("encoding dealer envelope %d: %w", i+1, err)
		}
		env := envelope{From: "setup-dealer", To: fmt.Sprintf("offDec/%d", i+1), Ct: ct}
		r.p.board.Post("setup-dealer", comm.PhaseSetup, comm.CatReshare, enc, env)
	}
	r.logStep("offline committees formed", "committees", 6, "size", p.N)

	r.buildBatches()
	r.logStep("mul batches built", "batches", len(r.batches), "k", p.K)

	if err := r.offlineStep("beaver", "step 1 (Beaver)", r.offlineBeaver); err != nil {
		return err
	}
	if err := r.offlineStep("wire-randomness", "step 2 (wire randomness)", r.offlineWireRandomness); err != nil {
		return err
	}
	if err := r.offlineStep("dependent-wires", "step 3 (dependent wires)", r.offlineDependentWires); err != nil {
		return err
	}
	if err := r.offlineStep("packing", "step 4 (packing)", r.offlinePack); err != nil {
		return err
	}
	if err := r.offlineStep("reencrypt-to-kffs", "steps 5-6 (re-encrypt to KFFs)", r.offReSpeak); err != nil {
		return err
	}
	return nil
}

// offlineStep runs one offline driver step inside a span and logs its
// start and completion with the span ID — the offline phase's structured
// progress trail (the online phase logs per committee step instead).
func (r *run) offlineStep(name, label string, fn func() error) error {
	sp := r.stepSpan("offline:" + name)
	r.logSpan(sp, "offline step starting", "step", name)
	err := fn()
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	r.logSpan(sp, "offline step complete", "step", name)
	return nil
}

// buildBatches groups the circuit's multiplication gates into packed
// batches of at most k gates per layer.
func (r *run) buildBatches() {
	for _, mb := range r.p.circ.MulBatches(r.p.params.K) {
		r.batches = append(r.batches, &batchState{MulBatch: mb, k: len(mb.Gates)})
	}
}

// mulGateIndices returns the indices of all multiplication gates.
func (r *run) mulGateIndices() []int {
	var out []int
	for i, g := range r.p.circ.Gates() {
		if g.Kind == circuit.KindMul {
			out = append(out, i)
		}
	}
	return out
}

// offlineBeaver is Step 1: committees OffB1 and OffB2 prepare one Beaver
// triple (c^a, c^b, c^c) under tpk per multiplication gate.
func (r *run) offlineBeaver() error {
	p := r.p.params
	te := p.TE
	muls := r.mulGateIndices()
	if len(muls) == 0 {
		return nil
	}
	garbSize := len(muls) * r.tpk.CiphertextSize()

	// OffB1: each role encrypts a random a-contribution per gate.
	aPosts, err := r.committeeStep(r.offB1, comm.PhaseOffline, comm.CatBeaver, "beaver-a",
		func(i int) (sized, error) {
			ms := make([]*big.Int, len(muls))
			for g := range muls {
				ms[g] = fieldCoeff(field.MustRandom())
			}
			cts, err := tte.EncryptAll(te, r.tpk, ms, boundP, r.workers())
			if err != nil {
				return nil, err
			}
			return ctBundle{cts: cts}, nil
		},
		func(i int) sized { return garbage{size: garbSize} })
	if err != nil {
		return err
	}
	cA, err := r.sumContributions(aPosts, len(muls))
	if err != nil {
		return err
	}

	// OffB2: each role encrypts b-contributions and homomorphically forms
	// c-contributions c_i^c = b_i · c^a.
	bcSize := 2 * garbSize
	bcPosts, err := r.committeeStep(r.offB2, comm.PhaseOffline, comm.CatBeaver, "beaver-bc",
		func(i int) (sized, error) {
			ms := make([]*big.Int, len(muls))
			for g := range muls {
				ms[g] = fieldCoeff(field.MustRandom())
			}
			bs, err := tte.EncryptAll(te, r.tpk, ms, boundP, r.workers())
			if err != nil {
				return nil, err
			}
			cs := make([]tte.Ciphertext, len(muls))
			for g := range muls {
				cct, err := te.Eval(r.tpk, []tte.Ciphertext{cA[g]}, []*big.Int{ms[g]})
				if err != nil {
					return nil, err
				}
				cs[g] = cct
			}
			return bundle2{a: ctBundle{bs}, b: ctBundle{cs}}, nil
		},
		func(i int) sized { return garbage{size: bcSize} })
	if err != nil {
		return err
	}
	cB := make([]tte.Ciphertext, len(muls))
	cC := make([]tte.Ciphertext, len(muls))
	// "Everyone computes" the per-gate b/c sums — independent per gate, so
	// the loop fans out over the worker pool, slot-indexed per gate.
	if err := r.pfor(len(muls), func(g int) error {
		var bParts, cParts []tte.Ciphertext
		for i := 1; i <= r.offB2.N(); i++ {
			payload, ok := bcPosts[i]
			if !ok {
				continue
			}
			bb := payload.(bundle2)
			bParts = append(bParts, bb.a.cts[g])
			cParts = append(cParts, bb.b.cts[g])
		}
		if len(bParts) == 0 {
			return fmt.Errorf("%w: no valid Beaver b-contributions", ErrNotEnough)
		}
		sumB, err := te.Eval(r.tpk, bParts, onesVec(len(bParts)))
		if err != nil {
			return err
		}
		sumC, err := te.Eval(r.tpk, cParts, onesVec(len(cParts)))
		if err != nil {
			return err
		}
		cB[g], cC[g] = sumB, sumC
		return nil
	}); err != nil {
		return err
	}
	for g, gi := range muls {
		r.beaver[gi] = &beaverTriple{a: cA[g], b: cB[g], c: cC[g]}
	}
	return nil
}

// bundle2 pairs two ciphertext bundles in one broadcast.
type bundle2 struct{ a, b ctBundle }

func (b bundle2) wireSize() int { return b.a.wireSize() + b.b.wireSize() }

func (b bundle2) encodeWire(p *Params) ([]byte, error) {
	ea, err := b.a.encodeWire(p)
	if err != nil {
		return nil, err
	}
	eb, err := b.b.encodeWire(p)
	if err != nil {
		return nil, err
	}
	return append(ea, eb...), nil
}

// sumContributions adds each position's valid contributions: the standard
// "everyone computes TEval(tpk, {c_i}_{i∈S}, (1)^|S|)" pattern. Positions
// are independent, so the loop fans out over the worker pool; the output
// stays slot-indexed by position (TEval is commutative over the
// contribution set, so the result is worker-count independent).
func (r *run) sumContributions(posts map[int]any, count int) ([]tte.Ciphertext, error) {
	te := r.p.params.TE
	out := make([]tte.Ciphertext, count)
	err := r.pfor(count, func(pos int) error {
		var parts []tte.Ciphertext
		for _, payload := range posts {
			parts = append(parts, payload.(ctBundle).cts[pos])
		}
		if len(parts) == 0 {
			return fmt.Errorf("%w: no valid contributions at position %d", ErrNotEnough, pos)
		}
		sum, err := te.Eval(r.tpk, parts, onesVec(len(parts)))
		if err != nil {
			return err
		}
		out[pos] = sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// offlineWireRandomness is Step 2 plus the helper encryptions of Step 4:
// committee OffR contributes fresh randomness for every output wire of an
// input or multiplication gate, and t extra random values per packed
// vector (3 vectors per batch: left λ, right λ, Γ).
func (r *run) offlineWireRandomness() error {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()
	var targets []int // wire ids needing fresh λ
	for _, g := range gates {
		if g.Kind == circuit.KindInput || g.Kind == circuit.KindMul {
			targets = append(targets, int(g.Out))
		}
	}
	helpersPer := 3 * p.T * len(r.batches)
	total := len(targets) + helpersPer
	garbSize := total * r.tpk.CiphertextSize()

	posts, err := r.committeeStep(r.offR, comm.PhaseOffline, comm.CatLambda, "wire-randomness",
		func(i int) (sized, error) {
			ms := make([]*big.Int, total)
			for j := range ms {
				ms[j] = fieldCoeff(field.MustRandom())
			}
			cts, err := tte.EncryptAll(te, r.tpk, ms, boundP, r.workers())
			if err != nil {
				return nil, err
			}
			return ctBundle{cts: cts}, nil
		},
		func(i int) sized { return garbage{size: garbSize} })
	if err != nil {
		return err
	}
	sums, err := r.sumContributions(posts, total)
	if err != nil {
		return err
	}
	for j, w := range targets {
		r.wireCt[w] = sums[j]
	}
	// Helper layout: batch-major, then vector kind (0=left,1=right,2=Γ),
	// then t helpers.
	hbase := len(targets)
	for bi, b := range r.batches {
		b.helpers = make([][]tte.Ciphertext, 3)
		for kind := 0; kind < 3; kind++ {
			b.helpers[kind] = make([]tte.Ciphertext, p.T)
			for j := 0; j < p.T; j++ {
				b.helpers[kind][j] = sums[hbase+(bi*3+kind)*p.T+j]
			}
		}
	}
	return nil
}

// offlineDependentWires is Step 3: everyone locally derives λ-ciphertexts
// for linear gates; the OffDec committee threshold-decrypts the Beaver
// openings ε = λ^α + λ^x and δ = λ^β + λ^y for every multiplication gate
// and reshares tsk to OffRe; everyone then forms c^Γ per gate.
func (r *run) offlineDependentWires() error {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()

	// Local: λ-ciphertexts for linear gates, in topological order.
	pm1 := new(big.Int).SetUint64(field.Modulus - 1)
	for _, g := range gates {
		switch g.Kind {
		case circuit.KindConst:
			// Public constants carry no secret: λ = 0, and everyone can
			// form the canonical zero ciphertext (the empty TEval).
			ct, err := te.Eval(r.tpk, nil, nil)
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindAdd:
			ct, err := te.Eval(r.tpk, []tte.Ciphertext{r.wireCt[g.A], r.wireCt[g.B]},
				[]*big.Int{big.NewInt(1), big.NewInt(1)})
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindSub:
			// λ^a − λ^b encoded as λ^a + (p−1)·λ^b (mod p).
			ct, err := te.Eval(r.tpk, []tte.Ciphertext{r.wireCt[g.A], r.wireCt[g.B]},
				[]*big.Int{big.NewInt(1), pm1})
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		case circuit.KindConstMul:
			ct, err := te.Eval(r.tpk, []tte.Ciphertext{r.wireCt[g.A]},
				[]*big.Int{fieldCoeff(g.Const)})
			if err != nil {
				return err
			}
			r.wireCt[g.Out] = ct
		}
	}

	muls := r.mulGateIndices()
	if len(muls) == 0 {
		// Still hand tsk onward: OffDec only reshares.
		_, err := r.offDecSpeak(nil)
		return err
	}

	// ε/δ ciphertexts per mul gate — independent per gate, slot-indexed so
	// the opened order is identical to the serial path.
	open := make([]tte.Ciphertext, 2*len(muls))
	if err := r.pfor(len(muls), func(m int) error {
		gi := muls[m]
		g := gates[gi]
		bt := r.beaver[gi]
		eps, err := te.Eval(r.tpk, []tte.Ciphertext{r.wireCt[g.A], bt.a}, onesVec(2))
		if err != nil {
			return err
		}
		del, err := te.Eval(r.tpk, []tte.Ciphertext{r.wireCt[g.B], bt.b}, onesVec(2))
		if err != nil {
			return err
		}
		open[2*m], open[2*m+1] = eps, del
		return nil
	}); err != nil {
		return err
	}

	openings, err := r.offDecSpeak(open)
	if err != nil {
		return err
	}

	// Everyone: c^Γ = ε·c^β + (p−δ)·c^x + c^z + (p−1)·c^γ. Gates are
	// independent; results land in a slot-indexed slice and the gammaCt map
	// is filled serially afterwards (map writes are not concurrency-safe).
	gammas := make([]tte.Ciphertext, len(muls))
	if err := r.pfor(len(muls), func(m int) error {
		gi := muls[m]
		g := gates[gi]
		bt := r.beaver[gi]
		eps := openings[2*m]
		del := openings[2*m+1]
		r.p.audit.Record(comm.PhaseOffline, ValBeaverOpen, KeyTPK)
		gamma, err := te.Eval(r.tpk,
			[]tte.Ciphertext{r.wireCt[g.B], bt.a, bt.c, r.wireCt[g.Out]},
			[]*big.Int{fieldCoeff(eps), fieldCoeff(del.Neg()), big.NewInt(1), pm1})
		if err != nil {
			return err
		}
		gammas[m] = gamma
		return nil
	}); err != nil {
		return err
	}
	if r.gammaCt == nil {
		r.gammaCt = map[int]tte.Ciphertext{}
	}
	for m, gi := range muls {
		r.gammaCt[gi] = gammas[m]
	}
	return nil
}

// decPayload is the OffDec committee's single broadcast: partial
// decryptions for every opened ciphertext plus encrypted tsk subshares for
// the next committee.
type decPayload struct {
	partials []tte.PartialDec
	// partEnc caches each partial's wire encoding, produced alongside the
	// partial itself so wireSize and encodeWire agree byte-for-byte (the
	// real-backend encoding length is value-dependent).
	partEnc [][]byte
	reshare []envelope
}

func (d decPayload) wireSize() int {
	s := 0
	for _, e := range d.partEnc {
		s += len(e)
	}
	for _, e := range d.reshare {
		s += e.Ct.Size()
	}
	return s
}

func (d decPayload) encodeWire(p *Params) ([]byte, error) {
	out := make([]byte, 0, d.wireSize())
	for _, e := range d.partEnc {
		out = append(out, e...)
	}
	return appendEnvelopes(p, out, d.reshare)
}

// offDecSpeak runs the OffDec committee: publish partial decryptions of
// `open` (possibly empty) and reshare tsk to OffRe. It returns the opened
// values reduced into the field.
func (r *run) offDecSpeak(open []tte.Ciphertext) ([]field.Element, error) {
	posts, err := r.tskCommitteeSpeak(r.offDec, r.offDecShares, comm.PhaseOffline,
		"offdec-open", open, r.offRe, func(i int) pke.PublicKey { return r.offRe.Role(i).PublicKey() })
	if err != nil {
		return nil, err
	}
	r.storeHandoff("offRe", posts)
	return r.combineOpenings(open, posts)
}

// tskCommitteeSpeak is the shared Decrypt/Re-encrypt skeleton (paper
// Protocols 1 and 2): every member of committee c holding the tsk shares
// in `shares` publishes partial decryptions of the `open` ciphertexts and,
// when `next` is non-nil, reshares its tsk share to the next committee
// under the supplied target keys.
func (r *run) tskCommitteeSpeak(c *yoso.Committee, shares []tte.KeyShare, phase comm.Phase,
	label string, open []tte.Ciphertext, next *yoso.Committee,
	targetKey func(i int) pke.PublicKey) (map[int]any, error) {
	p := r.p.params
	te := p.TE
	garbSize := len(open)*r.tpk.CiphertextSize() + p.N*(r.tpk.CiphertextSize()+60)
	return r.committeeStep(c, phase, comm.CatPartial, label,
		func(i int) (sized, error) {
			sh := shares[i-1]
			if sh == nil {
				return nil, fmt.Errorf("role %d has no tsk share", i)
			}
			payload := decPayload{}
			for _, ct := range open {
				part, err := te.PartialDecrypt(r.tpk, sh, ct)
				if err != nil {
					return nil, err
				}
				penc, err := te.EncodePartial(part)
				if err != nil {
					return nil, err
				}
				payload.partials = append(payload.partials, part)
				payload.partEnc = append(payload.partEnc, penc)
			}
			if next != nil {
				subs, err := te.Reshare(r.tpk, sh)
				if err != nil {
					return nil, err
				}
				seal := pke.NewSealer(p.PKE)
				for _, sub := range subs {
					data, err := te.EncodeSubShare(sub)
					if err != nil {
						return nil, err
					}
					env, err := seal.Encrypt(targetKey(sub.To()), data)
					if err != nil {
						return nil, err
					}
					payload.reshare = append(payload.reshare, envelope{
						From: c.Role(i).Name(),
						To:   fmt.Sprintf("%s/%d", next.Name, sub.To()),
						Ct:   env,
					})
				}
			}
			return payload, nil
		},
		func(i int) sized { return garbage{size: garbSize} })
}

// storeHandoff files the verified resharing envelopes for the next
// committee, indexed by target member.
func (r *run) storeHandoff(nextName string, posts map[int]any) {
	byTarget := map[int][]envelope{}
	for _, payload := range posts {
		dp, ok := payload.(decPayload)
		if !ok {
			continue
		}
		for _, env := range dp.reshare {
			var idx int
			if _, err := fmt.Sscanf(env.To, nextName+"/%d", &idx); err != nil {
				continue
			}
			byTarget[idx] = append(byTarget[idx], env)
		}
	}
	r.handoffs[nextName] = byTarget
}

// combineOpenings combines the verified partial decryptions of each opened
// ciphertext and reduces into the field. The per-opening TDec fan-in is
// independent per position, so it runs on the worker pool, slot-indexed.
func (r *run) combineOpenings(open []tte.Ciphertext, posts map[int]any) ([]field.Element, error) {
	te := r.p.params.TE
	out := make([]field.Element, len(open))
	err := r.pfor(len(open), func(j int) error {
		var parts []tte.PartialDec
		for _, payload := range posts {
			dp, ok := payload.(decPayload)
			if !ok || j >= len(dp.partials) {
				continue
			}
			parts = append(parts, dp.partials[j])
		}
		v, err := te.Combine(r.tpk, open[j], parts)
		if err != nil {
			return fmt.Errorf("%w: opening %d: %v", ErrNotEnough, j, err)
		}
		out[j] = reduceToField(v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// recoverShares lets each member of a committee reconstruct its tsk share
// from the envelopes filed for it (TKRec after decrypting with the role
// secret key).
func (r *run) recoverShares(c *yoso.Committee, phase comm.Phase) ([]tte.KeyShare, error) {
	te := r.p.params.TE
	byTarget := r.handoffs[c.Name]
	shares := make([]tte.KeyShare, c.N())
	for i := 1; i <= c.N(); i++ {
		role := c.Role(i)
		if role.Behavior == yoso.FailStop {
			continue // crashed before reading
		}
		var subs []tte.SubShare
		for _, env := range byTarget[i] {
			sub, err := r.decryptSubShare(role.SecretKey(), env.Ct)
			if err != nil {
				continue
			}
			subs = append(subs, sub)
		}
		sh, err := te.RecoverShare(r.tpk, i, subs)
		if err != nil {
			return nil, fmt.Errorf("%w: recovering tsk share for %s: %v", ErrNotEnough, role.Name(), err)
		}
		r.p.audit.Record(phase, ValTskShare, KeyRole)
		shares[i-1] = sh
	}
	return shares, nil
}

// decryptSubShare opens one handoff envelope with the role secret key and
// decodes the key sub-share, wiping the decrypted plaintext before
// returning — the raw bytes carry the same secret as the sub-share and
// must not outlive the decode.
func (r *run) decryptSubShare(sk pke.SecretKey, ct pke.Ciphertext) (tte.SubShare, error) {
	data, err := sk.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	defer clear(data)
	return r.p.params.TE.DecodeSubShare(r.tpk, data)
}

// offlinePack is Step 4: everyone locally assembles, per batch, the packed
// share ciphertexts of the left-input λ vector, the right-input λ vector,
// and the Γ vector, interpolating homomorphically through the k wire
// values and the t helper encryptions.
func (r *run) offlinePack() error {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()
	for bi, b := range r.batches {
		sp := r.stepSpan("pack-batch")
		sp.SetInt("batch", int64(bi))
		sp.SetInt("gates", int64(b.k))
		sp.SetInt("layer", int64(b.Layer))
		// The l_j(i) coefficient rows come straight from the cached
		// evaluation domain — shared across batches of the same width and
		// across runs, with no per-batch clone. Shapes outside the domain
		// envelope (never produced by valid Params) fall back to the
		// general helper.
		var (
			rowAt func(i int) []field.Element
			err   error
		)
		if dom, derr := sharing.GetDomain(b.k, p.T+b.k-1, p.N); derr == nil {
			rowAt = func(i int) []field.Element { return dom.ShareRow(i + 1) }
		} else {
			var rows [][]field.Element
			if rows, err = sharing.PackingLagrangeCoeffs(b.k, p.T, p.N); err != nil {
				sp.End()
				return err
			}
			rowAt = func(i int) []field.Element { return rows[i] }
		}
		left := make([]tte.Ciphertext, b.k)
		right := make([]tte.Ciphertext, b.k)
		gamma := make([]tte.Ciphertext, b.k)
		for j, gi := range b.Gates {
			g := gates[gi]
			left[j] = r.wireCt[g.A]
			right[j] = r.wireCt[g.B]
			gamma[j] = r.gammaCt[gi]
		}
		pack := func(vals []tte.Ciphertext, helpers []tte.Ciphertext) ([]tte.Ciphertext, error) {
			points := append(append([]tte.Ciphertext{}, vals...), helpers...)
			out := make([]tte.Ciphertext, p.N)
			// One homomorphic interpolation per share index — the
			// packing-helper hot loop, fanned out slot-indexed per index.
			err := r.pfor(p.N, func(i int) error {
				row := rowAt(i)
				coeffs := make([]*big.Int, len(points))
				for j := range coeffs {
					coeffs[j] = fieldCoeff(row[j])
				}
				ct, err := te.Eval(r.tpk, points, coeffs)
				if err != nil {
					return err
				}
				out[i] = ct
				return nil
			})
			if err != nil {
				return nil, err
			}
			return out, nil
		}
		if b.packedLeft, err = pack(left, b.helpers[0]); err != nil {
			sp.End()
			return err
		}
		if b.packedRight, err = pack(right, b.helpers[1]); err != nil {
			sp.End()
			return err
		}
		if b.packedGamma, err = pack(gamma, b.helpers[2]); err != nil {
			sp.End()
			return err
		}
		sp.End()
	}
	return nil
}
