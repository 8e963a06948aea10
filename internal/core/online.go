package core

import (
	"fmt"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/sharing"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// online executes the offline/online boundary (OffRe's speak: Steps 5–6 +
// tsk hand-off) and Π_YOSO-Online: future key distribution, inputs, layer
// by layer multiplication, and output delivery.
func (r *run) online(inputs map[int][]field.Element) (map[int][]field.Element, error) {
	p := r.p.params
	var err error

	// The online phase begins: role assignment publishes the online
	// committees' role keys.
	if r.onC1, err = r.p.assign.FormCommittee("onC1", p.N, comm.PhaseOnline); err != nil {
		return nil, err
	}
	depth := r.p.circ.Depth()
	r.layers = make([]*yoso.Committee, depth)
	for l := 0; l < depth; l++ {
		c, err := r.p.assign.FormCommittee(fmt.Sprintf("on-layer%d", l+1), p.N, comm.PhaseOnline)
		if err != nil {
			return nil, err
		}
		r.layers[l] = c
	}
	if r.onOut, err = r.p.assign.FormCommittee("onOut", p.N, comm.PhaseOnline); err != nil {
		return nil, err
	}

	// Boundary speak: the bridging committee hands tsk to OnC1 now that
	// the online role keys exist. This is its only job — everything else
	// in the offline phase finished before inputs were known.
	if err := r.offBridgeSpeak(); err != nil {
		return nil, fmt.Errorf("tsk boundary hand-off: %w", err)
	}

	// Future key distribution: OnC1 re-encrypts KFF secret keys to the
	// now-known role keys and hands tsk to the output committee.
	if err := r.onC1Speak(); err != nil {
		return nil, fmt.Errorf("future key distribution: %w", err)
	}

	// Input: each client opens λ for its input wires and publishes μ = v−λ.
	sp := r.stepSpan("input")
	err = r.onlineInput(inputs)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	r.propagateLinear()

	// Multiplication layers.
	for l := 0; l < depth; l++ {
		lsp := r.stepSpan("mu-layer")
		lsp.SetInt("layer", int64(l+1))
		err := r.onlineLayer(l)
		lsp.End()
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", l+1, err)
		}
		r.propagateLinear()
	}

	// Output.
	return r.onlineOutput()
}

// offReSpeak runs the OffRe committee (offline Steps 5 and 6): each
// member reconstructs its tsk share, re-encrypts every input-wire λ and
// packed share to its reader's KFF, and reshares tsk to the bridging
// committee. Every target key is known during the offline phase, so this
// speak happens entirely before inputs exist (it is called from
// offline()).
func (r *run) offReSpeak() error {
	shares, err := r.recoverShares(r.offRe, comm.PhaseOffline)
	if err != nil {
		return err
	}
	if r.p.params.NoKFF {
		// §3.2 naive ablation: nothing to re-encrypt yet (the online
		// role keys do not exist and there are no KFFs) — OffRe only
		// passes tsk onward; OnC1 will pay the re-encryption online.
		_, err := r.tskStep(r.offRe, shares, comm.PhaseOffline, comm.CatPartial,
			"steps-5-6-nokff", nil, nil, r.offBridge)
		return err
	}
	return r.reencrypt(r.offRe, shares, comm.PhaseOffline, "steps-5-6",
		func(client int) pke.PublicKey { return r.kffClient[client].pub },
		func(layer, target int) pke.PublicKey { return r.kffLayer[layer-1][target].pub },
		r.offBridge)
}

// reencrypt is the Re-encrypt step: committee c opens every input-wire λ
// to its client's key and every packed share (offline Step 4) to the key
// of layer role target+1, then reshares tsk to next. OffRe runs it
// offline towards the KFFs; in the §3.2 naive ablation OnC1 runs it
// online towards the role keys, the Θ(n²·batches) communication the KFF
// machinery moves offline. Each message's envs are the input λ's in
// client order, then per batch the left, right and Γ shares in target
// order, then the reshares.
func (r *run) reencrypt(c *yoso.Committee, shares []tte.KeyShare, phase comm.Phase, label string,
	clientKey func(client int) pke.PublicKey, layerKey func(layer, target int) pke.PublicKey,
	next *yoso.Committee) error {
	gates := r.p.circ.Gates()
	var items []sealed
	var inputGates []int
	for _, client := range r.p.circ.Clients() {
		for _, gi := range r.p.circ.InputGates(client) {
			items = append(items, sealed{ct: r.wireCt[gates[gi].Out], key: clientKey(client)})
			inputGates = append(inputGates, gi)
		}
	}
	for _, b := range r.batches {
		for _, packed := range b.packed {
			for target, ct := range packed {
				items = append(items, sealed{ct: ct, key: layerKey(b.Layer, target)})
			}
		}
	}
	posts, err := r.tskStep(c, shares, phase, comm.CatReencrypt, label, nil, items, next)
	if err != nil {
		return err
	}
	for _, m := range posts {
		for j, gi := range inputGates {
			r.inputEnv[gi] = append(r.inputEnv[gi], m.envs[j])
		}
		envs := m.envs[len(inputGates):]
		for _, b := range r.batches {
			for kind, packed := range b.packed {
				if b.env[kind] == nil {
					b.env[kind] = make([][]pke.Ciphertext, len(packed))
				}
				for target := range packed {
					b.env[kind][target] = append(b.env[kind][target], envs[0])
					envs = envs[1:]
				}
			}
		}
	}
	return nil
}

// offBridgeSpeak has the bridging committee reconstruct its tsk shares
// and reshare them to OnC1 — the only offline work that must wait for the
// online role keys. It is metered as offline communication.
func (r *run) offBridgeSpeak() error {
	shares, err := r.recoverShares(r.offBridge, comm.PhaseOffline)
	if err != nil {
		return err
	}
	_, err = r.tskStep(r.offBridge, shares, comm.PhaseOffline, comm.CatPartial, "tsk-bridge", nil, nil, r.onC1)
	return err
}

// onC1Speak is the online "future key distribution": OnC1 re-encrypts each
// KFF secret key towards the owner's role-assignment key, and reshares tsk
// to OnOut (needed for output delivery). Each message's envs are the layer
// KFFs in (layer, index) order, then the client KFFs in client order,
// then the reshares. In the NoKFF ablation OnC1 runs the Re-encrypt step
// towards the role keys instead.
func (r *run) onC1Speak() error {
	shares, err := r.recoverShares(r.onC1, comm.PhaseOnline)
	if err != nil {
		return err
	}
	if r.p.params.NoKFF {
		return r.reencrypt(r.onC1, shares, comm.PhaseOnline, "online-reencrypt-nokff",
			func(client int) pke.PublicKey { return r.clients[client].role.PublicKey() },
			func(layer, target int) pke.PublicKey { return r.layers[layer-1].Role(target + 1).PublicKey() },
			r.onOut)
	}
	var items []sealed
	var entries []*kffEntry
	for l, kl := range r.kffLayer {
		for j := range kl {
			items = append(items, sealed{ct: kl[j].secretCt, key: r.layers[l].Role(j + 1).PublicKey()})
			entries = append(entries, &kl[j])
		}
	}
	for _, id := range r.p.circ.Clients() {
		if kff := r.kffClient[id]; kff != nil {
			items = append(items, sealed{ct: kff.secretCt, key: r.clients[id].role.PublicKey()})
			entries = append(entries, kff)
		}
	}
	posts, err := r.tskStep(r.onC1, shares, comm.PhaseOnline, comm.CatKFF, "future-key-distribution",
		nil, items, r.onOut)
	if err != nil {
		return err
	}
	for _, m := range posts {
		for j, entry := range entries {
			entry.delivered = append(entry.delivered, m.envs[j])
		}
	}
	return nil
}

// openKFF recovers a KFF secret key from its delivered envelopes using the
// owner's role secret key.
func (r *run) openKFF(entry *kffEntry, ownerSK pke.SecretKey, phase comm.Phase) (pke.SecretKey, error) {
	v, err := r.combineEnvelopes(ownerSK, entry.delivered, entry.secretCt)
	if err != nil {
		return nil, err
	}
	r.p.audit.Record(phase, ValKFFSecret, KeyRole)
	buf := make([]byte, pke.SecretKeySize)
	v.FillBytes(buf)
	return r.p.params.PKE.SecretKeyFromBytes(buf)
}

// onlineInput has every client open λ^α for each of its input wires (via
// its KFF) and publish μ^α = v^α − λ^α.
func (r *run) onlineInput(inputs map[int][]field.Element) error {
	gates := r.p.circ.Gates()
	for _, client := range r.p.circ.Clients() {
		inGates := r.p.circ.InputGates(client)
		if len(inGates) == 0 {
			continue
		}
		cs := r.clients[client]
		inputKey := cs.role.SecretKey()
		keyClass := KeyClient
		if !r.p.params.NoKFF {
			kff := r.kffClient[client]
			kffSK, err := r.openKFF(kff, cs.role.SecretKey(), comm.PhaseOnline)
			if err != nil {
				return fmt.Errorf("client %d KFF: %w", client, err)
			}
			inputKey = kffSK
			keyClass = KeyKFF
		}
		mus := make([]field.Element, len(inGates))
		for j, gi := range inGates {
			lambdaInt, err := r.combineEnvelopes(inputKey, r.inputEnv[gi], r.wireCt[gates[gi].Out])
			if err != nil {
				return fmt.Errorf("client %d input %d: %w", client, j, err)
			}
			r.p.audit.Record(comm.PhaseOnline, ValWireLambda, keyClass)
			lambda := reduceToField(lambdaInt)
			mus[j] = inputs[client][j].Sub(lambda)
		}
		ok, err := r.eng.Speak(cs.role, r.stepOf(comm.PhaseOnline, comm.CatInput, "client-input",
			func(int) (stepMsg, error) { return stepMsg{mus: mus}, nil }, yoso.Shape{Elems: len(mus)}))
		if err != nil {
			return err
		}
		if !ok {
			// A silent/cheating client falls back to the default input 0
			// (the ideal functionality's default); μ = −λ would require
			// opening λ publicly, which the driver models by excluding
			// the client's outputs instead. Honest-client runs never hit
			// this path.
			return fmt.Errorf("%w: client %d input rejected", ErrNotEnough, client)
		}
		for j, gi := range inGates {
			w := gates[gi].Out
			r.mu[w] = mus[j]
			r.muKnown[w] = true
		}
	}
	return nil
}

// propagateLinear computes μ for linear gates whose inputs are known — the
// "anyone can locally add μ's" rule.
func (r *run) propagateLinear() {
	for _, g := range r.p.circ.Gates() {
		switch g.Kind {
		case circuit.KindConst:
			// v = Const and λ = 0, so μ = Const, publicly known upfront.
			if !r.muKnown[g.Out] {
				r.mu[g.Out] = g.Const
				r.muKnown[g.Out] = true
			}
		case circuit.KindAdd:
			if r.muKnown[g.A] && r.muKnown[g.B] && !r.muKnown[g.Out] {
				r.mu[g.Out] = r.mu[g.A].Add(r.mu[g.B])
				r.muKnown[g.Out] = true
			}
		case circuit.KindSub:
			if r.muKnown[g.A] && r.muKnown[g.B] && !r.muKnown[g.Out] {
				r.mu[g.Out] = r.mu[g.A].Sub(r.mu[g.B])
				r.muKnown[g.Out] = true
			}
		case circuit.KindConstMul:
			if r.muKnown[g.A] && !r.muKnown[g.Out] {
				r.mu[g.Out] = g.Const.Mul(r.mu[g.A])
				r.muKnown[g.Out] = true
			}
		}
	}
}

// onlineLayer runs the multiplication committee of layer l (0-based): each
// member opens its packed λ/Γ shares via its KFF, forms its μ^γ share
//
//	μ_i^γ = μ_i^α·μ_i^β + μ_i^α·λ_i^β + μ_i^β·λ_i^α + λ_i^Γ,
//
// and broadcasts one field element per batch; anyone reconstructs μ^γ from
// t+2(k−1)+1 verified shares.
func (r *run) onlineLayer(l int) error {
	p := r.p.params
	c := r.layers[l]
	gates := r.p.circ.Gates()

	// The layer's batches and their public μ input vectors.
	var layerBatches []*batchState
	for _, b := range r.batches {
		if b.Layer == l+1 {
			layerBatches = append(layerBatches, b)
		}
	}
	if len(layerBatches) == 0 {
		c.SpeakAll()
		return nil
	}
	muLeft := make([][]field.Element, len(layerBatches))
	muRight := make([][]field.Element, len(layerBatches))
	// One cached constant-packing domain per batch width, fetched outside
	// the per-member closure: every ConstantPackedShare below is then a
	// precomputed-row inner product with no cache lookup in the hot loop.
	constDoms := make([]*sharing.ConstDomain, len(layerBatches))
	for bi, b := range layerBatches {
		muLeft[bi] = make([]field.Element, b.k)
		muRight[bi] = make([]field.Element, b.k)
		for j, gi := range b.Gates {
			g := gates[gi]
			if !r.muKnown[g.A] || !r.muKnown[g.B] {
				return fmt.Errorf("core: layer %d gate %d inputs not yet public", l+1, gi)
			}
			muLeft[bi][j] = r.mu[g.A]
			muRight[bi][j] = r.mu[g.B]
		}
		cd, err := sharing.GetConstDomain(b.k)
		if err != nil {
			return err
		}
		constDoms[bi] = cd
	}

	computeShares := func(i int) (stepMsg, error) {
		role := c.Role(i)
		shareKey := role.SecretKey()
		keyClass := KeyRole
		if !p.NoKFF {
			kff := &r.kffLayer[l][i-1]
			kffSK, err := r.openKFF(kff, role.SecretKey(), comm.PhaseOnline)
			if err != nil {
				return stepMsg{}, err
			}
			shareKey = kffSK
			keyClass = KeyKFF
		}
		vals := make([]field.Element, len(layerBatches))
		for bi, b := range layerBatches {
			var lam [3]field.Element
			for kind := range lam {
				v, err := r.combineEnvelopes(shareKey, b.env[kind][i-1], b.packed[kind][i-1])
				if err != nil {
					return stepMsg{}, err
				}
				lam[kind] = reduceToField(v)
			}
			r.p.audit.Record(comm.PhaseOnline, ValPackedShare, keyClass)
			la, lb, lg := lam[0], lam[1], lam[2]
			sa, err := constDoms[bi].Share(muLeft[bi], i)
			if err != nil {
				return stepMsg{}, err
			}
			sb, err := constDoms[bi].Share(muRight[bi], i)
			if err != nil {
				return stepMsg{}, err
			}
			// μ_i^γ = μ_i^α·μ_i^β + μ_i^α·λ_i^β + μ_i^β·λ_i^α + λ_i^Γ.
			vals[bi] = sa.Value.Mul(sb.Value).
				Add(sa.Value.Mul(lb)).
				Add(sb.Value.Mul(la)).
				Add(lg)
		}
		return stepMsg{mus: vals}, nil
	}

	step := r.stepOf(comm.PhaseOnline, comm.CatMu, fmt.Sprintf("mu-layer%d", l+1), computeShares,
		yoso.Shape{Elems: len(layerBatches)})
	if p.Robust {
		// The Robust (§5.3 IT-GOD) path posts bare shares without proofs:
		// malicious members post uniformly random lies (type-correct —
		// anything else would be trivially discardable) and
		// Berlekamp–Welch decodes up to t of them out.
		step.NoProofs = true
		step.Malicious = func(int) (yoso.Msg, error) {
			lies := stepMsg{mus: make([]field.Element, len(layerBatches))}
			for j := range lies.mus {
				lies.mus[j] = field.MustRandom()
			}
			return r.msg(lies)
		}
	}
	posts, err := r.eng.Run(r.stepParent(), c, step)
	if err != nil {
		return err
	}

	// Reconstruct μ^γ per batch from the accepted shares.
	for bi, b := range layerBatches {
		bsp := r.stepSpan("reconstruct-batch")
		bsp.SetInt("batch", int64(bi))
		bsp.SetInt("gates", int64(b.k))
		var shares []sharing.Share
		for i := 1; i <= c.N(); i++ {
			raw, ok := posts[i]
			if !ok {
				continue
			}
			shares = append(shares, sharing.Share{Index: i, Value: raw.(stepMsg).mus[bi]})
		}
		degree := p.T + 2*(b.k-1)
		var muGamma []field.Element
		if p.Robust {
			muGamma, err = sharing.ReconstructRobust(shares, degree, b.k, p.T)
		} else {
			muGamma, err = reconstructShares(shares, degree, b.k)
		}
		bsp.End()
		if err != nil {
			return fmt.Errorf("batch %d: %w", bi, err)
		}
		for j, gi := range b.Gates {
			w := gates[gi].Out
			r.mu[w] = muGamma[j]
			r.muKnown[w] = true
		}
	}
	return nil
}

// onlineOutput re-encrypts each output wire's λ to its client, who opens
// v = μ + λ.
func (r *run) onlineOutput() (map[int][]field.Element, error) {
	gates := r.p.circ.Gates()
	shares, err := r.recoverShares(r.onOut, comm.PhaseOnline)
	if err != nil {
		return nil, err
	}
	type outGate struct {
		gi     int
		client int
		wire   circuit.WireID
	}
	var outs []outGate
	var items []sealed
	for _, client := range r.p.circ.Clients() {
		for _, gi := range r.p.circ.OutputGates(client) {
			outs = append(outs, outGate{gi: gi, client: client, wire: gates[gi].A})
			items = append(items, sealed{ct: r.wireCt[gates[gi].A], key: r.clients[client].role.PublicKey()})
		}
	}
	// Each message's envs are the output λ's in client order.
	posts, err := r.tskStep(r.onOut, shares, comm.PhaseOnline, comm.CatOutput, "output", nil, items, nil)
	if err != nil {
		return nil, err
	}

	outputs := map[int][]field.Element{}
	for j, og := range outs {
		if !r.muKnown[og.wire] {
			return nil, fmt.Errorf("core: output wire %d has no public μ", og.wire)
		}
		cs := r.clients[og.client]
		envs := make([]pke.Ciphertext, len(posts))
		for i, m := range posts {
			envs[i] = m.envs[j]
		}
		lamInt, err := r.combineEnvelopes(clientSecret(cs), envs, r.wireCt[og.wire])
		if err != nil {
			return nil, fmt.Errorf("output gate %d: %w", og.gi, err)
		}
		r.p.audit.Record(comm.PhaseOnline, ValOutput, KeyClient)
		v := r.mu[og.wire].Add(reduceToField(lamInt))
		outputs[og.client] = append(outputs[og.client], v)
	}
	return outputs, nil
}

// clientSecret returns the client's long-term secret key. Clients are
// known machines: their keys outlive their single input-role broadcast.
func clientSecret(cs *clientState) pke.SecretKey {
	return cs.role.SecretKey()
}
