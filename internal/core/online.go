package core

import (
	"fmt"
	"sort"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/sharing"
	"yosompc/internal/tte"
	"yosompc/internal/yoso"
)

// sortedKeys returns an int-keyed map's keys in ascending order: map-shaped
// payloads must encode deterministically.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

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

// envBundle is a broadcast bundle of addressed envelopes (the YOSO
// "point-to-point over the board" pattern).
type envBundle struct{ envs []envelope }

func (b envBundle) wireSize() int {
	s := 0
	for _, e := range b.envs {
		s += e.Ct.Size()
	}
	return s
}

func (b envBundle) encodeWire(p *Params) ([]byte, error) {
	return appendEnvelopes(p, make([]byte, 0, b.wireSize()), b.envs)
}

// reencPayload is the OffRe committee's single broadcast: Re-encrypt
// envelopes for input-wire λ's (Step 5), packed shares (Step 6), and the
// tsk resharing for OnC1.
type reencPayload struct {
	inputs  map[int]envelope   // input gate index → envelope to client KFF
	left    map[int][]envelope // batch → per-target-index envelope
	right   map[int][]envelope
	gamma   map[int][]envelope
	reshare []envelope
}

func (p reencPayload) wireSize() int {
	s := 0
	for _, e := range p.inputs {
		s += e.Ct.Size()
	}
	for _, envs := range p.left {
		for _, e := range envs {
			s += e.Ct.Size()
		}
	}
	for _, envs := range p.right {
		for _, e := range envs {
			s += e.Ct.Size()
		}
	}
	for _, envs := range p.gamma {
		for _, e := range envs {
			s += e.Ct.Size()
		}
	}
	for _, e := range p.reshare {
		s += e.Ct.Size()
	}
	return s
}

func (p reencPayload) encodeWire(pp *Params) ([]byte, error) {
	out := make([]byte, 0, p.wireSize())
	var err error
	for _, gi := range sortedKeys(p.inputs) {
		if out, err = appendEnvelopes(pp, out, []envelope{p.inputs[gi]}); err != nil {
			return nil, err
		}
	}
	for _, m := range []map[int][]envelope{p.left, p.right, p.gamma} {
		for _, bi := range sortedKeys(m) {
			if out, err = appendEnvelopes(pp, out, m[bi]); err != nil {
				return nil, err
			}
		}
	}
	return appendEnvelopes(pp, out, p.reshare)
}

// offReSpeak runs the OffRe committee (offline Steps 5 and 6): each
// member reconstructs its tsk share, posts partial decryptions of every
// value being re-encrypted — each encrypted under the recipient's KFF
// public key — and reshares tsk to the bridging committee. Every target
// key is known during the offline phase, so this speak happens entirely
// before inputs exist (it is called from offline()).
func (r *run) offReSpeak() error {
	p := r.p.params
	te := p.TE
	shares, err := r.recoverShares(r.offRe, comm.PhaseOffline)
	if err != nil {
		return err
	}
	if p.NoKFF {
		// §3.2 naive ablation: nothing to re-encrypt yet (the online
		// role keys do not exist and there are no KFFs) — OffRe only
		// passes tsk onward; OnC1 will pay the re-encryption online.
		posts, err := r.tskCommitteeSpeak(r.offRe, shares, comm.PhaseOffline,
			"steps-5-6-nokff", nil, r.offBridge,
			func(i int) pke.PublicKey { return r.offBridge.Role(i).PublicKey() })
		if err != nil {
			return err
		}
		r.storeHandoff("offBridge", posts)
		return nil
	}
	gates := r.p.circ.Gates()

	// Per-member work item list: (ciphertext, target KFF key).
	type item struct {
		ct  tte.Ciphertext
		key pke.PublicKey
	}
	var inputItems []item
	var inputGateIdx []int
	for _, client := range r.p.circ.Clients() {
		for _, gi := range r.p.circ.InputGates(client) {
			kff := r.kffClient[client]
			inputItems = append(inputItems, item{ct: r.wireCt[gates[gi].Out], key: kff.pub})
			inputGateIdx = append(inputGateIdx, gi)
		}
	}

	nEnvs := len(inputItems) + 3*len(r.batches)*p.N + p.N
	garbSize := nEnvs * (r.tpk.CiphertextSize() + 60)

	posts, err := r.committeeStep(r.offRe, comm.PhaseOffline, comm.CatReencrypt, "steps-5-6",
		func(i int) (sized, error) {
			sh := shares[i-1]
			if sh == nil {
				return nil, fmt.Errorf("role %d has no tsk share", i)
			}
			payload := reencPayload{
				inputs: map[int]envelope{},
				left:   map[int][]envelope{},
				right:  map[int][]envelope{},
				gamma:  map[int][]envelope{},
			}
			from := r.offRe.Role(i).Name()
			seal := pke.NewSealer(p.PKE)
			encPartial := func(ct tte.Ciphertext, key pke.PublicKey, to string) (envelope, error) {
				part, err := te.PartialDecrypt(r.tpk, sh, ct)
				if err != nil {
					return envelope{}, err
				}
				data, err := te.EncodePartial(part)
				if err != nil {
					return envelope{}, err
				}
				env, err := seal.Encrypt(key, data)
				if err != nil {
					return envelope{}, err
				}
				return envelope{From: from, To: to, Ct: env}, nil
			}
			// Step 5: input-wire λ's to client KFFs.
			for j, it := range inputItems {
				env, err := encPartial(it.ct, it.key, fmt.Sprintf("client-kff/%d", j))
				if err != nil {
					return nil, err
				}
				payload.inputs[inputGateIdx[j]] = env
			}
			// Step 6: packed shares to the layer roles' KFFs.
			for bi, b := range r.batches {
				kffs := r.kffLayer[b.Layer-1]
				for target := 0; target < p.N; target++ {
					le, err := encPartial(b.packedLeft[target], kffs[target].pub, "layer-kff")
					if err != nil {
						return nil, err
					}
					re, err := encPartial(b.packedRight[target], kffs[target].pub, "layer-kff")
					if err != nil {
						return nil, err
					}
					ge, err := encPartial(b.packedGamma[target], kffs[target].pub, "layer-kff")
					if err != nil {
						return nil, err
					}
					payload.left[bi] = append(payload.left[bi], le)
					payload.right[bi] = append(payload.right[bi], re)
					payload.gamma[bi] = append(payload.gamma[bi], ge)
				}
			}
			// Reshare tsk to the bridging committee's role keys.
			subs, err := te.Reshare(r.tpk, sh)
			if err != nil {
				return nil, err
			}
			for _, sub := range subs {
				data, err := te.EncodeSubShare(sub)
				if err != nil {
					return nil, err
				}
				env, err := seal.Encrypt(r.offBridge.Role(sub.To()).PublicKey(), data)
				if err != nil {
					return nil, err
				}
				payload.reshare = append(payload.reshare, envelope{
					From: from, To: fmt.Sprintf("offBridge/%d", sub.To()), Ct: env,
				})
			}
			return payload, nil
		},
		func(i int) sized { return garbage{size: garbSize} })
	if err != nil {
		return err
	}

	// File the verified envelopes for their recipients.
	byTarget := map[int][]envelope{}
	for _, raw := range posts {
		payload, ok := raw.(reencPayload)
		if !ok {
			continue
		}
		for gi, env := range payload.inputs {
			r.inputEnv[gi] = append(r.inputEnv[gi], env)
		}
		for bi, envs := range payload.left {
			b := r.batches[bi]
			if b.envLeft == nil {
				b.envLeft = make([][]envelope, p.N)
				b.envRight = make([][]envelope, p.N)
				b.envGamma = make([][]envelope, p.N)
			}
			for target, env := range envs {
				b.envLeft[target] = append(b.envLeft[target], env)
			}
			for target, env := range payload.right[bi] {
				b.envRight[target] = append(b.envRight[target], env)
			}
			for target, env := range payload.gamma[bi] {
				b.envGamma[target] = append(b.envGamma[target], env)
			}
		}
		for _, env := range payload.reshare {
			var idx int
			if _, err := fmt.Sscanf(env.To, "offBridge/%d", &idx); err == nil {
				byTarget[idx] = append(byTarget[idx], env)
			}
		}
	}
	r.handoffs["offBridge"] = byTarget
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
	posts, err := r.tskCommitteeSpeak(r.offBridge, shares, comm.PhaseOffline,
		"tsk-bridge", nil, r.onC1, func(i int) pke.PublicKey { return r.onC1.Role(i).PublicKey() })
	if err != nil {
		return err
	}
	r.storeHandoff("onC1", posts)
	return nil
}

// kffDelivery is OnC1's broadcast: for every KFF owner, the partial
// decryptions of its KFF secret, re-encrypted under the owner's role key,
// plus the tsk resharing for the output committee.
type kffDelivery struct {
	layer   map[[2]int]envelope // {layer, index-1} → envelope
	client  map[int]envelope
	reshare []envelope
}

func (d kffDelivery) wireSize() int {
	s := 0
	for _, e := range d.layer {
		s += e.Ct.Size()
	}
	for _, e := range d.client {
		s += e.Ct.Size()
	}
	for _, e := range d.reshare {
		s += e.Ct.Size()
	}
	return s
}

func (d kffDelivery) encodeWire(p *Params) ([]byte, error) {
	lkeys := make([][2]int, 0, len(d.layer))
	for k := range d.layer {
		lkeys = append(lkeys, k)
	}
	sort.Slice(lkeys, func(i, j int) bool {
		if lkeys[i][0] != lkeys[j][0] {
			return lkeys[i][0] < lkeys[j][0]
		}
		return lkeys[i][1] < lkeys[j][1]
	})
	out := make([]byte, 0, d.wireSize())
	var err error
	for _, k := range lkeys {
		if out, err = appendEnvelopes(p, out, []envelope{d.layer[k]}); err != nil {
			return nil, err
		}
	}
	for _, id := range sortedKeys(d.client) {
		if out, err = appendEnvelopes(p, out, []envelope{d.client[id]}); err != nil {
			return nil, err
		}
	}
	return appendEnvelopes(p, out, d.reshare)
}

// onC1Speak is the online "future key distribution": OnC1 re-encrypts each
// KFF secret key towards the owner's role-assignment key, and reshares tsk
// to OnOut (needed for output delivery).
func (r *run) onC1Speak() error {
	p := r.p.params
	te := p.TE
	shares, err := r.recoverShares(r.onC1, comm.PhaseOnline)
	if err != nil {
		return err
	}
	if p.NoKFF {
		return r.onC1SpeakNoKFF(shares)
	}
	nKff := len(r.kffClient)
	for _, kl := range r.kffLayer {
		nKff += len(kl)
	}
	garbSize := (nKff + p.N) * (r.tpk.CiphertextSize() + 60)

	posts, err := r.committeeStep(r.onC1, comm.PhaseOnline, comm.CatKFF, "future-key-distribution",
		func(i int) (sized, error) {
			sh := shares[i-1]
			if sh == nil {
				return nil, fmt.Errorf("role %d has no tsk share", i)
			}
			from := r.onC1.Role(i).Name()
			payload := kffDelivery{layer: map[[2]int]envelope{}, client: map[int]envelope{}}
			seal := pke.NewSealer(p.PKE)
			encTo := func(ct tte.Ciphertext, key pke.PublicKey, to string) (envelope, error) {
				part, err := te.PartialDecrypt(r.tpk, sh, ct)
				if err != nil {
					return envelope{}, err
				}
				data, err := te.EncodePartial(part)
				if err != nil {
					return envelope{}, err
				}
				env, err := seal.Encrypt(key, data)
				if err != nil {
					return envelope{}, err
				}
				return envelope{From: from, To: to, Ct: env}, nil
			}
			for l, kl := range r.kffLayer {
				for j := range kl {
					owner := r.layers[l].Role(j + 1)
					env, err := encTo(kl[j].secretCt, owner.PublicKey(), owner.Name())
					if err != nil {
						return nil, err
					}
					payload.layer[[2]int{l, j}] = env
				}
			}
			for id, kff := range r.kffClient {
				env, err := encTo(kff.secretCt, r.clients[id].role.PublicKey(), fmt.Sprintf("client/%d", id))
				if err != nil {
					return nil, err
				}
				payload.client[id] = env
			}
			subs, err := te.Reshare(r.tpk, sh)
			if err != nil {
				return nil, err
			}
			for _, sub := range subs {
				data, err := te.EncodeSubShare(sub)
				if err != nil {
					return nil, err
				}
				env, err := seal.Encrypt(r.onOut.Role(sub.To()).PublicKey(), data)
				if err != nil {
					return nil, err
				}
				payload.reshare = append(payload.reshare, envelope{
					From: from, To: fmt.Sprintf("onOut/%d", sub.To()), Ct: env,
				})
			}
			return payload, nil
		},
		func(i int) sized { return garbage{size: garbSize} })
	if err != nil {
		return err
	}

	byTarget := map[int][]envelope{}
	for _, raw := range posts {
		payload, ok := raw.(kffDelivery)
		if !ok {
			continue
		}
		for key, env := range payload.layer {
			r.kffLayer[key[0]][key[1]].delivered = append(r.kffLayer[key[0]][key[1]].delivered, env)
		}
		for id, env := range payload.client {
			r.kffClient[id].delivered = append(r.kffClient[id].delivered, env)
		}
		for _, env := range payload.reshare {
			var idx int
			if _, err := fmt.Sscanf(env.To, "onOut/%d", &idx); err == nil {
				byTarget[idx] = append(byTarget[idx], env)
			}
		}
	}
	r.handoffs["onOut"] = byTarget
	return nil
}

// onC1SpeakNoKFF is the §3.2 naive ablation's online step: OnC1 uses its
// tsk shares to re-encrypt every packed share to the layer roles' role
// keys and every input-wire λ to the client keys — the Θ(n²·batches)
// communication the KFF machinery moves offline — then reshares tsk to
// the output committee.
func (r *run) onC1SpeakNoKFF(shares []tte.KeyShare) error {
	p := r.p.params
	te := p.TE
	gates := r.p.circ.Gates()
	type item struct {
		ct  tte.Ciphertext
		key pke.PublicKey
	}
	var inputItems []item
	var inputGateIdx []int
	for _, client := range r.p.circ.Clients() {
		for _, gi := range r.p.circ.InputGates(client) {
			inputItems = append(inputItems, item{ct: r.wireCt[gates[gi].Out], key: r.clients[client].role.PublicKey()})
			inputGateIdx = append(inputGateIdx, gi)
		}
	}
	nEnvs := len(inputItems) + 3*len(r.batches)*p.N + p.N
	garbSize := nEnvs * (r.tpk.CiphertextSize() + 60)

	posts, err := r.committeeStep(r.onC1, comm.PhaseOnline, comm.CatReencrypt, "online-reencrypt-nokff",
		func(i int) (sized, error) {
			sh := shares[i-1]
			if sh == nil {
				return nil, fmt.Errorf("role %d has no tsk share", i)
			}
			payload := reencPayload{
				inputs: map[int]envelope{},
				left:   map[int][]envelope{},
				right:  map[int][]envelope{},
				gamma:  map[int][]envelope{},
			}
			from := r.onC1.Role(i).Name()
			seal := pke.NewSealer(p.PKE)
			encPartial := func(ct tte.Ciphertext, key pke.PublicKey, to string) (envelope, error) {
				part, err := te.PartialDecrypt(r.tpk, sh, ct)
				if err != nil {
					return envelope{}, err
				}
				data, err := te.EncodePartial(part)
				if err != nil {
					return envelope{}, err
				}
				env, err := seal.Encrypt(key, data)
				if err != nil {
					return envelope{}, err
				}
				return envelope{From: from, To: to, Ct: env}, nil
			}
			for j, it := range inputItems {
				env, err := encPartial(it.ct, it.key, "client")
				if err != nil {
					return nil, err
				}
				payload.inputs[inputGateIdx[j]] = env
			}
			for bi, b := range r.batches {
				layer := r.layers[b.Layer-1]
				for target := 0; target < p.N; target++ {
					key := layer.Role(target + 1).PublicKey()
					le, err := encPartial(b.packedLeft[target], key, "layer-role")
					if err != nil {
						return nil, err
					}
					re, err := encPartial(b.packedRight[target], key, "layer-role")
					if err != nil {
						return nil, err
					}
					ge, err := encPartial(b.packedGamma[target], key, "layer-role")
					if err != nil {
						return nil, err
					}
					payload.left[bi] = append(payload.left[bi], le)
					payload.right[bi] = append(payload.right[bi], re)
					payload.gamma[bi] = append(payload.gamma[bi], ge)
				}
			}
			subs, err := te.Reshare(r.tpk, sh)
			if err != nil {
				return nil, err
			}
			for _, sub := range subs {
				data, err := te.EncodeSubShare(sub)
				if err != nil {
					return nil, err
				}
				env, err := seal.Encrypt(r.onOut.Role(sub.To()).PublicKey(), data)
				if err != nil {
					return nil, err
				}
				payload.reshare = append(payload.reshare, envelope{
					From: from, To: fmt.Sprintf("onOut/%d", sub.To()), Ct: env,
				})
			}
			return payload, nil
		},
		func(i int) sized { return garbage{size: garbSize} })
	if err != nil {
		return err
	}

	byTarget := map[int][]envelope{}
	for _, raw := range posts {
		payload, ok := raw.(reencPayload)
		if !ok {
			continue
		}
		for gi, env := range payload.inputs {
			r.inputEnv[gi] = append(r.inputEnv[gi], env)
		}
		for bi, envs := range payload.left {
			b := r.batches[bi]
			if b.envLeft == nil {
				b.envLeft = make([][]envelope, p.N)
				b.envRight = make([][]envelope, p.N)
				b.envGamma = make([][]envelope, p.N)
			}
			for target, env := range envs {
				b.envLeft[target] = append(b.envLeft[target], env)
			}
			for target, env := range payload.right[bi] {
				b.envRight[target] = append(b.envRight[target], env)
			}
			for target, env := range payload.gamma[bi] {
				b.envGamma[target] = append(b.envGamma[target], env)
			}
		}
		for _, env := range payload.reshare {
			var idx int
			if _, err := fmt.Sscanf(env.To, "onOut/%d", &idx); err == nil {
				byTarget[idx] = append(byTarget[idx], env)
			}
		}
	}
	r.handoffs["onOut"] = byTarget
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

// muBundle is a client's or layer role's broadcast of μ openings/shares.
type muBundle struct{ vals []field.Element }

func (m muBundle) wireSize() int { return len(m.vals) * field.ElementSize }

func (m muBundle) encodeWire(*Params) ([]byte, error) {
	return field.AppendVecBytes(make([]byte, 0, m.wireSize()), m.vals), nil
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
			func(int) (sized, error) { return muBundle{vals: mus}, nil },
			func(int) sized { return garbage{size: len(mus) * field.ElementSize} }))
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

	computeShares := func(i int) (sized, error) {
		role := c.Role(i)
		shareKey := role.SecretKey()
		keyClass := KeyRole
		if !p.NoKFF {
			kff := &r.kffLayer[l][i-1]
			kffSK, err := r.openKFF(kff, role.SecretKey(), comm.PhaseOnline)
			if err != nil {
				return nil, err
			}
			shareKey = kffSK
			keyClass = KeyKFF
		}
		vals := make([]field.Element, len(layerBatches))
		for bi, b := range layerBatches {
			lamA, err := r.combineEnvelopes(shareKey, b.envLeft[i-1], b.packedLeft[i-1])
			if err != nil {
				return nil, err
			}
			lamB, err := r.combineEnvelopes(shareKey, b.envRight[i-1], b.packedRight[i-1])
			if err != nil {
				return nil, err
			}
			lamG, err := r.combineEnvelopes(shareKey, b.envGamma[i-1], b.packedGamma[i-1])
			if err != nil {
				return nil, err
			}
			r.p.audit.Record(comm.PhaseOnline, ValPackedShare, keyClass)
			la, lb, lg := reduceToField(lamA), reduceToField(lamB), reduceToField(lamG)
			sa, err := constDoms[bi].Share(muLeft[bi], i)
			if err != nil {
				return nil, err
			}
			sb, err := constDoms[bi].Share(muRight[bi], i)
			if err != nil {
				return nil, err
			}
			// μ_i^γ = μ_i^α·μ_i^β + μ_i^α·λ_i^β + μ_i^β·λ_i^α + λ_i^Γ.
			vals[bi] = sa.Value.Mul(sb.Value).
				Add(sa.Value.Mul(lb)).
				Add(sb.Value.Mul(la)).
				Add(lg)
		}
		return muBundle{vals: vals}, nil
	}

	// The Robust (§5.3 IT-GOD) path posts bare shares without proofs:
	// malicious members post uniformly random lies (type-correct —
	// anything else would be trivially discardable) and Berlekamp–Welch
	// decodes up to t of them out.
	malicious := func(int) sized { return garbage{size: len(layerBatches) * field.ElementSize} }
	if p.Robust {
		malicious = func(int) sized {
			lies := make([]field.Element, len(layerBatches))
			for j := range lies {
				lies[j] = field.MustRandom()
			}
			return muBundle{vals: lies}
		}
	}
	step := r.stepOf(comm.PhaseOnline, comm.CatMu, fmt.Sprintf("mu-layer%d", l+1), computeShares, malicious)
	step.NoProofs = p.Robust
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
			shares = append(shares, sharing.Share{Index: i, Value: raw.(muBundle).vals[bi]})
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

// outputPayload is OnOut's broadcast: Re-encrypt* envelopes of output-wire
// λ's under the receiving clients' keys (no further tsk resharing).
type outputPayload struct {
	envs map[int]envelope // output gate index → envelope
}

func (o outputPayload) wireSize() int {
	s := 0
	for _, e := range o.envs {
		s += e.Ct.Size()
	}
	return s
}

func (o outputPayload) encodeWire(p *Params) ([]byte, error) {
	out := make([]byte, 0, o.wireSize())
	var err error
	for _, gi := range sortedKeys(o.envs) {
		if out, err = appendEnvelopes(p, out, []envelope{o.envs[gi]}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// onlineOutput re-encrypts each output wire's λ to its client, who opens
// v = μ + λ.
func (r *run) onlineOutput() (map[int][]field.Element, error) {
	p := r.p.params
	te := p.TE
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
	for _, client := range r.p.circ.Clients() {
		for _, gi := range r.p.circ.OutputGates(client) {
			outs = append(outs, outGate{gi: gi, client: client, wire: gates[gi].A})
		}
	}
	garbSize := len(outs) * (r.tpk.CiphertextSize() + 60)

	posts, err := r.committeeStep(r.onOut, comm.PhaseOnline, comm.CatOutput, "output",
		func(i int) (sized, error) {
			sh := shares[i-1]
			if sh == nil {
				return nil, fmt.Errorf("role %d has no tsk share", i)
			}
			from := r.onOut.Role(i).Name()
			payload := outputPayload{envs: map[int]envelope{}}
			seal := pke.NewSealer(p.PKE)
			for _, og := range outs {
				part, err := te.PartialDecrypt(r.tpk, sh, r.wireCt[og.wire])
				if err != nil {
					return nil, err
				}
				data, err := te.EncodePartial(part)
				if err != nil {
					return nil, err
				}
				env, err := seal.Encrypt(r.clients[og.client].role.PublicKey(), data)
				if err != nil {
					return nil, err
				}
				payload.envs[og.gi] = envelope{From: from, To: fmt.Sprintf("client/%d", og.client), Ct: env}
			}
			return payload, nil
		},
		func(i int) sized { return garbage{size: garbSize} })
	if err != nil {
		return nil, err
	}

	byGate := map[int][]envelope{}
	for _, raw := range posts {
		payload, ok := raw.(outputPayload)
		if !ok {
			continue
		}
		for gi, env := range payload.envs {
			byGate[gi] = append(byGate[gi], env)
		}
	}

	outputs := map[int][]field.Element{}
	for _, og := range outs {
		if !r.muKnown[og.wire] {
			return nil, fmt.Errorf("core: output wire %d has no public μ", og.wire)
		}
		cs := r.clients[og.client]
		lamInt, err := r.combineEnvelopes(clientSecret(cs), byGate[og.gi], r.wireCt[og.wire])
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
