package core

import (
	"bytes"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/field"
	"yosompc/internal/transport"
)

// postedEnvelopes lists the PKE envelopes a board posting carries, and the
// bytes of the posting that are not envelopes.
func postedEnvelopes(p transport.Posting) (envs []envelope, other int) {
	switch pl := p.Payload.(type) {
	case envelope:
		envs = append(envs, pl)
	case decPayload:
		for _, e := range pl.partEnc {
			other += len(e)
		}
		envs = append(envs, pl.reshare...)
	case reencPayload:
		for _, e := range pl.inputs {
			envs = append(envs, e)
		}
		for _, m := range []map[int][]envelope{pl.left, pl.right, pl.gamma} {
			for _, es := range m {
				envs = append(envs, es...)
			}
		}
		envs = append(envs, pl.reshare...)
	case kffDelivery:
		for _, e := range pl.layer {
			envs = append(envs, e)
		}
		for _, e := range pl.client {
			envs = append(envs, e)
		}
		envs = append(envs, pl.reshare...)
	case outputPayload:
		for _, e := range pl.envs {
			envs = append(envs, e)
		}
	}
	return envs, other
}

// TestEnvelopeEphemeralPerSpeaker reads every ECIES envelope of a small
// real-backend run back from the board bytes. All envelopes of one
// speaker (a committee member's post, or the setup dealer's deliveries)
// carry one ephemeral key, and no two speakers share one.
func TestEnvelopeEphemeralPerSpeaker(t *testing.T) {
	if testing.Short() {
		t.Skip("real-crypto end-to-end in -short mode")
	}
	circ, err := circuit.WideMul(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2}, 1: {3, 4}})
	for _, noKFF := range []bool{false, true} {
		params := realParams(t, 5, 1, 2, nil)
		params.NoKFF = noKFF
		want, err := circ.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		proto, err := New(params, circ, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := proto.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		for client, vals := range want {
			if !field.EqualVec(res.Outputs[client], vals) {
				t.Fatalf("NoKFF=%v: client %d outputs %v, want %v", noKFF, client, res.Outputs[client], vals)
			}
		}

		ephOf := map[string]string{} // speaker → ephemeral
		speakerOf := map[string]string{}
		reencPosts := 0
		for _, post := range proto.Board().All() {
			envs, other := postedEnvelopes(post)
			if len(envs) == 0 {
				continue
			}
			if _, ok := post.Payload.(reencPayload); ok {
				reencPosts++
			}
			covered := other
			for j, env := range envs {
				enc, err := params.PKE.EncodeCiphertext(env.Ct)
				if err != nil {
					t.Fatal(err)
				}
				off := bytes.Index(post.Bytes, enc)
				if off < 0 {
					t.Fatalf("post #%d (%s): envelope %d is not in the posted bytes", post.Seq, post.From, j)
				}
				onBoard := post.Bytes[off : off+len(enc)]
				if _, err := params.PKE.DecodeCiphertext(onBoard); err != nil {
					t.Fatalf("post #%d (%s): envelope %d: %v", post.Seq, post.From, j, err)
				}
				covered += len(enc)
				eph := string(onBoard[:32])
				if prev, ok := ephOf[post.From]; !ok {
					ephOf[post.From] = eph
				} else if prev != eph {
					t.Errorf("post #%d (%s): envelope %d carries a second ephemeral", post.Seq, post.From, j)
				}
				if s, ok := speakerOf[eph]; ok && s != post.From {
					t.Errorf("%s and %s share an ephemeral", s, post.From)
				}
				speakerOf[eph] = post.From
			}
			if covered != post.Size {
				t.Errorf("post #%d (%s): envelopes and partials cover %d of %d bytes", post.Seq, post.From, covered, post.Size)
			}
		}
		if reencPosts < params.N {
			t.Errorf("NoKFF=%v: read %d re-encryption posts, want ≥ %d", noKFF, reencPosts, params.N)
		}
		if len(ephOf) < 3*params.N {
			t.Errorf("NoKFF=%v: %d speakers posted envelopes, want ≥ %d", noKFF, len(ephOf), 3*params.N)
		}
	}
}
