package core

import (
	"bytes"
	"sync"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/tte"
)

// recorder collects the items a run puts into its messages: the encoding
// of every envelope a step sealer makes, and of every partial decryption.
type recorder struct {
	mu       sync.Mutex
	envs     [][]byte
	partials [][]byte
}

func (r *recorder) add(list *[][]byte, b []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	*list = append(*list, append([]byte(nil), b...))
}

// recordingPKE is an ECIES scheme whose step sealers record every
// envelope they seal.
type recordingPKE struct {
	*pke.ECIES
	rec *recorder
}

func (s recordingPKE) NewSealer() pke.Sealer {
	return recordingSealer{inner: s.ECIES.NewSealer(), s: s}
}

type recordingSealer struct {
	inner pke.Sealer
	s     recordingPKE
}

func (rs recordingSealer) Encrypt(pk pke.PublicKey, msg []byte) (pke.Ciphertext, error) {
	ct, err := rs.inner.Encrypt(pk, msg)
	if err != nil {
		return nil, err
	}
	enc, err := rs.s.EncodeCiphertext(ct)
	if err != nil {
		return nil, err
	}
	rs.s.rec.add(&rs.s.rec.envs, enc)
	return ct, nil
}

// recordingTE is a TE backend that records every partial decryption it
// encodes (the public ones land on the board in the clear).
type recordingTE struct {
	TE
	rec *recorder
}

func (t recordingTE) EncodePartial(p tte.PartialDec) ([]byte, error) {
	enc, err := t.TE.EncodePartial(p)
	if err == nil {
		t.rec.add(&t.rec.partials, enc)
	}
	return enc, err
}

// TestEnvelopeEphemeralPerSpeaker reads every ECIES envelope of a small
// real-backend run back from the board bytes. All envelopes of one
// speaker (a committee member's post, or the setup dealer's deliveries)
// carry one ephemeral key, and no two speakers share one. Every sealed
// envelope reaches the board, and envelopes plus public partial
// decryptions cover every byte of the postings that carry envelopes.
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
		rec := &recorder{}
		params.PKE = recordingPKE{ECIES: pke.NewECIES(), rec: rec}
		params.TE = recordingTE{TE: params.TE, rec: rec}
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
		posted := make([]int, len(rec.envs)) // postings carrying each envelope
		reencPosts := 0
		for _, post := range proto.Board().All() {
			covered := make([]bool, len(post.Bytes))
			cover := func(item []byte) (int, bool) {
				off := bytes.Index(post.Bytes, item)
				if off < 0 {
					return 0, false
				}
				for i := off; i < off+len(item); i++ {
					if covered[i] {
						t.Errorf("post #%d (%s): byte %d covered twice", post.Seq, post.From, i)
					}
					covered[i] = true
				}
				return off, true
			}
			envs := 0
			for j, enc := range rec.envs {
				off, ok := cover(enc)
				if !ok {
					continue
				}
				envs++
				posted[j]++
				onBoard := post.Bytes[off : off+len(enc)]
				if _, err := params.PKE.DecodeCiphertext(onBoard); err != nil {
					t.Fatalf("post #%d (%s): envelope %d: %v", post.Seq, post.From, j, err)
				}
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
			if envs == 0 {
				continue
			}
			if post.Category == comm.CatReencrypt {
				reencPosts++
			}
			for _, enc := range rec.partials {
				cover(enc)
			}
			n := 0
			for _, c := range covered {
				if c {
					n++
				}
			}
			if n != post.Size {
				t.Errorf("post #%d (%s): envelopes and partials cover %d of %d bytes", post.Seq, post.From, n, post.Size)
			}
		}
		for j, n := range posted {
			if n != 1 {
				t.Errorf("NoKFF=%v: sealed envelope %d is in %d postings, want 1", noKFF, j, n)
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
