package pke

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// recipients mints n ECIES keypairs.
func recipients(t testing.TB, n int) ([]PublicKey, []SecretKey) {
	t.Helper()
	s := NewECIES()
	pks := make([]PublicKey, n)
	sks := make([]SecretKey, n)
	for i := range pks {
		pk, sk, err := s.GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		pks[i], sks[i] = pk, sk
	}
	return pks, sks
}

func ephemeralOf(t *testing.T, ct Ciphertext) string {
	t.Helper()
	ec, ok := ct.(*eciesCT)
	if !ok {
		t.Fatalf("envelope is %T, want *eciesCT", ct)
	}
	return string(ec.ephemeral)
}

func cacheLen(sk SecretKey) int {
	s := sk.(*eciesSecret)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.aeads)
}

func TestSealerRoundTripManyRecipients(t *testing.T) {
	pks, sks := recipients(t, 34)
	seal := NewSealer(NewECIES())
	for round := 0; round < 7; round++ {
		for i, pk := range pks {
			msg := []byte(fmt.Sprintf("round %d to %d", round, i))
			ct, err := seal.Encrypt(pk, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sks[i].Decrypt(ct)
			if err != nil {
				t.Fatalf("round %d recipient %d: %v", round, i, err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("round %d recipient %d: got %q, want %q", round, i, got, msg)
			}
		}
	}
	for i, sk := range sks {
		if n := cacheLen(sk); n != 1 {
			t.Errorf("recipient %d caches %d ciphers for one sealer, want 1", i, n)
		}
	}
}

// TestSealerEphemeralPerStep pins the amortization: every envelope of one
// sealer carries one ephemeral key, and two sealers never share one.
func TestSealerEphemeralPerStep(t *testing.T) {
	pks, _ := recipients(t, 5)
	s := NewECIES()
	seen := map[string]int{}
	for step := 0; step < 4; step++ {
		seal := s.NewSealer()
		var eph string
		for j := 0; j < 3*len(pks); j++ {
			ct, err := seal.Encrypt(pks[j%len(pks)], []byte{byte(j)})
			if err != nil {
				t.Fatal(err)
			}
			e := ephemeralOf(t, ct)
			if j == 0 {
				eph = e
			} else if e != eph {
				t.Fatalf("step %d envelope %d has its own ephemeral", step, j)
			}
		}
		if prev, ok := seen[eph]; ok {
			t.Fatalf("steps %d and %d share an ephemeral", prev, step)
		}
		seen[eph] = step
	}
}

// TestSealerEnvelopesSelfContained decodes every envelope from its bytes
// and opens it with a key rebuilt from its encoding, whose cache is empty:
// no envelope depends on another having been opened first.
func TestSealerEnvelopesSelfContained(t *testing.T) {
	s := NewECIES()
	pks, sks := recipients(t, 6)
	seal := s.NewSealer()
	type sent struct {
		to  int
		msg []byte
		enc []byte
	}
	var all []sent
	for j := 0; j < 24; j++ {
		to := j % len(pks)
		msg := bytes.Repeat([]byte{byte(j)}, j)
		ct, err := seal.Encrypt(pks[to], msg)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := s.EncodeCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, sent{to: to, msg: msg, enc: enc})
	}
	for j, e := range all {
		fresh, err := s.SecretKeyFromBytes(sks[e.to].Bytes())
		if err != nil {
			t.Fatal(err)
		}
		ct, err := s.DecodeCiphertext(e.enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Decrypt(ct)
		if err != nil {
			t.Fatalf("envelope %d with an empty cache: %v", j, err)
		}
		if !bytes.Equal(got, e.msg) {
			t.Fatalf("envelope %d: got %x, want %x", j, got, e.msg)
		}
	}
}

// TestSealerRecipientBound checks that a shared ephemeral does not let one
// recipient open another's envelope, even with the ephemeral's cipher
// already cached.
func TestSealerRecipientBound(t *testing.T) {
	pks, sks := recipients(t, 2)
	seal := NewECIES().NewSealer()
	toA, err := seal.Encrypt(pks[0], []byte("for A"))
	if err != nil {
		t.Fatal(err)
	}
	toB, err := seal.Encrypt(pks[1], []byte("for B"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sks[1].Decrypt(toA); !errors.Is(err, ErrDecrypt) {
		t.Errorf("B opened A's envelope before caching: err = %v", err)
	}
	if _, err := sks[1].Decrypt(toB); err != nil {
		t.Fatal(err)
	}
	if _, err := sks[1].Decrypt(toA); !errors.Is(err, ErrDecrypt) {
		t.Errorf("B opened A's envelope from its cache: err = %v", err)
	}
}

// TestECIESFailedOpenLeavesCacheEmpty covers the rejection paths: a short
// envelope fails before any curve work, and tampered envelopes fail
// authentication; neither adds a cache entry.
func TestECIESFailedOpenLeavesCacheEmpty(t *testing.T) {
	s := NewECIES()
	pks, sks := recipients(t, 1)
	pk, sk := pks[0], sks[0]
	seal := s.NewSealer()
	ct, err := seal.Encrypt(pk, []byte("integrity"))
	if err != nil {
		t.Fatal(err)
	}
	ec := ct.(*eciesCT)

	short := &eciesCT{ephemeral: ec.ephemeral, sealed: ec.sealed[:gcmNonceSize+gcmTagSize-1]}
	if _, err := sk.Decrypt(short); !errors.Is(err, ErrShortData) {
		t.Errorf("short envelope: err = %v, want ErrShortData", err)
	}
	body := append([]byte(nil), ec.sealed...)
	body[len(body)-1] ^= 1
	if _, err := sk.Decrypt(&eciesCT{ephemeral: ec.ephemeral, sealed: body}); !errors.Is(err, ErrDecrypt) {
		t.Errorf("tampered body: err = %v, want ErrDecrypt", err)
	}
	eph := append([]byte(nil), ec.ephemeral...)
	eph[0] ^= 1
	if _, err := sk.Decrypt(&eciesCT{ephemeral: eph, sealed: ec.sealed}); !errors.Is(err, ErrDecrypt) {
		t.Errorf("tampered ephemeral: err = %v, want ErrDecrypt", err)
	}
	if n := cacheLen(sk); n != 0 {
		t.Fatalf("failed opens cached %d ciphers, want 0", n)
	}
	if _, err := sk.Decrypt(ct); err != nil {
		t.Fatal(err)
	}
	if n := cacheLen(sk); n != 1 {
		t.Errorf("a good open cached %d ciphers, want 1", n)
	}
	if _, err := sk.Decrypt(&eciesCT{ephemeral: ec.ephemeral, sealed: body}); !errors.Is(err, ErrDecrypt) {
		t.Errorf("tampered body with a cached cipher: err = %v, want ErrDecrypt", err)
	}
}

func TestSealerEnvelopeSize(t *testing.T) {
	s := NewECIES()
	pks, _ := recipients(t, 3)
	seal := s.NewSealer()
	for _, n := range []int{0, 1, 100, 1000} {
		ct, err := seal.Encrypt(pks[n%len(pks)], make([]byte, n))
		if err != nil {
			t.Fatal(err)
		}
		if ct.Size() != 60+n {
			t.Errorf("Size() = %d for a %d-byte message, want %d", ct.Size(), n, 60+n)
		}
		enc, err := s.EncodeCiphertext(ct)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) != ct.Size() {
			t.Errorf("encoding is %d bytes, Size() %d", len(enc), ct.Size())
		}
	}
}

// wrappedScheme is a Scheme decorator from outside the backend: it hides
// the StepSealer surface and counts seals through its keys.
type wrappedScheme struct {
	Scheme
	seals *int
}

type wrappedPub struct {
	PublicKey
	seals *int
}

func (w wrappedScheme) GenerateKey() (PublicKey, SecretKey, error) {
	pk, sk, err := w.Scheme.GenerateKey()
	if err != nil {
		return nil, nil, err
	}
	return wrappedPub{pk, w.seals}, sk, nil
}

func (w wrappedPub) Encrypt(msg []byte) (Ciphertext, error) {
	*w.seals++
	return w.PublicKey.Encrypt(msg)
}

// TestSealerFallback checks the per-envelope path: Sim and wrapped schemes
// get the fallback sealer, and an ECIES sealer hands keys that are not its
// own to their Encrypt.
func TestSealerFallback(t *testing.T) {
	if _, ok := NewSealer(NewSim()).(perEnvelope); !ok {
		t.Error("Sim took a step sealer")
	}
	if _, ok := NewSealer(NewECIES()).(*eciesSealer); !ok {
		t.Error("ECIES took the fallback")
	}
	seals := 0
	ws := wrappedScheme{Scheme: NewECIES(), seals: &seals}
	if _, ok := NewSealer(ws).(perEnvelope); !ok {
		t.Error("a wrapped scheme took a step sealer")
	}

	spk, ssk, err := NewSim().GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	wpk, wsk, err := ws.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for name, seal := range map[string]Sealer{"fallback": NewSealer(ws), "ecies": NewECIES().NewSealer()} {
		seals = 0
		var ephs []string
		for i := 0; i < 2; i++ {
			ct, err := seal.Encrypt(spk, []byte("sim"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ssk.Decrypt(ct); err != nil {
				t.Errorf("%s: Sim key: %v", name, err)
			}
			if ct, err = seal.Encrypt(wpk, []byte("wrapped")); err != nil {
				t.Fatal(err)
			}
			if _, err := wsk.Decrypt(ct); err != nil {
				t.Errorf("%s: wrapped key: %v", name, err)
			}
			ephs = append(ephs, ephemeralOf(t, ct))
		}
		if ephs[0] == ephs[1] {
			t.Errorf("%s: wrapped key reused an ephemeral", name)
		}
		if seals != 2 {
			t.Errorf("%s: wrapped key sealed %d times through its Encrypt, want 2", name, seals)
		}
	}
}

// TestECIESDecryptConcurrent hammers one key's cache from many goroutines
// (run with -race): every open succeeds and the cache ends with one entry
// per sealer.
func TestECIESDecryptConcurrent(t *testing.T) {
	const sealers, perSealer, workers = 4, 16, 8
	pks, sks := recipients(t, 1)
	var cts []Ciphertext
	for i := 0; i < sealers; i++ {
		seal := NewECIES().NewSealer()
		for j := 0; j < perSealer; j++ {
			ct, err := seal.Encrypt(pks[0], []byte{byte(i), byte(j)})
			if err != nil {
				t.Fatal(err)
			}
			cts = append(cts, ct)
		}
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range cts {
				ct := cts[(k+w*7)%len(cts)]
				got, err := sks[0].Decrypt(ct)
				if err != nil {
					errs[w] = err
					return
				}
				if len(got) != 2 {
					errs[w] = fmt.Errorf("got %d bytes", len(got))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", w, err)
		}
	}
	if n := cacheLen(sks[0]); n != sealers {
		t.Errorf("cache holds %d ciphers, want %d", n, sealers)
	}
}

// BenchmarkSealerEncrypt seals one OffRe member's step at n=16: 240
// envelopes to 34 distinct keys under one sealer.
func BenchmarkSealerEncrypt(b *testing.B) {
	pks, _ := recipients(b, 34)
	msg := bytes.Repeat([]byte{1}, 256)
	s := NewECIES()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seal := s.NewSealer()
		for j := 0; j < 240; j++ {
			if _, err := seal.Encrypt(pks[j%len(pks)], msg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkECIESDecryptCached opens envelopes whose ephemeral's cipher is
// already cached: the per-envelope cost a layer role pays after the first
// envelope from each sender.
func BenchmarkECIESDecryptCached(b *testing.B) {
	pks, sks := recipients(b, 1)
	ct, err := NewECIES().NewSealer().Encrypt(pks[0], bytes.Repeat([]byte{1}, 256))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sks[0].Decrypt(ct); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sks[0].Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}
