package pke

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func backends() map[string]Scheme {
	return map[string]Scheme{
		"ecies-x25519": NewECIES(),
		"sim":          NewSim(),
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			msgs := [][]byte{
				{},
				[]byte("x"),
				[]byte("the quick brown fox"),
				bytes.Repeat([]byte{0xAB}, 4096),
			}
			for _, m := range msgs {
				ct, err := pk.Encrypt(m)
				if err != nil {
					t.Fatalf("Encrypt: %v", err)
				}
				got, err := sk.Decrypt(ct)
				if err != nil {
					t.Fatalf("Decrypt: %v", err)
				}
				if !bytes.Equal(got, m) {
					t.Errorf("round trip: got %d bytes, want %d", len(got), len(m))
				}
			}
		})
	}
}

func TestRoundTripProperty(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			f := func(msg []byte) bool {
				ct, err := pk.Encrypt(msg)
				if err != nil {
					return false
				}
				got, err := sk.Decrypt(ct)
				return err == nil && bytes.Equal(got, msg)
			}
			cfg := &quick.Config{MaxCount: 25}
			if err := quick.Check(f, cfg); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestWrongKeyFailsToDecrypt(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk1, _, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			_, sk2, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			ct, err := pk1.Encrypt([]byte("secret"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sk2.Decrypt(ct); err == nil {
				t.Error("wrong key decrypted envelope")
			}
		})
	}
}

func TestSecretKeyBytesRoundTrip(t *testing.T) {
	// The KFF hand-off path: serialize sk, rebuild it, decrypt envelopes
	// addressed to the original public key.
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			enc := sk.Bytes()
			if len(enc) != SecretKeySize {
				t.Fatalf("secret encoding is %d bytes, want %d", len(enc), SecretKeySize)
			}
			sk2, err := s.SecretKeyFromBytes(enc)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := pk.Encrypt([]byte("to the future"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk2.Decrypt(ct)
			if err != nil {
				t.Fatalf("rebuilt key failed to decrypt: %v", err)
			}
			if string(got) != "to the future" {
				t.Errorf("got %q", got)
			}
		})
	}
}

func TestSecretKeyFromBytesRejectsBadLength(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			if _, err := s.SecretKeyFromBytes([]byte{1, 2, 3}); err == nil {
				t.Error("accepted short secret key")
			}
		})
	}
}

func TestPublicFromSecretMatches(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, sk, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pk.Bytes(), sk.Public().Bytes()) {
				t.Error("sk.Public() != pk")
			}
		})
	}
}

func TestFingerprintStable(t *testing.T) {
	for name, s := range backends() {
		t.Run(name, func(t *testing.T) {
			pk, _, err := s.GenerateKey()
			if err != nil {
				t.Fatal(err)
			}
			if pk.Fingerprint() == "" || pk.Fingerprint() != pk.Fingerprint() {
				t.Error("fingerprint unstable or empty")
			}
		})
	}
}

func TestCiphertextSizeModel(t *testing.T) {
	// Sim envelopes must model real ECIES overhead so that byte counts in
	// sim sweeps match the real backend's.
	real := NewECIES()
	sim := NewSim()
	rpk, _, err := real.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	spk, _, err := sim.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte{7}, 100)
	rct, err := rpk.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	sct, err := spk.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if rct.Size() != sct.Size() {
		t.Errorf("size mismatch: real %d vs sim %d", rct.Size(), sct.Size())
	}
}

func TestECIESTamperDetected(t *testing.T) {
	s := NewECIES()
	pk, sk, err := s.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := pk.Encrypt([]byte("integrity"))
	if err != nil {
		t.Fatal(err)
	}
	ec := ct.(*eciesCT)
	ec.sealed[len(ec.sealed)-1] ^= 1
	if _, err := sk.Decrypt(ec); !errors.Is(err, ErrDecrypt) {
		t.Errorf("tampered envelope: err = %v, want ErrDecrypt", err)
	}
}

func TestSimDecryptWrongBackend(t *testing.T) {
	real := NewECIES()
	sim := NewSim()
	rpk, _, err := real.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	_, ssk, err := sim.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := rpk.Encrypt([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ssk.Decrypt(ct); !errors.Is(err, ErrWrongKey) {
		t.Errorf("err = %v, want ErrWrongKey", err)
	}
}

// TestCTEqualID pins the constant-time comparison the sim backend's key
// routing rests on: equal ids match, every differing byte position (low,
// high, single bit) mismatches.
func TestCTEqualID(t *testing.T) {
	cases := []struct {
		a, b uint64
		want bool
	}{
		{0, 0, true},
		{0xDEADBEEFCAFE0123, 0xDEADBEEFCAFE0123, true},
		{0, 1, false},
		{1 << 63, 0, false},
		{0xDEADBEEFCAFE0123, 0xDEADBEEFCAFE0122, false},
		{0xDEADBEEFCAFE0123, 0x5EADBEEFCAFE0123, false},
	}
	for _, c := range cases {
		if got := ctEqualID(c.a, c.b); got != c.want {
			t.Errorf("ctEqualID(%#x, %#x) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestSimKeyRoutingComparisonPath asserts the sim Decrypt routing
// decision end to end: the matching key (including one rebuilt from its
// byte encoding, exercising the derived-id path) opens the envelope, a
// different key is rejected with ErrDecrypt.
func TestSimKeyRoutingComparisonPath(t *testing.T) {
	s := NewSim()
	_, ska, err := s.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	pkb, skb, err := s.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("routed payload")
	ct, err := pkb.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ska.Decrypt(ct); !errors.Is(err, ErrDecrypt) {
		t.Errorf("foreign key: err = %v, want ErrDecrypt", err)
	}
	got, err := skb.Decrypt(ct)
	if err != nil {
		t.Fatalf("matching key: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("plaintext = %q, want %q", got, msg)
	}
	rebuilt, err := s.SecretKeyFromBytes(skb.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rebuilt.Decrypt(ct); err != nil {
		t.Errorf("rebuilt matching key: %v", err)
	}
}

func BenchmarkECIESEncrypt(b *testing.B) {
	s := NewECIES()
	pk, _, err := s.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte{1}, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Encrypt(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECIESDecrypt(b *testing.B) {
	s := NewECIES()
	pk, sk, err := s.GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	ct, err := pk.Encrypt(bytes.Repeat([]byte{1}, 256))
	if err != nil {
		b.Fatal(err)
	}
	// A key with an empty cipher cache per open: the cost of the first
	// envelope from a sender (BenchmarkECIESDecryptCached covers the rest).
	raw := sk.(*eciesSecret).sk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold := &eciesSecret{sk: raw}
		if _, err := cold.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}
