package paillier

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func testKey(t testing.TB) *PrivateKey {
	t.Helper()
	return FixedTestKey(0)
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	sk := testKey(t)
	messages := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(123456789),
		new(big.Int).Sub(sk.N, big.NewInt(1)),
	}
	for _, m := range messages {
		c, err := sk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", m, err)
		}
		got, err := sk.Decrypt(c)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		if got.Cmp(m) != 0 {
			t.Errorf("round trip: got %v, want %v", got, m)
		}
	}
}

func TestEncryptRejectsOutOfRange(t *testing.T) {
	sk := testKey(t)
	if _, err := sk.Encrypt(rand.Reader, big.NewInt(-1)); err == nil {
		t.Error("accepted negative message")
	}
	if _, err := sk.Encrypt(rand.Reader, sk.N); err == nil {
		t.Error("accepted message == N")
	}
}

func TestAdditiveHomomorphism(t *testing.T) {
	sk := testKey(t)
	a, b := big.NewInt(1_000_003), big.NewInt(999_983)
	ca, err := sk.Encrypt(rand.Reader, a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := sk.Encrypt(rand.Reader, b)
	if err != nil {
		t.Fatal(err)
	}
	sum := sk.PublicKey.Add(ca, cb)
	got, err := sk.Decrypt(sum)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Add(a, b)
	if got.Cmp(want) != 0 {
		t.Errorf("Enc(a)+Enc(b) decrypts to %v, want %v", got, want)
	}
}

func TestScalarMul(t *testing.T) {
	sk := testKey(t)
	m := big.NewInt(777)
	c, err := sk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	s := big.NewInt(12345)
	got, err := sk.Decrypt(sk.PublicKey.ScalarMul(c, s))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Mul(m, s)
	if got.Cmp(want) != 0 {
		t.Errorf("s·Enc(m) decrypts to %v, want %v", got, want)
	}
}

func TestScalarMulNegative(t *testing.T) {
	sk := testKey(t)
	m := big.NewInt(10)
	c, err := sk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(sk.PublicKey.ScalarMul(c, big.NewInt(-3)))
	if err != nil {
		t.Fatal(err)
	}
	// -30 mod N
	want := new(big.Int).Sub(sk.N, big.NewInt(30))
	if got.Cmp(want) != 0 {
		t.Errorf("-3·Enc(10) decrypts to %v, want N-30", got)
	}
}

func TestCiphertextsProbabilistic(t *testing.T) {
	sk := testKey(t)
	m := big.NewInt(42)
	c1, err := sk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	if c1.C.Cmp(c2.C) == 0 {
		t.Error("two encryptions of same message identical")
	}
}

func TestDecryptRejectsMalformed(t *testing.T) {
	sk := testKey(t)
	bad := []*Ciphertext{
		nil,
		{C: nil},
		{C: big.NewInt(0)},
		{C: new(big.Int).Set(sk.N2)},
	}
	for i, c := range bad {
		if _, err := sk.Decrypt(c); err == nil {
			t.Errorf("case %d: malformed ciphertext accepted", i)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	sk := testKey(t)
	c, err := sk.Encrypt(rand.Reader, big.NewInt(31337))
	if err != nil {
		t.Fatal(err)
	}
	c2 := CiphertextFromBytes(c.Bytes())
	got, err := sk.Decrypt(c2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(31337)) != 0 {
		t.Errorf("serialized round trip = %v", got)
	}
}

func TestGenerateKeySmall(t *testing.T) {
	sk, err := GenerateKey(rand.Reader, 256)
	if err != nil {
		t.Fatal(err)
	}
	m := big.NewInt(99)
	c, err := sk.Encrypt(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(m) != 0 {
		t.Errorf("fresh key round trip = %v", got)
	}
}

func TestGenerateKeyRejectsTiny(t *testing.T) {
	if _, err := GenerateKey(rand.Reader, 32); err == nil {
		t.Error("accepted 32-bit modulus")
	}
	if _, err := GenerateSafeKey(rand.Reader, 32); err == nil {
		t.Error("safe keygen accepted 32-bit modulus")
	}
}

func TestFixedTestKeysAreSafePrimeKeys(t *testing.T) {
	for i := 0; i < NumFixedTestKeys; i++ {
		k := FixedTestKey(i)
		if k.M == nil {
			t.Errorf("fixed key %d missing M (not safe-prime)", i)
		}
		// N = (2M + p' + q' + ...) sanity: p,q prime and p=2p'+1 form.
		pp := new(big.Int).Rsh(new(big.Int).Sub(k.P, big.NewInt(1)), 1)
		qp := new(big.Int).Rsh(new(big.Int).Sub(k.Q, big.NewInt(1)), 1)
		if new(big.Int).Mul(pp, qp).Cmp(k.M) != 0 {
			t.Errorf("fixed key %d: M != p'q'", i)
		}
	}
}

func TestFixedTestKey768(t *testing.T) {
	k := FixedTestKey768(0)
	if k.N.BitLen() < 760 {
		t.Errorf("768-bit key has %d-bit modulus", k.N.BitLen())
	}
	c, err := k.Encrypt(rand.Reader, big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(5)) != 0 {
		t.Error("768-bit key round trip failed")
	}
}

func TestFixedTestKeyPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range index")
		}
	}()
	FixedTestKey(NumFixedTestKeys)
}

func TestByteLens(t *testing.T) {
	sk := testKey(t)
	if got := sk.PublicKey.ByteLen(); got < 120 {
		t.Errorf("ByteLen = %d, want ~128 for 512-bit modulus", got)
	}
	if got := sk.PublicKey.PlaintextByteLen(); got < 60 {
		t.Errorf("PlaintextByteLen = %d", got)
	}
}

func TestPublicKeyEqual(t *testing.T) {
	a, b := FixedTestKey(0), FixedTestKey(1)
	if !a.PublicKey.Equal(&a.PublicKey) {
		t.Error("key != itself")
	}
	if a.PublicKey.Equal(&b.PublicKey) {
		t.Error("distinct keys compare equal")
	}
	if a.PublicKey.Equal(nil) {
		t.Error("key equals nil")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	sk := FixedTestKey(0)
	m := big.NewInt(123456)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Encrypt(rand.Reader, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	sk := FixedTestKey(0)
	c, err := sk.Encrypt(rand.Reader, big.NewInt(123456))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(c); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecryptCRTMatchesDecrypt(t *testing.T) {
	sk := testKey(t)
	msgs := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(999_983),
		new(big.Int).Rsh(sk.N, 1),
		new(big.Int).Sub(sk.N, big.NewInt(1)),
	}
	for _, m := range msgs {
		c, err := sk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		// Decrypt now delegates to DecryptCRT, so the reference here is
		// the retained naive single-exponentiation path.
		slow, err := sk.DecryptNaive(c)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := sk.DecryptCRT(c)
		if err != nil {
			t.Fatal(err)
		}
		if slow.Cmp(fast) != 0 || fast.Cmp(m) != 0 {
			t.Errorf("m=%v: slow=%v fast=%v", m, slow, fast)
		}
	}
}

func TestDecryptCRTAfterHomomorphics(t *testing.T) {
	sk := testKey(t)
	c1, err := sk.Encrypt(rand.Reader, big.NewInt(1234))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := sk.Encrypt(rand.Reader, big.NewInt(8766))
	if err != nil {
		t.Fatal(err)
	}
	sum := sk.PublicKey.ScalarMul(sk.PublicKey.Add(c1, c2), big.NewInt(7))
	got, err := sk.DecryptCRT(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(70000)) != 0 {
		t.Errorf("CRT decrypt of 7(1234+8766) = %v", got)
	}
}

func TestDecryptCRTRejectsMalformed(t *testing.T) {
	sk := testKey(t)
	if _, err := sk.DecryptCRT(&Ciphertext{C: big.NewInt(0)}); err == nil {
		t.Error("CRT decrypt accepted zero ciphertext")
	}
}

func BenchmarkDecryptCRT(b *testing.B) {
	sk := FixedTestKey(0)
	c, err := sk.Encrypt(rand.Reader, big.NewInt(123456))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.DecryptCRT(c); err != nil {
			b.Fatal(err)
		}
	}
}
