package paillier

import (
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Damgård–Jurik generalization (the paper's reference [19]): plaintexts in
// Z_{N^s}, ciphertexts in Z*_{N^{s+1}},
//
//	c = (1+N)^m · r^{N^s} mod N^{s+1}.
//
// s = 1 recovers plain Paillier. Larger s enlarges the plaintext space
// without regenerating keys — which is how deployments of the protocol
// gain integer headroom for deep circuits (the homomorphic bounds in
// package tte grow with circuit depth).

// DJKey wraps a Paillier key for degree-s Damgård–Jurik operations.
type DJKey struct {
	// S is the generalization degree (plaintext space Z_{N^S}).
	S int
	// Base is the underlying Paillier key.
	Base *PrivateKey
	// Ns is N^S and Ns1 is N^(S+1), cached.
	Ns, Ns1 *big.Int
	// kFactInv caches k!^{-1} mod N^S for the dLog extraction.
	kFactInv []*big.Int
}

// ErrDJDegree rejects invalid generalization degrees.
var ErrDJDegree = errors.New("paillier: Damgård–Jurik degree must be ≥ 1")

// NewDJKey builds a degree-s view of an existing key.
func NewDJKey(base *PrivateKey, s int) (*DJKey, error) {
	if s < 1 {
		return nil, fmt.Errorf("%w: s=%d", ErrDJDegree, s)
	}
	if base == nil {
		return nil, errors.New("paillier: nil base key")
	}
	ns := new(big.Int).Set(base.N)
	for i := 1; i < s; i++ {
		ns.Mul(ns, base.N)
	}
	ns1 := new(big.Int).Mul(ns, base.N)
	k := &DJKey{S: s, Base: base, Ns: ns, Ns1: ns1}
	// Precompute k!^{-1} mod N^s for k = 2..s (dLog's inner loop).
	k.kFactInv = make([]*big.Int, s+1)
	fact := big.NewInt(1)
	for i := 2; i <= s; i++ {
		fact.Mul(fact, big.NewInt(int64(i)))
		inv := new(big.Int).ModInverse(fact, ns)
		if inv == nil {
			return nil, fmt.Errorf("paillier: %d! not invertible mod N^s", i)
		}
		k.kFactInv[i] = inv
	}
	return k, nil
}

// Encrypt encrypts m ∈ [0, N^S) with fresh randomness through the
// engine paths (closed-form message term plus one nonce
// exponentiation; see engine.go).
func (k *DJKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	r, err := k.Base.PublicKey.RandomUnit(random)
	if err != nil {
		return nil, err
	}
	return k.EncryptWithNonce(m, r)
}

// EncryptWithNonceNaive is the retained naive reference for
// EncryptWithNonce: (1+N)^m computed by a full big.Int.Exp over the up
// to s·log₂N-bit exponent m. The differential tests and
// FuzzPaillierEngineVsNaive pin the closed-form engine path to it
// bit-for-bit.
func (k *DJKey) EncryptWithNonceNaive(m, r *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(k.Ns) >= 0 {
		// The message itself stays out of the error: callers wrap errors
		// into logs and board posts, and m is plaintext.
		return nil, fmt.Errorf("%w: message outside [0, N^s)", ErrMessageRange)
	}
	onePlusN := new(big.Int).Add(k.Base.N, big.NewInt(1))
	gm := new(big.Int).Exp(onePlusN, m, k.Ns1)
	rn := new(big.Int).Exp(r, k.Ns, k.Ns1)
	c := gm.Mul(gm, rn)
	c.Mod(c, k.Ns1)
	return &Ciphertext{C: c}, nil
}

// Decrypt recovers m: c^d ≡ (1+N)^m (mod N^{s+1}) for d ≡ 1 (mod N^s),
// d ≡ 0 (mod λ), then the discrete log of (1+N)^m is extracted with the
// Damgård–Jurik recursive algorithm. It runs on the CRT engine path
// (engine.go); DecryptNaive keeps the single-exponentiation reference.
func (k *DJKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	return k.DecryptCRT(c)
}

// DecryptNaive is the retained naive reference for Decrypt: the
// decryption exponent is rebuilt per call and applied in one
// exponentiation modulo N^{s+1}.
func (k *DJKey) DecryptNaive(c *Ciphertext) (*big.Int, error) {
	if c == nil || c.C == nil || c.C.Sign() <= 0 || c.C.Cmp(k.Ns1) >= 0 {
		return nil, fmt.Errorf("%w: malformed ciphertext", ErrDecryption)
	}
	// d ≡ 1 mod N^s, d ≡ 0 mod λ via CRT (gcd(λ, N^s) = 1).
	lamInv := new(big.Int).ModInverse(k.Base.Lambda, k.Ns)
	if lamInv == nil {
		return nil, errors.New("paillier: λ not invertible mod N^s")
	}
	d := new(big.Int).Mul(k.Base.Lambda, lamInv) // ≡ 0 mod λ, ≡ 1 mod N^s
	a := new(big.Int).Exp(c.C, d, k.Ns1)
	return k.DLogOnePlusN(a)
}

// DLogOnePlusN extracts i from a = (1+N)^i mod N^{S+1} (Damgård–Jurik,
// Section 4.2). Exposed because the threshold combination in package tte
// needs the same extraction after exponent arithmetic.
func (k *DJKey) DLogOnePlusN(a *big.Int) (*big.Int, error) {
	n := k.Base.N
	i := new(big.Int)
	nPowJ := new(big.Int).Set(n) // N^j
	for j := 1; j <= k.S; j++ {
		nPowJ1 := new(big.Int).Mul(nPowJ, n) // N^{j+1}
		// t1 = L(a mod N^{j+1}) = ((a mod N^{j+1}) − 1) / N.
		t1 := new(big.Int).Mod(a, nPowJ1)
		t1.Sub(t1, big.NewInt(1))
		t1r := new(big.Int)
		t1.DivMod(t1, n, t1r)
		if t1r.Sign() != 0 {
			return nil, fmt.Errorf("%w: value is not a power of 1+N", ErrDecryption)
		}
		t2 := new(big.Int).Set(i)
		iter := new(big.Int).Set(i)
		for kk := 2; kk <= j; kk++ {
			iter.Sub(iter, big.NewInt(1))
			t2.Mul(t2, iter)
			t2.Mod(t2, nPowJ)
			// t1 -= t2 · N^{k-1} · (k!)^{-1} mod N^j
			term := new(big.Int).Exp(n, big.NewInt(int64(kk-1)), nPowJ)
			term.Mul(term, t2)
			term.Mul(term, k.kFactInv[kk])
			t1.Sub(t1, term)
			t1.Mod(t1, nPowJ)
		}
		i = t1
		nPowJ = nPowJ1
	}
	return i, nil
}

// Add returns a ciphertext of the plaintext sum.
func (k *DJKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, k.Ns1)
	return &Ciphertext{C: c}
}

// ScalarMul returns a ciphertext of s·m. Negative scalars use modular
// inversion of the ciphertext.
func (k *DJKey) ScalarMul(a *Ciphertext, s *big.Int) *Ciphertext {
	base := a.C
	exp := s
	if s.Sign() < 0 {
		base = new(big.Int).ModInverse(a.C, k.Ns1)
		exp = new(big.Int).Neg(s)
	}
	return &Ciphertext{C: new(big.Int).Exp(base, exp, k.Ns1)}
}

// ByteLen returns the wire size of degree-S ciphertexts.
func (k *DJKey) ByteLen() int { return (k.Ns1.BitLen() + 7) / 8 }

// MaxPlaintext returns N^S − 1.
func (k *DJKey) MaxPlaintext() *big.Int {
	return new(big.Int).Sub(k.Ns, big.NewInt(1))
}
