// Package paillier implements the Paillier additively homomorphic
// encryption scheme over math/big, including the safe-prime key variant
// required by the threshold extension in package tte.
//
// Ciphertexts encrypt messages m ∈ Z_N as c = (1+N)^m · r^N mod N².
// The scheme is additively homomorphic: multiplying ciphertexts adds
// plaintexts, and exponentiation by a scalar multiplies the plaintext.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var (
	one = big.NewInt(1)
	two = big.NewInt(2)
)

// ErrDecryption is returned when a ciphertext fails structural checks.
var ErrDecryption = errors.New("paillier: decryption failed")

// ErrMessageRange is returned when a plaintext is outside [0, N).
var ErrMessageRange = errors.New("paillier: message out of range")

// PublicKey is a Paillier public key.
type PublicKey struct {
	// N is the modulus p·q.
	N *big.Int
	// N2 is N², cached.
	N2 *big.Int
}

// PrivateKey is a Paillier private key. For safe-prime keys, M = p'·q'
// (with p = 2p'+1, q = 2q'+1) is populated; it is the order component used
// by the threshold extension.
type PrivateKey struct {
	PublicKey
	// P and Q are the prime factors of N.
	P, Q *big.Int
	// Lambda is lcm(P-1, Q-1).
	Lambda *big.Int
	// Mu is Lambda^{-1} mod N.
	Mu *big.Int
	// M is p'·q' for safe-prime keys, nil otherwise.
	M *big.Int
}

// Ciphertext is a Paillier ciphertext, an element of Z*_{N²}.
type Ciphertext struct {
	// C is the ciphertext value in [0, N²).
	C *big.Int
}

// GenerateKey creates a Paillier key with a modulus of the given bit length
// from two random primes. Keys produced this way support Enc/Dec and the
// homomorphic operations but not the threshold extension.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("paillier: modulus of %d bits is too small", bits)
	}
	p, err := rand.Prime(random, bits/2)
	if err != nil {
		return nil, fmt.Errorf("paillier: generating p: %w", err)
	}
	q, err := rand.Prime(random, bits-bits/2)
	if err != nil {
		return nil, fmt.Errorf("paillier: generating q: %w", err)
	}
	if p.Cmp(q) == 0 {
		return nil, errors.New("paillier: p == q")
	}
	return keyFromPrimes(p, q, nil)
}

// GenerateSafeKey creates a key whose factors are safe primes p = 2p'+1,
// q = 2q'+1. Safe primes make Z*_{N²} have the clean group structure that
// the Shoup-style threshold decryption in package tte relies on. Safe-prime
// search is expensive; tests should prefer FixedTestKey.
func GenerateSafeKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, fmt.Errorf("paillier: modulus of %d bits is too small", bits)
	}
	p, pp, err := safePrime(random, bits/2)
	if err != nil {
		return nil, err
	}
	for {
		q, qp, err := safePrime(random, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) != 0 {
			m := new(big.Int).Mul(pp, qp)
			return keyFromPrimes(p, q, m)
		}
	}
}

// safePrime returns a safe prime sp = 2p'+1 of the given bit length along
// with p'.
func safePrime(random io.Reader, bits int) (sp, sophie *big.Int, err error) {
	for {
		p, err := rand.Prime(random, bits-1)
		if err != nil {
			return nil, nil, fmt.Errorf("paillier: generating safe prime: %w", err)
		}
		cand := new(big.Int).Lsh(p, 1)
		cand.Add(cand, one)
		if cand.ProbablyPrime(30) {
			return cand, p, nil
		}
	}
}

// NewKeyFromSafePrimes assembles a key from externally supplied safe primes.
// Both arguments must be safe primes; this is checked probabilistically.
func NewKeyFromSafePrimes(p, q *big.Int) (*PrivateKey, error) {
	pp := sophieOf(p)
	qp := sophieOf(q)
	if pp == nil || qp == nil {
		return nil, errors.New("paillier: supplied primes are not safe primes")
	}
	if p.Cmp(q) == 0 {
		return nil, errors.New("paillier: p == q")
	}
	return keyFromPrimes(p, q, new(big.Int).Mul(pp, qp))
}

func sophieOf(p *big.Int) *big.Int {
	if !p.ProbablyPrime(30) {
		return nil
	}
	s := new(big.Int).Sub(p, one)
	s.Rsh(s, 1)
	if !s.ProbablyPrime(30) {
		return nil
	}
	return s
}

func keyFromPrimes(p, q, m *big.Int) (*PrivateKey, error) {
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, gcd)
	mu := new(big.Int).ModInverse(lambda, n)
	if mu == nil {
		return nil, errors.New("paillier: lambda not invertible mod N")
	}
	return &PrivateKey{
		PublicKey: PublicKey{N: n, N2: new(big.Int).Mul(n, n)},
		P:         p, Q: q,
		Lambda: lambda,
		Mu:     mu,
		M:      m,
	}, nil
}

// RandomUnit samples r uniformly from Z*_N.
func (pk *PublicKey) RandomUnit(random io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, fmt.Errorf("paillier: sampling unit: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Encrypt encrypts m ∈ [0, N) with fresh randomness.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (*Ciphertext, error) {
	r, err := pk.RandomUnit(random)
	if err != nil {
		return nil, err
	}
	return pk.EncryptWithNonce(m, r)
}

// EncryptWithNonce encrypts m with the caller-supplied randomness r ∈ Z*_N.
// Exposing the nonce is needed by the NIZK layer, whose sigma protocols
// prove knowledge of (m, r).
func (pk *PublicKey) EncryptWithNonce(m, r *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		// The message itself stays out of the error: callers wrap errors
		// into logs and board posts, and m is plaintext.
		return nil, fmt.Errorf("%w: message outside [0, N)", ErrMessageRange)
	}
	// (1+N)^m = 1 + mN mod N².
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// Decrypt recovers the plaintext of c: m = L(c^λ mod N²)·μ mod N, where
// L(x) = (x-1)/N. It runs on the CRT engine path (crt.go), which is
// bit-identical for every unit ciphertext; DecryptNaive keeps the
// single-exponentiation reference.
func (sk *PrivateKey) Decrypt(c *Ciphertext) (*big.Int, error) {
	return sk.DecryptCRT(c)
}

// DecryptNaive is the retained naive reference for Decrypt: one
// exponentiation by λ modulo N². The differential tests pin DecryptCRT
// to it bit-for-bit on unit ciphertexts.
func (sk *PrivateKey) DecryptNaive(c *Ciphertext) (*big.Int, error) {
	if err := sk.checkCiphertext(c); err != nil {
		return nil, err
	}
	u := new(big.Int).Exp(c.C, sk.Lambda, sk.N2)
	m := sk.lFunc(u)
	m.Mul(m, sk.Mu)
	m.Mod(m, sk.N)
	return m, nil
}

// lFunc computes L(x) = (x-1)/N, valid for x ≡ 1 (mod N).
func (sk *PrivateKey) lFunc(x *big.Int) *big.Int {
	l := new(big.Int).Sub(x, one)
	return l.Div(l, sk.N)
}

func (sk *PrivateKey) checkCiphertext(c *Ciphertext) error {
	if c == nil || c.C == nil || c.C.Sign() <= 0 || c.C.Cmp(sk.N2) >= 0 {
		return fmt.Errorf("%w: malformed ciphertext", ErrDecryption)
	}
	return nil
}

// Add returns a ciphertext encrypting the sum of the two plaintexts.
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// ScalarMul returns a ciphertext encrypting s·m where m is a's plaintext.
// Negative scalars are supported via modular inversion of the ciphertext.
func (pk *PublicKey) ScalarMul(a *Ciphertext, s *big.Int) *Ciphertext {
	base := a.C
	exp := s
	if s.Sign() < 0 {
		base = new(big.Int).ModInverse(a.C, pk.N2)
		exp = new(big.Int).Neg(s)
	}
	c := new(big.Int).Exp(base, exp, pk.N2)
	return &Ciphertext{C: c}
}

// Bytes returns the minimal big-endian encoding of the ciphertext value.
func (c *Ciphertext) Bytes() []byte { return c.C.Bytes() }

// CiphertextFromBytes decodes a ciphertext produced by Bytes.
func CiphertextFromBytes(buf []byte) *Ciphertext {
	return &Ciphertext{C: new(big.Int).SetBytes(buf)}
}

// ByteLen returns the serialized length in bytes of ciphertexts under pk
// (the size of N², since ciphertexts are uniform in Z*_{N²}).
func (pk *PublicKey) ByteLen() int { return (pk.N2.BitLen() + 7) / 8 }

// PlaintextByteLen returns the maximum plaintext payload in whole bytes.
func (pk *PublicKey) PlaintextByteLen() int { return (pk.N.BitLen() - 1) / 8 }

// Equal reports whether two public keys are the same key.
func (pk *PublicKey) Equal(o *PublicKey) bool {
	return o != nil && pk.N.Cmp(o.N) == 0
}
