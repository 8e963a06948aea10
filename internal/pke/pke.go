// Package pke implements the public-key encryption used for role keys and
// keys-for-future (KFF): an ECIES construction over X25519 with AES-256-GCM
// payload encryption (all from the standard library), plus an ideal Sim
// backend with modelled sizes for large-scale communication sweeps.
//
// A KFF secret key must itself fit inside a threshold-encryption plaintext
// (it is encrypted under tpk during setup and re-encrypted to the role's
// real key during the online phase); X25519 secrets are 32 bytes, which is
// why ECIES rather than a second Paillier family is used here.
package pke

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// SecretKeySize is the size of an encoded secret key in bytes.
const SecretKeySize = 32

// Errors returned by the backends.
var (
	ErrDecrypt   = errors.New("pke: decryption failed")
	ErrWrongKey  = errors.New("pke: object belongs to a different backend")
	ErrShortData = errors.New("pke: malformed ciphertext")
)

// PublicKey is an encryption key.
type PublicKey interface {
	// Encrypt produces an envelope carrying msg.
	Encrypt(msg []byte) (Ciphertext, error)
	// Bytes returns the serialized public key.
	Bytes() []byte
	// Fingerprint returns a short stable identifier for logging/auditing.
	Fingerprint() string
}

// SecretKey is a decryption key.
type SecretKey interface {
	// Decrypt opens an envelope.
	Decrypt(ct Ciphertext) ([]byte, error)
	// Bytes returns the fixed-size secret encoding (SecretKeySize bytes),
	// suitable for encryption under the threshold key.
	Bytes() []byte
	// Public returns the matching public key.
	Public() PublicKey
}

// Ciphertext is a sealed envelope.
type Ciphertext interface {
	// Size returns the wire size in bytes.
	Size() int
}

// Sealer seals the envelopes of one speaking role's step. A Sealer is
// used by one goroutine and dropped when the step returns.
type Sealer interface {
	// Encrypt produces an envelope carrying msg for pk.
	Encrypt(pk PublicKey, msg []byte) (Ciphertext, error)
}

// StepSealer is implemented by backends that can amortize the envelopes
// of one step: every envelope from one Sealer shares one ephemeral key.
type StepSealer interface {
	// NewSealer returns a sealer for one speaking role's step.
	NewSealer() Sealer
}

// NewSealer returns s's step sealer when s implements StepSealer, and a
// sealer that calls pk.Encrypt per envelope otherwise. Drivers call this
// instead of type-asserting at every site.
func NewSealer(s Scheme) Sealer {
	if ss, ok := s.(StepSealer); ok {
		return ss.NewSealer()
	}
	return perEnvelope{}
}

// perEnvelope is the fallback Sealer: one fresh envelope per call.
type perEnvelope struct{}

func (perEnvelope) Encrypt(pk PublicKey, msg []byte) (Ciphertext, error) { return pk.Encrypt(msg) }

// Scheme generates and rehydrates keys.
type Scheme interface {
	// Name identifies the backend ("ecies-x25519" or "sim").
	Name() string
	// GenerateKey mints a fresh keypair.
	GenerateKey() (PublicKey, SecretKey, error)
	// SecretKeyFromBytes reconstructs a secret key from its encoding —
	// the receiving role's step after a KFF hand-off.
	SecretKeyFromBytes(data []byte) (SecretKey, error)
	// EncodeCiphertext serializes an envelope; the encoding is exactly
	// Ciphertext.Size() bytes (docs/WIRE.md).
	EncodeCiphertext(ct Ciphertext) ([]byte, error)
	// DecodeCiphertext parses an envelope serialized by EncodeCiphertext.
	DecodeCiphertext(data []byte) (Ciphertext, error)
}

// ECIES is the real backend.
type ECIES struct{}

// NewECIES returns the real backend.
func NewECIES() *ECIES { return &ECIES{} }

// Name implements Scheme.
func (e *ECIES) Name() string { return "ecies-x25519" }

type eciesPub struct {
	pk *ecdh.PublicKey
}

type eciesSecret struct {
	sk *ecdh.PrivateKey

	// mu guards aeads: ephemeral public key → derived cipher, so all
	// envelopes from one sealer cost one ECDH. Entries are added only
	// after an authenticated open and live as long as the key.
	mu    sync.Mutex
	aeads map[string]cipher.AEAD
}

type eciesCT struct {
	ephemeral []byte // 32-byte ephemeral public key
	sealed    []byte // nonce || AES-GCM ciphertext+tag
}

func (c *eciesCT) Size() int { return len(c.ephemeral) + len(c.sealed) }

// GenerateKey implements Scheme.
func (e *ECIES) GenerateKey() (PublicKey, SecretKey, error) {
	sk, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("pke: generating key: %w", err)
	}
	return &eciesPub{pk: sk.PublicKey()}, &eciesSecret{sk: sk}, nil
}

// SecretKeyFromBytes implements Scheme.
func (e *ECIES) SecretKeyFromBytes(data []byte) (SecretKey, error) {
	if len(data) != SecretKeySize {
		return nil, fmt.Errorf("pke: secret key must be %d bytes, got %d", SecretKeySize, len(data))
	}
	sk, err := ecdh.X25519().NewPrivateKey(data)
	if err != nil {
		return nil, fmt.Errorf("pke: rebuilding secret key: %w", err)
	}
	return &eciesSecret{sk: sk}, nil
}

// Encrypt implements PublicKey: ECDH with a fresh ephemeral key, key
// derivation via SHA-256 over the shared secret and both public keys,
// AES-256-GCM.
func (p *eciesPub) Encrypt(msg []byte) (Ciphertext, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("pke: ephemeral key: %w", err)
	}
	ephPub := eph.PublicKey().Bytes()
	aead, err := sealAEAD(eph, ephPub, p.pk)
	if err != nil {
		return nil, err
	}
	return seal(aead, ephPub, msg)
}

// NewSealer implements StepSealer.
func (e *ECIES) NewSealer() Sealer { return &eciesSealer{} }

// eciesSealer seals every envelope of one step under one ephemeral key,
// minted on first use, and derives each recipient's cipher once. The
// KDF binds the recipient key, so the envelopes stay independent
// (multi-recipient randomness re-use, Bellare–Boldyreva–Staddon 2003).
type eciesSealer struct {
	eph    *ecdh.PrivateKey
	ephPub []byte
	aeads  map[string]cipher.AEAD // recipient pk.Bytes() → cipher
}

// Encrypt implements Sealer. Keys of other types (another backend, or a
// wrapper around an ECIES key) take pk.Encrypt.
func (s *eciesSealer) Encrypt(pk PublicKey, msg []byte) (Ciphertext, error) {
	p, ok := pk.(*eciesPub)
	if !ok {
		return pk.Encrypt(msg)
	}
	if s.eph == nil {
		eph, err := ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("pke: ephemeral key: %w", err)
		}
		s.eph, s.ephPub = eph, eph.PublicKey().Bytes()
		s.aeads = map[string]cipher.AEAD{}
	}
	recv := p.pk.Bytes()
	aead, ok := s.aeads[string(recv)]
	if !ok {
		var err error
		if aead, err = sealAEAD(s.eph, s.ephPub, p.pk); err != nil {
			return nil, err
		}
		s.aeads[string(recv)] = aead
	}
	return seal(aead, s.ephPub, msg)
}

// sealAEAD derives the sender-side cipher for eph → recv.
func sealAEAD(eph *ecdh.PrivateKey, ephPub []byte, recv *ecdh.PublicKey) (cipher.AEAD, error) {
	shared, err := eph.ECDH(recv)
	if err != nil {
		return nil, fmt.Errorf("pke: ECDH: %w", err)
	}
	return deriveAEAD(shared, ephPub, recv.Bytes())
}

// seal encrypts msg under a fresh random nonce. Envelopes from one sealer
// share the ephPub slice, which nothing mutates.
func seal(aead cipher.AEAD, ephPub, msg []byte) (Ciphertext, error) {
	nonce := make([]byte, aead.NonceSize(), aead.NonceSize()+len(msg)+aead.Overhead())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("pke: nonce: %w", err)
	}
	return &eciesCT{ephemeral: ephPub, sealed: aead.Seal(nonce, nonce, msg, nil)}, nil
}

// Bytes implements PublicKey.
func (p *eciesPub) Bytes() []byte { return p.pk.Bytes() }

// Fingerprint implements PublicKey.
func (p *eciesPub) Fingerprint() string {
	sum := sha256.Sum256(p.pk.Bytes())
	return fmt.Sprintf("%x", sum[:6])
}

// Decrypt implements SecretKey. The cipher for an envelope's ephemeral
// key is derived once per key and reused for later envelopes from the
// same sealer; the ECDH and KDF run outside the lock.
func (s *eciesSecret) Decrypt(ct Ciphertext) ([]byte, error) {
	ec, ok := ct.(*eciesCT)
	if !ok {
		return nil, ErrWrongKey
	}
	if len(ec.sealed) < gcmNonceSize+gcmTagSize {
		return nil, ErrShortData
	}
	s.mu.Lock()
	aead, cached := s.aeads[string(ec.ephemeral)]
	s.mu.Unlock()
	if !cached {
		ephPK, err := ecdh.X25519().NewPublicKey(ec.ephemeral)
		if err != nil {
			return nil, fmt.Errorf("%w: bad ephemeral key", ErrDecrypt)
		}
		shared, err := s.sk.ECDH(ephPK)
		if err != nil {
			return nil, fmt.Errorf("%w: ECDH", ErrDecrypt)
		}
		if aead, err = deriveAEAD(shared, ec.ephemeral, s.sk.PublicKey().Bytes()); err != nil {
			return nil, err
		}
	}
	nonce, body := ec.sealed[:gcmNonceSize], ec.sealed[gcmNonceSize:]
	msg, err := aead.Open(nil, nonce, body, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDecrypt, err)
	}
	if !cached {
		s.mu.Lock()
		if s.aeads == nil {
			s.aeads = map[string]cipher.AEAD{}
		}
		s.aeads[string(ec.ephemeral)] = aead
		s.mu.Unlock()
	}
	return msg, nil
}

// Bytes implements SecretKey.
func (s *eciesSecret) Bytes() []byte { return s.sk.Bytes() }

// Public implements SecretKey.
func (s *eciesSecret) Public() PublicKey { return &eciesPub{pk: s.sk.PublicKey()} }

// gcmNonceSize and gcmTagSize are AES-GCM's standard nonce and tag sizes.
const (
	gcmNonceSize = 12
	gcmTagSize   = 16
)

// deriveAEAD builds the envelope cipher from the ECDH shared secret and
// both public keys, then wipes shared and the derived key bytes: only the
// cipher's key schedule outlives the call.
func deriveAEAD(shared, ephPub, recvPub []byte) (cipher.AEAD, error) {
	defer clear(shared)
	h := sha256.New()
	h.Write([]byte("yosompc/ecies/v1"))
	h.Write(shared)
	h.Write(ephPub)
	h.Write(recvPub)
	var key [sha256.Size]byte
	h.Sum(key[:0])
	defer clear(key[:])
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("pke: AES: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("pke: GCM: %w", err)
	}
	return aead, nil
}

var (
	_ Scheme     = (*ECIES)(nil)
	_ Scheme     = (*Sim)(nil)
	_ StepSealer = (*ECIES)(nil)
)
