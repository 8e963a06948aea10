package tte

import (
	"encoding/binary"
	"fmt"
	"math/big"

	"yosompc/internal/paillier"
)

// Wire encodings for the TE messages that travel on the board in the clear
// (ciphertexts, the public key's announcement) or inside PKE envelopes
// (key shares handed to the next committee). Partials and subshares live in
// encoding.go; layouts are documented in docs/WIRE.md.
//
// Ciphertexts encode as a fixed-width big-endian value of exactly
// PublicKey.CiphertextSize() bytes, with no header: the size is pinned by
// the public key and the plaintext bound is public context re-supplied at
// decode (the bound is an evaluation artifact, not wire data), so measured
// bytes equal modelled bytes.

const (
	tagKeyShare = 0x03
	tagPubInfo  = 0x04
)

// EncodeCiphertext serializes a ciphertext as CiphertextSize() fixed-width bytes.
func (s *Threshold) EncodeCiphertext(ct Ciphertext) ([]byte, error) {
	tc, ok := ct.(*thresholdCT)
	if !ok {
		return nil, fmt.Errorf("%w: ciphertext", ErrWrongKey)
	}
	if tc.ct.C.Sign() < 0 || tc.ct.C.BitLen() > 8*tc.size {
		return nil, fmt.Errorf("%w: ciphertext value exceeds %d bytes", ErrMalformedMessage, tc.size)
	}
	return tc.ct.C.FillBytes(make([]byte, tc.size)), nil
}

// DecodeCiphertext parses a fixed-width ciphertext. bound is the public
// plaintext bound under which the ciphertext was produced; nil defaults to
// pk.MaxPlaintext().
func (s *Threshold) DecodeCiphertext(pk PublicKey, bound *big.Int, data []byte) (Ciphertext, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	if len(data) != tpk.ctBytes {
		return nil, fmt.Errorf("%w: ciphertext must be %d bytes, got %d", ErrMalformedMessage, tpk.ctBytes, len(data))
	}
	if bound == nil {
		bound = tpk.maxPlain
	}
	return &thresholdCT{
		ct:    &paillier.Ciphertext{C: new(big.Int).SetBytes(data)},
		bound: new(big.Int).Set(bound),
		size:  tpk.ctBytes,
	}, nil
}

// EncodeCiphertext serializes a sim ciphertext as CiphertextSize() fixed-width bytes.
func (s *Sim) EncodeCiphertext(ct Ciphertext) ([]byte, error) {
	sc, ok := ct.(*simCT)
	if !ok {
		return nil, fmt.Errorf("%w: ciphertext", ErrWrongKey)
	}
	if sc.value.Sign() < 0 || sc.value.BitLen() > 8*sc.size {
		return nil, fmt.Errorf("%w: ciphertext value exceeds %d bytes", ErrMalformedMessage, sc.size)
	}
	return sc.value.FillBytes(make([]byte, sc.size)), nil
}

// DecodeCiphertext parses a fixed-width sim ciphertext; bound defaults to
// pk.MaxPlaintext() when nil.
func (s *Sim) DecodeCiphertext(pk PublicKey, bound *big.Int, data []byte) (Ciphertext, error) {
	spk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	if len(data) != spk.ctBytes {
		return nil, fmt.Errorf("%w: ciphertext must be %d bytes, got %d", ErrMalformedMessage, spk.ctBytes, len(data))
	}
	if bound == nil {
		bound = spk.maxPlain
	}
	return &simCT{
		value: new(big.Int).SetBytes(data),
		bound: new(big.Int).Set(bound),
		size:  spk.ctBytes,
	}, nil
}

// EncodeKeyShare serializes a key share (travels only inside PKE
// envelopes: it is secret material).
func (s *Threshold) EncodeKeyShare(sh KeyShare) ([]byte, error) {
	tsh, ok := sh.(*thresholdShare)
	if !ok {
		return nil, fmt.Errorf("%w: key share", ErrWrongKey)
	}
	return encodeBig(tagKeyShare, []uint32{uint32(tsh.index), uint32(tsh.epoch)}, tsh.d), nil //yosolint:vartime length-prefixed encoding is value-length dependent by construction; the PKE envelope size reveals the same length
}

// DecodeKeyShare parses a key share serialized by EncodeKeyShare.
func (s *Threshold) DecodeKeyShare(_ PublicKey, data []byte) (KeyShare, error) {
	fields, d, err := decodeBig(tagKeyShare, 2, data)
	if err != nil {
		return nil, err
	}
	return &thresholdShare{index: int(fields[0]), epoch: int(fields[1]), d: d}, nil
}

// EncodeKeyShare serializes a sim key share, padded to the modelled size.
func (s *Sim) EncodeKeyShare(sh KeyShare) ([]byte, error) {
	ssh, ok := sh.(*simShare)
	if !ok {
		return nil, fmt.Errorf("%w: key share", ErrWrongKey)
	}
	buf := encodeBig(tagKeyShare, []uint32{uint32(ssh.index), uint32(ssh.epoch)}, big.NewInt(0))
	return padTo(buf, s.shareSize()), nil
}

// DecodeKeyShare parses a sim key share.
func (s *Sim) DecodeKeyShare(_ PublicKey, data []byte) (KeyShare, error) {
	fields, _, err := decodeBig(tagKeyShare, 2, data)
	if err != nil {
		return nil, err
	}
	return &simShare{index: int(fields[0]), epoch: int(fields[1])}, nil
}

// EncodePublicKey serializes the public key's board announcement: the
// public metadata (committee parameters and ciphertext width), zero-padded
// to the modelled announcement size CiphertextSize()/2. The full evaluation
// key material stays with the dealer in both backends.
func (s *Threshold) EncodePublicKey(pk PublicKey) ([]byte, error) {
	tpk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	return encodePubInfo(tpk.n, tpk.t, tpk.ctBytes), nil
}

// EncodePublicKey serializes the sim public key's board announcement.
func (s *Sim) EncodePublicKey(pk PublicKey) ([]byte, error) {
	spk, err := s.pub(pk)
	if err != nil {
		return nil, err
	}
	return encodePubInfo(spk.n, spk.t, spk.ctBytes), nil
}

func encodePubInfo(n, t, ctBytes int) []byte {
	buf := make([]byte, 0, 13)
	buf = append(buf, tagPubInfo)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = binary.BigEndian.AppendUint32(buf, uint32(t))
	buf = binary.BigEndian.AppendUint32(buf, uint32(ctBytes))
	return padTo(buf, ctBytes/2)
}
