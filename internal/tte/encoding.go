package tte

import (
	"encoding/binary"
	"fmt"
	"math/big"
)

// Wire encodings for the TE messages that travel inside PKE envelopes:
// partial decryptions (posted during Re-encrypt/Decrypt) and key-resharing
// subshares (posted when handing tsk to the next committee).
//
// Layout (big-endian):
//
//	partial:  u8 tag | u32 index | u32 epoch | u8 sign | u32 len | value
//	subshare: u8 tag | u32 from | u32 to | u32 epoch | u8 sign | u32 len | value
//
// The sim backend appends zero padding up to its modelled size so that byte
// counts on the wire match the modelled deployment.

const (
	tagPartial  = 0x01
	tagSubShare = 0x02
)

// EncodePartial serializes a partial decryption produced by this scheme.
func (s *Threshold) EncodePartial(p PartialDec) ([]byte, error) {
	tp, ok := p.(*thresholdPartial)
	if !ok {
		return nil, fmt.Errorf("%w: partial", ErrWrongKey)
	}
	return encodeBig(tagPartial, []uint32{uint32(tp.index), uint32(tp.epoch)}, tp.v), nil //yosolint:vartime length-prefixed encoding is value-length dependent by construction; the envelope ciphertext size on the board reveals the same length
}

// DecodePartial parses a partial decryption serialized by EncodePartial.
func (s *Threshold) DecodePartial(pk PublicKey, data []byte) (PartialDec, error) {
	if _, err := s.pub(pk); err != nil {
		return nil, err
	}
	fields, v, err := decodeBig(tagPartial, 2, data)
	if err != nil {
		return nil, err
	}
	return &thresholdPartial{
		index: int(fields[0]),
		epoch: int(fields[1]),
		v:     v,
	}, nil
}

// EncodeSubShare serializes a resharing subshare produced by this scheme.
func (s *Threshold) EncodeSubShare(sub SubShare) ([]byte, error) {
	ts, ok := sub.(*thresholdSub)
	if !ok {
		return nil, fmt.Errorf("%w: subshare", ErrWrongKey)
	}
	return encodeBig(tagSubShare, []uint32{uint32(ts.from), uint32(ts.to), uint32(ts.epoch)}, ts.v), nil //yosolint:vartime length-prefixed encoding is value-length dependent by construction; the envelope ciphertext size on the board reveals the same length
}

// DecodeSubShare parses a subshare serialized by EncodeSubShare.
func (s *Threshold) DecodeSubShare(_ PublicKey, data []byte) (SubShare, error) {
	fields, v, err := decodeBig(tagSubShare, 3, data)
	if err != nil {
		return nil, err
	}
	return &thresholdSub{from: int(fields[0]), to: int(fields[1]), epoch: int(fields[2]), v: v}, nil
}

// EncodePartial serializes a sim partial, padded to the modelled size.
func (s *Sim) EncodePartial(p PartialDec) ([]byte, error) {
	sp, ok := p.(*simPartial)
	if !ok {
		return nil, fmt.Errorf("%w: partial", ErrWrongKey)
	}
	buf := encodeBig(tagPartial, []uint32{uint32(sp.index), uint32(sp.epoch)}, sp.value) //yosolint:vartime sim backend encoding; the output is padded to the fixed partial size immediately below
	return padTo(buf, s.partSize()), nil
}

// DecodePartial parses a sim partial.
func (s *Sim) DecodePartial(_ PublicKey, data []byte) (PartialDec, error) {
	fields, v, err := decodeBig(tagPartial, 2, data)
	if err != nil {
		return nil, err
	}
	return &simPartial{index: int(fields[0]), epoch: int(fields[1]), value: v}, nil
}

// EncodeSubShare serializes a sim subshare, padded to the modelled size.
func (s *Sim) EncodeSubShare(sub SubShare) ([]byte, error) {
	ss, ok := sub.(*simSub)
	if !ok {
		return nil, fmt.Errorf("%w: subshare", ErrWrongKey)
	}
	buf := encodeBig(tagSubShare, []uint32{uint32(ss.from), uint32(ss.to), uint32(ss.epoch)}, big.NewInt(0))
	return padTo(buf, s.subSize()), nil
}

// DecodeSubShare parses a sim subshare.
func (s *Sim) DecodeSubShare(_ PublicKey, data []byte) (SubShare, error) {
	fields, _, err := decodeBig(tagSubShare, 3, data)
	if err != nil {
		return nil, err
	}
	return &simSub{from: int(fields[0]), to: int(fields[1]), epoch: int(fields[2])}, nil
}

// Codec is the serialization surface both backends provide; the protocol
// layer uses it to move TE messages through PKE envelopes and to put real
// ciphertext bytes on the board (wire.go holds the ciphertext, key-share
// and public-key codecs).
type Codec interface {
	EncodePartial(p PartialDec) ([]byte, error)
	DecodePartial(pk PublicKey, data []byte) (PartialDec, error)
	EncodeSubShare(s SubShare) ([]byte, error)
	DecodeSubShare(pk PublicKey, data []byte) (SubShare, error)
	// EncodeCiphertext serializes a ciphertext as exactly
	// PublicKey.CiphertextSize() bytes; DecodeCiphertext re-attaches the
	// public plaintext bound (nil means pk.MaxPlaintext()).
	EncodeCiphertext(ct Ciphertext) ([]byte, error)
	DecodeCiphertext(pk PublicKey, bound *big.Int, data []byte) (Ciphertext, error)
	// EncodeKeyShare/DecodeKeyShare serialize key shares for hand-off
	// inside PKE envelopes.
	EncodeKeyShare(sh KeyShare) ([]byte, error)
	DecodeKeyShare(pk PublicKey, data []byte) (KeyShare, error)
	// EncodePublicKey serializes the public key's board announcement.
	EncodePublicKey(pk PublicKey) ([]byte, error)
}

// Compile-time interface checks.
var (
	_ Scheme    = (*Threshold)(nil)
	_ Scheme    = (*Sim)(nil)
	_ Simulator = (*Threshold)(nil)
	_ Simulator = (*Sim)(nil)
	_ Codec     = (*Threshold)(nil)
	_ Codec     = (*Sim)(nil)
)

func encodeBig(tag byte, fields []uint32, v *big.Int) []byte {
	vb := v.Bytes()
	out := make([]byte, 0, 1+4*len(fields)+1+4+len(vb))
	out = append(out, tag)
	for _, f := range fields {
		out = binary.BigEndian.AppendUint32(out, f)
	}
	sign := byte(0)
	if v.Sign() < 0 {
		sign = 1
	}
	out = append(out, sign)
	out = binary.BigEndian.AppendUint32(out, uint32(len(vb)))
	out = append(out, vb...)
	return out
}

func decodeBig(tag byte, nFields int, data []byte) ([]uint32, *big.Int, error) {
	min := 1 + 4*nFields + 1 + 4
	if len(data) < min {
		return nil, nil, fmt.Errorf("%w: short message", ErrMalformedMessage)
	}
	if data[0] != tag {
		return nil, nil, fmt.Errorf("%w: tag %d, want %d", ErrMalformedMessage, data[0], tag)
	}
	fields := make([]uint32, nFields)
	off := 1
	for i := range fields {
		fields[i] = binary.BigEndian.Uint32(data[off:])
		off += 4
	}
	sign := data[off]
	off++
	vlen := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if len(data) < off+vlen {
		return nil, nil, fmt.Errorf("%w: truncated value", ErrMalformedMessage)
	}
	v := new(big.Int).SetBytes(data[off : off+vlen])
	if sign == 1 {
		v.Neg(v)
	}
	return fields, v, nil
}

func padTo(buf []byte, size int) []byte {
	if len(buf) >= size {
		return buf
	}
	out := make([]byte, size)
	copy(out, buf)
	return out
}
