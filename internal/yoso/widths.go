package yoso

import (
	"math/big"

	"yosompc/internal/field"
	"yosompc/internal/pke"
	"yosompc/internal/tte"
)

// Shape counts the items of one step message: ciphertexts, public partial
// decryptions, sealed partial decryptions, sealed tsk subshares and field
// elements.
type Shape struct{ Cts, Parts, PartEnvs, SubEnvs, Elems int }

// Widths are the encoded widths of the items a step message carries,
// measured once per run with the run's own codecs (MeasureWidths). Both
// drivers size their honest encoders and their malicious members' lies
// from them.
type Widths struct{ Ct, Part, PartEnv, SubEnv int }

// Of is the width of a message of shape s: exact on the fixed-width Sim
// backends, whose every encoding has one width per item kind.
func (w Widths) Of(s Shape) int {
	return s.Cts*w.Ct + s.Parts*w.Part + s.PartEnvs*w.PartEnv + s.SubEnvs*w.SubEnv + s.Elems*field.ElementSize
}

// Lie is a malicious member's message for a step of shape s: zero bytes
// as wide as the honest messages, posted with the forged proof the engine
// attaches. Its content is never read.
func (w Widths) Lie(s Shape) func(int) (Msg, error) {
	width := w.Of(s)
	return func(int) (Msg, error) { return Msg{Wire: make([]byte, width)}, nil }
}

// MeasureWidths encodes and seals one sample ciphertext, partial
// decryption and subshare of key share sh under tpk.
func MeasureWidths(te interface {
	tte.Scheme
	tte.Codec
}, scheme pke.Scheme, tpk tte.PublicKey, sh tte.KeyShare) (Widths, error) {
	ct, err := te.Encrypt(tpk, big.NewInt(0), big.NewInt(1))
	if err != nil {
		return Widths{}, err
	}
	part, err := te.PartialDecrypt(tpk, sh, ct)
	if err != nil {
		return Widths{}, err
	}
	partEnc, err := te.EncodePartial(part)
	if err != nil {
		return Widths{}, err
	}
	defer clear(partEnc)
	subs, err := te.Reshare(tpk, sh)
	if err != nil {
		return Widths{}, err
	}
	subEnc, err := te.EncodeSubShare(subs[0])
	if err != nil {
		return Widths{}, err
	}
	defer clear(subEnc)
	reader, _, err := scheme.GenerateKey()
	if err != nil {
		return Widths{}, err
	}
	partEnv, err := reader.Encrypt(partEnc)
	if err != nil {
		return Widths{}, err
	}
	subEnv, err := reader.Encrypt(subEnc)
	if err != nil {
		return Widths{}, err
	}
	return Widths{Ct: tpk.CiphertextSize(), Part: len(partEnc), PartEnv: partEnv.Size(), SubEnv: subEnv.Size()}, nil
}
