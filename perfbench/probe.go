package main

import (
	"math/big"
	"sync/atomic"
	"time"

	"yosompc/internal/core"
	"yosompc/internal/pke"
	"yosompc/internal/tte"
)

// The traced run measures the tte and pke layers from outside by timing
// calls through their public interfaces. The sim workloads make several
// hundred thousand envelope calls per run, so the decorators keep per-op
// call counts and busy time rather than one span per call. Busy time is
// the summed wall time of the calls, across all goroutines.

// opStat counts one operation's calls and busy nanoseconds.
type opStat struct{ calls, ns atomic.Int64 }

func (s *opStat) done(t0 time.Time) {
	s.calls.Add(1)
	s.ns.Add(int64(time.Since(t0)))
}

func (s *opStat) put(m map[string]float64, name string) {
	m[name+".calls"] = float64(s.calls.Load())
	m[name+".busy_ms"] = float64(s.ns.Load()) / 1e6
}

// tteOps are the threshold-encryption layer's counters.
type tteOps struct {
	keygen, encrypt, encryptMany, eval, partial, combine, reshare, recover, codec opStat
	manyItems                                                                     atomic.Int64
}

func (o *tteOps) put(m map[string]float64) {
	o.keygen.put(m, "tte.keygen")
	o.encrypt.put(m, "tte.encrypt")
	o.encryptMany.put(m, "tte.encrypt_many")
	o.eval.put(m, "tte.eval")
	o.partial.put(m, "tte.partial_decrypt")
	o.combine.put(m, "tte.combine")
	o.reshare.put(m, "tte.reshare")
	o.recover.put(m, "tte.recover_share")
	o.codec.put(m, "tte.codec")
	m["tte.encrypt_many.items"] = float64(o.manyItems.Load())
}

// tteProbe times every Scheme and Codec call of the wrapped backend.
type tteProbe struct {
	inner core.TE
	ops   *tteOps
}

// tteBatchProbe is tteProbe for backends that implement
// tte.BatchEncrypter. Without it tte.EncryptAll would fall back to serial
// Encrypt calls and the traced run would measure a different program.
type tteBatchProbe struct {
	*tteProbe
	batch tte.BatchEncrypter
}

// wrapTE decorates inner, keeping its optional BatchEncrypter surface.
func wrapTE(inner core.TE, ops *tteOps) core.TE {
	p := &tteProbe{inner: inner, ops: ops}
	if be, ok := inner.(tte.BatchEncrypter); ok {
		return &tteBatchProbe{tteProbe: p, batch: be}
	}
	return p
}

func (p *tteProbe) Name() string { return p.inner.Name() }

func (p *tteProbe) KeyGen(n, t int) (tte.PublicKey, []tte.KeyShare, error) {
	defer p.ops.keygen.done(time.Now())
	return p.inner.KeyGen(n, t)
}

func (p *tteProbe) Encrypt(pk tte.PublicKey, m, bound *big.Int) (tte.Ciphertext, error) {
	defer p.ops.encrypt.done(time.Now())
	return p.inner.Encrypt(pk, m, bound)
}

func (p *tteProbe) Eval(pk tte.PublicKey, cts []tte.Ciphertext, coeffs []*big.Int) (tte.Ciphertext, error) {
	defer p.ops.eval.done(time.Now())
	return p.inner.Eval(pk, cts, coeffs)
}

func (p *tteProbe) PartialDecrypt(pk tte.PublicKey, sh tte.KeyShare, ct tte.Ciphertext) (tte.PartialDec, error) {
	defer p.ops.partial.done(time.Now())
	return p.inner.PartialDecrypt(pk, sh, ct)
}

func (p *tteProbe) Combine(pk tte.PublicKey, ct tte.Ciphertext, parts []tte.PartialDec) (*big.Int, error) {
	defer p.ops.combine.done(time.Now())
	return p.inner.Combine(pk, ct, parts)
}

func (p *tteProbe) Reshare(pk tte.PublicKey, sh tte.KeyShare) ([]tte.SubShare, error) {
	defer p.ops.reshare.done(time.Now())
	return p.inner.Reshare(pk, sh)
}

func (p *tteProbe) RecoverShare(pk tte.PublicKey, index int, subs []tte.SubShare) (tte.KeyShare, error) {
	defer p.ops.recover.done(time.Now())
	return p.inner.RecoverShare(pk, index, subs)
}

func (p *tteProbe) EncodePartial(x tte.PartialDec) ([]byte, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.EncodePartial(x)
}

func (p *tteProbe) DecodePartial(pk tte.PublicKey, data []byte) (tte.PartialDec, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.DecodePartial(pk, data)
}

func (p *tteProbe) EncodeSubShare(s tte.SubShare) ([]byte, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.EncodeSubShare(s)
}

func (p *tteProbe) DecodeSubShare(pk tte.PublicKey, data []byte) (tte.SubShare, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.DecodeSubShare(pk, data)
}

func (p *tteProbe) EncodeCiphertext(ct tte.Ciphertext) ([]byte, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.EncodeCiphertext(ct)
}

func (p *tteProbe) DecodeCiphertext(pk tte.PublicKey, bound *big.Int, data []byte) (tte.Ciphertext, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.DecodeCiphertext(pk, bound, data)
}

func (p *tteProbe) EncodeKeyShare(sh tte.KeyShare) ([]byte, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.EncodeKeyShare(sh)
}

func (p *tteProbe) DecodeKeyShare(pk tte.PublicKey, data []byte) (tte.KeyShare, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.DecodeKeyShare(pk, data)
}

func (p *tteProbe) EncodePublicKey(pk tte.PublicKey) ([]byte, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.EncodePublicKey(pk)
}

func (p *tteBatchProbe) EncryptMany(pk tte.PublicKey, ms []*big.Int, bound *big.Int, workers int) ([]tte.Ciphertext, error) {
	defer p.ops.encryptMany.done(time.Now())
	p.ops.manyItems.Add(int64(len(ms)))
	return p.batch.EncryptMany(pk, ms, bound, workers)
}

// pkeOps are the envelope layer's counters.
type pkeOps struct {
	keygen, seal, open, fromBytes, codec opStat
	openFailed                           atomic.Int64
}

func (o *pkeOps) put(m map[string]float64) {
	o.keygen.put(m, "pke.keygen")
	o.seal.put(m, "pke.seal")
	o.open.put(m, "pke.open")
	o.fromBytes.put(m, "pke.from_bytes")
	o.codec.put(m, "pke.codec")
	m["pke.open.failed"] = float64(o.openFailed.Load())
}

// pkeProbe times the PKE scheme and every key it hands out; ciphertexts
// pass through unwrapped, so the codecs see the backend's own types.
type pkeProbe struct {
	inner pke.Scheme
	ops   *pkeOps
}

type probedPub struct {
	pke.PublicKey
	ops *pkeOps
}

type probedSec struct {
	pke.SecretKey
	ops *pkeOps
}

func (p *pkeProbe) Name() string { return p.inner.Name() }

func (p *pkeProbe) GenerateKey() (pke.PublicKey, pke.SecretKey, error) {
	t0 := time.Now()
	pub, sec, err := p.inner.GenerateKey()
	p.ops.keygen.done(t0)
	if err != nil {
		return nil, nil, err
	}
	return &probedPub{pub, p.ops}, &probedSec{sec, p.ops}, nil
}

func (p *pkeProbe) SecretKeyFromBytes(data []byte) (pke.SecretKey, error) {
	t0 := time.Now()
	sec, err := p.inner.SecretKeyFromBytes(data)
	p.ops.fromBytes.done(t0)
	if err != nil {
		return nil, err
	}
	return &probedSec{sec, p.ops}, nil
}

func (p *pkeProbe) EncodeCiphertext(ct pke.Ciphertext) ([]byte, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.EncodeCiphertext(ct)
}

func (p *pkeProbe) DecodeCiphertext(data []byte) (pke.Ciphertext, error) {
	defer p.ops.codec.done(time.Now())
	return p.inner.DecodeCiphertext(data)
}

func (k *probedPub) Encrypt(msg []byte) (pke.Ciphertext, error) {
	defer k.ops.seal.done(time.Now())
	return k.PublicKey.Encrypt(msg)
}

func (k *probedSec) Decrypt(ct pke.Ciphertext) ([]byte, error) {
	t0 := time.Now()
	msg, err := k.SecretKey.Decrypt(ct)
	k.ops.open.done(t0)
	if err != nil {
		k.ops.openFailed.Add(1)
	}
	return msg, err
}

func (k *probedSec) Public() pke.PublicKey { return &probedPub{k.SecretKey.Public(), k.ops} }
