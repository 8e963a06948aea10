package sharing

import (
	"encoding/binary"
	"errors"
	"testing"

	"yosompc/internal/field"
)

// FuzzShamirRoundTrip checks the share→reconstruct identity over fuzzed
// parameters: packed sharings with arbitrary packing factor k, degree d
// and committee size n (subject to the validity constraints k-1 ≤ d ≤ n-1),
// reconstruction both from a minimal share subset and from the full set,
// and detection of a corrupted share whenever redundant shares exist. It
// complements the field and circuit fuzzers with coverage of the packing
// layer itself.
func FuzzShamirRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(4), uint8(7), uint8(16), []byte{0xff, 0xee, 0xdd, 0xcc})
	f.Add(uint8(2), uint8(3), uint8(5), []byte{})
	f.Add(uint8(9), uint8(200), uint8(255), []byte{9, 9, 9, 9, 9, 9, 9, 9, 1})
	f.Fuzz(func(t *testing.T, kRaw, dRaw, nRaw uint8, data []byte) {
		// Derive valid parameters: 1 ≤ n ≤ 32, k-1 ≤ d ≤ n-1, 1 ≤ k ≤ d+1.
		n := 1 + int(nRaw)%32
		d := int(dRaw) % n
		k := 1 + int(kRaw)%(d+1)

		secrets := make([]field.Element, k)
		for j := range secrets {
			var chunk [8]byte
			copy(chunk[:], data[min(8*j, len(data)):])
			secrets[j] = field.New(binary.LittleEndian.Uint64(chunk[:]))
		}

		shares, err := SharePacked(secrets, d, n)
		if err != nil {
			t.Fatalf("SharePacked(k=%d d=%d n=%d): %v", k, d, n, err)
		}
		if len(shares) != n {
			t.Fatalf("got %d shares, want n=%d", len(shares), n)
		}

		// Reconstruct from all n shares: the extras double as a consistency
		// check, which must pass for an honest sharing.
		got, err := ReconstructPacked(shares, d, k)
		if err != nil {
			t.Fatalf("ReconstructPacked(all): %v", err)
		}
		assertSecrets(t, secrets, got, "full share set")

		// Reconstruct from the minimal subset, taken from the tail so the
		// indices are not simply 1..d+1.
		minimal := shares[n-(d+1):]
		got, err = ReconstructPacked(minimal, d, k)
		if err != nil {
			t.Fatalf("ReconstructPacked(minimal tail): %v", err)
		}
		assertSecrets(t, secrets, got, "minimal share subset")

		// With redundant shares present, corrupting one must be detected.
		if n > d+1 {
			tampered := make([]Share, n)
			copy(tampered, shares)
			tampered[0].Value = tampered[0].Value.Add(field.One)
			if _, err := ReconstructPacked(tampered, d, k); !errors.Is(err, ErrInconsistentShares) {
				t.Fatalf("corrupted share went undetected (err=%v)", err)
			}
		}
	})
}

// FuzzDomainVsNaive differentially fuzzes the cached evaluation-domain
// engine against the seed Lagrange-basis reference: both paths are driven
// from identical fuzz-derived secrets AND randomness (through the
// shareWith / sharePackedNaiveWith seam), so any divergence — in share
// values, reconstructed secrets, or error behaviour — is a bug in one of
// them, not a sampling artifact.
func FuzzDomainVsNaive(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(4), uint8(7), uint8(16), []byte{0xff, 0xee, 0xdd, 0xcc})
	f.Add(uint8(3), uint8(2), uint8(4), []byte{})
	f.Add(uint8(9), uint8(200), uint8(255), []byte{9, 9, 9, 9, 9, 9, 9, 9, 1})
	f.Fuzz(func(t *testing.T, kRaw, dRaw, nRaw uint8, data []byte) {
		n := 1 + int(nRaw)%32
		d := int(dRaw) % n
		k := 1 + int(kRaw)%(d+1)

		at := func(i int) field.Element {
			var chunk [8]byte
			copy(chunk[:], data[min(8*i, len(data)):])
			return field.New(binary.LittleEndian.Uint64(chunk[:]))
		}
		secrets := make([]field.Element, k)
		for j := range secrets {
			secrets[j] = at(j)
		}
		rnd := make([]field.Element, d+1-k)
		for j := range rnd {
			rnd[j] = at(k + j)
		}

		dom, err := GetDomain(k, d, n)
		if err != nil {
			t.Fatalf("GetDomain(k=%d d=%d n=%d): %v", k, d, n, err)
		}
		fast := dom.shareWith(secrets, rnd)
		naive, err := sharePackedNaiveWith(secrets, rnd, d, n)
		if err != nil {
			t.Fatalf("naive share: %v", err)
		}
		for i := range fast {
			if fast[i] != naive[i] {
				t.Fatalf("share %d: domain=%+v naive=%+v", i, fast[i], naive[i])
			}
		}

		// Canonical full-set reconstruction, both paths.
		gotFast, err := ReconstructPacked(fast, d, k)
		if err != nil {
			t.Fatalf("ReconstructPacked: %v", err)
		}
		gotNaive, err := ReconstructPackedNaive(naive, d, k)
		if err != nil {
			t.Fatalf("ReconstructPackedNaive: %v", err)
		}
		if !field.EqualVec(gotFast, gotNaive) || !field.EqualVec(gotFast, secrets) {
			t.Fatalf("reconstruction: fast=%v naive=%v want=%v", gotFast, gotNaive, secrets)
		}

		// Non-canonical tail subset, both paths.
		tail := fast[n-(d+1):]
		gotFast, err = ReconstructPacked(tail, d, k)
		if err != nil {
			t.Fatalf("ReconstructPacked(tail): %v", err)
		}
		gotNaive, err = ReconstructPackedNaive(tail, d, k)
		if err != nil {
			t.Fatalf("ReconstructPackedNaive(tail): %v", err)
		}
		if !field.EqualVec(gotFast, gotNaive) {
			t.Fatalf("tail reconstruction: fast=%v naive=%v", gotFast, gotNaive)
		}

		// Corruption parity when redundancy exists: same detection, same
		// error text.
		if n > d+1 {
			tampered := make([]Share, n)
			copy(tampered, fast)
			tampered[n-1].Value = tampered[n-1].Value.Add(field.One)
			_, fastErr := ReconstructPacked(tampered, d, k)
			_, naiveErr := ReconstructPackedNaive(tampered, d, k)
			if !errors.Is(fastErr, ErrInconsistentShares) || !errors.Is(naiveErr, ErrInconsistentShares) {
				t.Fatalf("tampering: fast=%v naive=%v", fastErr, naiveErr)
			}
			if fastErr.Error() != naiveErr.Error() {
				t.Fatalf("error text diverged: fast=%q naive=%q", fastErr, naiveErr)
			}
		}

		// Constant-packing rows for the same k.
		cFast, err := ConstantPackedShare(secrets, n)
		if err != nil {
			t.Fatalf("ConstantPackedShare: %v", err)
		}
		cNaive, err := constantPackedShareNaive(secrets, n)
		if err != nil {
			t.Fatalf("constantPackedShareNaive: %v", err)
		}
		if cFast != cNaive {
			t.Fatalf("constant share: domain=%+v naive=%+v", cFast, cNaive)
		}
	})
}

func assertSecrets(t *testing.T, want, got []field.Element, from string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d secrets, want %d", from, len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: secret %d = %v, want %v", from, j, got[j], want[j])
		}
	}
}
