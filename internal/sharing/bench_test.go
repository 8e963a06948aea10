package sharing

import (
	"fmt"
	"testing"

	"yosompc/internal/field"
)

// Benchmark geometry: quarter packing, half-degree sharings — the shape
// the offline/online phases use at scale. "domain" is the cached engine,
// "naive" the seed Lagrange-basis path, both driven below the randomness
// seam so the numbers compare pure share algebra.
var benchSizes = []struct{ k, d, n int }{
	{16, 32, 64},
	{64, 128, 256},
	{256, 512, 1024},
}

func BenchmarkSharePacked(b *testing.B) {
	for _, s := range benchSizes {
		secrets := field.MustRandomVec(s.k)
		rnd := field.MustRandomVec(s.d + 1 - s.k)
		dom, err := GetDomain(s.k, s.d, s.n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("domain/n=%d", s.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dom.shareWith(secrets, rnd)
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", s.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sharePackedNaiveWith(secrets, rnd, s.d, s.n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReconstructPacked(b *testing.B) {
	for _, s := range benchSizes {
		secrets := field.MustRandomVec(s.k)
		shares, err := SharePacked(secrets, s.d, s.n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("domain/n=%d", s.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReconstructPacked(shares, s.d, s.k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", s.n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReconstructPackedNaive(shares, s.d, s.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
