package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"yosompc/internal/comm"
)

func TestBoardAppendOnly(t *testing.T) {
	b := NewBoard(nil)
	for i := 0; i < 10; i++ {
		seq := b.Post(fmt.Sprintf("r%d", i), comm.PhaseOffline, comm.CatLambda, make([]byte, i))
		if seq != i {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i, p := range b.All() {
		if p.Seq != i || p.From != fmt.Sprintf("r%d", i) || p.Size != i || len(p.Bytes) != i {
			t.Errorf("posting %d = %+v", i, p)
		}
	}
}

func TestBoardSharedMeter(t *testing.T) {
	m := &comm.Meter{}
	b1 := NewBoard(m)
	b2 := NewBoard(m)
	b1.Post("a", comm.PhaseOnline, comm.CatMu, make([]byte, 10))
	b2.Post("b", comm.PhaseOnline, comm.CatMu, make([]byte, 20))
	if m.Report().Total != 30 {
		t.Errorf("shared meter total = %d, want 30", m.Report().Total)
	}
	if b1.Meter() != m {
		t.Error("Meter() does not return the shared meter")
	}
}

func TestBoardConcurrentPosts(t *testing.T) {
	b := NewBoard(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Post(fmt.Sprintf("g%d", g), comm.PhaseOffline, comm.CatBeaver, []byte{0})
			}
		}(g)
	}
	wg.Wait()
	if b.Len() != 800 {
		t.Errorf("Len = %d, want 800", b.Len())
	}
	// Sequence numbers must be dense and unique.
	seen := map[int]bool{}
	for _, p := range b.All() {
		if seen[p.Seq] {
			t.Fatalf("duplicate seq %d", p.Seq)
		}
		seen[p.Seq] = true
	}
	if b.Report().Postings != 800 {
		t.Errorf("postings = %d", b.Report().Postings)
	}
}

func TestBoardAllIsSnapshot(t *testing.T) {
	b := NewBoard(nil)
	b.Post("a", comm.PhaseSetup, comm.CatCRS, []byte{1})
	all := b.All()
	b.Post("b", comm.PhaseSetup, comm.CatCRS, []byte{2})
	if len(all) != 1 {
		t.Error("All() snapshot grew")
	}
}

// The board's Size is measured from the posted bytes, never claimed: a nil
// payload encoding meters zero, and the stored bytes round-trip unchanged.
func TestBoardSizeIsMeasured(t *testing.T) {
	b := NewBoard(nil)
	b.Post("a", comm.PhaseSetup, comm.CatCRS, nil)
	wire := []byte{0xde, 0xad, 0xbe, 0xef}
	b.Post("b", comm.PhaseOnline, comm.CatMu, wire)
	all := b.All()
	p0, p1 := all[0], all[1]
	if p0.Size != 0 || len(p0.Bytes) != 0 {
		t.Errorf("nil-encoding post: size %d bytes %d, want 0/0", p0.Size, len(p0.Bytes))
	}
	if p1.Size != 4 || !bytes.Equal(p1.Bytes, wire) {
		t.Errorf("post bytes = %x size %d, want %x size 4", p1.Bytes, p1.Size, wire)
	}
	if got := b.Report().Total; got != 4 {
		t.Errorf("metered total = %d, want 4", got)
	}
}
