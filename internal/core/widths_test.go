package core

import (
	"strings"
	"testing"

	"yosompc/internal/circuit"
	"yosompc/internal/comm"
	"yosompc/internal/transport"
	"yosompc/internal/yoso"
)

// checkPostingWidths fails unless every non-proof posting of one
// committee in one category has the same width: a malicious member's lie
// is as wide as the honest messages it stands in for.
func checkPostingWidths(t *testing.T, name string, posts []transport.Posting) {
	t.Helper()
	type key struct {
		committee string
		cat       comm.Category
	}
	width := map[key]int{}
	for _, p := range posts {
		committee, _, ok := strings.Cut(p.From, "/")
		if !ok || committee == "client" || p.Category == comm.CatProof {
			continue
		}
		k := key{committee, p.Category}
		if w, seen := width[k]; !seen {
			width[k] = p.Size
		} else if w != p.Size {
			t.Errorf("%s: %s posted %d bytes of %s, another member %d", name, p.From, p.Size, p.Category, w)
		}
	}
	if len(width) == 0 {
		t.Fatalf("%s: no committee postings", name)
	}
}

// TestStepPostingWidths runs the Sim backends with malicious and
// fail-stop members in every committee, in proof mode, Robust and NoKFF.
func TestStepPostingWidths(t *testing.T) {
	circ, err := circuit.WideMul(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := inputsOf(map[int][]uint64{0: {1, 2, 3, 4}, 1: {5, 6, 7, 8}})
	proofs := simParams(16, 3, 2, yoso.NewAdversary(2, 1, 5))
	robust := proofs
	robust.Robust = true
	noKFF := proofs
	noKFF.NoKFF = true
	for name, params := range map[string]Params{"proofs": proofs, "robust": robust, "nokff": noKFF} {
		proto, err := New(params, circ, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := proto.Run(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Excluded) == 0 {
			t.Fatalf("%s: no member was excluded", name)
		}
		checkPostingWidths(t, name, proto.Board().All())
	}
}
