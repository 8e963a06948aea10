package yoso

import (
	"errors"
	"reflect"
	"testing"

	"yosompc/internal/comm"
	"yosompc/internal/nizk"
	"yosompc/internal/transport"
)

var errCrash = errors.New("member crashed")

// stepEngine forms a committee whose members have the given behaviors and
// an engine fanning out over `workers`.
func stepEngine(t *testing.T, workers int, behaviors ...Behavior) (*Engine, *Committee) {
	t.Helper()
	a, board := newTestAssignment(nil)
	c, err := a.FormCommittee("c", len(behaviors), comm.PhaseOnline)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range behaviors {
		c.Roles[i].Behavior = b
	}
	auth, err := nizk.NewAuthority()
	if err != nil {
		t.Fatal(err)
	}
	return &Engine{Board: board, Auth: auth, Workers: workers}, c
}

// testStep posts index i as a one-byte message; malicious members post 0
// and members listed in crash fail while computing their message.
func testStep(noProofs bool, crash ...int) Step {
	return Step{
		Phase:    comm.PhaseOnline,
		Cat:      comm.CatMu,
		Label:    "s",
		NoProofs: noProofs,
		Honest: func(i int) (Msg, error) {
			for _, c := range crash {
				if c == i {
					return Msg{}, errCrash
				}
			}
			return Msg{Payload: i, Wire: []byte{byte(i)}}, nil
		},
		Malicious: func(int) (Msg, error) { return Msg{Payload: 0, Wire: []byte{0}}, nil },
	}
}

func postersOf(board *transport.Board) map[string]int {
	out := map[string]int{}
	for _, p := range board.All() {
		if p.Phase == comm.PhaseOnline && p.Category != comm.CatRoleKeys {
			out[p.From]++
		}
	}
	return out
}

var stepWorkers = []int{1, 4}

func TestStepFailStopPostsNothing(t *testing.T) {
	for _, workers := range stepWorkers {
		e, c := stepEngine(t, workers, Honest, FailStop, Honest)
		got, err := e.Run(nil, c, testStep(false))
		if err != nil {
			t.Fatal(err)
		}
		if want := map[int]any{1: 1, 3: 3}; !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: accepted %v, want %v", workers, got, want)
		}
		if want := []string{"c/2@s (fail-stop)"}; !reflect.DeepEqual(e.Excluded, want) {
			t.Errorf("workers=%d: excluded %q, want %q", workers, e.Excluded, want)
		}
		// Payload and proof for each speaker; nothing from the crashed role.
		if want := map[string]int{"c/1": 2, "c/3": 2}; !reflect.DeepEqual(postersOf(e.Board), want) {
			t.Errorf("workers=%d: postings %v, want %v", workers, postersOf(e.Board), want)
		}
	}
}

func TestStepForgedProofExcluded(t *testing.T) {
	for _, workers := range stepWorkers {
		e, c := stepEngine(t, workers, Honest, Malicious, Leaky)
		got, err := e.Run(nil, c, testStep(false))
		if err != nil {
			t.Fatal(err)
		}
		if want := map[int]any{1: 1, 3: 3}; !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: accepted %v, want %v", workers, got, want)
		}
		if want := []string{"c/2@s (malicious)"}; !reflect.DeepEqual(e.Excluded, want) {
			t.Errorf("workers=%d: excluded %q, want %q", workers, e.Excluded, want)
		}
		// The malicious role did post: its lie and forged proof are public.
		if n := postersOf(e.Board)["c/2"]; n != 2 {
			t.Errorf("workers=%d: malicious role made %d postings, want 2", workers, n)
		}
	}
}

func TestStepWorkerCountIndependent(t *testing.T) {
	behaviors := []Behavior{Malicious, Honest, FailStop, Leaky, Honest, Malicious, Honest, FailStop, Honest}
	for _, noProofs := range []bool{false, true} {
		var (
			refAccepted map[int]any
			refExcluded []string
			refReport   comm.Report
		)
		for _, workers := range []int{1, 2, 4, len(behaviors)} {
			e, c := stepEngine(t, workers, behaviors...)
			got, err := e.Run(nil, c, testStep(noProofs))
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				refAccepted, refExcluded, refReport = got, e.Excluded, e.Board.Report()
				continue
			}
			if !reflect.DeepEqual(got, refAccepted) || !reflect.DeepEqual(e.Excluded, refExcluded) {
				t.Errorf("noProofs=%v workers=%d: (%v, %q), serial (%v, %q)",
					noProofs, workers, got, e.Excluded, refAccepted, refExcluded)
			}
			if !reflect.DeepEqual(e.Board.Report(), refReport) {
				t.Errorf("noProofs=%v workers=%d: metered bytes differ from the serial run", noProofs, workers)
			}
		}
	}
}

func TestStepHonestError(t *testing.T) {
	for _, workers := range stepWorkers {
		// With proofs a failing honest member aborts the step.
		e, c := stepEngine(t, workers, Honest, Honest, Honest)
		if _, err := e.Run(nil, c, testStep(false, 2)); !errors.Is(err, errCrash) {
			t.Errorf("workers=%d: proof-mode error = %v, want %v", workers, err, errCrash)
		}

		// Without proofs it counts as a crash: the step completes, the
		// malicious lie is returned for decoding, and only roles that
		// did not follow the protocol or did not speak are excluded.
		e, c = stepEngine(t, workers, Honest, Honest, Malicious, Leaky)
		got, err := e.Run(nil, c, testStep(true, 2))
		if err != nil {
			t.Fatalf("workers=%d: no-proof step failed: %v", workers, err)
		}
		if want := map[int]any{1: 1, 3: 0, 4: 4}; !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: accepted %v, want %v", workers, got, want)
		}
		want := []string{"c/2@s (honest)", "c/3@s (malicious)"}
		if !reflect.DeepEqual(e.Excluded, want) {
			t.Errorf("workers=%d: excluded %q, want %q", workers, e.Excluded, want)
		}
		if n := postersOf(e.Board)["c/1"]; n != 1 {
			t.Errorf("workers=%d: no-proof speaker made %d postings, want 1 (no proof)", workers, n)
		}
	}
}

func TestStepCommitteeSpoke(t *testing.T) {
	for _, workers := range stepWorkers {
		e, c := stepEngine(t, workers, Honest, FailStop, Malicious, Leaky)
		if _, err := e.Run(nil, c, testStep(false)); err != nil {
			t.Fatal(err)
		}
		for _, r := range c.Roles {
			if !r.HasSpoken() {
				t.Errorf("workers=%d: %s has not spoken after the step", workers, r.Name())
			}
		}
	}
}

func TestSpeakSingleRole(t *testing.T) {
	e, c := stepEngine(t, 1, Honest, Malicious)
	for i, want := range []bool{true, false} {
		role := c.Roles[i]
		ok, err := e.Speak(role, testStep(false))
		if err != nil {
			t.Fatal(err)
		}
		if ok != want {
			t.Errorf("%s accepted = %v, want %v", role.Name(), ok, want)
		}
		if role.HasSpoken() {
			t.Errorf("%s killed by Speak", role.Name())
		}
	}
	if len(e.Excluded) != 0 {
		t.Errorf("Speak recorded exclusions: %q", e.Excluded)
	}
}
