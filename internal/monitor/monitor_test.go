package monitor

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"yosompc/internal/comm"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
)

func manifestEntry(t *testing.T, proc, name, phase string, n, quorum int, recvUS int64) transport.Entry {
	t.Helper()
	man := transport.Manifest{Committee: name, Phase: phase, N: n, Quorum: quorum}
	payload, err := man.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return transport.Entry{
		From:     "role-assignment",
		Phase:    string(comm.PhaseSystem),
		Category: string(comm.CatManifest),
		Trace:    transport.TraceContext{Proc: proc, RecvUS: recvUS},
		Size:     len(payload),
		Payload:  payload,
	}
}

func speechEntry(proc, from, phase string, size int, recvUS int64) transport.Entry {
	return transport.Entry{
		From:     from,
		Phase:    phase,
		Category: string(comm.CatBeaver),
		Trace:    transport.TraceContext{Proc: proc, PostUS: recvUS - 10, RecvUS: recvUS},
		Size:     size,
		Payload:  make([]byte, size),
	}
}

func TestProgressAndCompletion(t *testing.T) {
	m := New()
	m.Ingest(manifestEntry(t, "", "offB1", "offline", 3, 2, 100))
	m.Ingest(manifestEntry(t, "", "onC1", "online", 2, 2, 110))
	s := m.Snapshot()
	if s.Expected != 5 || s.Posted != 0 || s.Complete || s.Fraction != 0 {
		t.Fatalf("after manifests: %+v", s)
	}
	if len(s.Phases) != 2 || s.Phases[0].Phase != "offline" || s.Phases[1].Phase != "online" {
		t.Fatalf("phases = %+v", s.Phases)
	}
	for i, from := range []string{"offB1/1", "offB1/2", "offB1/3"} {
		m.Ingest(speechEntry("", from, "offline", 64, int64(200+10*i)))
	}
	s = m.Snapshot()
	if s.Posted != 3 || s.Phases[0].Fraction != 1 || !s.Phases[0].Complete {
		t.Fatalf("offline incomplete: %+v", s)
	}
	if s.Phases[1].Fraction != 0 {
		t.Fatalf("online should be untouched: %+v", s.Phases[1])
	}
	m.Ingest(speechEntry("", "onC1/1", "online", 32, 300))
	m.Ingest(speechEntry("", "onC1/2", "online", 32, 310))
	s = m.Snapshot()
	if !s.Complete || s.Fraction != 1 || s.Posted != 5 {
		t.Fatalf("run should be complete: %+v", s)
	}
	// A role posting payload + proof counts once as a speaker, twice as posts.
	m.Ingest(speechEntry("", "onC1/2", "online", 16, 320))
	s = m.Snapshot()
	if s.Posted != 5 || s.Committees[1].Posts != 3 {
		t.Fatalf("double speech miscounted: %+v", s.Committees[1])
	}
}

func TestStragglersAndFailStopMargin(t *testing.T) {
	m := New()
	// n=4, quorum=2: tolerates 2 fail-stops.
	m.Ingest(manifestEntry(t, "", "offR", "offline", 4, 2, 100))
	m.Ingest(manifestEntry(t, "", "offDec", "offline", 2, 2, 101))
	m.Ingest(speechEntry("", "offR/1", "offline", 8, 1000))
	m.Ingest(speechEntry("", "offR/3", "offline", 8, 2000))
	s := m.Snapshot()
	c := s.Committees[0]
	if !c.Active || c.Settled {
		t.Fatalf("offR should be active, unsettled: %+v", c)
	}
	if len(c.Stragglers) != 2 || c.Stragglers[0].Role != "offR/2" || c.Stragglers[1].Role != "offR/4" {
		t.Fatalf("stragglers = %+v", c.Stragglers)
	}
	// Wait time is board time since the committee started speaking.
	if c.Stragglers[0].WaitUS != 1000 {
		t.Errorf("wait = %d, want 1000", c.Stragglers[0].WaitUS)
	}
	// tolerated 2, missing 2 → margin 0: at the edge, still reconstructable.
	if c.Margin != 0 || s.MarginMin == nil || *s.MarginMin != 0 {
		t.Errorf("margin = %d, min = %v", c.Margin, s.MarginMin)
	}
	// The next committee speaking settles offR: its missing members are
	// confirmed fail-stops, no longer stragglers.
	m.Ingest(speechEntry("", "offDec/1", "offline", 8, 3000))
	s = m.Snapshot()
	c = s.Committees[0]
	if !c.Settled || len(c.Stragglers) != 0 || len(c.Missing) != 2 {
		t.Fatalf("after settle: %+v", c)
	}
	// A third fail-stop would breach the quorum: margin goes negative.
	m2 := New()
	m2.Ingest(manifestEntry(t, "", "offR", "offline", 4, 2, 100))
	m2.Ingest(manifestEntry(t, "", "next", "offline", 1, 1, 101))
	m2.Ingest(speechEntry("", "offR/1", "offline", 8, 1000))
	m2.Ingest(speechEntry("", "next/1", "offline", 8, 2000))
	s2 := m2.Snapshot()
	if got := s2.Committees[0].Margin; got != -1 {
		t.Errorf("breached margin = %d, want -1", got)
	}
	if s2.MarginMin == nil || *s2.MarginMin != -1 {
		t.Errorf("min margin = %v, want -1", s2.MarginMin)
	}
}

// Two processes mirroring into one board keep separate committee state:
// the same committee name never merges across procs, and one proc's
// committees do not settle the other's.
func TestCrossProcessKeying(t *testing.T) {
	m := New()
	m.Ingest(manifestEntry(t, "a", "offB1", "offline", 2, 1, 100))
	m.Ingest(manifestEntry(t, "b", "offB1", "offline", 3, 2, 101))
	m.Ingest(speechEntry("a", "offB1/1", "offline", 8, 200))
	m.Ingest(speechEntry("b", "offB1/1", "offline", 8, 201))
	m.Ingest(speechEntry("a", "offB1/2", "offline", 8, 202))
	s := m.Snapshot()
	if len(s.Committees) != 2 {
		t.Fatalf("committees = %+v", s.Committees)
	}
	if s.Committees[0].Proc != "a" || s.Committees[0].Posted != 2 {
		t.Errorf("proc a committee = %+v", s.Committees[0])
	}
	if s.Committees[1].Proc != "b" || s.Committees[1].Posted != 1 || s.Committees[1].Settled {
		t.Errorf("proc b committee = %+v", s.Committees[1])
	}
}

func TestInfraAttributionAndUnexpected(t *testing.T) {
	m := New()
	m.Ingest(speechEntry("", "setup", "setup", 100, 10))
	m.Ingest(speechEntry("", "setup-dealer", "offline", 50, 20))
	m.Ingest(speechEntry("", "client/7", "online", 30, 30))
	m.Ingest(speechEntry("", "client/9", "online", 30, 40))
	// Speaker-shaped post with no manifest: counted as unexpected.
	m.Ingest(speechEntry("", "ghost/1", "offline", 8, 50))
	s := m.Snapshot()
	if s.Unexpected != 1 {
		t.Errorf("unexpected = %d, want 1", s.Unexpected)
	}
	classes := map[string]InfraStatus{}
	for _, inf := range s.Infra {
		classes[inf.Class] = inf
	}
	if classes["client"].Posts != 2 || classes["client"].Bytes != 60 {
		t.Errorf("client infra = %+v", classes["client"])
	}
	if classes["setup"].Posts != 1 || classes["setup-dealer"].Posts != 1 {
		t.Errorf("infra = %+v", s.Infra)
	}
}

func TestMonitorMetricsExport(t *testing.T) {
	m := New()
	reg := telemetry.NewRegistry()
	m.Instrument(reg)
	m.Ingest(manifestEntry(t, "", "offB1", "offline", 3, 2, 100))
	m.Ingest(speechEntry("", "offB1/1", "offline", 64, 200))
	snap := reg.Snapshot()
	if snap.Counters["monitor.entries"] != 2 || snap.Counters["monitor.manifests"] != 1 {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if snap.Gauges["monitor.committees"] != 1 || snap.Gauges["monitor.speakers_expected"] != 3 ||
		snap.Gauges["monitor.speakers_posted"] != 1 || snap.Gauges["monitor.stragglers"] != 2 {
		t.Errorf("gauges = %+v", snap.Gauges)
	}
	// tolerated 1, missing 2 → margin −1.
	if snap.Gauges["monitor.failstop_margin_min"] != -1 {
		t.Errorf("margin gauge = %d", snap.Gauges["monitor.failstop_margin_min"])
	}
}

func TestAttachBoardDerivesProgress(t *testing.T) {
	b := transport.NewBoard(nil)
	b.SetProc("run")
	m := New()
	m.AttachBoard(b)
	man, _ := transport.Manifest{Committee: "onOut", Phase: "online", N: 2, Quorum: 1}.MarshalBinary()
	b.Post("role-assignment", comm.PhaseSystem, comm.CatManifest, man)
	b.Post("onOut/1", comm.PhaseOnline, comm.CatOutput, []byte{1, 2, 3})
	s := m.Snapshot()
	if s.Posted != 1 || s.Expected != 2 || s.Committees[0].Proc != "run" {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.BoardUS == 0 {
		t.Error("board time not derived from posting stamps")
	}
}

func TestRunTailIngestsRemoteBoard(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.Serve(ln)
	defer srv.Close()
	m := New()
	stop, err := m.RunTail(srv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	man, _ := transport.Manifest{Committee: "offB2", Phase: "offline", N: 1, Quorum: 1}.MarshalBinary()
	if _, err := c.Post("role-assignment", comm.PhaseSystem, comm.CatManifest, man); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Post("offB2/1", comm.PhaseOffline, comm.CatBeaver, []byte{1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Snapshot().Posted != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("tail never delivered: %+v", m.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if s := m.Snapshot(); !s.Complete {
		t.Errorf("snapshot after stop = %+v", s)
	}
}

func TestSnapshotJSONAndText(t *testing.T) {
	m := New()
	m.Ingest(manifestEntry(t, "", "offB1", "offline", 2, 1, 100))
	m.Ingest(speechEntry("", "offB1/1", "offline", 8, 200))
	s := m.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"fraction":0.5`, `"margin_min":0`, `"stragglers"`, `"offB1/2"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("progress JSON missing %s:\n%s", key, data)
		}
	}
	var buf strings.Builder
	s.WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "offB1") || !strings.Contains(out, "waiting on offB1/2") {
		t.Errorf("text view:\n%s", out)
	}
}

func TestNilMonitorIsInert(t *testing.T) {
	var m *Monitor
	m.Ingest(transport.Entry{From: "x"})
	m.Instrument(telemetry.NewRegistry())
	m.AttachBoard(transport.NewBoard(nil))
	if s := m.Snapshot(); s.Entries != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
}

func TestSpeakerOf(t *testing.T) {
	cases := []struct {
		in   string
		name string
		idx  int
		ok   bool
	}{
		{"offB1/3", "offB1", 3, true},
		{"on-layer2/12", "on-layer2", 12, true},
		{"client/7", "client", 7, true},
		{"setup", "", 0, false},
		{"offB1/", "", 0, false},
		{"offB1/x", "", 0, false},
		{"offB1/0", "", 0, false},
		{"/3", "", 0, false},
	}
	for _, c := range cases {
		name, idx, ok := speakerOf(c.in)
		if name != c.name || idx != c.idx || ok != c.ok {
			t.Errorf("speakerOf(%q) = %q, %d, %v", c.in, name, idx, ok)
		}
	}
}
