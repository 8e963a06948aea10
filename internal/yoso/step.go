package yoso

import (
	"context"
	"fmt"

	"yosompc/internal/comm"
	"yosompc/internal/nizk"
	"yosompc/internal/parallel"
	"yosompc/internal/telemetry"
	"yosompc/internal/transport"
)

// Msg is one role's step message: the payload the driver keeps for itself
// and reads back, and its wire encoding, the only form that reaches the
// board.
type Msg struct {
	Payload any
	Wire    []byte
}

// Step describes one speaking step: what every speaker posts, under which
// phase and category, and whether proofs are attached.
type Step struct {
	Phase comm.Phase
	Cat   comm.Category
	// Label names the step in proof statements, spans and exclusions.
	Label string
	// NoProofs runs the step without proofs (the information-theoretic
	// robust mode): every posted message is returned for the caller to
	// decode, roles that do not follow the protocol are excluded, and an
	// honest speaker's error counts as a crash instead of aborting the
	// step.
	NoProofs bool
	// Honest computes the message of the protocol-following role with
	// the given index; Malicious returns that role's type-correct lie.
	Honest    func(index int) (Msg, error)
	Malicious func(index int) (Msg, error)
}

// Engine runs the speaking steps of one protocol execution: speak-once
// posting per role behavior, proof attach and verify, member fan-out on
// the worker pool, committee spans, and the exclusion record. Both the
// packed driver (internal/core) and the CDN baseline run on it, so their
// committee steps execute and are measured the same way.
type Engine struct {
	Board *transport.Board
	Auth  *nizk.Authority
	// Domain prefixes every proof statement's label, separating the
	// statements of different protocols.
	Domain string
	// Ctx cancels the execution between steps and between members; nil
	// never cancels.
	Ctx context.Context
	// Workers is the member fan-out (parallel.Normalize semantics).
	Workers int
	// Obs receives one event per member; nil disables observation.
	Obs parallel.Observer
	// Log, when non-nil, receives the "role excluded" and "committee
	// spoke" events against the committee span.
	Log func(sp *telemetry.Span, msg string, attrs ...any)
	// Excluded lists "role@label (behavior)" for every speaker whose
	// message was not accepted, in step order and member order within a
	// step.
	Excluded []string
}

// speech is one role's contribution as posted: nil when nothing reached
// the board.
type speech struct {
	msg   Msg
	proof nizk.Proof
}

// Run executes step s for every member of committee c and returns the
// accepted payloads by 1-based member index. Members run on the worker
// pool; results stay slot-indexed and the exclusions are recorded after
// every member has finished, in member order, so the outcome and the
// metered bytes do not depend on the worker count. With proofs, the first
// member error cancels the remaining members and aborts the step. After
// the step every member has received the Spoke token.
//
// The committee span is a child of parent, and the board stamps it on
// every posting of the step; parent's stamp resumes afterwards.
func (e *Engine) Run(parent *telemetry.Span, c *Committee, s Step) (map[int]any, error) {
	if e.Ctx != nil {
		if err := e.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.Label, err)
		}
	}
	sp := parent.Child("committee:" + s.Label)
	sp.SetStr("committee", c.Name)
	sp.SetInt("members", int64(c.N()))
	// Steps run one at a time, so stamping the step span for its duration
	// attributes every member posting to it.
	e.Board.SetTraceSpan(sp.ID())
	defer e.Board.SetTraceSpan(parent.ID())
	said := make([]*speech, c.N())
	err := parallel.ForWorker(e.Ctx, e.Workers, c.N(), func(worker, i int) error {
		msp := sp.Child("member")
		msp.SetInt("index", int64(i+1))
		msp.SetWorker(worker)
		sh, err := e.speak(c.Roles[i], s)
		msp.End()
		if err != nil && !s.NoProofs {
			return err
		}
		said[i] = sh
		return nil
	}, e.Obs)
	if err != nil {
		sp.End()
		return nil, err
	}
	accepted := make(map[int]any, c.N())
	for i, sh := range said {
		ok := e.accept(c.Roles[i], s, sh)
		if !ok {
			e.exclude(sp, c.Roles[i], s.Label)
		}
		// Without proofs every posted message goes to the caller's
		// decoder, lies included.
		if ok || (s.NoProofs && sh != nil) {
			accepted[i+1] = sh.msg.Payload
		}
	}
	c.SpeakAll()
	sp.SetInt("verified", int64(len(accepted)))
	sp.End()
	if e.Log != nil {
		e.Log(sp, "committee spoke", "committee", c.Name, "step", s.Label,
			"verified", len(accepted), "of", c.N())
	}
	return accepted, nil
}

// Speak runs step s for a single role outside any committee (a client's
// input broadcast) and reports whether its message was accepted. The
// role is not killed: known parties outlive their broadcast.
func (e *Engine) Speak(role *Role, s Step) (bool, error) {
	sh, err := e.speak(role, s)
	if err != nil {
		return false, err
	}
	return e.accept(role, s, sh), nil
}

// speak posts one role's message for step s. Honest and leaky roles post
// what Honest computes with an attested proof; malicious roles post the
// Malicious lie with a forged proof; fail-stop roles post nothing.
func (e *Engine) speak(role *Role, s Step) (*speech, error) {
	var (
		msg Msg
		err error
	)
	switch role.Behavior {
	case FailStop:
		return nil, nil
	case Malicious:
		msg, err = s.Malicious(role.Index)
	default:
		msg, err = s.Honest(role.Index)
	}
	if err != nil {
		return nil, fmt.Errorf("%s at %s: %w", role.Name(), s.Label, err)
	}
	sh := &speech{msg: msg}
	role.Post(s.Phase, s.Cat, msg.Wire)
	if s.NoProofs {
		return sh, nil
	}
	if role.Behavior == Malicious {
		sh.proof = e.Auth.Forge()
	} else {
		sh.proof = e.Auth.Attest(e.statement(role, s))
	}
	role.Post(s.Phase, comm.CatProof, sh.proof.Bytes())
	return sh, nil
}

// accept reports whether a role's speech counts: with proofs, when the
// proof verifies; without, when the role spoke and follows the protocol.
func (e *Engine) accept(role *Role, s Step, sh *speech) bool {
	if sh == nil {
		return false
	}
	if s.NoProofs {
		return role.Behavior.FollowsProtocol()
	}
	return e.Auth.Verify(e.statement(role, s), sh.proof)
}

func (e *Engine) statement(role *Role, s Step) []byte {
	return nizk.NewStatement(e.Domain + s.Label).AddString(role.Name()).Bytes()
}

func (e *Engine) exclude(sp *telemetry.Span, role *Role, label string) {
	e.Excluded = append(e.Excluded, fmt.Sprintf("%s@%s (%s)", role.Name(), label, role.Behavior))
	if e.Log != nil {
		e.Log(sp, "role excluded", "role", role.Name(), "step", label, "behavior", role.Behavior.String())
	}
}
