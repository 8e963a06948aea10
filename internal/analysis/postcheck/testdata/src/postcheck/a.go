// Package postcheck is a postcheck fixture: errors returned by the
// transport layer's Post/Publish/Close must be handled or explicitly
// discarded, never silently dropped by a bare call statement.
package postcheck

import (
	"yosompc/internal/comm"
	"yosompc/internal/transport"
)

// Bad drops board errors on the floor.
func Bad(c *transport.Client) {
	c.Post("r", comm.PhaseOnline, comm.CatInput, []byte("x")) // want `error from transport\.Post dropped`
	c.Close()                                                 // want `error from transport\.Close dropped`
}

// Suppressed demonstrates the per-line escape hatch.
func Suppressed(c *transport.Client) {
	c.Close() //yosolint:ignore fixture demonstrates directive suppression
}

// Good handles or explicitly discards every error.
func Good(c *transport.Client) error {
	if _, err := c.Post("r", comm.PhaseOnline, comm.CatInput, []byte("x")); err != nil {
		return err
	}
	defer c.Close() // deferred teardown stays legal
	_, _ = c.Post("r", comm.PhaseOnline, comm.CatInput, []byte("y"))
	return nil
}

// Unrelated: Board.Post returns no error, so a bare call is fine.
func Unrelated(b *transport.Board) {
	b.Post("r", comm.PhaseOnline, comm.CatInput, nil)
}
