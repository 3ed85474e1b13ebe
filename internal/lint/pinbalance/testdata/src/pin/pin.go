// Package pin exercises the pinbalance analyzer: every spill.Handle pin
// must reach an Unpin on all return paths.
package pin

import (
	"context"
	"errors"

	"qppt/internal/spill"
)

func work() error { return errors.New("boom") }

// Clean: defer releases on every path.
func deferred(h *spill.Handle) error {
	if err := h.Pin(); err != nil {
		return err
	}
	defer h.Unpin()
	return work()
}

// Clean: the failure branch of the pin's own error check needs no Unpin.
func pinErrorPath(h *spill.Handle) error {
	err := h.PinCtx(context.Background())
	if err != nil {
		return err
	}
	defer h.Unpin()
	return nil
}

// Flagged: the work() error path returns without releasing — the classic
// unbalanced-pin-on-error-path bug.
func leakOnError(h *spill.Handle) error {
	if err := h.Pin(); err != nil { // want `Pin on h is not released on every return path`
		return err
	}
	if err := work(); err != nil {
		return err
	}
	h.Unpin()
	return nil
}

// Flagged: an unbalanced PinCtx — the pin is never released.
func leakCtx(ctx context.Context, h *spill.Handle) error {
	if err := h.PinCtx(ctx); err != nil { // want `PinCtx on h is not released on every return path`
		return err
	}
	return work()
}

// Clean: released in both branches.
func branches(h *spill.Handle, cond bool) error {
	if err := h.PinCtx(context.Background()); err != nil {
		return err
	}
	if cond {
		h.Unpin()
		return nil
	}
	h.Unpin()
	return work()
}

// Flagged: released in only one branch.
func halfBranches(h *spill.Handle, cond bool) error {
	if err := h.PinCtx(context.Background()); err != nil { // want `PinCtx on h is not released on every return path`
		return err
	}
	if cond {
		h.Unpin()
		return nil
	}
	return work()
}

// Clean: ownership escapes — the pinned handle is appended to a slice the
// caller releases (the pinInputs pattern).
func escapesAppend(hs []*spill.Handle) ([]*spill.Handle, error) {
	var pinned []*spill.Handle
	for _, h := range hs {
		if err := h.Pin(); err != nil {
			for _, p := range pinned {
				p.Unpin()
			}
			return nil, err
		}
		pinned = append(pinned, h)
	}
	return pinned, nil
}

// Clean: ownership escapes through a call.
func keep(h *spill.Handle) {}

func escapesCall(h *spill.Handle) error {
	if err := h.Pin(); err != nil {
		return err
	}
	keep(h)
	return nil
}

// Clean: a path that panics does not owe a release.
func panicPath(h *spill.Handle) {
	if err := h.Pin(); err != nil {
		panic(err)
	}
	if work() != nil {
		panic("bad")
	}
	h.Unpin()
}

// Flagged: a pin inside a closure must be balanced inside the closure.
func closureLeak(h *spill.Handle) func() error {
	return func() error {
		if err := h.Pin(); err != nil { // want `Pin on h is not released on every return path`
			return err
		}
		return work()
	}
}

// Clean: balanced inside the closure.
func closureBalanced(h *spill.Handle) func() error {
	return func() error {
		if err := h.Pin(); err != nil {
			return err
		}
		defer h.Unpin()
		return work()
	}
}

// Clean: selector receivers match textually across pin and unpin.
type carrier struct{ h *spill.Handle }

func selectorRecv(c *carrier) error {
	if err := c.h.PinCtx(context.Background()); err != nil {
		return err
	}
	defer c.h.Unpin()
	return work()
}

// Clean: deferred closure releasing the handle counts.
func deferredClosure(h *spill.Handle) error {
	if err := h.Pin(); err != nil {
		return err
	}
	defer func() {
		h.Unpin()
	}()
	return work()
}

// Clean: a set pin released as a set.
func setBalanced(m *spill.Manager, set []*spill.Handle) error {
	if err := m.PinSet(context.Background(), set); err != nil {
		return err
	}
	defer m.UnpinSet(set)
	return work()
}

// Flagged: the set stays pinned when work fails; unpinning another set does
// not release this one.
func setLeak(m *spill.Manager, set, other []*spill.Handle) error {
	if err := m.PinSet(context.Background(), set); err != nil { // want `PinSet on set is not released on every return path`
		return err
	}
	if err := work(); err != nil {
		m.UnpinSet(other)
		return err
	}
	m.UnpinSet(set)
	return nil
}

// Suppressed: an intentionally permanent pin with an auditable reason.
func permanentPin(h *spill.Handle) error {
	//qpptvet:ignore pinbalance the result pin is intentionally held until Close
	if err := h.Pin(); err != nil {
		return err
	}
	return nil
}

// A suppression without a reason does not silence the finding and is
// itself reported.
func badSuppression(h *spill.Handle) error {
	//qpptvet:ignore pinbalance // want `qpptvet:ignore needs a reason`
	if err := h.Pin(); err != nil { // want `Pin on h is not released on every return path`
		return err
	}
	return nil
}
