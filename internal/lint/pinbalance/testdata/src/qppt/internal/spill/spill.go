// Package spill is a stub of qppt/internal/spill for analyzer tests: the
// analyzers match types by package-path suffix ("internal/spill"), so
// this stand-in exercises them without importing the real engine.
package spill

import "context"

// Handle mirrors the pinning surface of the real spill.Handle.
type Handle struct{ pins int }

func (h *Handle) Pin() error                       { h.pins++; return nil }
func (h *Handle) PinCtx(ctx context.Context) error { h.pins++; return nil }
func (h *Handle) Unpin()                           { h.pins-- }
func (h *Handle) Drop()                            {}

// Manager mirrors the lifecycle surface of the real spill.Manager.
type Manager struct{}

func New(budget int64, dir string) (*Manager, error) { return &Manager{}, nil }

func (m *Manager) Register(label string, obj any, size func() int) *Handle { return &Handle{} }
func (m *Manager) Close() error                                            { return nil }

// PinSet/UnpinSet mirror the set pin.
func (m *Manager) PinSet(ctx context.Context, set []*Handle) error { return nil }
func (m *Manager) UnpinSet(set []*Handle)                          {}
