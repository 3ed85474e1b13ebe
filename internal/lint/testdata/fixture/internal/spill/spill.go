// Package spill shadows qppt/internal/spill for the qpptvet fixture.
package spill

import "context"

// Handle is a stub spillable-entry handle.
type Handle struct{ pins int }

func (h *Handle) Pin() error                       { h.pins++; return nil }
func (h *Handle) PinCtx(ctx context.Context) error { h.pins++; return nil }
func (h *Handle) Unpin()                           { h.pins-- }

// Manager is a stub spill manager.
type Manager struct{ budget int64 }

// New builds a manager with a byte budget and spill directory.
func New(budget int64, dir string) (*Manager, error) {
	return &Manager{budget: budget}, nil
}

// Close removes spill files and frees the budget.
func (m *Manager) Close() error { return nil }

// Register tracks a spillable entry.
func (m *Manager) Register(name string) *Handle { return &Handle{} }
