// Package spill shadows qppt/internal/spill for the qpptvet fixture.
package spill

// Manager is a stub spill manager.
type Manager struct{ budget int64 }

// New builds a manager with a byte budget and spill directory.
func New(budget int64, dir string) (*Manager, error) {
	return &Manager{budget: budget}, nil
}

// Close removes spill files and frees the budget.
func (m *Manager) Close() error { return nil }

// Register tracks a spillable entry.
func (m *Manager) Register(name string) {}
