// Package qppt is the root of the qpptvet smoke-test fixture module: a
// miniature shadow of the real module's API surface with one deliberate
// violation per analyzer planted in internal/core. The e2e tests run the
// qpptvet binary over this module and assert the expected findings — an
// analyzer that stops firing here fails CI.
package qppt

import "fixture.example/qppt/internal/core"

// Engine is a stub long-lived query engine.
type Engine struct{ open bool }

// New builds an engine.
func New() *Engine { return &Engine{open: true} }

// Close shuts the engine down.
func (e *Engine) Close() error { e.open = false; return nil }

// Exec runs a query.
func (e *Engine) Exec(q string) (int, error) {
	core.LeakManager()
	return len(q), core.UseManager()
}
