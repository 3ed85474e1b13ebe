// Package trail exercises the closetrail analyzer: locally created
// Engine / spill.Manager / duplist.Slab / wire.Server / client.Conn values
// must reach Close/Release on every return path.
package trail

import (
	"qppt"
	"qppt/internal/duplist"
	"qppt/internal/spill"
	"qppt/internal/wire"
	"qppt/internal/wire/client"
)

// Clean: the preferred form — defer right after the constructor.
func deferClose() (int, error) {
	e, err := qppt.New(qppt.Config{})
	if err != nil {
		return 0, err
	}
	defer e.Close()
	return e.Exec("q")
}

// Flagged: the engine leaks on the early return.
func leakOnEarlyReturn(q string) (int, error) {
	e, err := qppt.New(qppt.Config{}) // want `qppt.Engine created here does not reach e.Close\(\) on every return path`
	if err != nil {
		return 0, err
	}
	n, err := e.Exec(q)
	if err != nil {
		return 0, err // engine never closed on this path
	}
	e.Close()
	return n, nil
}

// Clean: the error branch of the constructor itself is exempt.
func closeAllPaths(q string) error {
	m, err := spill.New(1<<20, "/tmp/spill")
	if err != nil {
		return err
	}
	m.Register(q)
	m.Close()
	return nil
}

// Flagged: no teardown at all.
func leakManager() {
	m, err := spill.New(1<<20, "/tmp/spill") // want `spill.Manager created here does not reach m.Close\(\) on every return path`
	if err != nil {
		return
	}
	m.Register("t")
}

// Flagged: a slab released on one branch only.
func slabHalfReleased(n int) {
	s := duplist.NewSlab() // want `duplist.Slab created here does not reach s.Release\(\) on every return path`
	if n > 0 {
		s.Push(uint64(n))
		s.Release()
	}
}

// Clean: released via a deferred closure.
func slabDeferredClosure() {
	s := duplist.NewSlabIn(nil)
	defer func() { s.Release() }()
	s.Push(1)
}

// Clean: ownership transfers with the return value.
func openEngine() (*qppt.Engine, error) {
	e, err := qppt.New(qppt.Config{})
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Clean: storing the manager hands the obligation to the struct.
type server struct{ m *spill.Manager }

func (sv *server) init() error {
	m, err := spill.New(1<<20, "/tmp/spill")
	if err != nil {
		return err
	}
	sv.m = m
	return nil
}

// Clean: the wire server is torn down on every exit.
func serveWire(e *qppt.Engine, addr string) error {
	srv := wire.NewServer(e)
	defer srv.Close()
	return srv.ListenAndServe(addr)
}

// Flagged: the server leaks when ListenAndServe fails.
func serveWireLeaky(e *qppt.Engine, addr string) error {
	srv := wire.NewServer(e) // want `wire.Server created here does not reach srv.Close\(\) on every return path`
	if err := srv.ListenAndServe(addr); err != nil {
		return err // listeners and live conns never closed
	}
	srv.Close()
	return nil
}

// Clean: a dialed client connection closed via defer.
func wireRoundTrip(addr, q string) (int, error) {
	cc, err := client.New(addr)
	if err != nil {
		return 0, err
	}
	defer cc.Close()
	return cc.Query(q)
}

// Flagged: the connection leaks on the query-error path, stranding the
// server-side session and its statement cache.
func wireLeakOnError(addr, q string) (int, error) {
	cc, err := client.New(addr) // want `client.Conn created here does not reach cc.Close\(\) on every return path`
	if err != nil {
		return 0, err
	}
	n, err := cc.Query(q)
	if err != nil {
		return 0, err
	}
	cc.Close()
	return n, nil
}

// Clean: ownership of the dialed connection transfers to the caller.
func dialWire(addr string) (*client.Conn, error) {
	return client.New(addr)
}

// Suppressed: process-lifetime singleton, audited.
func globalEngine() {
	//qpptvet:ignore closetrail process-lifetime engine, closed by the exit handler
	e, _ := qppt.New(qppt.Config{})
	_ = e
}
