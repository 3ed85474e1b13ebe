package wire

import (
	"errors"
	"net"
	"sync"

	"qppt"
	"qppt/internal/catalog"
)

// A Server speaks the wire protocol over an Engine and one catalog. It
// owns nothing of the engine's lifecycle: Close stops listeners and
// connections but leaves the engine to its creator. One server can run
// any number of listeners (Serve) and direct connections (ServeConn —
// how the HTTP adapter and in-process clients attach over net.Pipe).
type Server struct {
	eng    *qppt.Engine
	cat    *catalog.Catalog
	opts   []qppt.QueryOption
	banner string

	mu        sync.Mutex
	listeners map[net.Listener]struct{} // guarded by mu
	conns     map[*srvConn]struct{}     // guarded by mu
	closed    bool                      // guarded by mu
	wg        sync.WaitGroup
}

// NewServer builds a server for the engine and catalog. The query
// options become every connection's planning/run defaults (they must be
// a fixed set — prepared statements cache against them, see
// Session.PrepareCached). Call Close when done: it disconnects every
// client and waits for their handlers to drain.
func NewServer(eng *qppt.Engine, cat *catalog.Catalog, opts ...qppt.QueryOption) *Server {
	return &Server{
		eng:       eng,
		cat:       cat,
		opts:      opts,
		banner:    "qppt",
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*srvConn]struct{}),
	}
}

// ErrServerClosed is returned by Serve/ListenAndServe after Close.
var ErrServerClosed = errors.New("qppt wire: server closed")

// ListenAndServe listens on the TCP address and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close (or a listener error) and
// handles each on its own goroutine. It takes ownership of ln.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.addListener(ln); err != nil {
		ln.Close()
		return err
	}
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return ErrServerClosed
		}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(nc)
		}()
	}
}

// ServeConn serves one pre-established connection synchronously,
// returning when the client terminates or the connection fails. It
// takes ownership of nc. This is the attachment point for net.Pipe
// clients (client.Pipe, the HTTP adapter).
func (s *Server) ServeConn(nc net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	s.serveConn(nc)
}

// Close disconnects every client, stops every listener, and waits for
// all connection handlers to exit. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for ln := range s.listeners {
			ln.Close()
		}
		for c := range s.conns {
			c.shutdown()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// addListener registers ln so Close can stop it; it fails once the
// server is closed.
func (s *Server) addListener(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	return nil
}

// track registers a live connection so Close can disconnect it; it
// fails if the server is already closed.
func (s *Server) track(c *srvConn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrServerClosed
	}
	s.conns[c] = struct{}{}
	return nil
}

func (s *Server) untrack(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Stats returns the engine's statistics snapshot — the serving tier's
// observability surface (admission queue depths and waits, statement
// cache traffic) without handing adapters the engine itself.
func (s *Server) Stats() qppt.Stats { return s.eng.Stats() }
