package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync/atomic"
	"time"

	"qppt"
	"qppt/internal/ssb"
	"qppt/internal/wire"
	"qppt/internal/wire/client"
)

// dataSeed seeds the SSB data generator. As in TPC-style benchmarks the data
// is a function of the scale factor alone and --seed drives the request
// streams: with the data seeded too, how many of the 400 suppliers happen to
// be in UNITED STATES moved p50_ms by more between seeds (17 % interquartile
// range) than any run-to-run noise (3 %), and no bound could resolve a change.
const dataSeed = 1

// runEnv is what every run of one invocation shares.
type runEnv struct {
	sf    float64
	seed  int64 // of the request generators
	nproc int
	out   string // directory for traces, the record, spill and temp files
}

// countingConn counts the bytes crossing the client's socket.
type countingConn struct {
	net.Conn
	bytes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// A stack is everything one workload runs against: generated data, a fresh
// catalog, engine and wire server on a loopback port, and the warmed client
// connections.
type stack struct {
	w    workload
	ds   *ssb.Dataset
	reqs *requests
	eng  *qppt.Engine
	srv  *wire.Server

	served   chan struct{} // closed when the accept loop has returned
	conns    []*client.Conn
	socks    []*countingConn
	spillDir string

	setup       time.Duration
	warmDigests [][]digest   // per connection, per warm text
	warmRows    [][][]uint64 // connection 0's raw warm answers

	expect func(i int) digest // set by verify
}

// setup builds the stack and runs the warm pass: every connection sends
// every warm text once, which builds the base indexes the plans need and
// fills each connection's statement cache. Its duration is setup_s: data
// generation to the last warm answer, the point where timed requests could
// start.
func setup(w workload, env runEnv, clients int) (*stack, error) {
	t0 := time.Now()
	s := &stack{w: w}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var err error
	if s.ds, err = ssb.Load(ssb.GenConfig{SF: env.sf, Seed: dataSeed}); err != nil {
		return nil, err
	}
	s.reqs = w.requests(s.ds, rand.New(rand.NewSource(env.seed)), clients)

	// Production defaults (fusion, probe batches, kernels, recycler, copying
	// thaw, 64-entry statement cache); the gate is on the path but, with one
	// slot per client, never queues.
	cfg := qppt.Config{Workers: 1, MaxPlans: clients}
	if w.par {
		cfg.Workers = env.nproc
	}
	if w.spill {
		if s.spillDir, err = os.MkdirTemp(env.out, "spill-*"); err != nil {
			return nil, err
		}
		cfg.MemBudget, cfg.SpillDir = spillBudget(env.sf), s.spillDir
	}
	if s.eng, err = qppt.New(cfg); err != nil {
		return nil, err
	}
	s.srv = wire.NewServer(s.eng, s.ds.Cat)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		s.srv.Serve(ln) // returns ErrServerClosed from close
	}()

	for c := 0; c < clients; c++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		sock := &countingConn{Conn: nc}
		conn, err := client.NewConn(sock)
		if err != nil {
			return nil, err
		}
		s.socks, s.conns = append(s.socks, sock), append(s.conns, conn)
	}
	s.warmDigests = make([][]digest, clients)
	for c := range s.conns {
		for _, i := range s.reqs.warm {
			res, err := s.query(c, s.reqs.text(i))
			if err != nil {
				return nil, fmt.Errorf("%s: warm pass, text %d: %w", w.name, i, err)
			}
			s.warmDigests[c] = append(s.warmDigests[c], digestOf(res))
			if c == 0 && !w.decoded {
				s.warmRows = append(s.warmRows, res.Rows)
			}
		}
	}
	s.setup = time.Since(t0)
	ok = true
	return s, nil
}

// query sends one text on connection c in the workload's result mode.
func (s *stack) query(c int, text string) (*client.Result, error) {
	if s.w.decoded {
		return s.conns[c].QueryDecoded(text)
	}
	return s.conns[c].Query(text)
}

// verify builds the workload's oracle and checks every warm answer against
// it. It returns how many answers it checked and how many were wrong, and
// arms expect for the checks of the timed and traced requests.
func (s *stack) verify() (checked, wrong int, err error) {
	o, err := s.w.oracle(s.ds, s.reqs)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", s.w.name, err)
	}
	s.expect = o.expect
	for c := range s.warmDigests {
		for j, i := range s.reqs.warm {
			good := s.warmDigests[c][j] == o.expect(i)
			if good && c == 0 && o.rows != nil {
				good = sameRows(s.warmRows[j], o.rows(i))
			}
			checked++
			if !good {
				wrong++
				fmt.Fprintf(os.Stderr, "%s: wrong warm answer on connection %d: got %+v, want %+v for %q\n",
					s.w.name, c, s.warmDigests[c][j], o.expect(i), s.reqs.text(i))
			}
		}
	}
	return checked, wrong, nil
}

// socketBytes is the total that crossed the clients' sockets so far.
func (s *stack) socketBytes() int64 {
	var n int64
	for _, sock := range s.socks {
		n += sock.bytes.Load()
	}
	return n
}

// close stops the clients, the server and the engine, and waits for the
// accept loop to end. It is safe on a partly built stack.
func (s *stack) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	if s.served != nil {
		<-s.served
	}
	if s.eng != nil {
		s.eng.Close()
	}
	if s.spillDir != "" {
		os.RemoveAll(s.spillDir)
	}
}
