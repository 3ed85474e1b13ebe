package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"qppt"
	"qppt/internal/sql"
)

// handshakeTimeout bounds how long a fresh connection may sit silent
// before sending Hello.
const handshakeTimeout = 10 * time.Second

// srvConn is one client connection's server-side state: a qppt.Conn
// (session + statement cache), the named prepared statements and
// portals, and the cancellation plumbing. All command handling runs on
// the serve loop goroutine; a dedicated read-loop goroutine feeds it
// frames and intercepts Cancel out of band.
type srvConn struct {
	srv *Server
	nc  net.Conn
	out frameWriter

	// ctx is the connection's lifetime: cancelled on client disconnect,
	// protocol failure, or Server.Close, which aborts any in-flight plan.
	ctx    context.Context
	cancel context.CancelFunc

	sess    *qppt.Conn
	stmts   map[string]*qppt.Stmt
	portals map[string]portal

	// inflight is the cancel func of the currently executing command,
	// armed by the serve loop and fired by the read loop on Cancel.
	inflight atomic.Pointer[context.CancelFunc]
}

// portal is a bound, executable statement. It remembers which prepared
// statement name it came from: closing that statement implicitly closes
// the portal (Postgres semantics), and two statement names for the same
// SQL text share one cached *qppt.Stmt, so the pointer alone could not
// tell their portals apart.
type portal struct {
	stmt *qppt.Stmt
	src  string
}

// frame is one decoded client frame in flight from read loop to serve
// loop.
type frame struct {
	t FrameType
	p []byte
}

// serveConn runs one connection to completion: handshake, then the
// frame loop. The caller holds the server WaitGroup slot.
func (s *Server) serveConn(nc net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &srvConn{
		srv:     s,
		nc:      nc,
		out:     frameWriter{w: nc},
		ctx:     ctx,
		cancel:  cancel,
		sess:    s.eng.Conn(s.cat),
		stmts:   make(map[string]*qppt.Stmt),
		portals: make(map[string]portal),
	}
	defer func() {
		cancel()
		nc.Close()
		c.sess.Close()
	}()
	if s.track(c) != nil {
		return
	}
	defer s.untrack(c)
	if err := c.handshake(); err != nil {
		return
	}

	// The read loop pulls frames off the socket so that Cancel (and
	// disconnects) are seen while a query executes on the serve loop. A
	// frame send races against ctx so the read loop can never block on a
	// serve loop that already quit.
	frames := make(chan frame)
	go func() {
		defer cancel() // read failure = client gone: abort in-flight work
		for {
			t, p, err := ReadFrame(nc, MaxClientFrame)
			if err != nil {
				return
			}
			switch t {
			case FrameCancel:
				c.fireCancel()
				continue
			case FrameTerminate:
				// Graceful close. The deferred cancel also aborts anything
				// still in flight — a client that terminates mid-query wants
				// the query gone too.
				return
			}
			select {
			case frames <- frame{t, p}:
			case <-ctx.Done():
				return
			}
		}
	}()

	for {
		var f frame
		select {
		case f = <-frames:
		case <-ctx.Done():
			return
		}
		var err error
		switch f.t {
		case FrameQuery:
			err = c.doQuery(f.p)
		case FramePrepare:
			err = c.doPrepare(f.p)
		case FrameBind:
			err = c.doBind(f.p)
		case FrameExecute:
			err = c.doExecute(f.p)
		case FrameCloseStmt:
			err = c.doCloseStmt(f.p)
		default:
			err = c.writeErr(ClassBadRequest, fmt.Sprintf("unexpected frame 0x%02x", byte(f.t)))
		}
		if err == nil {
			err = c.out.flush()
		}
		if err != nil {
			return // connection write failure: nothing left to say
		}
	}
}

// shutdown disconnects the client (Server.Close).
func (c *srvConn) shutdown() {
	c.cancel()
	c.nc.Close()
}

// fireCancel aborts the in-flight command, if any. An idle Cancel is a
// no-op — the same benign race every cancel protocol has: if the
// command already finished, there is nothing to stop.
func (c *srvConn) fireCancel() {
	if f := c.inflight.Load(); f != nil {
		(*f)()
	}
}

// handshake reads Hello (bounded by handshakeTimeout) and answers
// HelloOK with the negotiated version and banner.
func (c *srvConn) handshake() error {
	c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	t, p, err := ReadFrame(c.nc, MaxClientFrame)
	if err != nil {
		return err
	}
	c.nc.SetReadDeadline(time.Time{})
	r := NewPayloadReader(p)
	magic, version := r.Str(), r.Uvarint()
	if t != FrameHello || r.Err() != nil || magic != Magic {
		c.writeErr(ClassBadRequest, "malformed handshake")
		c.out.flush()
		return fmt.Errorf("qppt wire: malformed handshake")
	}
	if version < 1 {
		c.writeErr(ClassBadRequest, fmt.Sprintf("unsupported protocol version %d", version))
		c.out.flush()
		return fmt.Errorf("qppt wire: unsupported version %d", version)
	}
	negotiated := uint64(Version)
	if version < negotiated {
		negotiated = version
	}
	c.out.begin(FrameHelloOK)
	c.out.Uvarint(negotiated)
	c.out.Str(c.srv.banner)
	if err := c.out.end(); err != nil {
		return err
	}
	return c.out.flush()
}

// doQuery plans (through the statement cache) and runs one statement,
// streaming the result.
func (c *srvConn) doQuery(p []byte) error {
	r := NewPayloadReader(p)
	flags, text := r.U8(), r.Str()
	if r.Err() != nil {
		return c.writeErr(ClassBadRequest, "malformed Query frame")
	}
	qctx, qcancel := context.WithCancel(c.ctx)
	c.inflight.Store(&qcancel)
	defer func() {
		c.inflight.Store(nil)
		qcancel()
	}()
	stmt, err := c.sess.PrepareCached(qctx, text)
	if err != nil {
		return c.writeErr(Classify(err, ClassBadRequest), err.Error())
	}
	return c.run(qctx, stmt, flags)
}

// doPrepare plans and names a statement for later Bind/Execute.
func (c *srvConn) doPrepare(p []byte) error {
	r := NewPayloadReader(p)
	name, text := r.Str(), r.Str()
	if r.Err() != nil {
		return c.writeErr(ClassBadRequest, "malformed Prepare frame")
	}
	qctx, qcancel := context.WithCancel(c.ctx)
	c.inflight.Store(&qcancel)
	defer func() {
		c.inflight.Store(nil)
		qcancel()
	}()
	stmt, err := c.sess.PrepareCached(qctx, text)
	if err != nil {
		return c.writeErr(Classify(err, ClassBadRequest), err.Error())
	}
	c.stmts[name] = stmt
	c.out.begin(FramePrepareOK)
	c.out.attrs(stmt.Attrs())
	return c.out.end()
}

// doBind points a portal at a prepared statement. QPPT statements have
// no parameters — Bind exists so drivers keep their prepare/bind/execute
// shape and so Execute can address statements by short portal names.
func (c *srvConn) doBind(p []byte) error {
	r := NewPayloadReader(p)
	portalName, name := r.Str(), r.Str()
	if r.Err() != nil {
		return c.writeErr(ClassBadRequest, "malformed Bind frame")
	}
	stmt, ok := c.stmts[name]
	if !ok {
		return c.writeErr(ClassBadRequest, fmt.Sprintf("unknown prepared statement %q", name))
	}
	c.portals[portalName] = portal{stmt: stmt, src: name}
	c.out.begin(FrameBindOK)
	return c.out.end()
}

// doExecute runs a bound portal, streaming the result.
func (c *srvConn) doExecute(p []byte) error {
	r := NewPayloadReader(p)
	flags, portal := r.U8(), r.Str()
	if r.Err() != nil {
		return c.writeErr(ClassBadRequest, "malformed Execute frame")
	}
	pe, ok := c.portals[portal]
	if !ok {
		return c.writeErr(ClassBadRequest, fmt.Sprintf("unknown portal %q", portal))
	}
	qctx, qcancel := context.WithCancel(c.ctx)
	c.inflight.Store(&qcancel)
	defer func() {
		c.inflight.Store(nil)
		qcancel()
	}()
	return c.run(qctx, pe.stmt, flags)
}

// doCloseStmt forgets a prepared statement name and, as in the Postgres
// protocol, implicitly closes every portal bound from it. The
// engine-side plan is owned by the session statement cache either way.
func (c *srvConn) doCloseStmt(p []byte) error {
	r := NewPayloadReader(p)
	name := r.Str()
	if r.Err() != nil {
		return c.writeErr(ClassBadRequest, "malformed CloseStmt frame")
	}
	delete(c.stmts, name)
	for portalName, pe := range c.portals {
		if pe.src == name {
			delete(c.portals, portalName)
		}
	}
	c.out.begin(FrameCloseOK)
	return c.out.end()
}

// run executes a statement under the engine's admission gate and
// streams the result: RowHeader, RowBatch* every RowBatchSize rows,
// Done. Execution errors become a single Err frame with the class the
// engine's typed sentinels dictate.
func (c *srvConn) run(qctx context.Context, stmt *qppt.Stmt, flags byte) error {
	t0 := time.Now()
	rows, _, err := stmt.Run(qctx)
	if err != nil {
		return c.writeErr(Classify(err, ClassInternal), err.Error())
	}
	return c.out.stream(rows, flags, time.Since(t0))
}

func (c *srvConn) writeErr(class Class, msg string) error {
	c.out.begin(FrameErr)
	c.out.U8(byte(class))
	c.out.Str(msg)
	return c.out.end()
}

// A frameWriter is a connection's way out. Frames are built where they are
// sent from: begin opens one behind what is already pending, the embedded
// Payload's methods append to it, end seals it. Nothing copies a finished
// frame again — the pending bytes go to the connection in one Write, when
// BufSize of them have gathered or the command is over (flush).
type frameWriter struct {
	w       io.Writer
	Payload     // pending frames, the last one possibly still open
	open    int // where the open frame's header starts
}

func (fw *frameWriter) begin(t FrameType) {
	fw.open = len(fw.Buf)
	fw.Buf = append(fw.Buf, byte(t), 0, 0, 0, 0)
}

func (fw *frameWriter) end() error {
	binary.BigEndian.PutUint32(fw.Buf[fw.open+1:], uint32(len(fw.Buf)-fw.open-5))
	if len(fw.Buf) >= BufSize {
		return fw.flush()
	}
	return nil
}

func (fw *frameWriter) flush() error {
	if len(fw.Buf) == 0 {
		return nil
	}
	_, err := fw.w.Write(fw.Buf)
	fw.Buf = fw.Buf[:0]
	return err
}

func (fw *frameWriter) attrs(attrs []string) {
	fw.Uvarint(uint64(len(attrs)))
	for _, a := range attrs {
		fw.Str(a)
	}
}

// stream writes one answer: RowHeader, a row batch per RowBatchSize rows
// (decoded through the result's cell encoders under FlagDecode, raw codes
// otherwise), Done.
func (fw *frameWriter) stream(rows *sql.Rows, flags byte, elapsed time.Duration) error {
	fw.begin(FrameRowHeader)
	fw.attrs(rows.Attrs)
	if err := fw.end(); err != nil {
		return err
	}
	ncols, decode, batchType := len(rows.Attrs), flags&FlagDecode != 0, FrameRowBatch
	if decode {
		batchType = FrameRowBatchStr
	}
	for base := 0; base < len(rows.Rows); base += RowBatchSize {
		fw.begin(batchType)
		batch := rows.Rows[base:min(base+RowBatchSize, len(rows.Rows))]
		fw.Uvarint(uint64(len(batch)))
		fw.Uvarint(uint64(ncols))
		for _, row := range batch {
			for j, v := range row {
				if decode {
					fw.cell(rows.Cells[j], v)
				} else {
					fw.Uvarint(v)
				}
			}
		}
		if err := fw.end(); err != nil {
			return err
		}
	}
	fw.begin(FrameDone)
	fw.Uvarint(uint64(len(rows.Rows)))
	fw.Uvarint(uint64(elapsed.Nanoseconds()))
	return fw.end()
}
