package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"qppt"
	"qppt/internal/sql"
)

// handshakeTimeout bounds how long a fresh connection may sit silent
// before sending Hello.
const handshakeTimeout = 10 * time.Second

// srvConn is one client connection's server-side state: a qppt.Conn
// (session + statement cache) and the connection's lifetime. All command
// handling runs on the serve loop goroutine; a dedicated read-loop
// goroutine feeds it frames and intercepts Cancel out of band.
type srvConn struct {
	srv *Server
	nc  net.Conn
	in  *bufio.Reader // nc's bytes: a Cancel behind its Query is seen with it
	out frameWriter

	// cancel ends the connection's lifetime — on client disconnect,
	// protocol failure, or Server.Close — which aborts any in-flight plan.
	cancel context.CancelFunc

	sess *qppt.Conn
}

// frame is one decoded client frame in flight from read loop to serve
// loop. A Query carries the context it runs under, made by the read loop
// before the hand-off so that a Cancel read right behind it has a command
// to abort; the serve loop cancels it when the command ends.
type frame struct {
	t      FrameType
	p      []byte
	ctx    context.Context
	cancel context.CancelFunc
}

// serveConn runs one connection to completion: handshake, then the
// frame loop. The caller holds the server WaitGroup slot.
func (s *Server) serveConn(nc net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &srvConn{
		srv:    s,
		nc:     nc,
		in:     bufio.NewReader(nc),
		out:    frameWriter{w: nc},
		cancel: cancel,
		sess:   s.eng.Conn(s.cat),
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
		// cancelLast aborts the last Query read. Once that Query has
		// finished it is a no-op — the benign race every cancel protocol
		// has: a command that already finished has nothing to stop.
		cancelLast := context.CancelFunc(func() {})
		for {
			t, p, err := ReadFrame(c.in, MaxClientFrame)
			if err != nil {
				return
			}
			f := frame{t: t, p: p}
			switch t {
			case FrameCancel:
				cancelLast()
				continue
			case FrameTerminate:
				// Graceful close. The deferred cancel also aborts anything
				// still in flight — a client that terminates mid-query wants
				// the query gone too.
				return
			case FrameQuery:
				f.ctx, f.cancel = context.WithCancel(ctx)
				cancelLast = f.cancel
				// A Cancel that came in with its Query aborts it before
				// the hand-off: read after it, it races a serve loop that
				// may already have answered.
				if c.cancelBuffered() {
					f.cancel()
				}
			}
			select {
			case frames <- f:
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
			err = c.doQuery(f.ctx, f.p)
			f.cancel()
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

// cancelBuffered consumes the next frame if it is a Cancel already whole
// in the read buffer, and reports whether it did. It never reads nc.
func (c *srvConn) cancelBuffered() bool {
	if c.in.Buffered() < 5 {
		return false
	}
	hdr, _ := c.in.Peek(5)
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if FrameType(hdr[0]) != FrameCancel || n > c.in.Buffered()-5 {
		return false
	}
	c.in.Discard(5 + n)
	return true
}

// handshake reads Hello (bounded by handshakeTimeout) and answers
// HelloOK with the negotiated version and banner.
func (c *srvConn) handshake() error {
	c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	t, p, err := ReadFrame(c.in, MaxClientFrame)
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

// doQuery plans (through the statement cache) and runs one statement
// under qctx and the engine's admission gate, streaming the result:
// RowHeader, RowBatch* every RowBatchSize rows, Done. A failure becomes a
// single Err frame with the class the engine's typed sentinels dictate.
func (c *srvConn) doQuery(qctx context.Context, p []byte) error {
	r := NewPayloadReader(p)
	flags, text := r.U8(), r.Str()
	if r.Err() != nil {
		return c.writeErr(ClassBadRequest, "malformed Query frame")
	}
	stmt, err := c.sess.PrepareCached(qctx, text)
	if err != nil {
		return c.writeErr(Classify(err, ClassBadRequest), err.Error())
	}
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

// stream writes one answer: RowHeader, a row batch per RowBatchSize rows
// (decoded through the result's cell encoders under FlagDecode, raw codes
// otherwise), Done.
func (fw *frameWriter) stream(rows *sql.Rows, flags byte, elapsed time.Duration) error {
	fw.begin(FrameRowHeader)
	fw.Uvarint(uint64(len(rows.Attrs)))
	for _, a := range rows.Attrs {
		fw.Str(a)
	}
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
