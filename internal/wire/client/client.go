// Package client is the Go client for QPPT's wire protocol. A Conn is
// one protocol connection: request/response cycles are serialized, but
// Cancel may be sent from any goroutine while a query is in flight —
// the out-of-band path the server reads alongside execution.
//
// The package imports wire (not the other way around) so the server
// package stays importable by the engine's command-line tools without
// dragging client code along.
package client

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"qppt/internal/wire"
)

// A Result is one query's fully-materialized answer. Raw-mode queries
// fill Rows with the engine's uint64 attribute codes — bit-identical to
// in-process Session.Query results; decoded-mode queries fill Strs with
// the catalog-decoded cell texts. Elapsed is the server-side execution
// time reported by the Done frame.
//
// A Result owns its memory: it stays valid, and may be modified, after
// later queries on the same connection. Its rows are not allocated one by
// one, though. The rows of one row-batch frame (wire.RowBatchSize rows)
// are cut from one backing slice, each with its capacity clipped to its
// length, so appending to a row reallocates it instead of running into the
// next. The cells of one decoded frame are substrings of one string: a
// caller that keeps a single cell keeps its whole frame (a few KiB) alive —
// strings.Clone the cell to keep less.
type Result struct {
	Attrs   []string
	Rows    [][]uint64
	Strs    [][]string
	Elapsed time.Duration
}

// A Conn is one client connection. Methods that run a request/response
// cycle (Query, Prepare, Bind, Execute, CloseStmt) serialize against
// each other; Cancel and Close may be called concurrently with them.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
	// frame holds the payload of the frame being decoded, reused frame
	// after frame: everything a Result keeps is copied out of it.
	frame []byte

	// reqMu serializes request/response cycles; wmu serializes raw frame
	// writes beneath them, so Cancel can cut in while a Query holds reqMu
	// waiting on the response.
	reqMu sync.Mutex
	wmu   sync.Mutex

	// Banner and Version are the server's HelloOK identification.
	Banner  string
	Version uint64
}

// NewConn performs the handshake over an established connection, taking
// ownership of nc.
func NewConn(nc net.Conn) (*Conn, error) {
	c := &Conn{nc: nc, br: bufio.NewReaderSize(nc, wire.BufSize)}
	var pl wire.Payload
	pl.Str(wire.Magic)
	pl.Uvarint(wire.Version)
	if err := c.writeFrame(wire.FrameHello, pl.Buf); err != nil {
		nc.Close()
		return nil, err
	}
	t, p, err := c.readFrame()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if t == wire.FrameErr {
		nc.Close()
		return nil, decodeErr(p)
	}
	r := wire.NewPayloadReader(p)
	c.Version, c.Banner = r.Uvarint(), r.Str()
	if t != wire.FrameHelloOK || r.Err() != nil {
		nc.Close()
		return nil, fmt.Errorf("qppt wire client: malformed handshake reply (frame 0x%02x)", byte(t))
	}
	return c, nil
}

// NewPipe connects an in-process client to srv over a synchronous
// net.Pipe — no sockets, full protocol. The server side runs on its own
// goroutine and exits when the client closes (or the server does).
func NewPipe(srv *wire.Server) (*Conn, error) {
	sc, cc := net.Pipe()
	go srv.ServeConn(sc)
	return NewConn(cc)
}

// Close terminates the session (best effort) and closes the connection.
func (c *Conn) Close() error {
	c.wmu.Lock()
	// Best effort: over a synchronous net.Pipe an unread Terminate would
	// block forever, so bound it — the nc.Close below is authoritative.
	c.nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	wire.WriteFrame(c.nc, wire.FrameTerminate, nil)
	c.wmu.Unlock()
	return c.nc.Close()
}

// Cancel asks the server to abort the in-flight command; the command's
// caller sees a ClassCancelled error. Safe from any goroutine; a Cancel
// with nothing in flight is a no-op server-side.
func (c *Conn) Cancel() error {
	return c.writeFrame(wire.FrameCancel, nil)
}

// Query runs one statement and returns its raw (uint64-coded) result.
func (c *Conn) Query(text string) (*Result, error) { return c.query(text, 0) }

// QueryDecoded runs one statement with server-side catalog decoding;
// the result's Strs holds the decoded cells.
func (c *Conn) QueryDecoded(text string) (*Result, error) { return c.query(text, wire.FlagDecode) }

func (c *Conn) query(text string, flags byte) (*Result, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var pl wire.Payload
	pl.U8(flags)
	pl.Str(text)
	if err := c.writeFrame(wire.FrameQuery, pl.Buf); err != nil {
		return nil, err
	}
	return c.readResult()
}

// Prepare plans and names a statement server-side, returning its output
// attribute names.
//
//qpptvet:ignore unreached the statement driver the wire tests prove the server's Prepare/Bind/Execute/CloseStmt frames with
func (c *Conn) Prepare(name, text string) ([]string, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var pl wire.Payload
	pl.Str(name)
	pl.Str(text)
	if err := c.writeFrame(wire.FramePrepare, pl.Buf); err != nil {
		return nil, err
	}
	t, p, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	if t == wire.FrameErr {
		return nil, decodeErr(p)
	}
	if t != wire.FramePrepareOK {
		return nil, fmt.Errorf("qppt wire client: unexpected reply to Prepare (frame 0x%02x)", byte(t))
	}
	return readAttrs(wire.NewPayloadReader(p))
}

// Bind points a portal at a prepared statement.
//
//qpptvet:ignore unreached the statement driver the wire tests prove the server's frames with
func (c *Conn) Bind(portal, stmt string) error {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var pl wire.Payload
	pl.Str(portal)
	pl.Str(stmt)
	if err := c.writeFrame(wire.FrameBind, pl.Buf); err != nil {
		return err
	}
	return c.readAck(wire.FrameBindOK, "Bind")
}

// Execute runs a bound portal and returns its raw result.
//
//qpptvet:ignore unreached the statement driver the wire tests prove the server's frames with
func (c *Conn) Execute(portal string) (*Result, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var pl wire.Payload
	pl.U8(0)
	pl.Str(portal)
	if err := c.writeFrame(wire.FrameExecute, pl.Buf); err != nil {
		return nil, err
	}
	return c.readResult()
}

// CloseStmt forgets a prepared statement name server-side.
//
//qpptvet:ignore unreached the statement driver the wire tests prove the server's frames with
func (c *Conn) CloseStmt(name string) error {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	var pl wire.Payload
	pl.Str(name)
	if err := c.writeFrame(wire.FrameCloseStmt, pl.Buf); err != nil {
		return err
	}
	return c.readAck(wire.FrameCloseOK, "CloseStmt")
}

func (c *Conn) writeFrame(t wire.FrameType, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return wire.WriteFrame(c.nc, t, payload)
}

// readFrame reads the next frame into the connection's frame buffer; the
// payload is valid until the next readFrame.
func (c *Conn) readFrame() (wire.FrameType, []byte, error) {
	t, p, err := wire.ReadFrameInto(c.br, wire.MaxServerFrame, c.frame)
	if err == nil {
		c.frame = p
	}
	return t, p, err
}

func (c *Conn) readAck(want wire.FrameType, op string) error {
	t, p, err := c.readFrame()
	if err != nil {
		return err
	}
	if t == wire.FrameErr {
		return decodeErr(p)
	}
	if t != want {
		return fmt.Errorf("qppt wire client: unexpected reply to %s (frame 0x%02x)", op, byte(t))
	}
	return nil
}

// readResult consumes a query answer: RowHeader, row batches, Done — or
// a single Err frame.
func (c *Conn) readResult() (*Result, error) {
	res := &Result{}
	sawHeader := false
	for {
		t, p, err := c.readFrame()
		if err != nil {
			return nil, err
		}
		r := wire.NewPayloadReader(p)
		switch t {
		case wire.FrameErr:
			return nil, decodeErr(p)
		case wire.FrameRowHeader:
			if res.Attrs, err = readAttrs(r); err != nil {
				return nil, err
			}
			sawHeader = true
		case wire.FrameRowBatch:
			nrows, ncols, err := batchShape(r, res.Attrs)
			if err != nil {
				return nil, err
			}
			cells := make([]uint64, nrows*ncols)
			r.Uvarints(cells)
			res.Rows = appendRows(res.Rows, cells, nrows, ncols)
		case wire.FrameRowBatchStr:
			nrows, ncols, err := batchShape(r, res.Attrs)
			if err != nil {
				return nil, err
			}
			cells := make([]string, nrows*ncols)
			r.Strs(cells)
			res.Strs = appendRows(res.Strs, cells, nrows, ncols)
		case wire.FrameDone:
			nrows := r.Uvarint()
			res.Elapsed = time.Duration(r.Uvarint())
			if r.Err() != nil {
				return nil, r.Err()
			}
			if !sawHeader || (res.Rows != nil && res.Strs != nil) || uint64(len(res.Rows)+len(res.Strs)) != nrows {
				return nil, fmt.Errorf("qppt wire client: Done reports %d rows, received %d", nrows, len(res.Rows)+len(res.Strs))
			}
			return res, nil
		default:
			return nil, fmt.Errorf("qppt wire client: unexpected frame 0x%02x in result stream", byte(t))
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
}

// A count read off the wire is a claim: before anything is sized by it, it
// is checked against the payload bytes left to back it, so a corrupt or
// hostile stream gets a protocol error, not a huge allocation or a
// makeslice panic.

// readAttrs reads a count and that many attribute names, each of which
// takes at least one byte.
func readAttrs(r *wire.PayloadReader) ([]string, error) {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("qppt wire client: %d attributes declared in %d bytes", n, r.Len())
	}
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = r.Str()
	}
	return attrs, r.Err()
}

// batchShape reads a row batch's row and column counts. The rows must be
// as wide as the answer's header said, and every cell takes at least one
// byte; rows of no cells would take none, so nothing bounds their number
// and they are refused.
func batchShape(r *wire.PayloadReader, attrs []string) (nrows, ncols int, err error) {
	nr, nc := r.Uvarint(), r.Uvarint()
	if nc != uint64(len(attrs)) || (nr > 0 && (nc == 0 || nr > uint64(r.Len())/nc)) {
		return 0, 0, fmt.Errorf("qppt wire client: row batch declares %d x %d cells in %d bytes under %d attributes", nr, nc, r.Len(), len(attrs))
	}
	return int(nr), int(nc), r.Err()
}

// appendRows cuts one frame's cells into nrows rows of ncols and appends
// them. Each row's capacity is clipped to its length, so an append to one
// row cannot run into the next. The row list at least doubles when it is
// full: growing it by a frame's worth at a time would copy a long answer's
// list more often than appending row by row did.
func appendRows[T any](rows [][]T, cells []T, nrows, ncols int) [][]T {
	if cap(rows)-len(rows) < nrows {
		rows = slices.Grow(rows, max(nrows, cap(rows)))
	}
	for ; nrows > 0; nrows-- {
		rows = append(rows, cells[:ncols:ncols])
		cells = cells[ncols:]
	}
	return rows
}

func decodeErr(p []byte) error {
	r := wire.NewPayloadReader(p)
	class, msg := wire.Class(r.U8()), r.Str()
	if r.Err() != nil {
		return fmt.Errorf("qppt wire client: malformed Err frame")
	}
	return &wire.Error{Class: class, Msg: msg}
}
