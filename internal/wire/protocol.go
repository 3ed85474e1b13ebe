// Package wire is QPPT's serving tier: a length-prefixed binary wire
// protocol over the qppt.Engine / Session surface, with admission-aware
// backpressure and typed error classes.
//
// Every frame is one type byte followed by a big-endian uint32 payload
// length and the payload. Payload scalars are unsigned varints, strings
// are uvarint-length-prefixed UTF-8. The client speaks first:
//
//	client → server                     server → client
//	Hello     magic "QPPT", version     HelloOK      version, banner
//	Query     flags, sql                RowHeader    attr names
//	Prepare   name, sql                 RowBatch     uint64 cells (raw)
//	Bind      portal, stmt name         RowBatchStr  string cells (decoded)
//	Execute   flags, portal             Done         row count, elapsed ns
//	Cancel    —  (out of band)          PrepareOK    attr names
//	CloseStmt name                      BindOK / CloseOK
//	Terminate —                         Err          class, message
//
// A Query (or Execute) answer is RowHeader, zero or more row batches
// streamed RowBatchSize rows at a time, then Done — or a single Err
// frame. Cancel is read out of band while a query executes and aborts it
// through the engine's context path; the aborted command answers
// Err/ClassCancelled. Err frames carry one of the five error classes
// below, the protocol generalization of the HTTP serve mode's
// 400/499/500/503 mapping (Class.HTTPStatus is the single place that
// mapping lives).
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"

	"qppt"
	"qppt/internal/catalog"
)

// Magic opens every Hello frame; Version is the protocol revision the
// handshake negotiates (the server answers min(client, server)).
const (
	Magic   = "QPPT"
	Version = 1
)

// RowBatchSize is how many result rows one RowBatch/RowBatchStr frame
// carries: large enough to amortize framing, small enough that a slow
// client applies backpressure through the TCP window instead of letting
// the server buffer an unbounded result ahead of it.
const RowBatchSize = 256

// MaxClientFrame bounds client→server payloads (statements); a frame
// declaring more is a protocol error and closes the connection.
// MaxServerFrame bounds server→client payloads the client will accept.
const (
	MaxClientFrame = 1 << 20
	MaxServerFrame = 1 << 26
)

// FrameType tags a frame. Client→server types have the high bit clear,
// server→client types set.
type FrameType byte

const (
	FrameHello     FrameType = 0x01
	FrameQuery     FrameType = 0x02
	FramePrepare   FrameType = 0x03
	FrameBind      FrameType = 0x04
	FrameExecute   FrameType = 0x05
	FrameCancel    FrameType = 0x06
	FrameCloseStmt FrameType = 0x07
	FrameTerminate FrameType = 0x08

	FrameHelloOK     FrameType = 0x81
	FramePrepareOK   FrameType = 0x82
	FrameBindOK      FrameType = 0x83
	FrameCloseOK     FrameType = 0x84
	FrameRowHeader   FrameType = 0x85
	FrameRowBatch    FrameType = 0x86
	FrameRowBatchStr FrameType = 0x87
	FrameDone        FrameType = 0x88
	FrameErr         FrameType = 0x89
)

// FlagDecode on Query/Execute asks for RowBatchStr frames: cells decoded
// through the catalog dictionaries server-side instead of raw uint64
// codes. Raw mode is the default — it is bit-identical to in-process
// Session.Query results.
const FlagDecode byte = 1 << 0

// Class is a protocol error class — the wire generalization of the HTTP
// serve mode's status mapping, so overload, cancellation and server
// failure stay distinguishable to any client.
type Class byte

const (
	// ClassBadRequest: the statement is at fault (parse/plan errors,
	// unknown prepared names, malformed frames). HTTP 400.
	ClassBadRequest Class = 1
	// ClassCancelled: the client cancelled or disconnected mid-query.
	// HTTP 499 (the nginx convention the serve mode already used).
	ClassCancelled Class = 2
	// ClassInternal: execution failed server-side (spill I/O). HTTP 500.
	ClassInternal Class = 3
	// ClassUnavailable: the engine is shut down or shutting down. HTTP 503.
	ClassUnavailable Class = 4
	// ClassOverloaded: admission control shed this query — the session's
	// queue is full (qppt.ErrOverloaded). Back off and retry. HTTP 503.
	ClassOverloaded Class = 5
)

func (c Class) String() string {
	switch c {
	case ClassBadRequest:
		return "bad-request"
	case ClassCancelled:
		return "cancelled"
	case ClassInternal:
		return "internal"
	case ClassUnavailable:
		return "unavailable"
	case ClassOverloaded:
		return "overloaded"
	}
	return fmt.Sprintf("class-%d", byte(c))
}

// HTTPStatus is the single home of the error-class ↔ HTTP status
// mapping; the HTTP serve mode is a thin adapter over the wire server
// and derives every response status from it.
func (c Class) HTTPStatus() int {
	switch c {
	case ClassBadRequest:
		return http.StatusBadRequest
	case ClassCancelled:
		return 499 // client closed request (nginx convention)
	case ClassUnavailable, ClassOverloaded:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// Classify maps an execution error onto its protocol class: typed engine
// conditions (overload, closed engine, cancellation) take precedence,
// anything else gets the caller's stage fallback (ClassBadRequest while
// planning, ClassInternal while executing).
func Classify(err error, fallback Class) Class {
	switch {
	case errors.Is(err, qppt.ErrOverloaded):
		return ClassOverloaded
	case errors.Is(err, qppt.ErrEngineClosed):
		return ClassUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ClassCancelled
	}
	return fallback
}

// Error is a server-reported failure, decoded from an Err frame by the
// client (and used server-side to carry a class to the frame writer).
type Error struct {
	Class Class
	Msg   string
}

func (e *Error) Error() string { return fmt.Sprintf("qppt wire: %s: %s", e.Class, e.Msg) }

// WriteFrame writes one frame: type byte, big-endian payload length,
// payload.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// BufSize sizes both ends' connection buffers: the server writes an
// answer out whenever this many bytes of frames are pending (so a ~6 KiB
// row batch is never split across writes), and the client reads the socket
// through a buffer of the same size.
const BufSize = 64 << 10

// ReadFrame reads one frame, rejecting payloads beyond limit.
func ReadFrame(r io.Reader, limit int) (FrameType, []byte, error) {
	return ReadFrameInto(r, limit, nil)
}

// ReadFrameInto is ReadFrame reading the payload into buf's storage
// (growing it as needed): a reader that is done with one frame's payload
// before it reads the next hands the same buffer back and allocates
// nothing per frame.
func ReadFrameInto(r io.Reader, limit int, buf []byte) (FrameType, []byte, error) {
	// The header is read into buf too (a local array would escape through
	// r and cost an allocation per frame); the payload then overwrites it.
	buf = slices.Grow(buf[:0], 5)
	hdr := buf[:5]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	t, n := FrameType(hdr[0]), int(binary.BigEndian.Uint32(hdr[1:]))
	if n > limit {
		return 0, nil, fmt.Errorf("qppt wire: frame of %d bytes exceeds limit %d", n, limit)
	}
	// The declared length is a claim until the bytes arrive: beyond what buf
	// already holds, storage grows only as fast as the stream delivers, so
	// five hostile bytes cannot make the reader allocate MaxServerFrame.
	for len(buf) < n {
		step := min(n-len(buf), max(cap(buf)-len(buf), len(buf), BufSize))
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	return t, buf, nil
}

// A Payload builds a frame payload: uvarint scalars, length-prefixed
// strings.
type Payload struct{ Buf []byte }

func (p *Payload) U8(b byte) { p.Buf = append(p.Buf, b) }

func (p *Payload) Uvarint(v uint64) { p.Buf = binary.AppendUvarint(p.Buf, v) }

func (p *Payload) Str(s string) {
	p.Buf = binary.AppendUvarint(p.Buf, uint64(len(s)))
	p.Buf = append(p.Buf, s...)
}

// cell appends v's text as a Str without building the string: the text is
// rendered in place behind a one-byte length, all that a number or a
// dictionary string under 128 bytes needs; a longer text is moved up to
// make room for the rest of its length.
func (p *Payload) cell(enc catalog.CellEncoder, v uint64) {
	at := len(p.Buf)
	p.Buf = enc.AppendText(append(p.Buf, 0), v)
	n := len(p.Buf) - at - 1
	if n < 0x80 {
		p.Buf[at] = byte(n)
		return
	}
	var length [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(length[:], uint64(n))
	p.Buf = append(p.Buf, length[1:k]...)
	copy(p.Buf[at+k:], p.Buf[at+1:at+1+n])
	copy(p.Buf[at:], length[:k])
}

// A PayloadReader decodes a frame payload. Decoding errors stick: check
// Err once after the reads (every getter returns a zero value once the
// reader has failed).
type PayloadReader struct {
	buf []byte
	err error
}

func NewPayloadReader(buf []byte) *PayloadReader { return &PayloadReader{buf: buf} }

var errTruncated = errors.New("qppt wire: truncated payload")

func (r *PayloadReader) U8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 1 {
		r.err = errTruncated
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

func (r *PayloadReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = errTruncated
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *PayloadReader) Str() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.buf)) < n {
		r.err = errTruncated
		return ""
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

// Uvarints fills dst with the next len(dst) scalars.
func (r *PayloadReader) Uvarints(dst []uint64) {
	if r.err != nil {
		return
	}
	buf := r.buf
	for i := range dst {
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			r.err = errTruncated
			return
		}
		dst[i], buf = v, buf[n:]
	}
	r.buf = buf
}

// Strs fills dst with the next len(dst) strings, carved out of one copy
// of the unread payload instead of one copy per string: the strings share
// that copy's storage, and any one of them keeps all of it alive.
func (r *PayloadReader) Strs(dst []string) {
	if r.err != nil {
		return
	}
	all, at := string(r.buf), 0
	for i := range dst {
		n, k := binary.Uvarint(r.buf[at:])
		if k <= 0 || uint64(len(all)-at-k) < n {
			r.err = errTruncated
			return
		}
		at += k
		dst[i] = all[at : at+int(n)]
		at += int(n)
	}
	r.buf = r.buf[at:]
}

// Len reports how many payload bytes are unread. Every scalar and every
// string takes at least one, which bounds any count a payload declares.
func (r *PayloadReader) Len() int { return len(r.buf) }

// Err reports the first decoding failure, or nil.
func (r *PayloadReader) Err() error { return r.err }
