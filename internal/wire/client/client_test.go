package client

import (
	"bufio"
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"qppt/internal/wire"
)

// frame is one frame's bytes.
func frame(t wire.FrameType, build func(*wire.Payload)) []byte {
	var pl wire.Payload
	if build != nil {
		build(&pl)
	}
	var out bytes.Buffer
	wire.WriteFrame(&out, t, pl.Buf)
	return out.Bytes()
}

func header(attrs ...string) []byte {
	return frame(wire.FrameRowHeader, func(pl *wire.Payload) {
		pl.Uvarint(uint64(len(attrs)))
		for _, a := range attrs {
			pl.Str(a)
		}
	})
}

func done(nrows uint64) []byte {
	return frame(wire.FrameDone, func(pl *wire.Payload) { pl.Uvarint(nrows); pl.Uvarint(42) })
}

// answer is a well-formed answer of nrows × 3 in one batch frame.
func answer(nrows int, decoded bool) []byte {
	out := header("d_year", "c_city", "revenue")
	t := wire.FrameRowBatch
	if decoded {
		t = wire.FrameRowBatchStr
	}
	out = append(out, frame(t, func(pl *wire.Payload) {
		pl.Uvarint(uint64(nrows))
		pl.Uvarint(3)
		for i := 0; i < nrows; i++ {
			if decoded {
				pl.Str("1997")
				pl.Str("UNITED KI1")
				pl.Str("123456789")
			} else {
				pl.Uvarint(1997)
				pl.Uvarint(uint64(i))
				pl.Uvarint(123456789)
			}
		}
	})...)
	return append(out, done(uint64(nrows))...)
}

// streamConn is a Conn whose server has already said everything in stream.
func streamConn(stream []byte) *Conn {
	return &Conn{br: bufio.NewReaderSize(bytes.NewReader(stream), wire.BufSize)}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileCounts: a count off the wire that the bytes behind it cannot
// back is a protocol error — not a makeslice panic, not gigabytes.
func TestHostileCounts(t *testing.T) {
	batch := func(t wire.FrameType, nrows, ncols uint64, cells int) []byte {
		return frame(t, func(pl *wire.Payload) {
			pl.Uvarint(nrows)
			pl.Uvarint(ncols)
			pl.Buf = append(pl.Buf, make([]byte, cells)...) // cells of "" or 0
		})
	}
	streams := map[string][]byte{
		"attrs beyond the payload": frame(wire.FrameRowHeader, func(pl *wire.Payload) { pl.Uvarint(1 << 40); pl.Str("a") }),
		"attrs overflowing int":    frame(wire.FrameRowHeader, func(pl *wire.Payload) { pl.Uvarint(1<<64 - 1) }),
		"one attr short":           frame(wire.FrameRowHeader, func(pl *wire.Payload) { pl.Uvarint(2); pl.Str("a") }),
		"raw rows beyond payload":  append(header("a"), batch(wire.FrameRowBatch, 1<<40, 1, 8)...),
		"str rows beyond payload":  append(header("a"), batch(wire.FrameRowBatchStr, 1<<40, 1, 8)...),
		"raw cells overflowing":    append(header("a", "b"), batch(wire.FrameRowBatch, 1<<63, 2, 8)...),
		"str cells overflowing":    append(header("a", "b"), batch(wire.FrameRowBatchStr, 1<<63, 2, 8)...),
		"columns beyond header":    append(header("a"), batch(wire.FrameRowBatch, 1, 1<<40, 8)...),
		"rows of no columns":       append(header(), batch(wire.FrameRowBatch, 1<<40, 0, 0)...),
		"batch before the header":  batch(wire.FrameRowBatchStr, 2, 1, 2),
		"one cell short":           append(header("a", "b"), batch(wire.FrameRowBatchStr, 4, 2, 7)...),
		"frame longer than stream": {byte(wire.FrameRowBatch), 0x03, 0xff, 0xff, 0xff, 1, 2, 3},
	}
	for name, stream := range streams {
		t.Run(name, func(t *testing.T) {
			var err error
			if n := allocated(func() { _, err = streamConn(stream).readResult() }); n > 1<<20 {
				t.Errorf("the client allocated %d bytes on a %d-byte stream", n, len(stream))
			}
			if err == nil {
				t.Error("the client accepted the stream")
			}
		})
	}
}

// TestDecodeAllocs pins the client's decoder: what it allocates for one
// frame — the flat cells, the one string the decoded cells share, room in
// the row list — does not depend on how many rows the frame carries.
func TestDecodeAllocs(t *testing.T) {
	for _, decoded := range []bool{false, true} {
		var first float64
		for _, nrows := range []int{1, 16, 256, 4096} {
			stream := answer(nrows, decoded)
			rd := bytes.NewReader(stream)
			c := streamConn(nil)
			n := testing.AllocsPerRun(20, func() {
				rd.Reset(stream)
				c.br.Reset(rd)
				if res, err := c.readResult(); err != nil || len(res.Rows)+len(res.Strs) != nrows {
					t.Fatalf("%d rows: %v", nrows, err)
				}
			})
			if nrows == 1 {
				first = n
			}
			if n != first || n > 10 {
				t.Errorf("decoded=%v: an answer of %d rows takes %.0f allocations, of 1 row %.0f", decoded, nrows, n, first)
			}
		}
	}
}

// TestResultOutlivesBuffer: the connection's frame buffer is reused, the
// Result is not made of it.
func TestResultOutlivesBuffer(t *testing.T) {
	for _, decoded := range []bool{false, true} {
		stream := append(answer(300, decoded), frame(wire.FrameErr, func(pl *wire.Payload) {
			pl.U8(byte(wire.ClassInternal))
			pl.Str(strings.Repeat("overwrite the frame buffer ", 400))
		})...)
		c := streamConn(stream)
		res, err := c.readResult()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.readResult(); err == nil {
			t.Fatal("the Err frame did not surface")
		}
		want, err := streamConn(answer(300, decoded)).readResult()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Rows {
			if !slices.Equal(res.Rows[i], want.Rows[i]) {
				t.Fatalf("raw row %d changed under a later frame: %v", i, res.Rows[i])
			}
		}
		for i := range want.Strs {
			if !slices.Equal(res.Strs[i], want.Strs[i]) || !slices.Equal(res.Attrs, want.Attrs) {
				t.Fatalf("decoded row %d changed under a later frame: %q", i, res.Strs[i])
			}
		}
	}
}

// FuzzReadResult feeds the client arbitrary bytes as the server's side of
// an answer. The seed corpus (testdata/fuzz/FuzzReadResult) holds answers
// captured from a wire.Server — SSB Q2.1 at SF 0.02, raw and decoded, and
// the Err frame of a statement that does not parse — and mutants of them:
// cut short mid-batch and mid-header, and with the row, column and
// attribute counts inflated. Whatever arrives, the client returns an error
// or a well-formed Result, without panicking, and holds no more cells than
// the stream had bytes.
func FuzzReadResult(f *testing.F) {
	f.Add(answer(3, false))
	f.Add(answer(3, true))
	f.Fuzz(func(t *testing.T, stream []byte) {
		res, err := streamConn(stream).readResult()
		if err != nil {
			return
		}
		if len(res.Rows) != 0 && len(res.Strs) != 0 {
			t.Fatalf("%d raw and %d decoded rows in one answer", len(res.Rows), len(res.Strs))
		}
		cells := len(res.Attrs)
		for _, row := range res.Rows {
			if len(row) != len(res.Attrs) || cap(row) != len(row) {
				t.Fatalf("raw row of len %d cap %d under %d attributes", len(row), cap(row), len(res.Attrs))
			}
			cells += len(row)
		}
		for _, row := range res.Strs {
			if len(row) != len(res.Attrs) || cap(row) != len(row) {
				t.Fatalf("decoded row of len %d cap %d under %d attributes", len(row), cap(row), len(res.Attrs))
			}
			cells += len(row)
		}
		if cells > len(stream) {
			t.Fatalf("%d cells out of a %d-byte stream", cells, len(stream))
		}
	})
}
