package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"qppt"
	"qppt/internal/ssb"
	"qppt/internal/wire"
)

// TestReadFrameBoundedGrowth: a header may declare MaxServerFrame bytes;
// the reader's storage follows the bytes that arrive, not the declaration.
func TestReadFrameBoundedGrowth(t *testing.T) {
	hostile := []byte{byte(wire.FrameRowBatch), 0x03, 0xff, 0xff, 0xff, 1, 2, 3}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := wire.ReadFrame(bytes.NewReader(hostile), wire.MaxServerFrame)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a frame cut short: %v, want io.ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4*wire.BufSize {
		t.Errorf("ReadFrame allocated %d bytes for 3 bytes of a declared 64 MiB", n)
	}

	// A frame of several buffers' length arrives whole through the same
	// growth, however the stream is chopped up, and a buffer that is large
	// enough is reused as it is.
	big := make([]byte, 5*wire.BufSize+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var stream bytes.Buffer
	wire.WriteFrame(&stream, wire.FrameRowBatchStr, big)
	wire.WriteFrame(&stream, wire.FrameDone, big[:100])
	r := iotest.HalfReader(&stream)
	ft, p, err := wire.ReadFrameInto(r, wire.MaxServerFrame, nil)
	if err != nil || ft != wire.FrameRowBatchStr || !bytes.Equal(p, big) {
		t.Fatalf("large frame: type 0x%02x, %d bytes, %v", byte(ft), len(p), err)
	}
	ft, q, err := wire.ReadFrameInto(r, wire.MaxServerFrame, p)
	if err != nil || ft != wire.FrameDone || !bytes.Equal(q, big[:100]) || &q[0] != &p[0] {
		t.Fatalf("small frame into the large frame's buffer: type 0x%02x, %d bytes, %v", byte(ft), len(q), err)
	}
	if _, _, err := wire.ReadFrameInto(r, wire.MaxServerFrame, q); err != io.EOF {
		t.Errorf("end of stream between frames: %v, want io.EOF", err)
	}
}

// TestPayloadFlatReaders: Uvarints and Strs read what Uvarint and Str
// read, and fail as they do.
func TestPayloadFlatReaders(t *testing.T) {
	var pl wire.Payload
	strs := []string{"", "a", "東京都", string(make([]byte, 300))}
	nums := []uint64{0, 127, 128, 1<<64 - 1}
	for _, v := range nums {
		pl.Uvarint(v)
	}
	for _, s := range strs {
		pl.Str(s)
	}
	pl.U8(7)
	r := wire.NewPayloadReader(pl.Buf)
	gotNums, gotStrs := make([]uint64, len(nums)), make([]string, len(strs))
	r.Uvarints(gotNums)
	r.Strs(gotStrs)
	if tail := r.U8(); r.Err() != nil || tail != 7 || r.Len() != 0 {
		t.Fatalf("after the flat reads: tail %d, %d bytes left, %v", tail, r.Len(), r.Err())
	}
	for i := range nums {
		if gotNums[i] != nums[i] {
			t.Errorf("Uvarints[%d] = %d, want %d", i, gotNums[i], nums[i])
		}
	}
	for i := range strs {
		if gotStrs[i] != strs[i] {
			t.Errorf("Strs[%d] = %.20q, want %.20q", i, gotStrs[i], strs[i])
		}
	}
	for cut := 0; cut < len(pl.Buf)-1; cut++ {
		r := wire.NewPayloadReader(pl.Buf[:cut])
		r.Uvarints(make([]uint64, len(nums)))
		r.Strs(make([]string, len(strs)))
		if r.Err() == nil {
			t.Fatalf("payload cut at %d of %d read without error", cut, len(pl.Buf))
		}
	}
}

// FuzzReadFrame feeds ReadFrame and the payload readers arbitrary bytes
// (seed corpus: see client.FuzzReadResult; the same captured answers and
// mutants). Frames are read until the stream gives out and every payload is
// walked with every reader: no panic, a payload no larger than what
// arrived, and counts that overrun the payload end in Err, not in memory.
func FuzzReadFrame(f *testing.F) {
	var pl wire.Payload
	pl.Uvarint(2)
	pl.Str("d_year")
	pl.Str("revenue")
	var seed bytes.Buffer
	wire.WriteFrame(&seed, wire.FrameRowHeader, pl.Buf)
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, stream []byte) {
		rd := bytes.NewReader(stream)
		var buf []byte
		for {
			ft, p, err := wire.ReadFrameInto(rd, wire.MaxServerFrame, buf)
			if err != nil {
				return
			}
			if len(p) > len(stream) || cap(p) > 2*len(stream)+2*wire.BufSize {
				t.Fatalf("frame 0x%02x: %d-byte payload (cap %d) out of a %d-byte stream", byte(ft), len(p), cap(p), len(stream))
			}
			buf = p

			r := wire.NewPayloadReader(p)
			r.U8()
			n := r.Uvarint()
			s := r.Str()
			if r.Err() == nil && 1+1+len(s) > len(p) {
				t.Fatalf("read a %d-byte string out of a %d-byte payload", len(s), len(p))
			}
			// A declared count sizes nothing before it is held against Len.
			if n <= uint64(r.Len()) {
				left := r.Len()
				strs := make([]string, n)
				r.Strs(strs)
				total := 0
				for _, s := range strs {
					total += len(s)
				}
				if total > left {
					t.Fatalf("Strs carved %d bytes out of %d", total, left)
				}
			}
			r = wire.NewPayloadReader(p)
			if n := r.Uvarint(); n <= uint64(r.Len()) {
				r.Uvarints(make([]uint64, n))
			}
		}
	})
}

// FuzzServeConn feeds the server arbitrary bytes as the client's side of a
// connection, over one engine and server on a tiny SSB catalog. The bytes
// go down a net.Pipe into Server.ServeConn while a goroutine drains the
// answers, then the client end closes. Whatever arrived, the server does
// not panic, ServeConn returns within 5 s, and once the server and engine
// are closed no wire or execution goroutine is left.
func FuzzServeConn(f *testing.F) {
	ds := ssb.MustLoad(ssb.GenConfig{SF: 0.002, Seed: 1})
	eng, err := qppt.New(qppt.Config{Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	srv := wire.NewServer(eng, ds.Cat)
	f.Cleanup(func() {
		srv.Close()
		eng.Close()
		assertNoLeakedGoroutines(f)
	})

	frame := func(t wire.FrameType, build func(*wire.Payload)) []byte {
		var pl wire.Payload
		if build != nil {
			build(&pl)
		}
		var out bytes.Buffer
		wire.WriteFrame(&out, t, pl.Buf)
		return out.Bytes()
	}
	hello := frame(wire.FrameHello, func(pl *wire.Payload) { pl.Str(wire.Magic); pl.Uvarint(wire.Version) })
	query := frame(wire.FrameQuery, func(pl *wire.Payload) { pl.U8(0); pl.Str(ssb.SQLTexts["2.1"]) })
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	f.Add(cat(hello, query))
	f.Add(cat(hello, query, frame(wire.FrameCancel, nil)))
	f.Add(cat(hello, frame(0x03, func(pl *wire.Payload) { pl.Str("s"); pl.Str(ssb.SQLTexts["2.1"]) })))
	f.Add(frame(wire.FrameHello, func(pl *wire.Payload) { pl.Str("PGSQ"); pl.Uvarint(wire.Version) }))
	f.Add(cat(hello, query[:len(query)/2]))
	f.Add(cat(hello, binary.BigEndian.AppendUint32([]byte{byte(wire.FrameQuery)}, wire.MaxClientFrame+1)))

	f.Fuzz(func(t *testing.T, stream []byte) {
		sc, cc := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.ServeConn(sc)
		}()
		go io.Copy(io.Discard, cc)
		cc.Write(stream)
		cc.Close()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatalf("ServeConn still running 5 s after the client closed")
		}
	})
}
