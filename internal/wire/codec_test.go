package wire_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"qppt/internal/catalog"
	"qppt/internal/sql"
	"qppt/internal/wire"
	"qppt/internal/wire/client"
)

// codecDict holds every string shape the cell encoder has to get right:
// empty, short, multi-byte, and texts whose length prefix takes two (128 B,
// 300 B) and three (hugeString) bytes.
var (
	hugeString = strings.Repeat("z", 20000)
	codecDict  = func() *catalog.Dict {
		b := catalog.NewDictBuilder()
		for _, s := range []string{"", "a", "MFGR#2221", "UNITED KI1", "Zürich", "東京都", "naïve café ☕",
			strings.Repeat("x", 127), strings.Repeat("y", 128), strings.Repeat("long ", 60), hugeString} {
			b.Add(s)
		}
		return b.Build()
	}()
)

// cityDict is a plain dictionary of short strings, the shape of an SSB
// answer column.
var cityDict = func() *catalog.Dict {
	b := catalog.NewDictBuilder()
	for i := 0; i < 250; i++ {
		b.Add(fmt.Sprintf("UNITED KI%03d", i))
	}
	return b.Build()
}()

// genRows makes a result of nrows × ncols, columns alternately numeric and
// dictionary-coded. Plain results look like an SSB answer (cityDict). With
// edges set the dictionary is codecDict and the values include 0, 1<<64-1
// and codes outside the dictionary; hugeString appears once per thousand
// rows, to keep a 10 000-row answer in the megabytes.
func genRows(nrows, ncols int, edges bool, seed int64) *sql.Rows {
	rng := rand.New(rand.NewSource(seed))
	dict, huge := cityDict, uint64(0)
	if edges {
		dict, huge = codecDict, codecDict.MustCode(hugeString)
	}
	rows := &sql.Rows{}
	for j := 0; j < ncols; j++ {
		rows.Attrs = append(rows.Attrs, "col"+strconv.Itoa(j))
		enc := catalog.CellEncoder{}
		if j%2 == 1 {
			enc.Dict = dict
		}
		rows.Cells = append(rows.Cells, enc)
	}
	for i := 0; i < nrows; i++ {
		row := make([]uint64, ncols)
		for j := range row {
			switch d := rows.Cells[j].Dict; {
			case edges && rng.Intn(8) == 0:
				row[j] = [...]uint64{0, 1<<64 - 1, 127, 128, 1 << 32}[rng.Intn(5)]
			case d == nil:
				row[j] = rng.Uint64() >> uint(rng.Intn(64))
			case edges && i%1000 == 7:
				row[j] = huge
			case edges:
				if row[j] = uint64(rng.Intn(d.Len())); row[j] == huge {
					row[j] = uint64(d.Len()) // out of range
				}
			default:
				row[j] = uint64(rng.Intn(d.Len()))
			}
		}
		rows.Rows = append(rows.Rows, row)
	}
	return rows
}

// oracleCell is the cell text as the encoder at the parent of this change
// produced it: fmt for numbers and unknown codes, the dictionary string
// otherwise.
func oracleCell(rows *sql.Rows, i, j int) string {
	v := rows.Rows[i][j]
	if d := rows.Cells[j].Dict; d != nil && v < uint64(d.Len()) {
		return d.String(v)
	} else if d != nil {
		return fmt.Sprintf("<code %d>", v)
	}
	return fmt.Sprintf("%d", v)
}

// oracleAnswer is the byte stream of one answer as the server at the
// parent of this change wrote it: one Payload per frame, one string per
// cell, WriteFrame for the header and the payload.
func oracleAnswer(rows *sql.Rows, flags byte, elapsed time.Duration) []byte {
	var out bytes.Buffer
	var pl wire.Payload
	pl.Uvarint(uint64(len(rows.Attrs)))
	for _, a := range rows.Attrs {
		pl.Str(a)
	}
	wire.WriteFrame(&out, wire.FrameRowHeader, pl.Buf)
	for base := 0; base < len(rows.Rows); base += wire.RowBatchSize {
		n := min(len(rows.Rows)-base, wire.RowBatchSize)
		pl.Buf = pl.Buf[:0]
		pl.Uvarint(uint64(n))
		pl.Uvarint(uint64(len(rows.Attrs)))
		ftype := wire.FrameRowBatch
		for i := base; i < base+n; i++ {
			for j, v := range rows.Rows[i] {
				if flags&wire.FlagDecode != 0 {
					ftype = wire.FrameRowBatchStr
					pl.Str(oracleCell(rows, i, j))
				} else {
					pl.Uvarint(v)
				}
			}
		}
		wire.WriteFrame(&out, ftype, pl.Buf)
	}
	pl.Buf = pl.Buf[:0]
	pl.Uvarint(uint64(len(rows.Rows)))
	pl.Uvarint(uint64(elapsed.Nanoseconds()))
	wire.WriteFrame(&out, wire.FrameDone, pl.Buf)
	return out.Bytes()
}

// answerElapsed is the run time the stand-in server reports in Done; fixed,
// so that an answer's bytes are a function of its rows alone.
const answerElapsed = 1234567 * time.Nanosecond

// serveRows is a stand-in server over the real result egress: it answers
// the handshake, then every Query whose text is a number with that entry of
// results, through wire's frame writer. When sent is non-nil it receives
// the bytes each answer put on the connection.
func serveRows(nc net.Conn, results []*sql.Rows, sent chan<- []byte) error {
	defer nc.Close()
	if _, _, err := wire.ReadFrame(nc, wire.MaxClientFrame); err != nil {
		return err
	}
	var pl wire.Payload
	pl.Uvarint(wire.Version)
	pl.Str("codec-test")
	if err := wire.WriteFrame(nc, wire.FrameHelloOK, pl.Buf); err != nil {
		return err
	}
	var rec bytes.Buffer
	w := io.Writer(nc)
	if sent != nil {
		w = io.MultiWriter(&rec, nc)
	}
	aw := wire.NewAnswerWriter(w)
	for {
		t, p, err := wire.ReadFrame(nc, wire.MaxClientFrame)
		if err != nil || t == wire.FrameTerminate {
			return nil // the client is gone
		}
		r := wire.NewPayloadReader(p)
		flags, text := r.U8(), r.Str()
		which, err := strconv.Atoi(text)
		if t != wire.FrameQuery || r.Err() != nil || err != nil {
			return fmt.Errorf("stand-in server: unexpected frame 0x%02x %q", byte(t), text)
		}
		rec.Reset()
		if err := aw.Answer(results[which], flags, answerElapsed); err != nil {
			return err
		}
		if sent != nil {
			sent <- slices.Clone(rec.Bytes())
		}
	}
}

// dialRows connects a client to a stand-in server over TCP loopback or a
// net.Pipe.
func dialRows(tb testing.TB, tcp bool, results []*sql.Rows, sent chan<- []byte) *client.Conn {
	tb.Helper()
	var sc, cc net.Conn
	if tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		defer ln.Close()
		if cc, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			tb.Fatal(err)
		}
		if sc, err = ln.Accept(); err != nil {
			tb.Fatal(err)
		}
	} else {
		sc, cc = net.Pipe()
	}
	served := make(chan error, 1)
	go func() { served <- serveRows(sc, results, sent) }()
	conn, err := client.NewConn(cc)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		conn.Close()
		if err := <-served; err != nil {
			tb.Error(err)
		}
	})
	return conn
}

// TestCodecEquivalence: for results of every batch-boundary size and
// width, the bytes the server writes are the bytes the per-cell encoder it
// replaced wrote, in raw and in decoded mode, and the client's Result is
// the result cell for cell — over TCP and over net.Pipe. All answers are
// checked only after the connection's last query, so a Result that
// borrowed the connection's read buffer would show; and no row of a Result
// may share a cell with another.
func TestCodecEquivalence(t *testing.T) {
	var results []*sql.Rows
	for _, nrows := range []int{0, 1, 255, 256, 257, 10000} {
		for ncols := 1; ncols <= 5; ncols++ {
			results = append(results, genRows(nrows, ncols, true, int64(nrows*10+ncols)))
		}
	}
	for _, tcp := range []bool{true, false} {
		name := "pipe"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			sent := make(chan []byte, 1)
			conn := dialRows(t, tcp, results, sent)
			raw := make([]*client.Result, len(results))
			dec := make([]*client.Result, len(results))
			for i, rows := range results {
				var err error
				if raw[i], err = conn.Query(strconv.Itoa(i)); err != nil {
					t.Fatalf("result %d raw: %v", i, err)
				}
				if got, want := <-sent, oracleAnswer(rows, 0, answerElapsed); !bytes.Equal(got, want) {
					t.Fatalf("result %d (%d x %d) raw: %d bytes on the wire differ from the oracle's %d", i, len(rows.Rows), len(rows.Attrs), len(got), len(want))
				}
				if dec[i], err = conn.QueryDecoded(strconv.Itoa(i)); err != nil {
					t.Fatalf("result %d decoded: %v", i, err)
				}
				if got, want := <-sent, oracleAnswer(rows, wire.FlagDecode, answerElapsed); !bytes.Equal(got, want) {
					t.Fatalf("result %d (%d x %d) decoded: %d bytes on the wire differ from the oracle's %d", i, len(rows.Rows), len(rows.Attrs), len(got), len(want))
				}
			}
			for i, rows := range results {
				checkResult(t, i, rows, raw[i], dec[i])
			}
		})
	}
}

// checkResult compares one result's raw and decoded answers with the rows
// they came from, before and after every row has been appended to.
func checkResult(t *testing.T, which int, rows *sql.Rows, raw, dec *client.Result) {
	t.Helper()
	if len(raw.Rows) != len(rows.Rows) || len(dec.Strs) != len(rows.Rows) || raw.Strs != nil || dec.Rows != nil {
		t.Fatalf("result %d: %d raw and %d decoded rows, want %d", which, len(raw.Rows), len(dec.Strs), len(rows.Rows))
	}
	if !slices.Equal(raw.Attrs, rows.Attrs) || !slices.Equal(dec.Attrs, rows.Attrs) || raw.Elapsed != answerElapsed {
		t.Fatalf("result %d: attrs %v / %v, elapsed %v", which, raw.Attrs, dec.Attrs, raw.Elapsed)
	}
	// same checks every row but skip against the rows the answers came from.
	same := func(when string, skip int) {
		t.Helper()
		for i, row := range rows.Rows {
			if i == skip {
				continue
			}
			if !slices.Equal(raw.Rows[i], row) {
				t.Fatalf("result %d row %d %s: raw %v, want %v", which, i, when, raw.Rows[i], row)
			}
			if len(dec.Strs[i]) != len(row) {
				t.Fatalf("result %d row %d %s: %d decoded cells, want %d", which, i, when, len(dec.Strs[i]), len(row))
			}
			for j := range row {
				if want := rows.Decode(i, j); dec.Strs[i][j] != want || want != oracleCell(rows, i, j) {
					t.Fatalf("result %d cell %d,%d %s: %.40q over the wire, %.40q from Rows.Decode, %.40q from the oracle", which, i, j, when, dec.Strs[i][j], want, oracleCell(rows, i, j))
				}
			}
		}
	}
	same("as received", -1)
	for i := range raw.Rows {
		_ = append(raw.Rows[i], 0xdead)
		_ = append(dec.Strs[i], "dead")
	}
	same("after appending to every row", -1)
	if mid := len(rows.Rows) / 2; mid < len(rows.Rows) {
		for j := range raw.Rows[mid] {
			raw.Rows[mid][j], dec.Strs[mid][j] = 0xdead, "dead"
		}
		same("after overwriting another row", mid)
	}
}

// TestEncodeAllocs pins the server's encoder: once the connection's buffer
// has grown to its working size, a full 256 × 3 batch — and the rest of
// its answer — is encoded without an allocation, decoded or raw.
func TestEncodeAllocs(t *testing.T) {
	rows := genRows(wire.RowBatchSize, 3, false, 1)
	aw := wire.NewAnswerWriter(io.Discard)
	for _, flags := range []byte{wire.FlagDecode, 0} {
		if n := testing.AllocsPerRun(100, func() {
			if err := aw.Answer(rows, flags, answerElapsed); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("flags %d: encoding a warm 256 x 3 answer allocates %.0f objects, want 0", flags, n)
		}
	}
}

// benchStream is one 10 000 × 3 answer end to end: server encode, TCP
// loopback, client decode.
func benchStream(b *testing.B, decoded bool) {
	rows := genRows(10000, 3, false, 1)
	conn := dialRows(b, true, []*sql.Rows{rows}, nil)
	query := conn.Query
	if decoded {
		query = conn.QueryDecoded
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := query("0")
		if err != nil || len(res.Rows)+len(res.Strs) != len(rows.Rows) {
			b.Fatalf("%d rows, %v", len(res.Rows)+len(res.Strs), err)
		}
	}
}

func BenchmarkStreamDecoded(b *testing.B) { benchStream(b, true) }
func BenchmarkStreamRaw(b *testing.B)     { benchStream(b, false) }
