// Chunk export/import: the spill layer of the arenas.
//
// Because compact pointers are arena indices, not machine addresses, an
// arena's content is position-independent: writing the chunks out and
// reading them back into freshly allocated chunks reproduces the identical
// index structure. Slots (the node storage of both tree kinds) spills its
// chunks verbatim in one sequential pass; Arena[T] cannot be dumped
// generically (T may embed Go pointers, e.g. a content leaf's duplicate
// list), so its owner serializes the elements itself and rebuilds them
// index-for-index with Reset + Alloc on thaw, checking them against the
// per-chunk directory (LeafChunkDir) it wrote ahead of them.
//
// Writer and Reader reinterpret slices as raw bytes (unsafe.Slice) — spill
// files live for one plan execution on the machine that wrote them, so
// endianness and field layout never cross a process boundary.
package arena

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unsafe"
)

// ErrCorruptSnapshot is the class of every error a thaw path returns for a
// stream that is not a well-formed snapshot: a bad magic word, or a count
// or length that contradicts the section lengths the format records. A
// stream that merely ends early fails with io.ErrUnexpectedEOF instead.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

// Corruptf returns an ErrCorruptSnapshot carrying the formatted detail.
func Corruptf(format string, a ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorruptSnapshot}, a...)...)
}

// raw reinterprets p as its bytes.
func raw[T uint32 | uint64](p []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), len(p)*int(unsafe.Sizeof(zero)))
}

// A Writer writes a snapshot's words and raw chunks to W, latching the
// first error: once Err is set every call is a no-op, so a run of writes
// checks Err once, at its end.
type Writer struct {
	W   io.Writer
	Err error
	buf [8]byte
}

func (w *Writer) bytes(b []byte) {
	if w.Err == nil && len(b) > 0 {
		_, w.Err = w.W.Write(b)
	}
}

// U64 writes one little-endian uint64 (scalar framing).
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.bytes(w.buf[:])
}

// U32s writes p as raw bytes.
func (w *Writer) U32s(p []uint32) { w.bytes(raw(p)) }

// U64s writes p as raw bytes.
func (w *Writer) U64s(p []uint64) { w.bytes(raw(p)) }

// A Reader reads what a Writer wrote from R, latching the first error:
// once Err is set every call is a no-op that yields zeros. Check Err
// before a count read from R bounds a loop or sizes an allocation. A
// stream that ends early — even between two words — is an
// io.ErrUnexpectedEOF: a snapshot says how long it is.
type Reader struct {
	R   io.Reader
	Err error
	buf [8]byte
}

func (r *Reader) bytes(b []byte) {
	if r.Err != nil || len(b) == 0 {
		return
	}
	if _, r.Err = io.ReadFull(r.R, b); r.Err == io.EOF {
		r.Err = io.ErrUnexpectedEOF
	}
}

// U64 reads one uint64 written by Writer.U64.
func (r *Reader) U64() uint64 {
	if r.bytes(r.buf[:]); r.Err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:])
}

// U32s fills p with raw bytes written by Writer.U32s.
func (r *Reader) U32s(p []uint32) { r.bytes(raw(p)) }

// U64s fills p with raw bytes written by Writer.U64s.
func (r *Reader) U64s(p []uint64) { r.bytes(raw(p)) }

// U32sN reads n values into a new slice, n being a count taken from the
// stream itself: the slice grows as the bytes arrive, so a corrupt count
// can never allocate more than a small multiple of what the stream holds.
func (r *Reader) U32sN(n uint64) []uint32 { return readGrow(r, n, (*Reader).U32s) }

// U64sN is U32sN for uint64 values.
func (r *Reader) U64sN(n uint64) []uint64 { return readGrow(r, n, (*Reader).U64s) }

func readGrow[T uint32 | uint64](r *Reader, n uint64, read func(*Reader, []T)) []T {
	if r.Err != nil {
		return nil
	}
	const step = 1 << 16
	p := make([]T, min(n, step))
	for got := 0; ; {
		if read(r, p[got:]); r.Err != nil {
			return nil
		}
		if uint64(len(p)) == n {
			return p
		}
		got = len(p)
		p = append(p, make([]T, min(n-uint64(got), uint64(got)))...)
	}
}

// WriteChunks writes the arena's content — block count, free list, and
// every chunk's slots — in one sequential pass. The chunk geometry is not
// written: it is fixed at MakeSlots time and must match on ReadChunks.
func (s *Slots) WriteChunks(w *Writer) {
	w.U64(uint64(s.n))
	w.U64(uint64(len(s.free)))
	w.U32s(s.free)
	for _, c := range s.chunks {
		w.U32s(c)
	}
}

// SnapshotLen reports the exact number of bytes WriteChunks will produce —
// the freeze formats record it as the section's length prefix, which bounds
// the counts a thaw reads from the section (ReadChunks).
func (s *Slots) SnapshotLen() uint64 {
	words := 0
	for _, c := range s.chunks {
		words += len(c)
	}
	return uint64(16 + 4*len(s.free) + 4*words)
}

// Detach drops the chunk storage and free list; the caller must have
// written the content out with WriteChunks first. With a recycler
// configured the chunks are cleared and parked for reuse. Until ReadChunks
// restores the chunks, only Bytes (now 0) and the block/free counters
// remain meaningful.
func (s *Slots) Detach() {
	for _, c := range s.chunks {
		PutChunk(s.rec, c)
	}
	s.chunks = nil
	s.free = nil
}

// ReadChunks rebuilds a detached arena from a WriteChunks stream of size
// bytes, byte-identical: every block ordinal maps to the same slots as
// before the spill, so the compact pointers held by other structures stay
// valid. The receiver must have the same geometry as the writer (same
// MakeSlots block length). The block and free counts must account for
// exactly size bytes. On error the arena holds the chunks read so far;
// Detach drops them.
func (s *Slots) ReadChunks(r *Reader, size uint64) error {
	n, nFree := r.U64(), r.U64()
	if r.Err != nil {
		return r.Err
	}
	if n > MaxElems || nFree > n || size != 16+4*nFree+4*n<<s.blockBits {
		return Corruptf("slot section of %d bytes claims %d blocks, %d free", size, n, nFree)
	}
	s.free = r.U32sN(nFree)
	perChunk := uint64(1) << s.perChunkBits // blocks per chunk
	s.chunks = make([][]uint32, 0, min((n+perChunk-1)/perChunk, 64))
	for got := uint64(0); got < n && r.Err == nil; got += perChunk {
		c := s.grabChunk()[:min(perChunk, n-got)<<s.blockBits]
		s.chunks = append(s.chunks, c)
		r.U32s(c)
	}
	s.n = int(n)
	return r.Err
}

// LeafChunkDir builds the per-chunk directory a thaw checks the elements
// against: one {min key, max key, byte length} triple per arena chunk,
// where min/max range over the live elements (liveKey reports ok == false
// for recycled zero elements, which carry no data) and size reports each
// element's serialized byte length. The lengths bound the counts a thaw
// reads for each chunk, the keys bound each live element's key. A chunk
// with no live elements gets the empty sentinel min > max, which no live
// key satisfies.
func LeafChunkDir[T any](a *Arena[T], size func(*T) uint64, liveKey func(*T) (uint64, bool)) []uint64 {
	chunkSize := uint32(1) << a.bits
	nChunks := (a.Len() + int(chunkSize) - 1) / int(chunkSize)
	dir := make([]uint64, 0, 3*nChunks)
	minK, maxK, bytes := ^uint64(0), uint64(0), uint64(0)
	flush := func() {
		dir = append(dir, minK, maxK, bytes)
		minK, maxK, bytes = ^uint64(0), 0, 0
	}
	a.Scan(func(idx uint32, lf *T) bool {
		if idx > 0 && idx&(chunkSize-1) == 0 {
			flush()
		}
		if k, ok := liveKey(lf); ok {
			minK, maxK = min(minK, k), max(maxK, k)
		}
		bytes += size(lf)
		return true
	})
	if a.Len() > 0 {
		flush()
	}
	return dir
}
