// Package snap is the framing layer of the binary network snapshot
// format (DESIGN.md §11): a fixed magic, a little-endian format version,
// then a sequence of sections — 4-byte tag, uint64 payload length, the
// payload, and a CRC32-C of the payload — closed by an empty "END "
// section. Everything above the framing (which sections exist and what
// their payloads mean) belongs to internal/netstore; everything below it
// (byte order, checksums, hostile-input discipline) lives here.
//
// The writer streams: Writer.Section runs its fill twice. The first run
// only counts bytes, so a section's length prefix is written, and
// MaxSection enforced, before any of its payload. The second run encodes
// the payload through one fixed chunk per Writer, folding each chunk into
// a running CRC-32C before writing it out. fill must write the same
// values on both runs; a section whose two runs disagree on its length
// fails. The writer's memory therefore does not depend on a section's
// size.
//
// The reader streams too: values are decoded straight from the buffered
// input into their destination tables, in steps no larger than the input
// buffer rather than whole payloads or fixed 1 MB chunks, while a running
// CRC-32C covers every payload byte. The contract is that no value
// reaches a caller before its section's checksum passes. A value a Dec
// method returns is provisional until Done, or the following Next, has
// checked the section's trailer; the decoding layer above
// (netstore.Decode) may use it before then only to reject the input, and
// hands nothing on until every section has passed.
//
// The reader is written for hostile inputs. Every array count is checked
// against its section's remaining declared bytes before anything is
// allocated, so allocation is bounded by the bytes the stream holds or
// has delivered:
//   - When the stream reports its size (a regular *os.File, or a reader
//     with Len() int such as *bytes.Reader), a section longer than the
//     bytes left fails before any of it is read, and each table is
//     allocated once at its exact count.
//   - Otherwise a table starts at one buffer-sized step and doubles only
//     when the next step does not fit, so a hostile length prefix fails
//     after at most one step past the bytes the stream delivers, with
//     each table's capacity at most twice the bytes it has received.
package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"geogossip/internal/geo"
)

// Magic opens every snapshot stream. The shape copies PNG's defensive
// prefix: a high bit to catch 7-bit transports, "GGS" to identify the
// format, CRLF + ^Z + LF to catch newline translation and accidental
// text-mode display.
var Magic = [8]byte{0x89, 'G', 'G', 'S', '\r', '\n', 0x1a, '\n'}

// EndTag closes the section sequence; its payload is empty.
const EndTag = "END "

// MaxSection bounds one section's payload. A 1M-node snapshot's largest
// section (the CSR adjacency) is under half a gigabyte; 8 GiB leaves two
// orders of magnitude of headroom while still rejecting absurd length
// prefixes outright.
const MaxSection = 8 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkSize is the size of a Writer's one encoding buffer: payload bytes
// are encoded into it, folded into the section's running checksum and
// written out whenever it fills.
const chunkSize = 64 << 10

// Writer emits one snapshot stream: header at construction, then one
// Section call per section, then Close (which appends the END section).
// It streams every section through one fixed chunk, so its memory does
// not depend on a section's size. Errors are sticky; check Close's
// return.
type Writer struct {
	w   io.Writer
	enc Enc
	err error
}

// NewWriter writes the magic + version header to w and returns the
// section writer.
func NewWriter(w io.Writer, version uint32) *Writer {
	sw := &Writer{w: w}
	var hdr [12]byte
	copy(hdr[:8], Magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], version)
	_, sw.err = w.Write(hdr[:])
	return sw
}

// Section writes one framed section (tag, length, payload, checksum),
// running fill twice. The first run only counts the payload's bytes, so
// the length prefix is written, and MaxSection enforced, before any
// payload byte. The second run encodes the payload through the writer's
// chunk into the underlying writer, and the section fails if the two
// runs disagree on its length. fill must therefore write the same values
// on both runs, and must not retain the Enc, which every section reuses.
// All of the section's bytes are in the underlying writer when Section
// returns.
func (sw *Writer) Section(tag string, fill func(*Enc)) {
	if sw.err != nil {
		return
	}
	if len(tag) != 4 {
		sw.err = fmt.Errorf("snap: section tag %q is not 4 bytes", tag)
		return
	}
	e := &sw.enc
	e.start(nil)
	if fill != nil {
		fill(e)
	}
	size := e.n
	if size > MaxSection {
		sw.err = fmt.Errorf("snap: section %q payload of %d bytes exceeds the %d limit", tag, size, int64(MaxSection))
		return
	}
	var hdr [12]byte
	copy(hdr[:4], tag)
	binary.LittleEndian.PutUint64(hdr[4:], size)
	if _, sw.err = sw.w.Write(hdr[:]); sw.err != nil {
		return
	}
	e.start(sw.w)
	if fill != nil {
		fill(e)
	}
	e.flush()
	if e.err == nil && e.n != size {
		e.err = fmt.Errorf("fill wrote %d payload bytes on its streaming run, %d on its sizing run", e.n, size)
	}
	if e.err != nil {
		sw.err = fmt.Errorf("snap: section %q: %w", tag, e.err)
		return
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], e.crc)
	_, sw.err = sw.w.Write(sum[:])
}

// Close appends the END section and returns the first error the stream
// hit. It does not close the underlying writer.
func (sw *Writer) Close() error {
	sw.Section(EndTag, nil)
	return sw.err
}

// Enc encodes little-endian primitives into a section payload. While a
// section is being sized it only counts bytes; while it streams, it
// encodes them into the chunk and flushes each full chunk through the
// running CRC-32C to the underlying writer.
type Enc struct {
	w     io.Writer // nil while sizing
	chunk []byte    // encoded bytes not yet written
	n     uint64    // payload bytes counted or encoded so far
	crc   uint32
	err   error
}

// start resets the encoder for a sizing run (w nil) or a streaming run
// into w.
func (e *Enc) start(w io.Writer) {
	if w != nil && e.chunk == nil {
		e.chunk = make([]byte, 0, chunkSize)
	}
	e.w, e.chunk, e.n, e.crc, e.err = w, e.chunk[:0], 0, 0, nil
}

// flush folds the chunk into the checksum and writes it out; after a
// write error it only drops the chunk.
func (e *Enc) flush() {
	if e.err == nil && len(e.chunk) > 0 {
		e.crc = crc32.Update(e.crc, castagnoli, e.chunk)
		_, e.err = e.w.Write(e.chunk)
	}
	e.chunk = e.chunk[:0]
}

// U64 writes one uint64.
func (e *Enc) U64(v uint64) {
	e.n += 8
	if e.w == nil {
		return
	}
	if cap(e.chunk)-len(e.chunk) < 8 {
		e.flush()
	}
	e.chunk = binary.LittleEndian.AppendUint64(e.chunk, v)
}

// I64 writes one int64 (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 writes one float64 as its IEEE-754 bits, so round trips are
// bit-exact including NaN payloads and signed zeros.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// array writes a count-prefixed array of size-byte elements, encoding as
// many as the chunk has room for at a time; put encodes one step's
// elements into as many bytes.
func array[T any](e *Enc, s []T, size int, put func([]byte, []T)) {
	e.U64(uint64(len(s)))
	if e.w == nil {
		e.n += uint64(size) * uint64(len(s))
		return
	}
	for len(s) > 0 && e.err == nil {
		if cap(e.chunk)-len(e.chunk) < size {
			e.flush()
		}
		k := min(len(s), (cap(e.chunk)-len(e.chunk))/size)
		off := len(e.chunk)
		e.chunk = e.chunk[:off+k*size]
		put(e.chunk[off:], s[:k])
		e.n += uint64(k * size)
		s = s[k:]
	}
}

// I32s writes a count-prefixed []int32.
func (e *Enc) I32s(s []int32) { array(e, s, 4, putI32s) }

// F64s writes a count-prefixed []float64.
func (e *Enc) F64s(s []float64) { array(e, s, 8, putF64s) }

// Points writes a count-prefixed point slice (X then Y per point).
func (e *Enc) Points(s []geo.Point) { array(e, s, 16, putPoints) }

// The put functions are named rather than literal so that they compile,
// with binary's byte-order helpers inlined, in this package even where
// the array methods are inlined into a caller's closure.

func putI32s(b []byte, s []int32) {
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
}

func putF64s(b []byte, s []float64) {
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

func putPoints(b []byte, s []geo.Point) {
	for i, p := range s {
		binary.LittleEndian.PutUint64(b[16*i:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[16*i+8:], math.Float64bits(p.Y))
	}
}

// Reader consumes one snapshot stream section by section. Errors are
// sticky: after the first failure, Next and every Dec method return it.
type Reader struct {
	br      *bufio.Reader
	version uint32
	// left counts the bytes a known-size stream holds past what the
	// reader has consumed; -1 when the stream cannot tell.
	left int64
	err  error
	dec  Dec // the current section
}

// NewReader validates the magic and reads the version header. A
// *bufio.Reader is read through as it is, with its size unknown; any
// other reader gets a 64 KiB buffer, and its size is known when it is a
// regular *os.File or has a Len() int method.
func NewReader(r io.Reader) (*Reader, error) {
	sr := &Reader{left: -1}
	if br, ok := r.(*bufio.Reader); ok {
		sr.br = br
	} else {
		sr.left = streamLen(r)
		sr.br = bufio.NewReaderSize(r, 1<<16)
	}
	hdr, err := sr.take(12)
	if err != nil {
		return nil, fmt.Errorf("snap: short header: %w", err)
	}
	if [8]byte(hdr[:8]) != Magic {
		return nil, fmt.Errorf("snap: bad magic %x", hdr[:8])
	}
	sr.version = binary.LittleEndian.Uint32(hdr[8:])
	return sr, nil
}

// streamLen returns the bytes r still holds when it can tell without
// reading, and -1 otherwise.
func streamLen(r io.Reader) int64 {
	switch s := r.(type) {
	case interface{ Len() int }:
		return int64(s.Len())
	case *os.File:
		fi, err := s.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return max(fi.Size()-off, 0)
	}
	return -1
}

// Version returns the stream's format version.
func (r *Reader) Version() uint32 { return r.version }

// take consumes the stream's next n bytes, n at most the buffer's size.
// The bytes alias the buffer and stay valid until the next read.
func (r *Reader) take(n int) ([]byte, error) {
	b, err := r.br.Peek(n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	r.br.Discard(n) // cannot fail: Peek has just buffered n bytes
	if r.left >= 0 {
		r.left -= int64(n)
	}
	return b, nil
}

// fail records the stream's first error and returns it.
func (r *Reader) fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// Next finishes the current section — reading and checking whatever its
// caller left unread — then reads the next section's header and returns
// its tag plus a decoder over its payload. The decoder is reused by the
// following Next. A zero-length section, such as EndTag, is checked
// here. Callers stop at EndTag.
func (r *Reader) Next() (string, *Dec, error) {
	d := &r.dec
	if d.open {
		for d.left > 0 {
			if _, err := d.take(int(min(d.left, uint64(r.br.Size())))); err != nil {
				return "", nil, err
			}
		}
		if err := d.Done(); err != nil {
			return "", nil, err
		}
	}
	if r.err != nil {
		return "", nil, r.err
	}
	hdr, err := r.take(12)
	if err != nil {
		return "", nil, r.fail(fmt.Errorf("snap: truncated section header: %w", err))
	}
	tag := string(hdr[:4])
	for _, c := range hdr[:4] {
		// Tags are uppercase ASCII (plus space): anything else means the
		// stream lost framing — typically a corrupted length on the
		// previous section landing us mid-payload.
		if (c < 'A' || c > 'Z') && (c < '0' || c > '9') && c != ' ' {
			return "", nil, r.fail(fmt.Errorf("snap: invalid section tag %q (lost framing?)", tag))
		}
	}
	length := binary.LittleEndian.Uint64(hdr[4:])
	if length > MaxSection {
		return "", nil, r.fail(fmt.Errorf("snap: section %q: payload of %d bytes exceeds the %d limit", tag, length, int64(MaxSection)))
	}
	if r.left >= 0 && length+4 > uint64(r.left) {
		return "", nil, r.fail(fmt.Errorf("snap: section %q: truncated payload (%d bytes and a checksum declared, %d left in the stream)", tag, length, r.left))
	}
	*d = Dec{r: r, tag: tag, size: length, left: length, open: true}
	if length == 0 {
		if err := d.Done(); err != nil {
			return "", nil, err
		}
	}
	return tag, d, nil
}

// Dec decodes one section's payload as it streams past. Every method
// checks the section's remaining declared bytes before reading, and
// array reads check their count against them before allocating.
type Dec struct {
	r    *Reader
	tag  string
	size uint64 // declared payload length
	left uint64 // payload bytes not yet read
	crc  uint32 // CRC-32C of the payload bytes read so far
	open bool   // the trailer is still unchecked
}

// take reads the payload's next n bytes (n ≤ d.left and the buffer's
// size) into the running checksum and returns them, valid until the
// next read.
func (d *Dec) take(n int) ([]byte, error) {
	if d.r.err != nil {
		return nil, d.r.err
	}
	b, err := d.r.take(n)
	if err != nil {
		return nil, d.r.fail(fmt.Errorf("snap: section %q: truncated payload (%d of %d bytes): %w", d.tag, d.size-d.left, d.size, err))
	}
	d.left -= uint64(n)
	d.crc = crc32.Update(d.crc, castagnoli, b)
	return b, nil
}

// U64 reads one uint64.
func (d *Dec) U64() (uint64, error) {
	if d.left < 8 {
		return 0, d.r.fail(fmt.Errorf("snap: section %q: payload underrun at offset %d", d.tag, d.size-d.left))
	}
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// I64 reads one int64.
func (d *Dec) I64() (int64, error) {
	v, err := d.U64()
	return int64(v), err
}

// F64 reads one float64.
func (d *Dec) F64() (float64, error) {
	v, err := d.U64()
	return math.Float64frombits(v), err
}

// table reads a count-prefixed table of size-byte elements, filling it
// from the stream in steps that fit the buffer; put decodes one step's
// bytes into as many elements.
func table[T any](d *Dec, what string, size int, put func([]T, []byte)) ([]T, error) {
	count, err := d.U64()
	if err != nil {
		return nil, err
	}
	if count > d.left/uint64(size) {
		return nil, d.r.fail(fmt.Errorf("snap: section %q: %s array count %d exceeds the %d payload bytes left", d.tag, what, count, d.left))
	}
	n := int(count)
	step := d.r.br.Size() / size
	// A known-size stream has shown that it holds the whole section, so
	// the table is allocated once. Otherwise it grows only as the bytes
	// arrive (see the package comment).
	c := n
	if d.r.left < 0 {
		c = min(n, step)
	}
	out := make([]T, 0, c)
	for len(out) < n {
		k := min(n-len(out), step)
		if len(out)+k > cap(out) {
			grown := make([]T, len(out), min(n, max(2*cap(out), len(out)+k)))
			copy(grown, out)
			out = grown
		}
		b, err := d.take(k * size)
		if err != nil {
			return nil, err
		}
		put(out[len(out):len(out)+k], b)
		out = out[:len(out)+k]
	}
	return out, nil
}

// I32s reads a count-prefixed []int32.
func (d *Dec) I32s() ([]int32, error) {
	return table(d, "int32", 4, func(dst []int32, b []byte) {
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(b))
			b = b[4:]
		}
	})
}

// F64s reads a count-prefixed []float64.
func (d *Dec) F64s() ([]float64, error) {
	return table(d, "float64", 8, func(dst []float64, b []byte) {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	})
}

// Points reads a count-prefixed point slice.
func (d *Dec) Points() ([]geo.Point, error) {
	return table(d, "point", 16, func(dst []geo.Point, b []byte) {
		for i := range dst {
			dst[i].X = math.Float64frombits(binary.LittleEndian.Uint64(b))
			dst[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
			b = b[16:]
		}
	})
}

// Done errors unless the payload was consumed exactly — trailing bytes
// mean the writer and reader disagree about the section's schema — and
// then checks the section's checksum. The values read from the section
// are verified once Done returns nil.
func (d *Dec) Done() error {
	if d.r.err != nil {
		return d.r.err
	}
	if !d.open {
		return nil
	}
	if d.left != 0 {
		return d.r.fail(fmt.Errorf("snap: section %q: %d unconsumed payload bytes", d.tag, d.left))
	}
	d.open = false
	sum, err := d.r.take(4)
	if err != nil {
		return d.r.fail(fmt.Errorf("snap: section %q: truncated checksum: %w", d.tag, err))
	}
	if want := binary.LittleEndian.Uint32(sum); d.crc != want {
		return d.r.fail(fmt.Errorf("snap: section %q: checksum mismatch (payload %08x, trailer %08x)", d.tag, d.crc, want))
	}
	return nil
}
