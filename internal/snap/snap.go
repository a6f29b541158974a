// Package snap is the framing layer of the binary network snapshot
// format (DESIGN.md §11): a fixed magic, a little-endian format version,
// then a sequence of sections — 4-byte tag, uint64 payload length, the
// payload, and a CRC32-C of the payload — closed by an empty "END "
// section. Everything above the framing (which sections exist and what
// their payloads mean) belongs to internal/netstore; everything below it
// (byte order, checksums, hostile-input discipline) lives here.
//
// The reader streams: values are decoded straight from the buffered
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

// Writer emits one snapshot stream: header at construction, then one
// Section call per section, then Close (which appends the END section).
// Errors are sticky; check Close's return.
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

// Section buffers one section's payload through fill, then writes the
// framed section (tag, length, payload, checksum). The Enc passed to
// fill is reused across sections, so fill must not retain it.
func (sw *Writer) Section(tag string, fill func(*Enc)) {
	if sw.err != nil {
		return
	}
	if len(tag) != 4 {
		sw.err = fmt.Errorf("snap: section tag %q is not 4 bytes", tag)
		return
	}
	sw.enc.buf = sw.enc.buf[:0]
	if fill != nil {
		fill(&sw.enc)
	}
	payload := sw.enc.buf
	if uint64(len(payload)) > MaxSection {
		sw.err = fmt.Errorf("snap: section %q payload of %d bytes exceeds the %d limit", tag, len(payload), int64(MaxSection))
		return
	}
	var hdr [12]byte
	copy(hdr[:4], tag)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(payload)))
	if _, sw.err = sw.w.Write(hdr[:]); sw.err != nil {
		return
	}
	if _, sw.err = sw.w.Write(payload); sw.err != nil {
		return
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
	_, sw.err = sw.w.Write(sum[:])
}

// Close appends the END section and returns the first error the stream
// hit. It does not close the underlying writer.
func (sw *Writer) Close() error {
	sw.Section(EndTag, nil)
	return sw.err
}

// Enc appends little-endian primitives to a section payload.
type Enc struct {
	buf []byte
}

// U64 appends one uint64.
func (e *Enc) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends one int64 (two's complement).
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends one float64 as its IEEE-754 bits, so round trips are
// bit-exact including NaN payloads and signed zeros.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// grow extends the payload by n bytes and returns them for the caller to
// fill: an array costs at most one growth of the buffer, never one per
// element. The growth is an explicit make and copy because slices.Grow's
// append idiom allocates a temporary of n bytes in race builds.
func (e *Enc) grow(n int) []byte {
	off := len(e.buf)
	if cap(e.buf)-off < n {
		grown := make([]byte, off, max(2*cap(e.buf), off+n))
		copy(grown, e.buf)
		e.buf = grown
	}
	e.buf = e.buf[:off+n]
	return e.buf[off:]
}

// I32s appends a count-prefixed []int32.
func (e *Enc) I32s(s []int32) {
	e.U64(uint64(len(s)))
	b := e.grow(4 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
}

// F64s appends a count-prefixed []float64.
func (e *Enc) F64s(s []float64) {
	e.U64(uint64(len(s)))
	b := e.grow(8 * len(s))
	for i, v := range s {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// Points appends a count-prefixed point slice (X then Y per point).
func (e *Enc) Points(s []geo.Point) {
	e.U64(uint64(len(s)))
	b := e.grow(16 * len(s))
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
