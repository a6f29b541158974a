// Package snap is the framing layer of the binary network snapshot
// format (DESIGN.md §11): a fixed magic, a little-endian format version,
// then a sequence of sections — 4-byte tag, uint64 payload length, the
// payload, and a CRC32-C of the payload — closed by an empty "END "
// section. Everything above the framing (which sections exist and what
// their payloads mean) belongs to internal/netstore; everything below it
// (byte order, checksums, hostile-input discipline) lives here.
//
// The reader is written for hostile inputs: a corrupted or adversarial
// length prefix never allocates more than one growth chunk beyond the
// bytes the stream actually delivers, every payload is checksummed
// before any field of it is interpreted, and all array counts inside a
// payload are validated against the in-memory payload length before
// allocation.
package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

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

// Reader consumes one snapshot stream section by section.
type Reader struct {
	br      *bufio.Reader
	version uint32
	payload []byte // reused across sections
}

// NewReader validates the magic and reads the version header.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("snap: short header: %w", err)
	}
	if [8]byte(hdr[:8]) != Magic {
		return nil, fmt.Errorf("snap: bad magic %x", hdr[:8])
	}
	return &Reader{br: br, version: binary.LittleEndian.Uint32(hdr[8:])}, nil
}

// Version returns the stream's format version.
func (r *Reader) Version() uint32 { return r.version }

// Next reads the next section, verifies its checksum, and returns its
// tag plus a decoder over the payload. The decoder's storage is reused
// by the following Next call. Callers stop at EndTag.
func (r *Reader) Next() (string, *Dec, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return "", nil, fmt.Errorf("snap: truncated section header: %w", err)
	}
	tag := string(hdr[:4])
	for _, c := range hdr[:4] {
		// Tags are uppercase ASCII (plus space): anything else means the
		// stream lost framing — typically a corrupted length on the
		// previous section landing us mid-payload.
		if (c < 'A' || c > 'Z') && (c < '0' || c > '9') && c != ' ' {
			return "", nil, fmt.Errorf("snap: invalid section tag %q (lost framing?)", tag)
		}
	}
	length := binary.LittleEndian.Uint64(hdr[4:])
	payload, err := r.readPayload(length)
	if err != nil {
		return "", nil, fmt.Errorf("snap: section %q: %w", tag, err)
	}
	var sum [4]byte
	if _, err := io.ReadFull(r.br, sum[:]); err != nil {
		return "", nil, fmt.Errorf("snap: section %q: truncated checksum: %w", tag, err)
	}
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(sum[:]); got != want {
		return "", nil, fmt.Errorf("snap: section %q: checksum mismatch (payload %08x, trailer %08x)", tag, got, want)
	}
	return tag, &Dec{b: payload}, nil
}

// readPayload reads a declared-length payload into the reader's reusable
// buffer. Growth is chunked: a hostile length prefix on a short stream
// fails with a truncation error after allocating at most one chunk past
// the bytes actually delivered, never the declared size.
func (r *Reader) readPayload(n uint64) ([]byte, error) {
	if n > MaxSection {
		return nil, fmt.Errorf("payload of %d bytes exceeds the %d limit", n, int64(MaxSection))
	}
	want := int(n)
	buf := r.payload[:0]
	const chunk = 1 << 20
	for len(buf) < want {
		step := want - len(buf)
		if step > chunk {
			step = chunk
		}
		start := len(buf)
		if cap(buf) < start+step {
			// Grow geometrically (capped at the declared size) so large
			// sections cost O(n) copying, but never reserve more than
			// double the bytes already delivered plus one chunk — a
			// hostile length prefix still can't force a huge allocation.
			newCap := 2 * cap(buf)
			if newCap < start+step {
				newCap = start + step
			}
			if newCap > want {
				newCap = want
			}
			grown := make([]byte, start, newCap)
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:start+step]
		if _, err := io.ReadFull(r.br, buf[start:]); err != nil {
			r.payload = buf[:0]
			return nil, fmt.Errorf("truncated payload (%d of %d bytes): %w", start, want, err)
		}
	}
	r.payload = buf
	return buf, nil
}

// Dec reads little-endian primitives out of one section payload. Every
// method validates remaining length before touching the buffer, and
// slice reads validate their count against the payload before
// allocating.
type Dec struct {
	b   []byte
	off int
}

func (d *Dec) remaining() int { return len(d.b) - d.off }

// U64 reads one uint64.
func (d *Dec) U64() (uint64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("snap: payload underrun at offset %d", d.off)
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
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

// I32s reads a count-prefixed []int32.
func (d *Dec) I32s() ([]int32, error) {
	count, err := d.U64()
	if err != nil {
		return nil, err
	}
	if count > uint64(d.remaining())/4 {
		return nil, fmt.Errorf("snap: int32 array count %d exceeds the %d payload bytes left", count, d.remaining())
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(d.b[d.off:]))
		d.off += 4
	}
	return out, nil
}

// F64s reads a count-prefixed []float64.
func (d *Dec) F64s() ([]float64, error) {
	count, err := d.U64()
	if err != nil {
		return nil, err
	}
	if count > uint64(d.remaining())/8 {
		return nil, fmt.Errorf("snap: float64 array count %d exceeds the %d payload bytes left", count, d.remaining())
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
	}
	return out, nil
}

// Points reads a count-prefixed point slice.
func (d *Dec) Points() ([]geo.Point, error) {
	count, err := d.U64()
	if err != nil {
		return nil, err
	}
	if count > uint64(d.remaining())/16 {
		return nil, fmt.Errorf("snap: point array count %d exceeds the %d payload bytes left", count, d.remaining())
	}
	out := make([]geo.Point, count)
	for i := range out {
		out[i].X = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		out[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off+8:]))
		d.off += 16
	}
	return out, nil
}

// Done errors unless the payload was consumed exactly — trailing bytes
// mean the writer and reader disagree about the section's schema.
func (d *Dec) Done() error {
	if d.remaining() != 0 {
		return fmt.Errorf("snap: %d unconsumed payload bytes", d.remaining())
	}
	return nil
}
