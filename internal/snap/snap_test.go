package snap

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"geogossip/internal/geo"
)

func TestRoundTrip(t *testing.T) {
	pts := []geo.Point{{X: 0.25, Y: 0.75}, {X: math.Nextafter(1, 0), Y: 0}}
	i32 := []int32{0, -1, 7, math.MaxInt32, math.MinInt32}
	f64 := []float64{0, math.Copysign(0, -1), 1e-300, math.Inf(1)}

	var buf bytes.Buffer
	w := NewWriter(&buf, 42)
	w.Section("ABCD", func(e *Enc) {
		e.U64(123)
		e.I64(-5)
		e.F64(math.Pi)
		e.I32s(i32)
		e.F64s(f64)
		e.Points(pts)
	})
	w.Section("EMTY", nil)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Version() != 42 {
		t.Fatalf("version = %d, want 42", r.Version())
	}
	tag, d, err := r.Next()
	if err != nil || tag != "ABCD" {
		t.Fatalf("Next = %q, %v", tag, err)
	}
	if v, _ := d.U64(); v != 123 {
		t.Fatalf("U64 = %d", v)
	}
	if v, _ := d.I64(); v != -5 {
		t.Fatalf("I64 = %d", v)
	}
	if v, _ := d.F64(); v != math.Pi {
		t.Fatalf("F64 = %v", v)
	}
	gi, _ := d.I32s()
	if len(gi) != len(i32) {
		t.Fatalf("I32s len = %d", len(gi))
	}
	for i := range gi {
		if gi[i] != i32[i] {
			t.Fatalf("I32s[%d] = %d, want %d", i, gi[i], i32[i])
		}
	}
	gf, _ := d.F64s()
	for i := range gf {
		if math.Float64bits(gf[i]) != math.Float64bits(f64[i]) {
			t.Fatalf("F64s[%d] = %v, want %v", i, gf[i], f64[i])
		}
	}
	gp, _ := d.Points()
	for i := range gp {
		if gp[i] != pts[i] {
			t.Fatalf("Points[%d] = %v, want %v", i, gp[i], pts[i])
		}
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if tag, d, err = r.Next(); err != nil || tag != "EMTY" || d.left != 0 {
		t.Fatalf("empty section: %q %d %v", tag, d.left, err)
	}
	if tag, _, err = r.Next(); err != nil || tag != EndTag {
		t.Fatalf("end section: %q %v", tag, err)
	}
}

// A caller may hand NewReader its own *bufio.Reader. Every read step must
// fit that buffer, however small, and the tables it grows must come out
// whole.
func TestCallerBufferSize(t *testing.T) {
	i32 := make([]int32, 1000)
	f64 := make([]float64, 1000)
	pts := make([]geo.Point, 1000)
	for i := range i32 {
		i32[i] = int32(i * 7)
		f64[i] = float64(i) / 3
		pts[i] = geo.Point{X: float64(i) / 1000, Y: 1 - float64(i)/1000}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.Section("DATA", func(e *Enc) {
		e.I32s(i32)
		e.F64s(f64)
		e.Points(pts)
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReaderSize(bytes.NewReader(buf.Bytes()), 16) // bufio's minimum
	r, err := NewReader(br)
	if err != nil {
		t.Fatal(err)
	}
	_, d, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	gi, err := d.I32s()
	if err != nil || !slices.Equal(gi, i32) {
		t.Fatalf("I32s through a %d-byte buffer: %v", br.Size(), err)
	}
	gf, err := d.F64s()
	if err != nil || !slices.Equal(gf, f64) {
		t.Fatalf("F64s through a %d-byte buffer: %v", br.Size(), err)
	}
	gp, err := d.Points()
	if err != nil || !slices.Equal(gp, pts) {
		t.Fatalf("Points through a %d-byte buffer: %v", br.Size(), err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if tag, _, err := r.Next(); err != nil || tag != EndTag {
		t.Fatalf("end section: %q %v", tag, err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("{\"version\":1}")); err == nil {
		t.Fatal("JSON accepted as snapshot")
	}
	if _, err := NewReader(strings.NewReader("\x89GGS")); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

// readerKinds hands a stream to NewReader through a reader that reports
// its size and through one that does not, which also returns short reads.
var readerKinds = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"known-size", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"unknown-size", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A hostile length prefix must fail with a truncation error without the
// reader allocating anything near the declared size. A stream that
// reports its size fails at Next, before reading any of the payload; any
// other stream fails once the payload runs out, after at most one
// buffer-sized step.
func TestHostileLengthPrefix(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	if err := w.err; err != nil {
		t.Fatal(err)
	}
	var hdr [12]byte
	copy(hdr[:4], "HUGE")
	binary.LittleEndian.PutUint64(hdr[4:], 4<<30) // 4 GiB declared
	buf.Write(hdr[:])
	buf.WriteString("only a few real bytes")
	raw := buf.Bytes()

	// Unknown size: Next hands out the section, and draining it on the
	// following Next runs into the end of the stream.
	r, err := NewReader(iotest.HalfReader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	grew := allocated(func() {
		if _, _, err = r.Next(); err == nil {
			_, _, err = r.Next()
		}
	})
	if err == nil {
		t.Fatal("hostile length accepted")
	}
	if !strings.Contains(err.Error(), "truncated payload") {
		t.Fatalf("unexpected error: %v", err)
	}
	if grew > 8<<20 {
		t.Fatalf("hostile length allocated %d bytes (want ≤ one buffer-sized step + slack)", grew)
	}

	// Known size, from memory and from a regular file: Next fails on the
	// header alone.
	path := filepath.Join(t.TempDir(), "hostile.ggsnap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	for name, src := range map[string]io.Reader{"bytes.Reader": bytes.NewReader(raw), "file": fh} {
		r, err := NewReader(src)
		if err != nil {
			t.Fatal(err)
		}
		grew := allocated(func() { _, _, err = r.Next() })
		if err == nil || !strings.Contains(err.Error(), "truncated payload") {
			t.Fatalf("%s: hostile length: %v", name, err)
		}
		if grew > 4<<10 {
			t.Fatalf("%s: hostile length allocated %d bytes before failing, want almost nothing", name, grew)
		}
	}

	// A length over MaxSection is rejected before any read at all.
	buf.Reset()
	NewWriter(&buf, 1)
	binary.LittleEndian.PutUint64(hdr[4:], MaxSection+1)
	buf.Write(hdr[:])
	for _, k := range readerKinds {
		r, err = NewReader(k.wrap(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err = r.Next(); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%s: oversized length: %v", k.name, err)
		}
	}
}

// A caller that reads part of a section and moves on still has the rest
// checked: the following Next drains the unread bytes through the
// checksum, so a flipped byte there fails it.
func TestNextVerifiesHalfReadSection(t *testing.T) {
	first := []int32{1, 2, 3}
	second := make([]int32, 100000) // several buffer-sized steps
	for i := range second {
		second[i] = int32(i)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.Section("DATA", func(e *Enc) {
		e.I32s(first)
		e.I32s(second)
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	last := len(raw) - 16 - 4 - 4 // the last element, before DATA's checksum and the END section
	for _, k := range readerKinds {
		for _, flip := range []bool{false, true} {
			mut := bytes.Clone(raw)
			if flip {
				mut[last] ^= 0x01
			}
			r, err := NewReader(k.wrap(mut))
			if err != nil {
				t.Fatal(err)
			}
			_, d, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if got, err := d.I32s(); err != nil || len(got) != len(first) {
				t.Fatalf("%s: first array: %v, %v", k.name, got, err)
			}
			tag, _, err := r.Next()
			switch {
			case flip && (err == nil || !strings.Contains(err.Error(), "checksum mismatch")):
				t.Fatalf("%s: flip in the unread half: Next = %q, %v", k.name, tag, err)
			case !flip && (err != nil || tag != EndTag):
				t.Fatalf("%s: intact section: Next = %q, %v", k.name, tag, err)
			}
		}
	}
}

func TestChecksumCatchesBitFlip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.Section("DATA", func(e *Enc) { e.I32s([]int32{1, 2, 3, 4}) })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-20] ^= 0x40 // inside DATA's payload or checksum
	for _, k := range readerKinds {
		r, err := NewReader(k.wrap(raw))
		if err != nil {
			t.Fatal(err)
		}
		for {
			tag, _, err := r.Next()
			if err != nil {
				break // corruption surfaced as a clean error
			}
			if tag == EndTag {
				t.Fatalf("%s: bit flip read to END without error", k.name)
			}
		}
	}
}

// A hostile array count with no elements behind it fails before the
// table is allocated at its count: checked against the section when the
// section is honest, and against the stream when the section's length
// lies too.
func TestHostileArrayCount(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.Section("DATA", func(e *Enc) { e.U64(1 << 60) }) // count with no elements
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	honest := bytes.Clone(buf.Bytes())

	buf.Reset()
	NewWriter(&buf, 1)
	var hdr [12]byte
	copy(hdr[:4], "DATA")
	binary.LittleEndian.PutUint64(hdr[4:], 1<<30) // room for the count below
	buf.Write(hdr[:])
	binary.LittleEndian.PutUint64(hdr[:8], 1<<27) // 512 MiB of int32s
	buf.Write(hdr[:8])
	buf.WriteString("a few real bytes")
	lying := buf.Bytes()

	for _, k := range readerKinds {
		r, err := NewReader(k.wrap(honest))
		if err != nil {
			t.Fatal(err)
		}
		_, d, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.I32s(); err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%s: absurd array count: %v", k.name, err)
		}

		r, err = NewReader(k.wrap(lying))
		if err != nil {
			t.Fatal(err)
		}
		grew := allocated(func() {
			var d *Dec
			if _, d, err = r.Next(); err == nil {
				_, err = d.I32s()
			}
		})
		if err == nil || !strings.Contains(err.Error(), "truncated payload") {
			t.Fatalf("%s: count on a short stream: %v", k.name, err)
		}
		if grew > 1<<20 {
			t.Fatalf("%s: count on a short stream allocated %d bytes, want at most one step", k.name, grew)
		}
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.Section("DATA", func(e *Enc) { e.F64s(make([]float64, 100)) })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, k := range readerKinds {
		for cut := 0; cut < len(full); cut += 37 {
			r, err := NewReader(k.wrap(full[:cut]))
			if err != nil {
				continue // header itself truncated: fine
			}
			sawErr := false
			for i := 0; i < 10; i++ {
				tag, _, err := r.Next()
				if err != nil {
					sawErr = true
					break
				}
				if tag == EndTag {
					break
				}
			}
			if !sawErr {
				t.Fatalf("%s: cut at %d of %d read to END without error", k.name, cut, len(full))
			}
		}
	}
}
