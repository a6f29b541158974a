package sweep

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sink receives task results as they complete. The engine serializes
// calls, but implementations guard their own state anyway so a sink can
// be shared between concurrent sweeps.
type Sink interface {
	Write(TaskResult) error
}

// JSONL streams one JSON object per line. Lines are self-describing
// (they carry the task ID and full coordinates), so a file sorted by
// task ID is byte-identical regardless of the worker count that
// produced it, and an interrupted file can seed a resumed run via
// ReadResults and Options.Resume.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONL returns a sink writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Write implements Sink.
func (s *JSONL) Write(r TaskResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Encode(r)
}

// Collector accumulates results in memory (the test sink).
type Collector struct {
	mu      sync.Mutex
	results []TaskResult
}

// Write implements Sink.
func (c *Collector) Write(r TaskResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results = append(c.results, r)
	return nil
}

// Results returns a copy of the collected results in arrival order.
func (c *Collector) Results() []TaskResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]TaskResult(nil), c.results...)
}

// ReadResults parses JSONL sweep output back into task results, in file
// order. Gzip-compressed streams (the -gzip / .jsonl.gz sink form) are
// detected by their magic bytes and decompressed transparently. A
// truncated final line (the signature of a killed run) is tolerated —
// including a gzip stream cut mid-block, whose undecodable tail maps to
// the same forgivable final partial line; malformed content anywhere
// else is an error.
func ReadResults(r io.Reader) ([]TaskResult, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := newGzipMembers(br)
		if err != nil {
			return nil, fmt.Errorf("sweep: gzip sink: %w", err)
		}
		r = zr
	} else {
		r = br
	}
	var out []TaskResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var pendingErr error
	line := 0
	for sc.Scan() {
		line++
		if pendingErr != nil {
			return nil, pendingErr
		}
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var res TaskResult
		if err := json.Unmarshal(text, &res); err != nil {
			// Defer the error one line: only a malformed *final* line is
			// forgivable.
			pendingErr = fmt.Errorf("sweep: malformed result on line %d: %w", line, err)
			continue
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// gzipMembers reads a sequence of gzip members — the multi-member form
// a resumed -gzip run appends — and treats any undecodable tail as
// end-of-input: a member cut mid-block (ErrUnexpectedEOF) or a partial
// next-member header left by a killed run both map to the same
// forgivable truncation as a plain-JSONL partial final line. The first
// member's header must be valid (that is how the caller detected gzip at
// all); only what follows completed data is forgiven.
type gzipMembers struct {
	br   *bufio.Reader
	zr   *gzip.Reader
	done bool
}

func newGzipMembers(br *bufio.Reader) (*gzipMembers, error) {
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	return &gzipMembers{br: br, zr: zr}, nil
}

func (g *gzipMembers) Read(p []byte) (int, error) {
	for {
		if g.done {
			return 0, io.EOF
		}
		n, err := g.zr.Read(p)
		switch err {
		case nil:
			return n, nil
		case io.EOF:
			// Member finished cleanly; step to the next one. A Reset error
			// is either the true end of the file or an undecodable tail —
			// both end the stream.
			if g.zr.Reset(g.br) != nil {
				g.done = true
			} else {
				g.zr.Multistream(false)
			}
			if n > 0 {
				return n, nil
			}
		case io.ErrUnexpectedEOF:
			g.done = true
			return n, io.EOF
		default:
			return n, err
		}
	}
}
