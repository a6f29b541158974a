package sweep

import (
	"bytes"
	"testing"
)

// FuzzReadResults feeds the resume reader arbitrary bytes: plain JSONL
// or gzip, single or multi-member, whole or cut short. It must return an
// error or results, never panic, and results it accepts must re-encode
// stably: writing them through NewJSONL, reading that back and writing
// it again gives identical bytes. The seed corpus in
// testdata/fuzz/FuzzReadResults holds a two-result sink, its gzip, a
// two-member gzip as a resumed -gzip run writes it, a sink whose final
// line is truncated, and a gzip stream cut mid-block.
func FuzzReadResults(f *testing.F) {
	encode := func(t *testing.T, results []TaskResult) []byte {
		var buf bytes.Buffer
		sink := NewJSONL(&buf)
		for _, r := range results {
			if err := sink.Write(r); err != nil {
				t.Fatalf("accepted %+v but cannot write it: %v", r, err)
			}
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		results, err := ReadResults(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := encode(t, results)
		again, err := ReadResults(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("cannot read back a written sink: %v", err)
		}
		if len(again) != len(results) {
			t.Fatalf("read back %d of %d written results", len(again), len(results))
		}
		if second := encode(t, again); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding moved the sink:\n%s\n%s", first, second)
		}
	})
}
