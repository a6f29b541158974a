package sweep

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// pinnedGrids are small grids over every axis the engine table routes:
// the medium (fault model, transport, loss), recovery, sampling,
// hierarchy shape, beta and the async budget overrides. Their canonical
// JSONL digests were captured before the engines moved behind one table;
// a dispatch change that alters any option an engine reads moves a
// digest.
var pinnedGrids = []struct {
	name   string
	spec   Spec
	digest string
}{
	{"media", Spec{
		Algorithms:  []string{AlgoBoyd, AlgoGeographic, AlgoPushSum, AlgoAffine, AlgoAsync},
		Ns:          []int{96},
		Seeds:       2,
		FaultModels: []string{"perfect", "bernoulli:0.1+churn:4000/1000"},
		Transports:  []string{"", "delay:exp/0.5+arq:3/1/2"},
		Recovery:    []bool{false, true},
		MaxTicks:    200_000,
	}, "36f9192a8dc6337ce5839485a783cd702730297bf75462744d774c5879b798fe"},
	{"geographic-uniform", Spec{
		Algorithms: []string{AlgoGeographic},
		Ns:         []int{96},
		Seeds:      2,
		LossRates:  []float64{0, 0.1},
		Samplings:  []string{SamplingUniform},
		MaxTicks:   200_000,
	}, "04c9f84ea8ad08509fe9e2e0098a32d86a111b9d8da68bde5575dd24a2f5463b"},
	{"affine-flat-beta", Spec{
		Algorithms:  []string{AlgoAffine, AlgoAsync},
		Ns:          []int{96},
		Seeds:       2,
		LossRates:   []float64{0, 0.1},
		Betas:       []float64{0.3},
		Hierarchies: []string{HierarchyFlat},
		MaxTicks:    200_000,
	}, "f2a75baa41c0aeab07db7b888b908ba6ba2c51fc9876dec7a5691bd0a147daa7"},
	{"async-overrides", Spec{
		Algorithms:     []string{AlgoAsync},
		Ns:             []int{96},
		Seeds:          2,
		LossRates:      []float64{0, 0.1},
		AsyncThrottle:  16,
		AsyncLeafTicks: 96,
		MaxTicks:       200_000,
	}, "4c450a4f1a97e3ff33cc510ac14f02a7f2f19f1fac15d3ff05ed099330971033"},
	// Scheduled faults under the transport layer: a jam window, a cut
	// and churn, each crossed by delayed and retried deliveries, so the
	// transport's effect on time-windowed fault state is pinned.
	{"scheduled-transport", Spec{
		Algorithms:  []string{AlgoBoyd, AlgoGeographic, AlgoPushSum, AlgoAffine, AlgoAsync},
		Ns:          []int{96},
		Seeds:       2,
		FaultModels: []string{"jam:0.5/0.5/0.3/0.8/2000/6000/8000+cut:1/0/0.5/3000/9000+churn:400/100"},
		Transports:  []string{"delay:exp/3+arq:3/1/2", "delay:uniform/0.5/4+reorder:0.2+dup:0.1"},
		Recovery:    []bool{false, true},
		MaxTicks:    50_000,
	}, "7184e4f5244a243dcf321afa1b3940dd578447b50d21dbdab637c727ab81b95a"},
}

func TestPinnedSinkDigests(t *testing.T) {
	for _, g := range pinnedGrids {
		t.Run(g.name, func(t *testing.T) {
			res, err := Run(context.Background(), g.spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			sink := NewJSONL(&buf)
			for _, r := range res {
				if err := sink.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != g.digest {
				t.Errorf("sink digest %s, want %s (%d tasks)", got, g.digest, len(res))
			}
		})
	}
}
