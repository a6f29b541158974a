package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"geogossip"
	"geogossip/internal/channel"
	"geogossip/internal/sweep"
)

//go:embed workloads/*.json golden/*.sha256
var files embed.FS

// storeMode says how a workload uses the network snapshot store.
type storeMode int

const (
	storeNone storeMode = iota // networks are built in memory
	storeCold                  // an empty store: every network is built and persisted
	storeWarm                  // a store filled by an untimed prepare pass: every network loads
)

// catalogue lists the workloads in run order. Each spec lives in
// workloads/<name>.json as a SweepSpec that `cmd/sweep -config` accepts;
// the seed is not part of it (-seed sets BaseSeed).
var catalogue = []struct {
	name  string
	store storeMode
	why   string
}{
	{"grid-ref", storeNone, "all five engines x n 512,1024 x 16 seeds on a perfect medium: engines, route/flood caches and per-task overhead, no channel"},
	{"grid-faults", storeNone, "grid-ref's engines through the full loss+jam+delay+arq wrapper chain: a channel change shows here and must not move grid-ref"},
	{"scale-cold", storeCold, "boyd and push-sum at n=131072, 2^20 ticks a task, with an empty store: construction and the store's write path, then memory-bound 0-alloc ticks with no routing"},
	{"scale-warm", storeWarm, "scale-cold's grid from a filled store: the snapshot read path, with the same ticks, so a store change moves setup_s here and nothing else"},
}

// workload is one loaded workload at a given seed. The spec is decoded
// twice from the same bytes — into the public SweepSpec the untimed and
// reference passes run through, and into the internal sweep.Spec the
// Executor passes expand — so both see the identical grid.
type workload struct {
	name   string
	store  storeMode
	spec   geogossip.SweepSpec
	ispec  sweep.Spec
	golden string // seed-1 sink digest, "" when none is checked in
}

func loadWorkload(name string, seed uint64) (*workload, error) {
	for _, c := range catalogue {
		if c.name != name {
			continue
		}
		raw, err := files.ReadFile("workloads/" + name + ".json")
		if err != nil {
			return nil, err
		}
		w := &workload{name: name, store: c.store}
		if err := decodeStrict(raw, &w.spec); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		if err := decodeStrict(raw, &w.ispec); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		w.spec.BaseSeed, w.ispec.BaseSeed = seed, seed
		w.ispec = w.ispec.Normalized()
		if err := w.ispec.Validate(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		if w.ispec.BaseSeed == 1 {
			if g, err := files.ReadFile("golden/" + name + ".sha256"); err == nil {
				w.golden = strings.TrimSpace(string(g))
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	var names []string
	for _, c := range catalogue {
		names = append(names, c.name)
	}
	return names
}

// decodeStrict decodes a spec the way `cmd/sweep -config` does: unknown
// fields are an error.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// setupSpecs returns the workload's setup-only grid: one boyd task per
// distinct network, stopping before its first tick. Network identity
// depends only on (n, seed index, radius, hierarchy shape, base seed), so
// running it materializes exactly the networks the full grid uses.
func (w *workload) setupSpecs() (geogossip.SweepSpec, sweep.Spec) {
	pub := geogossip.SweepSpec{
		Algorithms:       []string{sweep.AlgoBoyd},
		Ns:               w.spec.Ns,
		Seeds:            w.spec.Seeds,
		BaseSeed:         w.spec.BaseSeed,
		Hierarchies:      w.spec.Hierarchies,
		RadiusMultiplier: w.spec.RadiusMultiplier,
		TargetErr:        math.MaxFloat64,
	}
	in := sweep.Spec{
		Algorithms:       pub.Algorithms,
		Ns:               pub.Ns,
		Seeds:            pub.Seeds,
		BaseSeed:         pub.BaseSeed,
		Hierarchies:      pub.Hierarchies,
		RadiusMultiplier: pub.RadiusMultiplier,
		TargetErr:        pub.TargetErr,
	}
	return pub, in.Normalized()
}

// medium returns the channel spec every task of the workload runs over:
// its first fault model with its first transport composed on top.
func (w *workload) medium() (channel.Spec, error) {
	parts := []string{w.ispec.FaultModels[0], w.ispec.Transports[0]}
	return channel.Parse(strings.Trim(strings.Join(parts, "+"), "+"))
}
