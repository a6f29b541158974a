package sweep

import (
	"context"
	"sync"
	"testing"

	"geogossip/internal/routing"
)

// TestRouteStatsAggregated verifies the run aggregates the shared
// per-network route caches: tasks of the same (n, seed) cell run on one
// cache, so the hierarchy algorithms' repeated rep↔rep routes and leaf
// floods must register hits, and the counters must reach the caller.
func TestRouteStatsAggregated(t *testing.T) {
	spec := Spec{
		Algorithms: []string{AlgoAffine, AlgoAsync, AlgoGeographic},
		Ns:         []int{256},
		Seeds:      2,
		TargetErr:  5e-2,
	}
	var stats routing.CacheStats
	results, err := Run(context.Background(), spec, Options{Workers: 2, RouteStats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("task %d: %s", r.TaskID, r.Error)
		}
	}
	if stats.RouteMisses == 0 {
		t.Error("no route misses recorded: tasks did not touch the shared caches")
	}
	if stats.RouteHits == 0 {
		t.Error("no route hits recorded: hierarchy engines should re-route the same rep pairs")
	}
	if stats.FloodMisses == 0 || stats.FloodHits == 0 {
		t.Errorf("flood stats %d hits / %d misses: async leaf floods should hit the cache",
			stats.FloodHits, stats.FloodMisses)
	}
}

// TestExecutorStatsWhileBuilding polls the executor's route and build
// stats, as a distributed worker's heartbeat does, while its slots build
// networks; run under -race it checks that the polls are synchronized
// with the builds.
func TestExecutorStatsWhileBuilding(t *testing.T) {
	tasks := Spec{Algorithms: []string{AlgoAffine}, Ns: []int{64, 96}, Seeds: 4, RadiusMultiplier: 2.2}.Expand()
	ex := NewExecutor(2, 1, nil)
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-done:
				return
			default:
				ex.RouteStats()
				ex.NetStats()
			}
		}
	}()
	var wg sync.WaitGroup
	for slot := 0; slot < ex.Slots(); slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := slot; i < len(tasks); i += ex.Slots() {
				if r, _ := ex.Execute(slot, tasks[i]); r.Error != "" {
					t.Errorf("task %d: %s", r.TaskID, r.Error)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-polled
	if got := ex.NetStats().Networks; got != len(tasks) {
		t.Fatalf("%d networks built, want %d", got, len(tasks))
	}
}
