package dist

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"geogossip/internal/sweep"
)

// Workers sharing one snapshot store directory produce the reference
// output byte for byte, and a second session over the same store avoids
// every build — the coordinator's summed heartbeat stats report the
// loads.
func TestWorkersShareNetworkStore(t *testing.T) {
	spec := testSpec()
	_, wantBytes, _ := singleProcess(t, spec)
	dir := t.TempDir()

	session := func() (*Summary, []byte) {
		var buf bytes.Buffer
		addr, serveCh := serveAsync(t, context.Background(), spec, coordOpts(sweep.NewJSONL(&buf)))
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := Join(context.Background(), addr, WorkerOptions{
					Name:   fmt.Sprintf("w%d", i),
					Slots:  2,
					NetDir: dir,
				})
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
				}
			}(i)
		}
		sum := waitServe(t, serveCh)
		wg.Wait()
		return sum, buf.Bytes()
	}

	coldSum, coldBytes := session()
	if !bytes.Equal(coldBytes, wantBytes) {
		t.Error("cold shared-store session: sink differs from single-process reference")
	}
	if coldSum.Stats.Net.StoreMisses == 0 || coldSum.Stats.Net.StoreBytes <= 0 {
		t.Errorf("cold session reports no store traffic: %+v", coldSum.Stats.Net)
	}

	warmSum, warmBytes := session()
	if !bytes.Equal(warmBytes, wantBytes) {
		t.Error("warm shared-store session: sink differs from single-process reference")
	}
	if warmSum.Stats.Net.StoreMisses != 0 {
		t.Errorf("warm session still built %d network(s): %+v", warmSum.Stats.Net.StoreMisses, warmSum.Stats.Net)
	}
	if warmSum.Stats.Net.Loads == 0 || warmSum.Stats.Net.Loads != warmSum.Stats.Net.Networks {
		t.Errorf("warm session loads: %+v", warmSum.Stats.Net)
	}
	if !reflect.DeepEqual(coldSum.Results, warmSum.Results) {
		t.Error("cold and warm shared-store sessions disagree on results")
	}
}
