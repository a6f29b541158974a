package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"geogossip/internal/obs"
	"geogossip/internal/routing"
	"geogossip/internal/sweep"
)

// testSpec is cheap enough for unit tests but wide enough to exercise
// multiple algorithms, sizes and loss rates — 16 tasks.
func testSpec() sweep.Spec {
	return sweep.Spec{
		Algorithms:       []string{sweep.AlgoBoyd, sweep.AlgoAffine},
		Ns:               []int{96, 128},
		Seeds:            2,
		LossRates:        []float64{0, 0.1},
		TargetErr:        5e-2,
		RadiusMultiplier: 2.2,
	}
}

// singleProcess runs the reference: the local engine at one worker,
// whose sink order is the canonical task order the distributed
// coordinator must reproduce byte for byte.
func singleProcess(t *testing.T, spec sweep.Spec) ([]sweep.TaskResult, []byte, map[string]float64) {
	t.Helper()
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	results, err := sweep.Run(context.Background(), spec, sweep.Options{
		Workers: 1,
		Sink:    sweep.NewJSONL(&buf),
		Obs:     reg,
	})
	if err != nil {
		t.Fatalf("single-process reference: %v", err)
	}
	return results, buf.Bytes(), reg.Flatten()
}

// coordOpts are test defaults: a tight retry/linger cycle so idle
// workers wake up promptly for their bye.
func coordOpts(sink sweep.Sink) CoordOptions {
	return CoordOptions{
		Sink:        sink,
		RetryMillis: 20,
		Linger:      2 * time.Second,
	}
}

// serveAsync starts a coordinator on a loopback listener and returns
// its address plus a channel carrying Serve's outcome.
type serveOutcome struct {
	sum *Summary
	err error
}

func serveAsync(t *testing.T, ctx context.Context, spec sweep.Spec, opt CoordOptions) (string, <-chan serveOutcome) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan serveOutcome, 1)
	go func() {
		sum, err := Serve(ctx, ln, spec, opt)
		ch <- serveOutcome{sum, err}
	}()
	return ln.Addr().String(), ch
}

func waitServe(t *testing.T, ch <-chan serveOutcome) *Summary {
	t.Helper()
	select {
	case out := <-ch:
		if out.err != nil {
			t.Fatalf("Serve: %v", out.err)
		}
		return out.sum
	case <-time.After(2 * time.Minute):
		t.Fatal("Serve did not finish")
		return nil
	}
}

func TestDistributedMatchesSingleProcess(t *testing.T) {
	spec := testSpec()
	wantResults, wantBytes, wantMetrics := singleProcess(t, spec)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var buf bytes.Buffer
			addr, serveCh := serveAsync(t, context.Background(), spec, coordOpts(sweep.NewJSONL(&buf)))
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					err := Join(context.Background(), addr, WorkerOptions{
						Name:  fmt.Sprintf("w%d", i),
						Slots: 2,
					})
					if err != nil {
						t.Errorf("worker %d: %v", i, err)
					}
				}(i)
			}
			sum := waitServe(t, serveCh)
			wg.Wait()
			if !bytes.Equal(buf.Bytes(), wantBytes) {
				t.Errorf("sink bytes differ from single-process reference (%d vs %d bytes)",
					buf.Len(), len(wantBytes))
			}
			if !reflect.DeepEqual(sum.Results, wantResults) {
				t.Error("summary results differ from single-process reference")
			}
			if !reflect.DeepEqual(sum.Metrics, wantMetrics) {
				t.Errorf("summed metric deltas differ from single-process Flatten:\n dist: %v\n want: %v",
					sum.Metrics, wantMetrics)
			}
			if sum.Workers != workers {
				t.Errorf("summary counts %d worker sessions, want %d", sum.Workers, workers)
			}
		})
	}
}

// A worker killed mid-lease must not change the output: its unfinished
// tasks are re-issued and the sink stays byte-identical.
func TestWorkerKilledMidLeaseReissues(t *testing.T) {
	spec := testSpec()
	_, wantBytes, wantMetrics := singleProcess(t, spec)

	var buf bytes.Buffer
	opt := coordOpts(sweep.NewJSONL(&buf))
	// A 4-task lease guarantees the 1-slot victim dies mid-lease (after
	// its second task), leaving unfinished tasks to re-issue.
	opt.LeaseSize = 4
	addr, serveCh := serveAsync(t, context.Background(), spec, opt)

	// Victim: dies (context cancel closes its connection) after two
	// completed tasks, mid-lease.
	victimCtx, kill := context.WithCancel(context.Background())
	victimErr := Join(victimCtx, addr, WorkerOptions{
		Name:  "victim",
		Slots: 1,
		Progress: func(done int) {
			if done >= 2 {
				kill()
			}
		},
	})
	if victimErr == nil {
		t.Fatal("victim worker finished the whole grid before its kill fired")
	}

	// Survivor: finishes the rest, including the victim's re-issued
	// lease remainder.
	if err := Join(context.Background(), addr, WorkerOptions{Name: "survivor", Slots: 2}); err != nil {
		t.Fatalf("survivor worker: %v", err)
	}
	sum := waitServe(t, serveCh)
	if sum.Reissued == 0 {
		t.Error("expected at least one re-issued lease after the victim died")
	}
	if !bytes.Equal(buf.Bytes(), wantBytes) {
		t.Errorf("sink bytes differ from single-process reference after worker death (%d vs %d bytes)",
			buf.Len(), len(wantBytes))
	}
	if !reflect.DeepEqual(sum.Metrics, wantMetrics) {
		t.Error("summed metric deltas differ after worker death (duplicate deltas not discarded?)")
	}
}

// A worker that goes silent without closing its connection is caught by
// the lease timeout, and its tasks complete elsewhere.
func TestSilentWorkerLeaseTimeout(t *testing.T) {
	spec := testSpec()
	_, wantBytes, _ := singleProcess(t, spec)

	var buf bytes.Buffer
	opt := coordOpts(sweep.NewJSONL(&buf))
	opt.LeaseTimeout = 200 * time.Millisecond
	addr, serveCh := serveAsync(t, context.Background(), spec, opt)

	// Hand-rolled client: hello, take a lease, then hang without
	// heartbeats.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := &frameWriter{w: conn}
	if err := fw.send(&Msg{Type: MsgHello, Proto: ProtocolVersion, Name: "hung", Slots: 1}); err != nil {
		t.Fatal(err)
	}
	if m, err := readMsg(conn); err != nil || m.Type != MsgSpec {
		t.Fatalf("expected spec, got %v (%v)", m, err)
	}
	if err := fw.send(&Msg{Type: MsgWant}); err != nil {
		t.Fatal(err)
	}
	m, err := readMsg(conn)
	if err != nil || m.Type != MsgLease || len(m.Tasks) == 0 {
		t.Fatalf("expected a lease, got %v (%v)", m, err)
	}

	if err := Join(context.Background(), addr, WorkerOptions{
		Name: "live", Slots: 2, Heartbeat: 50 * time.Millisecond,
	}); err != nil {
		t.Fatalf("live worker: %v", err)
	}
	sum := waitServe(t, serveCh)
	if sum.Reissued == 0 {
		t.Error("expected the hung worker's lease to be reaped and re-issued")
	}
	if !bytes.Equal(buf.Bytes(), wantBytes) {
		t.Error("sink bytes differ from single-process reference after lease timeout")
	}
}

// A restarted coordinator re-validates its sink and leases only the
// incomplete tasks; the appended output completes the canonical file
// with zero duplicates.
func TestCoordinatorRestartResumes(t *testing.T) {
	spec := testSpec()
	wantResults, wantBytes, _ := singleProcess(t, spec)

	var buf bytes.Buffer

	// Phase 1: cancel the coordinator after a few accepted results. The
	// sink holds a gap-free canonical prefix at that point.
	opt1 := coordOpts(sweep.NewJSONL(&buf))
	ctx1, cancel1 := context.WithCancel(context.Background())
	opt1.Progress = func(done, total int) {
		if done >= 3 {
			cancel1()
		}
	}
	addr1, serveCh1 := serveAsync(t, ctx1, spec, opt1)
	_ = Join(context.Background(), addr1, WorkerOptions{Name: "w", Slots: 1}) // dies with the coordinator
	out1 := <-serveCh1
	cancel1()
	if out1.err == nil {
		t.Fatal("phase-1 coordinator finished before its cancel fired")
	}

	prefix := append([]byte(nil), buf.Bytes()...)
	if !bytes.HasPrefix(wantBytes, prefix) {
		t.Fatal("interrupted sink is not a canonical prefix of the reference output")
	}
	prior, err := sweep.ReadResults(bytes.NewReader(prefix))
	if err != nil {
		t.Fatalf("re-reading interrupted sink: %v", err)
	}
	if len(prior) == 0 || len(prior) >= len(wantResults) {
		t.Fatalf("phase 1 flushed %d of %d results; the test needs a strict prefix", len(prior), len(wantResults))
	}

	// Phase 2: restart with the re-read results; only the rest executes.
	opt2 := coordOpts(sweep.NewJSONL(&buf))
	opt2.Resume = prior
	executed := 0
	opt2.Progress = func(done, total int) {
		executed = done
		if want := len(wantResults) - len(prior); total != want {
			t.Errorf("phase 2 scheduled %d tasks, want %d", total, want)
		}
	}
	addr2, serveCh2 := serveAsync(t, context.Background(), spec, opt2)
	if err := Join(context.Background(), addr2, WorkerOptions{Name: "w", Slots: 2}); err != nil {
		t.Fatalf("phase-2 worker: %v", err)
	}
	sum := waitServe(t, serveCh2)
	if executed != len(wantResults)-len(prior) {
		t.Errorf("phase 2 executed %d tasks, want %d (zero duplicates)", executed, len(wantResults)-len(prior))
	}
	if !bytes.Equal(buf.Bytes(), wantBytes) {
		t.Errorf("resumed sink differs from single-process reference (%d vs %d bytes)", buf.Len(), len(wantBytes))
	}
	if !reflect.DeepEqual(sum.Results, wantResults) {
		t.Error("resumed summary results differ from single-process reference")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := &frameWriter{w: &buf}
	sent := []*Msg{
		{Type: MsgHello, Proto: ProtocolVersion, Name: "w0", Slots: 3},
		{Type: MsgLease, Lease: 7, Tasks: []int{0, 1, 5}},
		{Type: MsgWait, RetryMillis: 250},
		{Type: MsgHeartbeat, Stats: &sweep.RunStats{Route: routing.CacheStats{RouteHits: 12}, Net: sweep.NetBuildStats{Networks: 2, BuildTime: 1500 * time.Millisecond}}},
		{Type: MsgBye},
	}
	for _, m := range sent {
		if err := fw.send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range sent {
		got, err := readMsg(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip changed the frame:\n got %+v\nwant %+v", got, want)
		}
	}
	if _, err := readMsg(&buf); err != io.EOF {
		t.Errorf("drained stream returns %v, want io.EOF", err)
	}
}

func TestReadMsgRejectsGarbage(t *testing.T) {
	// Zero-length frame.
	if _, err := readMsg(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Error("zero-length frame accepted")
	}
	// Oversized frame length.
	if _, err := readMsg(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Error("oversized frame accepted")
	}
	// Valid length, malformed payload.
	if _, err := readMsg(bytes.NewReader([]byte{0, 0, 0, 2, '{', 'x'})); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Valid JSON without a type.
	if _, err := readMsg(bytes.NewReader([]byte{0, 0, 0, 2, '{', '}'})); err == nil {
		t.Error("typeless frame accepted")
	}
	// Truncated payload.
	if _, err := readMsg(bytes.NewReader([]byte{0, 0, 0, 9, '{', '}'})); err == nil {
		t.Error("truncated frame accepted")
	}
}

// A header declaring the largest frame, followed by ten payload bytes,
// fails as a truncated frame without the reader allocating anything near
// the declared 64 MiB: the payload grows only with the bytes delivered.
func TestReadMsgShortFrameAllocation(t *testing.T) {
	raw := binary.BigEndian.AppendUint32(nil, maxFrame)
	raw = append(raw, `{"type":"x`...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readMsg(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated frame") {
		t.Fatalf("%d-byte input declaring %d: err = %v, want a truncated frame", len(raw), maxFrame, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("%d-byte input allocated %d bytes before failing, want under 1 MiB", len(raw), grew)
	}
}

// FuzzReadMsg feeds the coordinator's and the workers' frame reader
// arbitrary bytes. It must return an error or a message, never panic,
// and a message it accepts must re-encode stably: sending it, reading
// the frame back and sending that again gives identical bytes. The seed
// corpus in testdata/fuzz/FuzzReadMsg holds one frame of each message
// type as frameWriter.send writes it, a truncated frame, and zero-length
// and oversized headers.
func FuzzReadMsg(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readMsg(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := (&frameWriter{w: &first}).send(m); err != nil {
			t.Fatalf("accepted %+v but cannot send it: %v", m, err)
		}
		again, err := readMsg(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("cannot read back a sent frame: %v", err)
		}
		if err := (&frameWriter{w: &second}).send(again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding moved the frame:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}

func TestProtocolVersionMismatchRejected(t *testing.T) {
	spec := testSpec()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, serveCh := serveAsync(t, ctx, spec, CoordOptions{RetryMillis: 20})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := &frameWriter{w: conn}
	if err := fw.send(&Msg{Type: MsgHello, Proto: ProtocolVersion + 1, Name: "future"}); err != nil {
		t.Fatal(err)
	}
	m, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgBye || m.Err == "" {
		t.Errorf("version mismatch answered with %+v, want bye with an error", m)
	}
	cancel()
	<-serveCh
}

// TestServeRemovesScrapeCollector: coordinators that share one registry
// leave no scrape collector behind (it holds the coordinator), and the
// gauges keep the last sweep's values: its task count and its workers'
// summed statistics.
func TestServeRemovesScrapeCollector(t *testing.T) {
	reg := obs.NewRegistry()
	spec := testSpec()
	var sum *Summary
	for i := range 2 {
		opt := coordOpts(nil)
		opt.Obs = reg
		addr, serveCh := serveAsync(t, context.Background(), spec, opt)
		if err := Join(context.Background(), addr, WorkerOptions{Name: fmt.Sprintf("w%d", i), Slots: 2}); err != nil {
			t.Fatalf("sweep %d: worker: %v", i, err)
		}
		sum = waitServe(t, serveCh)
	}
	vals := reg.Values()
	hits := obs.MetricRouteCacheLookups + `{kind="route",result="hit"}`
	for key, want := range map[string]float64{
		obs.MetricSweepTasksDone:    float64(spec.TaskCount()),
		obs.MetricChannelPoolBuilds: float64(sum.Stats.ChannelBuilds),
		hits:                        float64(sum.Stats.Route.RouteHits),
	} {
		if got := vals[key]; got != want {
			t.Errorf("%s reads %v after the sweeps, want the last sweep's %v", key, got, want)
		}
	}
	if sum.Stats.Route.RouteHits == 0 {
		t.Fatal("the last sweep had no route cache hits; the gauge check shows nothing")
	}
	reg.Gauge(obs.MetricChannelPoolBuilds, "").Set(-1)
	if got := reg.Values()[obs.MetricChannelPoolBuilds]; got != -1 {
		t.Fatalf("a finished coordinator's collector is still registered: it reset the gauge to %v", got)
	}
}
