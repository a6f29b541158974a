package dist

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"geogossip/internal/netstore"
	"geogossip/internal/sweep"
)

// WorkerOptions configures Join.
type WorkerOptions struct {
	// Name identifies the worker in coordinator gauges and /progress.
	// Empty derives "host/pid".
	Name string
	// Slots is the worker's in-process parallelism (see sweep.Options
	// .Workers); zero selects GOMAXPROCS. Also advertised in hello so the
	// coordinator can size leases.
	Slots int
	// BuildWorkers is the per-network construction parallelism (see
	// sweep.Options.BuildWorkers).
	BuildWorkers int
	// NetDir, when non-empty, roots a network snapshot store (see
	// sweep.Options.NetStore): leases over already-persisted cells load
	// their networks instead of rebuilding them, and heartbeats report
	// the builds avoided. Workers on one machine may share the directory.
	NetDir string
	// Heartbeat is the keep-alive interval; it must stay well under the
	// coordinator's lease timeout. Zero selects 2s.
	Heartbeat time.Duration
	// Progress, when non-nil, is called after every completed task with
	// this worker's running total.
	Progress func(done int)
}

// Join connects to a coordinator at addr and executes leases until the
// coordinator says bye (grid complete — returns nil), the connection
// drops (returns the transport error), or ctx is cancelled (returns
// ctx.Err()). The worker keeps one pooled executor for the whole
// session, so consecutive leases over the same grid cells reuse built
// networks and warmed route caches.
func Join(ctx context.Context, addr string, opt WorkerOptions) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	name := opt.Name
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s/%d", host, os.Getpid())
	}
	var store *netstore.Store
	if opt.NetDir != "" {
		if store, err = netstore.Open(opt.NetDir); err != nil {
			return err
		}
	}
	exec := sweep.NewExecutor(opt.Slots, opt.BuildWorkers, store)
	br := bufio.NewReaderSize(conn, 1<<16)
	fw := &frameWriter{w: conn}
	if err := fw.send(&Msg{Type: MsgHello, Proto: ProtocolVersion, Name: name, Slots: exec.Slots()}); err != nil {
		return ctxErr(ctx, err)
	}
	m, err := readMsg(br)
	if err != nil {
		return ctxErr(ctx, err)
	}
	if m.Type == MsgBye {
		return fmt.Errorf("dist: coordinator rejected worker: %s", m.Err)
	}
	if m.Type != MsgSpec || m.Spec == nil {
		return fmt.Errorf("dist: expected spec after hello, got %q", m.Type)
	}
	spec := m.Spec.Normalized()
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("dist: coordinator sent invalid spec: %w", err)
	}
	tasks := spec.Expand()

	heartbeat := opt.Heartbeat
	if heartbeat <= 0 {
		heartbeat = 2 * time.Second
	}
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				s := exec.Stats()
				if fw.send(&Msg{Type: MsgHeartbeat, Stats: &s}) != nil {
					return // main loop will observe the broken connection
				}
			}
		}
	}()

	done := 0
	for {
		if err := fw.send(&Msg{Type: MsgWant}); err != nil {
			return ctxErr(ctx, err)
		}
		m, err := readMsg(br)
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("dist: coordinator closed the connection mid-session")
			}
			return ctxErr(ctx, err)
		}
		switch m.Type {
		case MsgLease:
			n, err := runLease(ctx, exec, fw, tasks, m, done, opt.Progress)
			done += n
			if err != nil {
				return ctxErr(ctx, err)
			}
		case MsgWait:
			retry := time.Duration(m.RetryMillis) * time.Millisecond
			if retry <= 0 {
				retry = 250 * time.Millisecond
			}
			select {
			case <-time.After(retry):
			case <-ctx.Done():
				return ctx.Err()
			}
		case MsgBye:
			if m.Err != "" {
				return fmt.Errorf("dist: coordinator aborted: %s", m.Err)
			}
			return nil
		default:
			return fmt.Errorf("dist: unexpected %q in reply to want", m.Type)
		}
	}
}

// runLease executes one lease through the executor's Each loop,
// streaming each result as it completes, and closes with the done
// report. Returns the number of tasks executed.
func runLease(ctx context.Context, exec *sweep.Executor, fw *frameWriter, tasks []sweep.Task, lease *Msg, doneBase int, progress func(int)) (int, error) {
	leased := make([]sweep.Task, len(lease.Tasks))
	for i, id := range lease.Tasks {
		if id < 0 || id >= len(tasks) {
			return 0, fmt.Errorf("dist: lease %d references task %d outside the %d-task grid", lease.Lease, id, len(tasks))
		}
		leased[i] = tasks[id]
	}
	executed := 0
	err := exec.Each(ctx, leased, func(r sweep.TaskResult, delta map[string]float64) error {
		if err := fw.send(&Msg{Type: MsgResult, Result: &r, Metrics: delta}); err != nil {
			return err
		}
		executed++
		if progress != nil {
			progress(doneBase + executed)
		}
		return nil
	})
	if err != nil {
		return executed, err
	}
	s := exec.Stats()
	return executed, fw.send(&Msg{Type: MsgDone, Lease: lease.Lease, Stats: &s})
}

// ctxErr prefers the context's cancellation cause over the transport
// error it provoked (cancelling Join closes the connection, so the read
// or write error is a symptom, not the story).
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}
