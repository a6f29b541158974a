// Package dist shards one sweep grid across worker processes over TCP
// with no loss of determinism. A coordinator (Serve) expands the task
// space exactly like the local engine, hands out task-ID ranges as
// leases, collects result lines streamed back by workers, and flushes
// them to the sink in canonical task order — so the sink file is
// byte-identical to a single-process, single-worker sweep of the same
// spec. Workers (Join) keep one sweep.Executor for their session and
// drive each lease through its Each loop — the loop sweep.Run drives a
// local grid through — and send periodic heartbeats; a lease whose
// worker dies or goes silent is re-issued deterministically (per-task
// seeds make every re-execution bit-identical, so duplicate results are
// simply discarded).
//
// The wire protocol is length-prefixed JSON: a 4-byte big-endian frame
// length followed by one Msg object. The exchange is strictly
// worker-initiated — hello → spec, then want → lease | wait | bye,
// with result/done/heartbeat streamed upward during a lease — so
// neither side ever blocks on an unsolicited peer write.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"geogossip/internal/sweep"
)

// ProtocolVersion gates hello: a worker and coordinator must agree on
// the frame vocabulary before any lease moves (DESIGN §10 says what
// version 2 changed).
const ProtocolVersion = 2

// maxFrame bounds one message (oversized frames indicate a corrupt or
// hostile peer, not a big grid: leases carry IDs, not tasks).
const maxFrame = 64 << 20

// Message types.
const (
	// MsgHello is the worker's opener: protocol version, a display name
	// and its slot count (in-process parallelism, used to size leases).
	MsgHello = "hello"
	// MsgSpec is the coordinator's reply to hello: the normalized grid
	// spec the worker expands locally (leases then reference task IDs).
	MsgSpec = "spec"
	// MsgWant asks for a lease; the coordinator answers with MsgLease,
	// MsgWait or MsgBye.
	MsgWant = "want"
	// MsgLease grants a set of task IDs under a lease ID.
	MsgLease = "lease"
	// MsgWait tells the worker nothing is leasable right now (the
	// in-flight window is full, or every remaining task is leased
	// elsewhere); retry after RetryMillis.
	MsgWait = "wait"
	// MsgResult streams one completed task upward, with the per-task
	// metrics delta riding along.
	MsgResult = "result"
	// MsgDone reports a lease fully executed; the worker executor's
	// cumulative sweep.RunStats ride along.
	MsgDone = "done"
	// MsgHeartbeat keeps the worker's leases alive while tasks run, and
	// carries the same cumulative stats as done.
	MsgHeartbeat = "heartbeat"
	// MsgBye ends the session: the grid is complete (or Err explains the
	// rejection).
	MsgBye = "bye"
)

// Msg is one protocol frame. Fields beyond Type are populated per the
// message-type constants above.
type Msg struct {
	Type string `json:"type"`

	// hello
	Proto int    `json:"proto,omitempty"`
	Name  string `json:"name,omitempty"`
	Slots int    `json:"slots,omitempty"`

	// spec
	Spec *sweep.Spec `json:"spec,omitempty"`

	// lease / done
	Lease int   `json:"lease,omitempty"`
	Tasks []int `json:"tasks,omitempty"`

	// result
	Result  *sweep.TaskResult  `json:"result,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// done / heartbeat: the worker's cumulative run statistics. The
	// coordinator keeps the latest per worker and sums them into the
	// sweep report — best-effort under worker death (a crashed worker's
	// last report stands in for its final one).
	Stats *sweep.RunStats `json:"stats,omitempty"`

	// wait
	RetryMillis int `json:"retry_ms,omitempty"`

	// bye
	Err string `json:"err,omitempty"`
}

// frameWriter serializes frames onto one connection. Multiple goroutines
// (a worker's result stream and its heartbeat ticker) share a
// connection, so every write goes through the mutex.
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (fw *frameWriter) send(m *Msg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dist: encode %s: %w", m.Type, err)
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("dist: %s frame of %d bytes exceeds the %d limit", m.Type, len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = fw.w.Write(payload)
	return err
}

// readMsg reads one frame. io.EOF surfaces unchanged so callers can
// distinguish a closed peer from a corrupt one. The payload grows with
// the bytes the peer actually delivers, never to the declared length up
// front, so a header alone cannot make the reader hold maxFrame bytes.
func readMsg(r io.Reader) (*Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("dist: frame length %d outside (0, %d]", n, maxFrame)
	}
	var payload bytes.Buffer
	if got, err := io.CopyN(&payload, r, int64(n)); err != nil {
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF // as io.ReadFull reports a short payload
		}
		return nil, fmt.Errorf("dist: truncated frame: %w", err)
	}
	var m Msg
	if err := json.Unmarshal(payload.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("dist: malformed frame: %w", err)
	}
	if m.Type == "" {
		return nil, fmt.Errorf("dist: frame carries no type")
	}
	return &m, nil
}
