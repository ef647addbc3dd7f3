package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spectra/internal/wire"
)

// hitTolerance is how far the traced decision-cache hit fraction may sit
// from the untraced reference before the traced pass counts as having
// changed the path it measures.
const hitTolerance = 0.05

// addAccounting reports the failure and recovery counts of a traced pass.
func addAccounting(values map[string]float64, a accounting) {
	values["bench.attempted"] = float64(a.attempted)
	values["bench.completed"] = float64(a.completed)
	values["bench.errored"] = float64(a.errored)
	values["bench.shed"] = float64(a.shed)
	values["bench.deadline_expired"] = float64(a.expired)
	values["bench.failed_frac"] = ratio(float64(a.failed()), float64(a.attempted))
	values["core.failed_over"] = float64(a.failedOver)
	values["core.degraded"] = float64(a.degraded)
}

// span is one timed phase in a span file: name, parent, and start and end
// in nanoseconds since the benchmark started.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// spanLine groups the spans of one operation (or evaluation pass).
type spanLine struct {
	ID    uint64 `json:"id"`
	Due   int64  `json:"due,omitempty"`
	Spans []span `json:"spans"`
}

// writeSpans writes one JSON line per operation to spanDir/<name>.jsonl,
// replacing the previous traced run's file.
func writeSpans(name string, lines []spanLine) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(filepath.Join(spanDir, name+".jsonl"))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range lines {
		if err := enc.Encode(&lines[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

func writeLiveSpans(name string, recs []opRecord, hl *handlerLog) error {
	lines := make([]spanLine, 0, len(recs))
	for _, r := range recs {
		l := spanLine{ID: r.seq, Due: r.due}
		end := max(r.end, r.remoteEnd, r.beginEnd)
		l.Spans = append(l.Spans,
			span{Name: "op", Start: r.start, End: end},
			span{Name: "core.begin", Parent: "op", Start: r.start, End: r.beginEnd})
		if r.remoteEnd > 0 {
			l.Spans = append(l.Spans, span{Name: "rpc.remote", Parent: "op", Start: r.beginEnd, End: r.remoteEnd})
			if hs, he, ok := hl.span(r.seq); ok {
				l.Spans = append(l.Spans, span{Name: "rpc.handler", Parent: "rpc.remote", Start: hs, End: he})
			}
		}
		if r.end > 0 {
			l.Spans = append(l.Spans, span{Name: "core.end", Parent: "op", Start: r.remoteEnd, End: r.end})
		}
		lines = append(lines, l)
	}
	return writeSpans(name, lines)
}

// wireCost times wire.WriteMessage and wire.ReadMessage on the workload's
// own request and response shapes, as the client and server exchange them.
// It returns µs per message written, µs per message read, and heap bytes
// allocated per message (write plus read).
func wireCost(w *liveWorkload, noise []byte, inputs []opInput) (writeUs, readUs, allocPerMsg float64, err error) {
	var msgs []*wire.Message
	for i, in := range inputs {
		req := noise[in.offset : in.offset+in.bytes]
		msgs = append(msgs,
			&wire.Message{
				Type: wire.MsgRequest, ID: uint64(i + 1), Service: service, OpType: optype,
				Payload: req, Deadline: wire.NewDeadlineContext(100 * time.Millisecond),
			},
			&wire.Message{
				Type: wire.MsgResponse, ID: uint64(i + 1), Service: service,
				Payload: response(req, w.respBytes),
				Usage: &wire.UsageReport{Extra: []wire.NamedValue{
					{Name: "computeSeconds"}, {Name: "fetchSeconds"},
				}},
			})
	}
	// Repeat the message set until enough bytes or messages are timed.
	var setBytes int
	for _, m := range msgs {
		setBytes += len(m.Payload)
	}
	reps := max(1, min(200, (32<<20)/max(setBytes, 1)))

	var enc bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		enc.Reset()
		for _, m := range msgs {
			if _, err := wire.WriteMessage(&enc, m); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	tw := time.Since(t0)
	t1 := time.Now()
	for r := 0; r < reps; r++ {
		rd := bytes.NewReader(enc.Bytes())
		for range msgs {
			if _, _, err := wire.ReadMessage(rd); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	tr := time.Since(t1)
	runtime.ReadMemStats(&m1)
	n := float64(reps * len(msgs))
	return float64(tw.Nanoseconds()) / 1e3 / n,
		float64(tr.Nanoseconds()) / 1e3 / n,
		float64(m1.TotalAlloc-m0.TotalAlloc) / n,
		nil
}

// snapshotCost times the monitor framework's snapshot, the work a Begin
// does on a snapshot-cache miss, and returns its median in µs.
func snapshotCost(d *deployment) float64 {
	c := d.setup.Client
	servers := c.Servers()
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		c.Monitors().Snapshot(time.Now(), servers)
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}
