package core

import (
	"context"
	"time"

	"spectra/internal/obs"
	"spectra/internal/predict"
	"spectra/internal/wire"
)

// callReport describes what one LocalCall/RemoteCall consumed, as observed
// by the runtime. The OpContext routes it into the monitor framework.
type callReport struct {
	bytesSent        int64
	bytesReceived    int64
	rpcs             int
	remoteMegacycles float64
	files            []predict.FileAccess
	phases           phaseUsage
	// serverSpans are server-side spans of a traced RemoteCall, already
	// rebased onto the client timeline (Parent -1, Origin = server name);
	// the OpContext attaches them under its rpc span. Nil when untraced.
	serverSpans []obs.Span
}

// Runtime executes operation components and server housekeeping. The
// simulation runtime models the paper's testbed; the network runtime drives
// real Spectra servers over TCP. Every remote verb takes a context that
// carries the caller's latency budget: the network runtime bounds and
// cancels its exchanges with it, while the simulation runtime ignores it,
// because simulated work consumes virtual time that a wall-clock budget
// cannot bound.
type Runtime interface {
	// Now returns the runtime's notion of current time (virtual in the
	// simulation), used for operation elapsed-time measurement.
	Now() time.Time

	// LocalCall executes a service on the client machine (do_local_op).
	LocalCall(service, optype string, payload []byte) ([]byte, callReport, error)

	// RemoteCall executes a service on the named server (do_remote_op).
	// tc, when non-nil, propagates the operation's trace context to the
	// server; the runtime returns the server's spans in the callReport,
	// rebased onto the client timeline.
	RemoteCall(ctx context.Context, server, service, optype string, payload []byte, tc *wire.TraceContext) ([]byte, callReport, error)

	// ParallelRemote executes the calls concurrently and returns per-branch
	// results (outputs or errors, with per-branch usage reports whose phases
	// are zeroed) and the combined phase usage of the overlapped execution.
	// One failed branch does not abort the others.
	ParallelRemote(ctx context.Context, service string, calls []ParallelCall) ([]parallelResult, phaseUsage)

	// Reintegrate pushes the client's buffered modifications for a volume
	// to the file servers, returning the bytes sent and the time it took.
	Reintegrate(volume string) (int64, time.Duration, error)

	// PollServer fetches a server's resource snapshot.
	PollServer(ctx context.Context, server string) (*wire.ServerStatus, error)

	// Probe generates a small and a bulk exchange with the server so the
	// passive network monitor has fresh observations.
	Probe(ctx context.Context, server string) error
}

// ConsistencySource exposes the Coda state Spectra consults to enforce
// data consistency (paper §3.5). *coda.Client satisfies it once VolumeOf
// is available through the environment wrapper.
type ConsistencySource interface {
	// DirtyVolumes lists volumes with buffered client modifications.
	DirtyVolumes() []string
	// VolumeDirtyBytes is the data a reintegration of the volume would
	// transfer.
	VolumeDirtyBytes(volume string) int64
	// VolumeOf maps a file path to its volume.
	VolumeOf(path string) (string, error)
}
