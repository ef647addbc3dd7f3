package core

import (
	"fmt"
	"time"

	"spectra/internal/coda"
	"spectra/internal/energy"
	"spectra/internal/monitor"
	"spectra/internal/obs"
	"spectra/internal/predict"
	"spectra/internal/sim"
	"spectra/internal/solver"

	spectrarpc "spectra/internal/rpc"
)

// LiveOptions describes a live (TCP) Spectra client deployment.
type LiveOptions struct {
	// Host models the client machine; nil selects a generic laptop-class
	// model. Live compute is paced by this model's clock rate.
	Host *sim.Machine
	// Servers maps server names to spectrad TCP addresses.
	Servers map[string]string
	// UsageLogDir enables persistent usage logs when non-empty.
	UsageLogDir string
	// Models, Solver, Exhaustive pass through to the client Config.
	Models     ModelOptions
	Solver     solver.Options
	Exhaustive bool
	// Failover and Health tune transparent recovery and server health
	// tracking; zero values enable both with defaults.
	Failover FailoverOptions
	Health   HealthOptions
	// Deadline tunes end-to-end latency budgets, cancellation, and hedged
	// requests; the zero value enables them with defaults.
	Deadline DeadlineOptions
	// Obs enables metrics, decision traces, and prediction-accuracy
	// accounting; nil disables observability.
	Obs *obs.Observer
	// PoolSize caps multiplexed connections per server; 0 selects
	// rpc.DefaultPoolSize. Concurrency comes from stream slots, not
	// connection count: each connection carries StreamsPerConn concurrent
	// streams.
	PoolSize int
	// StreamsPerConn caps concurrent in-flight streams per connection; 0
	// selects rpc.DefaultStreamsPerConn. 1 reproduces the old
	// serial-per-connection exchange (useful as a benchmark baseline).
	StreamsPerConn int
	// SnapshotTTL caches the decision snapshot so concurrent Begins share
	// one snapshot fill (a local copy of monitor state, no remote call).
	// 0 selects DefaultSnapshotTTL; negative disables caching.
	SnapshotTTL time.Duration
	// Cache tunes the placement-decision cache; the zero value disables it
	// (see CacheOptions).
	Cache CacheOptions
}

// DefaultSnapshotTTL is the live decision-snapshot cache window: long
// enough that a burst of concurrent Begins shares one snapshot, short
// enough that decisions never act on stale load or reachability (well
// under the server poll interval).
const DefaultSnapshotTTL = 25 * time.Millisecond

// LiveSetup is an assembled live deployment: the host node, the TCP
// runtime, the monitor framework, and the Spectra client.
type LiveSetup struct {
	Client     *Client
	Host       *Node
	Runtime    *NetRuntime
	Network    *monitor.NetworkMonitor
	Remote     *monitor.RemoteProxyMonitor
	Adaptor    *energy.GoalAdaptor
	Meter      energy.Meter
	FileServer *coda.FileServer
}

// NewLiveSetup assembles a live Spectra client talking to spectrad daemons.
func NewLiveSetup(opts LiveOptions) (*LiveSetup, error) {
	host := opts.Host
	if host == nil {
		host = sim.NewMachine(sim.MachineConfig{
			Name:        "client",
			SpeedMHz:    1000,
			Power:       sim.PowerModel{IdleW: 5, BusyW: 20, NetW: 8},
			OnWallPower: true,
			Battery:     sim.NewBattery(200_000),
		})
	}
	battery := host.Battery()
	if battery == nil {
		battery = sim.NewBattery(1e9)
	}
	fileServer := coda.NewFileServer()
	hostCoda := coda.NewClient(host.Name(), fileServer, 0)
	node := NewNode(host, hostCoda, nil)

	network := monitor.NewNetworkMonitor()
	remote := monitor.NewRemoteProxyMonitor()
	runtime := NewNetRuntime(node, network)

	meter := energy.NewExactMeter(battery)
	adaptor := energy.NewGoalAdaptor(sim.RealClock{}, meter)

	monitors := monitor.NewSet(
		monitor.NewCPUMonitor(host),
		network,
		monitor.NewBatteryMonitor(meter, adaptor, runtime.HostAccount(), host),
		monitor.NewFileCacheMonitor(hostCoda, node.FetchRateBps),
		remote,
	)

	var usageLog *predict.UsageLog
	if opts.UsageLogDir != "" {
		var err error
		usageLog, err = predict.NewUsageLog(opts.UsageLogDir)
		if err != nil {
			return nil, err
		}
	}

	var names []string
	for name, addr := range opts.Servers {
		if addr == "" {
			return nil, fmt.Errorf("core: server %q has no address", name)
		}
		runtime.AddServer(name, addr)
		names = append(names, name)
	}

	runtime.SetPoolOptions(spectrarpc.PoolOptions{
		Size:           opts.PoolSize,
		StreamsPerConn: opts.StreamsPerConn,
	})
	if opts.Obs != nil {
		monitors.SetMetrics(opts.Obs.Registry)
		runtime.SetMetrics(opts.Obs.Registry)
	}

	snapTTL := opts.SnapshotTTL
	switch {
	case snapTTL == 0:
		snapTTL = DefaultSnapshotTTL
	case snapTTL < 0:
		snapTTL = 0
	}

	client, err := NewClient(Config{
		Runtime:     runtime,
		Monitors:    monitors,
		Network:     network,
		Consistency: hostCoda,
		Servers:     names,
		UsageLog:    usageLog,
		Models:      opts.Models,
		Solver:      opts.Solver,
		Exhaustive:  opts.Exhaustive,
		Failover:    opts.Failover,
		Health:      opts.Health,
		Deadline:    opts.Deadline,
		Obs:         opts.Obs,
		SnapshotTTL: snapTTL,
		Cache:       opts.Cache,
	})
	if err != nil {
		return nil, err
	}
	return &LiveSetup{
		Client:     client,
		Host:       node,
		Runtime:    runtime,
		Network:    network,
		Remote:     remote,
		Adaptor:    adaptor,
		Meter:      meter,
		FileServer: fileServer,
	}, nil
}
