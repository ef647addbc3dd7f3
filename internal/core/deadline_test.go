package core

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spectra/internal/coda"
	"spectra/internal/obs"
	"spectra/internal/sim"
	"spectra/internal/solver"
)

// startStallServer hosts the toy service on a loopback server whose handler
// blocks until the returned channel is closed, simulating a server that is
// reachable and polls healthily but has stopped making progress.
func startStallServer(t *testing.T, name string) (string, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	machine := sim.NewMachine(sim.MachineConfig{Name: name, SpeedMHz: 1000, OnWallPower: true})
	node := NewNode(machine, coda.NewClient(name, coda.NewFileServer(), 0), nil)
	srv := NewServer(name, node, sim.RealClock{})
	srv.Register("toy", func(ctx *ServiceContext, optype string, payload []byte) ([]byte, error) {
		<-gate
		return []byte("stalled"), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { close(gate) }) // LIFO: unblock handlers before Close drains
	return addr, gate
}

// TestHedgedRequestBeatsStalledPrimary is the tail-killing path end to end:
// the decided server accepts the request and stalls; after the hedge delay a
// backup request runs on the next-best server, its reply wins, the stalled
// primary is cancelled mid-exchange, and the operation completes in hedge
// time instead of budget time. Run under -race this also proves the
// coordinator's serial accounting of concurrent attempt results.
func TestHedgedRequestBeatsStalledPrimary(t *testing.T) {
	stallAddr, _ := startStallServer(t, "stall")
	fastAddr := startLiveServer(t, "fast", 1000)

	host := sim.NewMachine(sim.MachineConfig{
		Name:        "client",
		SpeedMHz:    100,
		Power:       sim.PowerModel{IdleW: 2, BusyW: 10, NetW: 3},
		OnWallPower: true,
		Battery:     sim.NewBattery(100_000),
	})
	observer := obs.NewObserver()
	setup, err := NewLiveSetup(LiveOptions{
		Host:    host,
		Servers: map[string]string{"stall": stallAddr, "fast": fastAddr},
		Obs:     observer,
		Deadline: DeadlineOptions{
			Floor:      5 * time.Second, // ample budget: the hedge, not the deadline, must resolve this
			HedgeDelay: 30 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { setup.Runtime.Close() })
	setup.Host.RegisterService("toy", liveWork)

	op, err := setup.Client.RegisterFidelity(OperationSpec{
		Name:    "toy.hedge",
		Service: "toy",
		Plans:   []PlanSpec{{Name: "local"}, {Name: "remote", UsesServer: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	setup.Client.PollServers()
	setup.Client.Probe()

	octx, err := setup.Client.BeginForced(op, solver.Alternative{Server: "stall", Plan: "remote"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out, err := octx.DoRemoteOp("run", []byte("x"))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged DoRemoteOp failed: %v", err)
	}
	if string(out) != "done" {
		t.Fatalf("hedged output = %q, want the fast server's reply", out)
	}
	if elapsed >= 4*time.Second {
		t.Fatalf("hedged op took %v; the backup should have answered in hedge time", elapsed)
	}
	if got := octx.Decision().Alternative.Server; got != "fast" {
		t.Fatalf("winning server not adopted: decision on %q, want fast", got)
	}

	rep, err := octx.End()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range rep.Failovers {
		if ev.From == "stall" && ev.To == "fast" && strings.Contains(ev.Cause, "hedged backup") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no hedge-win failover event in report: %+v", rep.Failovers)
	}
	if n := observer.Registry.Counter(obs.MHedgeLaunched).Value(); n < 1 {
		t.Fatalf("%s = %d, want >= 1", obs.MHedgeLaunched, n)
	}
	if n := observer.Registry.Counter(obs.MHedgeWins).Value(); n < 1 {
		t.Fatalf("%s = %d, want >= 1", obs.MHedgeWins, n)
	}
}

// TestDeadlineExpiryFallsBackLocally pins the budget's hard edge: with a
// single (stalled) server and no backup to hedge to, the operation must not
// outwait the stall — the budget expires, the in-flight exchange is
// cancelled, and the local fallback completes the work degraded.
func TestDeadlineExpiryFallsBackLocally(t *testing.T) {
	stallAddr, _ := startStallServer(t, "stall")

	host := sim.NewMachine(sim.MachineConfig{
		Name:        "client",
		SpeedMHz:    1000,
		Power:       sim.PowerModel{IdleW: 2, BusyW: 10, NetW: 3},
		OnWallPower: true,
		Battery:     sim.NewBattery(100_000),
	})
	observer := obs.NewObserver()
	setup, err := NewLiveSetup(LiveOptions{
		Host:    host,
		Servers: map[string]string{"stall": stallAddr},
		Obs:     observer,
		Deadline: DeadlineOptions{
			Floor:   300 * time.Millisecond,
			Ceiling: 300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { setup.Runtime.Close() })
	setup.Host.RegisterService("toy", liveWork)

	op, err := setup.Client.RegisterFidelity(OperationSpec{
		Name:    "toy.budget",
		Service: "toy",
		Plans:   []PlanSpec{{Name: "local"}, {Name: "remote", UsesServer: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	setup.Client.PollServers()

	octx, err := setup.Client.BeginForced(op, solver.Alternative{Server: "stall", Plan: "remote"}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out, err := octx.DoRemoteOp("run", []byte("x"))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("budget-bounded op failed instead of falling back: %v", err)
	}
	if string(out) != "done" {
		t.Fatalf("fallback output = %q", out)
	}
	// The remote wait must end at the 300ms budget (plus local execution and
	// scheduling slack), never at the stall's duration.
	if elapsed >= 3*time.Second {
		t.Fatalf("operation outwaited its 300ms budget: %v", elapsed)
	}
	rep, err := octx.End()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
		t.Fatal("local fallback must mark the report degraded")
	}
	if n := observer.Registry.Counter(obs.MDeadlineExceeded).Value(); n < 1 {
		t.Fatalf("%s = %d, want >= 1", obs.MDeadlineExceeded, n)
	}
}

// startSilentListener accepts connections on a loopback port and never
// answers: every request is read and dropped, so each exchange can only
// end by its own timeout.
func startSilentListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestPollServersBoundedByBudget pins the control-plane budget: a server
// that accepts connections and never answers must cost one poll and one
// probe the deadline ceiling each, not the retry ladder's worth of flat
// 30s exchange timeouts, and the failures must still take the server out
// of the decision space.
func TestPollServersBoundedByBudget(t *testing.T) {
	addr := startSilentListener(t)
	setup, err := NewLiveSetup(LiveOptions{
		Servers:  map[string]string{"silent": addr},
		Health:   HealthOptions{FailureThreshold: 2},
		Deadline: DeadlineOptions{Ceiling: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { setup.Runtime.Close() })

	for _, step := range []struct {
		name string
		run  func()
	}{
		{"PollServers", setup.Client.PollServers},
		{"Probe", setup.Client.Probe},
	} {
		start := time.Now()
		step.run()
		if elapsed := time.Since(start); elapsed >= 2*time.Second {
			t.Fatalf("%s against a silent server took %v, want < 2s (300ms ceiling)", step.name, elapsed)
		}
	}
	if setup.Client.Health().Usable("silent", time.Now()) {
		t.Fatalf("silent server still usable after a failed poll and probe: %v", setup.Client.Health().State("silent"))
	}
}

// TestDeadlineOptionsClamp pins the budget derivation arithmetic.
func TestDeadlineOptionsClamp(t *testing.T) {
	var o DeadlineOptions
	if got := o.budgetFor(1.0); got != 3*time.Second {
		t.Fatalf("default multiplier budget = %v, want 3s", got)
	}
	if got := o.budgetFor(0.001); got != 100*time.Millisecond {
		t.Fatalf("floor clamp = %v, want 100ms", got)
	}
	if got := o.budgetFor(1e6); got != 30*time.Second {
		t.Fatalf("ceiling clamp = %v, want 30s", got)
	}
	custom := DeadlineOptions{Multiplier: 2, Floor: time.Second, Ceiling: 4 * time.Second}
	if got := custom.budgetFor(1.0); got != 2*time.Second {
		t.Fatalf("custom budget = %v, want 2s", got)
	}
	if got := custom.budgetFor(0.1); got != time.Second {
		t.Fatalf("custom floor = %v, want 1s", got)
	}
	if got := custom.budgetFor(100); got != 4*time.Second {
		t.Fatalf("custom ceiling = %v, want 4s", got)
	}
}

// TestLatencyRingP95 pins the adaptive hedge-delay sample: too few
// observations refuse to estimate, and the p95 lands in the tail.
func TestLatencyRingP95(t *testing.T) {
	var ring latencyRing
	if _, ok := ring.p95(); ok {
		t.Fatal("empty ring must not estimate")
	}
	for i := 0; i < latencyRingMinSamples-1; i++ {
		ring.record(time.Millisecond)
	}
	if _, ok := ring.p95(); ok {
		t.Fatal("undersampled ring must not estimate")
	}
	ring.record(time.Millisecond)
	if p, ok := ring.p95(); !ok || p != time.Millisecond {
		t.Fatalf("uniform sample p95 = %v, %v", p, ok)
	}
	// 95 fast observations and 5 slow ones: the p95 must land at the tail
	// boundary, not the median.
	var tail latencyRing
	for i := 0; i < 60; i++ {
		tail.record(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		tail.record(time.Second)
	}
	p, ok := tail.p95()
	if !ok || p < time.Millisecond || p > time.Second {
		t.Fatalf("tail p95 = %v, %v", p, ok)
	}

	d := DeadlineOptions{}.hedgeDelay(&tail, 10*time.Second)
	if d != p {
		t.Fatalf("hedge delay = %v, want the ring p95 %v", d, p)
	}
	capped := DeadlineOptions{HedgeDelay: time.Minute}.hedgeDelay(&tail, time.Second)
	if capped != time.Second {
		t.Fatalf("hedge delay must cap at the budget: %v", capped)
	}
}
