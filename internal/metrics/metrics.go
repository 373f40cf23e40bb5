// Package metrics provides the work metering used to regenerate the
// paper's CPU utilization figures (Figures 5 and 6): per-component
// busy-time accumulation sampled over fixed windows, yielding the
// "user CPU time %" series for each proxy or daemon, plus process-wide
// rusage readings.
package metrics

import (
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Meter accumulates the wall-clock time a component spends doing work
// (RPC processing, cryptography, cache management). Sampled
// periodically it yields a utilization percentage comparable to the
// paper's per-process CPU measurements.
type Meter struct {
	mu   sync.Mutex
	busy time.Duration
}

// Add records d of work time.
func (m *Meter) Add(d time.Duration) {
	m.mu.Lock()
	m.busy += d
	m.mu.Unlock()
}

// Track runs f and records its duration.
func (m *Meter) Track(f func()) {
	start := time.Now()
	f()
	m.Add(time.Since(start))
}

// Busy returns the accumulated work time.
func (m *Meter) Busy() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.busy
}

// Window is one utilization sample.
type Window struct {
	// Start is the window's offset from the beginning of sampling.
	Start time.Duration
	// BusyPct is the fraction of the window spent busy, in percent.
	BusyPct float64
}

// Sampler converts a Meter into periodic utilization windows.
type Sampler struct {
	meter    *Meter
	interval time.Duration

	mu      sync.Mutex
	windows []Window
	stop    chan struct{}
	done    chan struct{}
}

// NewSampler starts sampling meter every interval.
func NewSampler(meter *Meter, interval time.Duration) *Sampler {
	s := &Sampler{
		meter:    meter,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *Sampler) run() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	start := time.Now()
	prev := s.meter.Busy()
	for {
		select {
		case <-t.C:
			cur := s.meter.Busy()
			pct := float64(cur-prev) / float64(s.interval) * 100
			if pct > 100 {
				pct = 100 // concurrent handlers can exceed one core
			}
			if pct < 0 {
				pct = 0 // wait-credits can transiently outpace work
			}
			s.mu.Lock()
			s.windows = append(s.windows, Window{Start: time.Since(start), BusyPct: pct})
			s.mu.Unlock()
			prev = cur
		case <-s.stop:
			return
		}
	}
}

// Stop ends sampling and returns the collected windows.
func (s *Sampler) Stop() []Window {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.windows
}

// ChannelStats counts fault-tolerance events on a WAN transport: how
// often the link dropped, how often it was re-established, how many
// calls were sent again or lost with the server's session, and how much traffic the degraded
// (disconnected) mode absorbed from the client-side disk cache. All
// counters are atomic; a ChannelStats may be shared by the transport
// and the proxy layered on top of it.
type ChannelStats struct {
	// Disconnects counts transport failures observed on an
	// established session.
	Disconnects atomic.Uint64
	// Reconnects counts successful session re-establishments
	// (dial + handshake + mount).
	Reconnects atomic.Uint64
	// ReconnectFailures counts re-establishment rounds that exhausted
	// their retry budget.
	ReconnectFailures atomic.Uint64
	// Replays counts calls sent again on a new connection after a
	// transport failure (the server answers each at most once).
	Replays atomic.Uint64
	// SessionLost counts calls failed with oncrpc.ErrSessionLost: sent,
	// then caught by a reconnect to a server that had lost the session.
	SessionLost atomic.Uint64
	// Timeouts counts per-attempt deadlines that fired (WAN stalls
	// converted to errors).
	Timeouts atomic.Uint64
	// DegradedReads counts READ/GETATTR operations served entirely
	// from the local disk cache while the channel was down.
	DegradedReads atomic.Uint64
	// InflightHWM is the high-water mark of concurrently in-flight
	// calls on the session's transport — the pipelining depth the
	// workload actually reached.
	InflightHWM atomic.Uint64
	// OutOfOrder counts replies claimed after a later-submitted call
	// had already completed — the multiplexed, out-of-order
	// completions that serial RPC cannot produce.
	OutOfOrder atomic.Uint64
}

// NoteInflight raises the in-flight high-water mark to depth if the
// current mark is lower (same CAS-max shape as DataPathStats
// EnterFlush).
func (s *ChannelStats) NoteInflight(depth uint64) {
	for {
		old := s.InflightHWM.Load()
		if depth <= old || s.InflightHWM.CompareAndSwap(old, depth) {
			return
		}
	}
}

// ChannelSnapshot is a plain-value copy of ChannelStats.
type ChannelSnapshot struct {
	Disconnects       uint64
	Reconnects        uint64
	ReconnectFailures uint64
	Replays           uint64
	SessionLost       uint64
	Timeouts          uint64
	DegradedReads     uint64
	InflightHWM       uint64
	OutOfOrder        uint64
}

// Snapshot returns a consistent-enough copy of the counters for
// reporting (each counter is read atomically).
func (s *ChannelStats) Snapshot() ChannelSnapshot {
	return ChannelSnapshot{
		Disconnects:       s.Disconnects.Load(),
		Reconnects:        s.Reconnects.Load(),
		ReconnectFailures: s.ReconnectFailures.Load(),
		Replays:           s.Replays.Load(),
		SessionLost:       s.SessionLost.Load(),
		Timeouts:          s.Timeouts.Load(),
		DegradedReads:     s.DegradedReads.Load(),
		InflightHWM:       s.InflightHWM.Load(),
		OutOfOrder:        s.OutOfOrder.Load(),
	}
}

// DataPathStats counts pipelined data-path activity in the client
// proxy: flush worker concurrency, readahead traffic, and in-flight
// READ deduplication. All counters are atomic.
type DataPathStats struct {
	// FlushActive is the number of flush workers currently sending a
	// block; FlushPeak is the high-water mark across the session.
	FlushActive atomic.Int64
	FlushPeak   atomic.Int64
	// FlushedBlocks counts blocks successfully written upstream (any
	// stability level); CommitMismatches counts COMMIT verifier
	// mismatches that forced a stable re-send of a file's flushed
	// blocks.
	FlushedBlocks    atomic.Uint64
	CommitMismatches atomic.Uint64
	// ReadaheadIssued counts prefetch fetches started; ReadaheadDropped
	// counts sequential-read hints shed because the prefetch pool was
	// saturated; InflightDedup counts READs that piggybacked on another
	// caller's identical in-flight fetch instead of going upstream.
	ReadaheadIssued  atomic.Uint64
	ReadaheadDropped atomic.Uint64
	InflightDedup    atomic.Uint64
}

// EnterFlush marks one flush worker active, maintaining the peak.
func (s *DataPathStats) EnterFlush() {
	n := s.FlushActive.Add(1)
	for {
		old := s.FlushPeak.Load()
		if n <= old || s.FlushPeak.CompareAndSwap(old, n) {
			return
		}
	}
}

// LeaveFlush marks one flush worker idle again.
func (s *DataPathStats) LeaveFlush() { s.FlushActive.Add(-1) }

// DataPathSnapshot is a plain-value copy of DataPathStats.
type DataPathSnapshot struct {
	FlushActive      int64
	FlushPeak        int64
	FlushedBlocks    uint64
	CommitMismatches uint64
	ReadaheadIssued  uint64
	ReadaheadDropped uint64
	InflightDedup    uint64
}

// Snapshot returns a copy of the counters (each read atomically).
func (s *DataPathStats) Snapshot() DataPathSnapshot {
	return DataPathSnapshot{
		FlushActive:      s.FlushActive.Load(),
		FlushPeak:        s.FlushPeak.Load(),
		FlushedBlocks:    s.FlushedBlocks.Load(),
		CommitMismatches: s.CommitMismatches.Load(),
		ReadaheadIssued:  s.ReadaheadIssued.Load(),
		ReadaheadDropped: s.ReadaheadDropped.Load(),
		InflightDedup:    s.InflightDedup.Load(),
	}
}

// BackendHealth is a replica backend's place in the ejection/
// reintegration state machine.
type BackendHealth int32

// Backend health states. A backend starts Healthy, is Ejected after
// consecutive failures, moves to Probing while reintegration probes
// run, and returns to Healthy when one succeeds.
const (
	BackendHealthy BackendHealth = iota
	BackendEjected
	BackendProbing
	BackendRetired
)

// String renders the health state for logs.
func (h BackendHealth) String() string {
	switch h {
	case BackendHealthy:
		return "healthy"
	case BackendEjected:
		return "ejected"
	case BackendProbing:
		return "probing"
	case BackendRetired:
		return "retired"
	default:
		return "unknown"
	}
}

// BackendStats counts one replica backend's life under fire: calls,
// failures, ejections, reintegration probes, and its current health
// state. All fields are atomic.
type BackendStats struct {
	// Health is the current BackendHealth state.
	Health atomic.Int32
	// Calls counts RPCs routed to this backend (including log entries
	// and their replays); Failures counts the ones that failed at the
	// transport level.
	Calls    atomic.Uint64
	Failures atomic.Uint64
	// Ejections counts healthy→ejected transitions; Probes counts
	// reintegration probe attempts; Reintegrations counts
	// probing→healthy transitions.
	Ejections      atomic.Uint64
	Probes         atomic.Uint64
	Reintegrations atomic.Uint64
}

// BackendSnapshot is a plain-value copy of BackendStats.
type BackendSnapshot struct {
	Health         BackendHealth
	Calls          uint64
	Failures       uint64
	Ejections      uint64
	Probes         uint64
	Reintegrations uint64
}

// ReplicaStats counts multi-backend replication events in the client
// proxy: quorum-acknowledged log entries, hedged reads, backend health
// transitions, replays and retirements. All counters are atomic; the
// per-backend slice is fixed at construction.
type ReplicaStats struct {
	// Backends holds one BackendStats per replica backend, indexed by
	// backend ID.
	Backends []*BackendStats
	// QuorumWrites counts mutations a quorum of backends applied with
	// success; QuorumFailures counts mutations refused because fewer
	// than a quorum of backends was healthy, or answered alike; QuorumLost counts transitions into degraded
	// read-only service (healthy backends < quorum).
	QuorumWrites   atomic.Uint64
	QuorumFailures atomic.Uint64
	QuorumLost     atomic.Uint64
	// HedgedReads counts second requests launched after the hedge
	// delay; HedgeWins counts hedges that beat the primary;
	// ReadFailovers counts reads answered by a non-primary replica
	// after the primary failed outright.
	HedgedReads   atomic.Uint64
	HedgeWins     atomic.Uint64
	ReadFailovers atomic.Uint64
	// Replays counts log entries a backend applied that it did not owe
	// when they were appended or when it was ejected: what it caught up
	// on after reintegration. Retirements counts backends taken out of
	// the set for the session because one of their entries answered
	// differently from the quorum, or their backlog outgrew the log's
	// bound.
	Replays     atomic.Uint64
	Retirements atomic.Uint64
}

// NewReplicaStats builds stats for n backends.
func NewReplicaStats(n int) *ReplicaStats {
	s := &ReplicaStats{Backends: make([]*BackendStats, n)}
	for i := range s.Backends {
		s.Backends[i] = &BackendStats{}
	}
	return s
}

// Backend returns the per-backend counters for id, or nil when out of
// range (callers may run with stats disabled).
func (s *ReplicaStats) Backend(id int) *BackendStats {
	if s == nil || id < 0 || id >= len(s.Backends) {
		return nil
	}
	return s.Backends[id]
}

// ReplicaSnapshot is a plain-value copy of ReplicaStats.
type ReplicaSnapshot struct {
	Backends       []BackendSnapshot
	QuorumWrites   uint64
	QuorumFailures uint64
	QuorumLost     uint64
	HedgedReads    uint64
	HedgeWins      uint64
	ReadFailovers  uint64
	Replays        uint64
	Retirements    uint64
}

// Snapshot returns a copy of the counters (each read atomically).
func (s *ReplicaStats) Snapshot() ReplicaSnapshot {
	snap := ReplicaSnapshot{
		Backends:       make([]BackendSnapshot, len(s.Backends)),
		QuorumWrites:   s.QuorumWrites.Load(),
		QuorumFailures: s.QuorumFailures.Load(),
		QuorumLost:     s.QuorumLost.Load(),
		HedgedReads:    s.HedgedReads.Load(),
		HedgeWins:      s.HedgeWins.Load(),
		ReadFailovers:  s.ReadFailovers.Load(),
		Replays:        s.Replays.Load(),
		Retirements:    s.Retirements.Load(),
	}
	for i, b := range s.Backends {
		snap.Backends[i] = BackendSnapshot{
			Health:         BackendHealth(b.Health.Load()),
			Calls:          b.Calls.Load(),
			Failures:       b.Failures.Load(),
			Ejections:      b.Ejections.Load(),
			Probes:         b.Probes.Load(),
			Reintegrations: b.Reintegrations.Load(),
		}
	}
	return snap
}

// ProcessCPU returns the process's cumulative user and system CPU
// time from rusage.
func ProcessCPU() (user, system time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	user = time.Duration(ru.Utime.Sec)*time.Second + time.Duration(ru.Utime.Usec)*time.Microsecond
	system = time.Duration(ru.Stime.Sec)*time.Second + time.Duration(ru.Stime.Usec)*time.Microsecond
	return user, system
}
