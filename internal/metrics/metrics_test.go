package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestMeterAccumulates(t *testing.T) {
	var m Meter
	m.Add(10 * time.Millisecond)
	m.Add(5 * time.Millisecond)
	if got := m.Busy(); got != 15*time.Millisecond {
		t.Fatalf("busy %v", got)
	}
}

func TestMeterTrack(t *testing.T) {
	var m Meter
	m.Track(func() { time.Sleep(20 * time.Millisecond) })
	if m.Busy() < 15*time.Millisecond {
		t.Fatalf("track recorded %v", m.Busy())
	}
}

func TestMeterConcurrent(t *testing.T) {
	var m Meter
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Add(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Busy(); got != 3200*time.Microsecond {
		t.Fatalf("busy %v", got)
	}
}

func TestSamplerWindows(t *testing.T) {
	var m Meter
	s := NewSampler(&m, 20*time.Millisecond)
	// Simulate ~50% utilization across a few windows.
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		m.Add(10 * time.Millisecond)
		time.Sleep(20 * time.Millisecond)
	}
	windows := s.Stop()
	if len(windows) < 3 {
		t.Fatalf("only %d windows", len(windows))
	}
	var sum float64
	for _, w := range windows {
		if w.BusyPct < 0 || w.BusyPct > 100 {
			t.Fatalf("window out of range: %+v", w)
		}
		sum += w.BusyPct
	}
	if avg := sum / float64(len(windows)); avg < 10 || avg > 95 {
		t.Fatalf("average utilization %v implausible for ~50%% load", avg)
	}
}

func TestSamplerClamps(t *testing.T) {
	var m Meter
	s := NewSampler(&m, 10*time.Millisecond)
	// Concurrent handlers can accumulate more busy-time than
	// wall-clock; the sampler clamps to 100.
	m.Add(10 * time.Second)
	time.Sleep(30 * time.Millisecond)
	for _, w := range s.Stop() {
		if w.BusyPct > 100 {
			t.Fatalf("window %v not clamped", w.BusyPct)
		}
	}
}

func TestProcessCPU(t *testing.T) {
	u1, s1 := ProcessCPU()
	// Burn some CPU.
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i
	}
	_ = x
	u2, s2 := ProcessCPU()
	if u2+s2 < u1+s1 {
		t.Fatal("rusage went backwards")
	}
	if u2 == 0 && s2 == 0 {
		t.Fatal("rusage returned zero after work")
	}
}

func TestReplicaStatsSnapshot(t *testing.T) {
	s := NewReplicaStats(3)
	s.QuorumWrites.Add(4)
	s.HedgedReads.Add(2)
	s.HedgeWins.Add(1)
	s.RepairsQueued.Add(5)
	s.RepairedBlocks.Add(3)
	s.Backend(1).Failures.Add(7)
	s.Backend(1).Ejections.Add(1)
	s.Backend(1).Health.Store(int32(BackendEjected))
	s.Backend(2).Calls.Add(9)

	snap := s.Snapshot()
	if len(snap.Backends) != 3 {
		t.Fatalf("snapshot has %d backends, want 3", len(snap.Backends))
	}
	if snap.QuorumWrites != 4 || snap.HedgedReads != 2 || snap.HedgeWins != 1 ||
		snap.RepairsQueued != 5 || snap.RepairedBlocks != 3 {
		t.Fatalf("scalar counters wrong: %+v", snap)
	}
	if b := snap.Backends[1]; b.Failures != 7 || b.Ejections != 1 || b.Health != BackendEjected {
		t.Fatalf("backend 1 counters wrong: %+v", b)
	}
	if snap.Backends[2].Calls != 9 || snap.Backends[0].Health != BackendHealthy {
		t.Fatalf("backend counters wrong: %+v", snap.Backends)
	}
	// Out-of-range and nil lookups are safe no-ops for callers running
	// without stats.
	if s.Backend(99) != nil || (*ReplicaStats)(nil).Backend(0) != nil {
		t.Fatal("out-of-range Backend lookup not nil")
	}
	for h, want := range map[BackendHealth]string{BackendHealthy: "healthy", BackendEjected: "ejected", BackendProbing: "probing", BackendHealth(9): "unknown"} {
		if h.String() != want {
			t.Fatalf("health %d renders %q", h, h.String())
		}
	}
}

// TestSnapshotRaceHammer drives concurrent writers and Snapshot
// readers over every stats block at once. Under -race it proves the
// reporting path never races with the hot-path counter updates, and
// the monotone counters a reader observes never run backwards.
func TestSnapshotRaceHammer(t *testing.T) {
	t.Parallel()
	const (
		writers = 4
		readers = 3
		spins   = 2000
	)
	var (
		ch ChannelStats
		dp DataPathStats
	)
	rs := NewReplicaStats(3)

	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(seed int) {
			defer writerWG.Done()
			for i := 0; i < spins; i++ {
				ch.Disconnects.Add(1)
				ch.Reconnects.Add(1)
				ch.Replays.Add(1)
				ch.Timeouts.Add(1)
				ch.DegradedReads.Add(1)
				ch.OutOfOrder.Add(1)
				ch.NoteInflight(uint64(seed*spins + i + 1))

				dp.EnterFlush()
				dp.FlushedBlocks.Add(1)
				dp.ReadaheadIssued.Add(1)
				dp.InflightDedup.Add(1)
				dp.LeaveFlush()

				rs.QuorumWrites.Add(1)
				rs.HedgedReads.Add(1)
				rs.RepairsQueued.Add(1)
				b := rs.Backend((seed + i) % len(rs.Backends))
				b.Calls.Add(1)
				b.Health.Store(int32(BackendHealth(i % 3)))
			}
		}(w)
	}

	stop := make(chan struct{})
	errc := make(chan error, readers)
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			prevCh, prevDP, prevRS := ch.Snapshot(), dp.Snapshot(), rs.Snapshot()
			for {
				cs, ds, rss := ch.Snapshot(), dp.Snapshot(), rs.Snapshot()
				switch {
				case cs.Disconnects < prevCh.Disconnects || cs.Replays < prevCh.Replays:
					errc <- fmt.Errorf("channel counters ran backwards: %+v then %+v", prevCh, cs)
					return
				case cs.InflightHWM < prevCh.InflightHWM || cs.OutOfOrder < prevCh.OutOfOrder:
					errc <- fmt.Errorf("pipeline counters ran backwards: %+v then %+v", prevCh, cs)
					return
				case ds.FlushedBlocks < prevDP.FlushedBlocks || ds.FlushPeak < prevDP.FlushPeak:
					errc <- fmt.Errorf("data-path counters ran backwards: %+v then %+v", prevDP, ds)
					return
				case rss.QuorumWrites < prevRS.QuorumWrites ||
					rss.Backends[0].Calls < prevRS.Backends[0].Calls:
					errc <- fmt.Errorf("replica counters ran backwards")
					return
				case ds.FlushActive < 0 || ds.FlushActive > writers:
					errc <- fmt.Errorf("FlushActive = %d with %d writers", ds.FlushActive, writers)
					return
				}
				prevCh, prevDP, prevRS = cs, ds, rss
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	const total = writers * spins
	if got := ch.Snapshot(); got.Disconnects != total || got.DegradedReads != total {
		t.Errorf("channel totals = %+v, want %d each", got, total)
	}
	// NoteInflight is a CAS-max: the final HWM must be the largest
	// depth any writer reported, exactly.
	if got := ch.Snapshot().InflightHWM; got != uint64((writers-1)*spins+spins) {
		t.Errorf("InflightHWM = %d, want %d", got, (writers-1)*spins+spins)
	}
	got := dp.Snapshot()
	if got.FlushedBlocks != total || got.FlushActive != 0 {
		t.Errorf("data-path totals = %+v, want %d flushed, 0 active", got, total)
	}
	if got.FlushPeak < 1 || got.FlushPeak > writers {
		t.Errorf("FlushPeak = %d, want within [1, %d]", got.FlushPeak, writers)
	}
	rsnap := rs.Snapshot()
	if rsnap.QuorumWrites != total {
		t.Errorf("QuorumWrites = %d, want %d", rsnap.QuorumWrites, total)
	}
	var calls uint64
	for _, b := range rsnap.Backends {
		calls += b.Calls
	}
	if calls != total {
		t.Errorf("per-backend calls sum = %d, want %d", calls, total)
	}
}
