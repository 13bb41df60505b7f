package buffer

import (
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/storage/device"
)

// env builds a registry with one disk and one virtual device plus a pool.
func env(t testing.TB, frames int, mode LockMode) (*Pool, *device.Registry, record.DeviceID, record.DeviceID) {
	t.Helper()
	reg := device.NewRegistry()
	diskID := reg.NextID()
	d, err := device.NewDisk(diskID, filepath.Join(t.TempDir(), "disk"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Mount(d); err != nil {
		t.Fatal(err)
	}
	memID := reg.NextID()
	if err := reg.Mount(device.NewMem(memID)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.CloseAll() })
	return NewPool(reg, frames, mode), reg, diskID, memID
}

func TestFixNewAndRefix(t *testing.T) {
	for _, mode := range []LockMode{TwoLevel, Global} {
		p, _, diskID, _ := env(t, 8, mode)
		f, pid, err := p.FixNew(diskID)
		if err != nil {
			t.Fatal(err)
		}
		copy(f.Data(), "volcano")
		p.Unfix(f, true)

		f2, err := p.Fix(pid)
		if err != nil {
			t.Fatal(err)
		}
		if string(f2.Data()[:7]) != "volcano" {
			t.Fatalf("mode %v: data lost on refix", mode)
		}
		if f2.pid != pid {
			t.Fatalf("mode %v: wrong pid", mode)
		}
		p.Unfix(f2, false)
		st := p.Stats()
		if st.CurrentlyFixedHint != 0 {
			t.Fatalf("mode %v: pin imbalance: %+v", mode, st)
		}
		if st.Hits != 1 || st.Misses != 1 {
			t.Fatalf("mode %v: hits=%d misses=%d, want 1/1", mode, st.Hits, st.Misses)
		}
	}
}

func TestEvictionWritesBackAndReloads(t *testing.T) {
	p, _, diskID, _ := env(t, 2, TwoLevel)
	f1, pid1, _ := p.FixNew(diskID)
	copy(f1.Data(), "one")
	p.Unfix(f1, true)

	// Fill the pool so pid1 gets evicted.
	var pids []record.PageID
	for i := 0; i < 4; i++ {
		f, pid, err := p.FixNew(diskID)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f, true)
		pids = append(pids, pid)
	}
	if p.Resident(pid1) {
		t.Fatal("pid1 still resident after filling a 2-frame pool")
	}
	// Reload from disk.
	f, err := p.Fix(pid1)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Data()[:3]) != "one" {
		t.Fatal("write-back or reload lost data")
	}
	p.Unfix(f, false)
	if p.Stats().Writes == 0 {
		t.Fatal("no write-backs recorded")
	}
	_ = pids
}

func TestBufferFullWhenAllPinned(t *testing.T) {
	p, _, diskID, _ := env(t, 2, TwoLevel)
	f1, _, err := p.FixNew(diskID)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := p.FixNew(diskID)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = p.FixNew(diskID)
	if !errors.Is(err, ErrBufferFull) {
		t.Fatalf("err = %v, want ErrBufferFull", err)
	}
	p.Unfix(f1, false)
	p.Unfix(f2, false)
	// Now it works again.
	f3, _, err := p.FixNew(diskID)
	if err != nil {
		t.Fatal(err)
	}
	p.Unfix(f3, false)
}

func TestUnfixUnderflowPanics(t *testing.T) {
	p, _, diskID, _ := env(t, 4, TwoLevel)
	f, _, _ := p.FixNew(diskID)
	p.Unfix(f, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double unfix did not panic")
		}
	}()
	p.Unfix(f, false)
}

func TestMultiplePinsBroadcastStyle(t *testing.T) {
	p, _, _, memID := env(t, 4, TwoLevel)
	f, pid, _ := p.FixNew(memID)
	p.Pin(f, 2) // as if broadcast to two more consumers
	if got := p.FixCount(pid); got != 3 {
		t.Fatalf("FixCount = %d, want 3", got)
	}
	p.Unfix(f, false)
	p.Unfix(f, false)
	if got := p.FixCount(pid); got != 1 {
		t.Fatalf("FixCount = %d, want 1", got)
	}
	p.Unfix(f, true)
	if p.Stats().CurrentlyFixedHint != 0 {
		t.Fatal("pin imbalance after broadcast pins")
	}
}

func TestVirtualPagesRoundTripThroughEviction(t *testing.T) {
	// Virtual (Mem) device pages must survive eviction: the Mem device is
	// their backing store.
	p, _, _, memID := env(t, 2, TwoLevel)
	f, pid, _ := p.FixNew(memID)
	copy(f.Data(), "intermediate")
	p.Unfix(f, true)
	// Force eviction.
	for i := 0; i < 4; i++ {
		g, _, err := p.FixNew(memID)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(g, true)
	}
	f2, err := p.Fix(pid)
	if err != nil {
		t.Fatal(err)
	}
	if string(f2.Data()[:12]) != "intermediate" {
		t.Fatal("virtual page lost through eviction")
	}
	p.Unfix(f2, false)
}

func TestDiscard(t *testing.T) {
	p, reg, _, memID := env(t, 4, TwoLevel)
	f, pid, _ := p.FixNew(memID)
	if err := p.Discard(pid); err == nil {
		t.Fatal("discard of pinned page succeeded")
	}
	p.Unfix(f, true)
	if err := p.Discard(pid); err != nil {
		t.Fatal(err)
	}
	if p.Resident(pid) {
		t.Fatal("page resident after discard")
	}
	// The device still holds the page; free it there.
	d, _ := reg.Get(memID)
	if err := d.FreePage(pid.Page); err != nil {
		t.Fatal(err)
	}
	// Discard of a non-resident page is a no-op.
	if err := p.Discard(pid); err != nil {
		t.Fatal(err)
	}
}

func TestFlushPageAndFlushAll(t *testing.T) {
	p, reg, diskID, _ := env(t, 8, TwoLevel)
	f, pid, _ := p.FixNew(diskID)
	copy(f.Data(), "flushed")
	p.Unfix(f, true)
	if err := p.FlushPage(pid); err != nil {
		t.Fatal(err)
	}
	// Verify on the device directly.
	d, _ := reg.Get(diskID)
	buf := make([]byte, device.PageSize)
	if err := d.ReadPage(pid.Page, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:7]) != "flushed" {
		t.Fatal("FlushPage did not reach the device")
	}
	// Flushing a clean or absent page is a no-op.
	if err := p.FlushPage(pid); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushPage(record.PageID{Dev: diskID, Page: 999}); err != nil {
		t.Fatal(err)
	}

	g, pid2, _ := p.FixNew(diskID)
	copy(g.Data(), "all")
	p.Unfix(g, true)
	if err := p.FlushAll(diskID); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(pid2.Page, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:3]) != "all" {
		t.Fatal("FlushAll did not reach the device")
	}
}

func TestFixErrors(t *testing.T) {
	p, _, _, _ := env(t, 4, TwoLevel)
	if _, err := p.Fix(record.NilPage); err == nil {
		t.Fatal("fix of nil page succeeded")
	}
	if _, err := p.Fix(record.PageID{Dev: 99, Page: 1}); err == nil {
		t.Fatal("fix on unmounted device succeeded")
	}
	// Virtual page that was never allocated.
	if _, err := p.Fix(record.PageID{Dev: 2, Page: 123}); err == nil {
		t.Fatal("fix of unallocated virtual page succeeded")
	}
	// A failed read must not leak frames: all 4 still usable.
	var frames []*Frame
	for i := 0; i < 4; i++ {
		f, _, err := p.FixNew(2)
		if err != nil {
			t.Fatalf("frame %d unusable after failed fixes: %v", i, err)
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		p.Unfix(f, false)
	}
}

// TestConcurrentFixUnfixStress runs fixers, holders and flushers over
// twice as many pages as frames, so eviction and clean-before-steal run
// under the lock-free pin paths. Fixers fix and unfix; holders keep a
// page fixed while they Pin and UnfixN on it and hand extra pins to
// releasers, whose unfixes (some dirty) race the fixers' to reach zero;
// flushers write pages back while all of that goes on. At quiescence the
// pins balance and the LRU chain holds exactly the unpinned frames.
func TestConcurrentFixUnfixStress(t *testing.T) {
	for _, mode := range []LockMode{TwoLevel, Global} {
		p, _, diskID, _ := env(t, 32, mode)
		// Pre-create pages.
		const npages = 64
		pids := make([]record.PageID, npages)
		for i := range pids {
			f, pid, err := p.FixNew(diskID)
			if err != nil {
				t.Fatal(err)
			}
			f.Data()[0] = byte(i)
			p.Unfix(f, true)
			pids[i] = pid
		}
		// fix returns page k fixed, checking it holds what was written.
		fix := func(k int) (*Frame, bool) {
			f, err := p.Fix(pids[k])
			if err != nil {
				t.Errorf("mode %v: fix: %v", mode, err)
				return nil, false
			}
			if f.Data()[0] != byte(k) {
				t.Errorf("mode %v: wrong page contents", mode)
				p.Unfix(f, false)
				return nil, false
			}
			return f, true
		}
		const workers, holders, releasers, flushers = 8, 4, 2, 2
		var wg, rel sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					f, ok := fix((w*31 + i*7) % npages)
					if !ok {
						return
					}
					p.Unfix(f, false)
				}
			}(w)
		}
		handoff := make(chan *Frame)
		for r := 0; r < releasers; r++ {
			rel.Add(1)
			go func(r int) {
				defer rel.Done()
				i := 0
				for f := range handoff {
					p.Unfix(f, (r+i)%3 == 0)
					i++
				}
			}(r)
		}
		for h := 0; h < holders; h++ {
			wg.Add(1)
			go func(h int) {
				defer wg.Done()
				for i := 0; i < 300; i++ {
					f, ok := fix((h*17 + i*5) % npages)
					if !ok {
						return
					}
					p.Pin(f, 3)
					handoff <- f
					for j := 0; j < 4; j++ {
						p.Pin(f, 2)
						p.UnfixN(f, 2, false)
					}
					handoff <- f
					p.UnfixN(f, 2, i%4 == 0)
				}
			}(h)
		}
		stop := make(chan struct{})
		var fl sync.WaitGroup
		for k := 0; k < flushers; k++ {
			fl.Add(1)
			go func(k int) {
				defer fl.Done()
				for i := k; ; i += 3 {
					select {
					case <-stop:
						return
					default:
					}
					if err := p.FlushPage(pids[i%npages]); err != nil {
						t.Errorf("mode %v: flush: %v", mode, err)
						return
					}
					runtime.Gosched() // at -cpu 1, let the fixers run
				}
			}(k)
		}
		wg.Wait()
		close(handoff)
		rel.Wait()
		close(stop)
		fl.Wait()
		if got := p.Stats().CurrentlyFixedHint; got != 0 {
			t.Fatalf("mode %v: pin imbalance %d after stress", mode, got)
		}
		if p.PinnedFrames() != 0 {
			t.Fatalf("mode %v: frames still pinned after stress", mode)
		}
		if err := p.checkChain(); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestDaemonFlushAndReadAhead(t *testing.T) {
	p, reg, diskID, _ := env(t, 8, TwoLevel)
	if err := p.StartDaemons(2); err != nil {
		t.Fatal(err)
	}
	if err := p.StartDaemons(1); err == nil {
		t.Fatal("double StartDaemons succeeded")
	}
	f, pid, _ := p.FixNew(diskID)
	copy(f.Data(), "daemon")
	p.Unfix(f, true)
	p.RequestFlush(pid)
	p.StopDaemons() // waits for the queue to drain

	d, _ := reg.Get(diskID)
	buf := make([]byte, device.PageSize)
	if err := d.ReadPage(pid.Page, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:6]) != "daemon" {
		t.Fatal("daemon flush did not reach the device")
	}

	// Read-ahead: evict, then ask the daemon to bring the page back.
	for i := 0; i < 16; i++ {
		g, _, err := p.FixNew(diskID)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(g, true)
	}
	if p.Resident(pid) {
		t.Fatal("page still resident; eviction expected")
	}
	if err := p.StartDaemons(1); err != nil {
		t.Fatal(err)
	}
	p.RequestReadAhead(pid)
	p.StopDaemons()
	if !p.Resident(pid) {
		t.Fatal("read-ahead did not load the page")
	}
	st := p.Stats()
	if st.DaemonReads == 0 || st.DaemonWrites == 0 {
		t.Fatalf("daemon counters not advanced: %+v", st)
	}
	// With no daemon running, RequestFlush degrades to a synchronous flush
	// and RequestReadAhead to a no-op.
	p.RequestFlush(pid)
	p.RequestReadAhead(pid)
}

func TestStopDaemonsIdempotent(t *testing.T) {
	p, _, _, _ := env(t, 4, TwoLevel)
	p.StopDaemons() // no daemons: no-op
	if err := p.StartDaemons(0); err == nil {
		t.Fatal("StartDaemons(0) succeeded")
	}
}

func TestLRUOrdering(t *testing.T) {
	p, _, diskID, _ := env(t, 3, TwoLevel)
	// Create three pages a, b, c (unpinned in that order).
	mk := func() record.PageID {
		f, pid, err := p.FixNew(diskID)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f, true)
		return pid
	}
	a, b, c := mk(), mk(), mk()
	// Touch a so b becomes LRU.
	f, _ := p.Fix(a)
	p.Unfix(f, false)
	// A new page must evict b (the least recently used).
	mk()
	if !p.Resident(a) || !p.Resident(c) {
		t.Fatal("wrong victim: a or c evicted")
	}
	if p.Resident(b) {
		t.Fatal("b survived; LRU ordering broken")
	}
}

func TestPinOnUnpinnedPanics(t *testing.T) {
	p, _, diskID, _ := env(t, 4, TwoLevel)
	f, _, _ := p.FixNew(diskID)
	p.Unfix(f, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Pin on unpinned frame did not panic")
		}
	}()
	p.Pin(f, 1)
}

func TestReadAheadQueueOverflowDropsHints(t *testing.T) {
	// Flood the daemon queue; hints beyond its capacity must be dropped,
	// never block the caller.
	p, _, diskID, _ := env(t, 8, TwoLevel)
	var pids []record.PageID
	for i := 0; i < 4; i++ {
		f, pid, err := p.FixNew(diskID)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f, true)
		pids = append(pids, pid)
	}
	if err := p.StartDaemons(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			p.RequestReadAhead(pids[i%len(pids)])
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RequestReadAhead blocked")
	}
	p.StopDaemons()
}

func TestFlushAllSelectiveDevice(t *testing.T) {
	p, reg, diskID, memID := env(t, 16, TwoLevel)
	fd, pidD, _ := p.FixNew(diskID)
	copy(fd.Data(), "disk")
	p.Unfix(fd, true)
	fm, pidM, _ := p.FixNew(memID)
	copy(fm.Data(), "mem")
	p.Unfix(fm, true)
	// Flush only the disk device.
	if err := p.FlushAll(diskID); err != nil {
		t.Fatal(err)
	}
	d, _ := reg.Get(diskID)
	buf := make([]byte, device.PageSize)
	if err := d.ReadPage(pidD.Page, buf); err != nil || string(buf[:4]) != "disk" {
		t.Fatalf("disk page not flushed: %q %v", buf[:4], err)
	}
	// The mem page stays dirty in the buffer only; flushing everything
	// reaches it too.
	if err := p.FlushAll(0); err != nil {
		t.Fatal(err)
	}
	m, _ := reg.Get(memID)
	if err := m.ReadPage(pidM.Page, buf); err != nil || string(buf[:3]) != "mem" {
		t.Fatalf("mem page not flushed by FlushAll(0): %q %v", buf[:3], err)
	}
}

// BenchmarkPinUnfixHeld is the per-record pin traffic of a scan and its
// consumer: one extra pin and one clean unfix on a frame the goroutine
// already holds fixed, each goroutine on a frame of its own. Neither call
// changes the hash table or the LRU chain, so a pair should cost no more
// wall time at -cpu 2 than at -cpu 1.
func BenchmarkPinUnfixHeld(b *testing.B) {
	p, _, _, memID := env(b, 64, TwoLevel)
	b.RunParallel(func(pb *testing.PB) {
		f, _, err := p.FixNew(memID)
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			p.Pin(f, 1)
			p.Unfix(f, false)
		}
		p.Unfix(f, false)
	})
}
