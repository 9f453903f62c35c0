package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/p4"
	"repro/internal/p4rt"
)

// slowDP models a device whose Write has wire latency, so the benefit of
// fanning writes out across devices is visible as wall-clock time.
type slowDP struct {
	latency time.Duration
	fail    error

	mu     sync.Mutex
	writes [][]p4rt.Update
}

func (d *slowDP) GetP4Info() (*p4.P4Info, error) { return nil, nil }
func (d *slowDP) OnDigest(func(p4rt.DigestList)) {}

func (d *slowDP) Write(updates ...p4rt.Update) error {
	if d.latency > 0 {
		time.Sleep(d.latency)
	}
	if d.fail != nil {
		return d.fail
	}
	d.mu.Lock()
	d.writes = append(d.writes, updates)
	d.mu.Unlock()
	return nil
}

func deviceWrites(n, batches int, fail map[int]error) ([]*devWrite, []*slowDP) {
	writes := make([]*devWrite, n)
	dps := make([]*slowDP, n)
	for i := range writes {
		dps[i] = &slowDP{latency: 50 * time.Microsecond, fail: fail[i]}
		dw := &devWrite{dp: dps[i]}
		for b := 0; b < batches; b++ {
			dw.batches = append(dw.batches, []p4rt.Update{
				p4rt.InsertEntry(p4rt.TableEntry{Table: fmt.Sprintf("t%d", b)}),
			})
		}
		writes[i] = dw
	}
	return writes, dps
}

// TestWriteDevicesOrderingAndBarrier: every device must receive its whole
// batch stream, in order, before writeDevices returns, at any worker
// count (run under -race this also exercises the fan-out for data races).
func TestWriteDevicesOrderingAndBarrier(t *testing.T) {
	for _, pw := range []int{1, 2, 8, 64} {
		c := &Controller{}
		writes, dps := deviceWrites(16, 5, nil)
		if err := c.writeDevices(writes, pw); err != nil {
			t.Fatalf("workers=%d: %v", pw, err)
		}
		for i, dp := range dps {
			if len(dp.writes) != 5 {
				t.Fatalf("workers=%d: device %d got %d batches, want 5", pw, i, len(dp.writes))
			}
			for b, w := range dp.writes {
				if want := fmt.Sprintf("t%d", b); w[0].Entry.Table != want {
					t.Fatalf("workers=%d: device %d batch %d hit table %s, want %s",
						pw, i, b, w[0].Entry.Table, want)
				}
			}
		}
	}
}

// TestWriteDevicesFirstError: with several failing devices the reported
// error must deterministically be the first failing device's in delta
// order, regardless of which goroutine hit its error first.
func TestWriteDevicesFirstError(t *testing.T) {
	errA, errB := errors.New("dev3"), errors.New("dev11")
	for _, pw := range []int{1, 2, 8} {
		c := &Controller{}
		writes, _ := deviceWrites(16, 3, map[int]error{3: errA, 11: errB})
		if err := c.writeDevices(writes, pw); !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got error %v, want %v", pw, err, errA)
		}
	}
}

// BenchmarkConcurrentDeviceWrite measures a push touching many devices at
// several fan-out widths. Each device write carries simulated wire
// latency, so unlike the CPU-bound engine benchmarks the speedup here is
// observable even with GOMAXPROCS=1 (goroutines overlap sleeps).
func BenchmarkConcurrentDeviceWrite(b *testing.B) {
	const devices, batches = 32, 4
	for _, pw := range []int{1, 4, 16, 32} {
		b.Run(fmt.Sprintf("pushworkers-%d", pw), func(b *testing.B) {
			c := &Controller{}
			writes, dps := deviceWrites(devices, batches, nil)
			var total atomic.Int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.writeDevices(writes, pw); err != nil {
					b.Fatal(err)
				}
				total.Add(int64(devices))
			}
			b.StopTimer()
			for _, dp := range dps {
				dp.writes = nil
			}
			_ = total.Load()
		})
	}
}
