package soak

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience/leak"
	"repro/internal/telemetry"
)

// TestServerStartStopRaces: two drivers powering the same node on (a
// delayed join racing a re-join in the cluster runner) must leave one
// incarnation, and a Stop racing a Start must not miss the incarnation
// Start brings up — either way the next Stop leaves nothing serving,
// which the leak gate and the dead socket prove.
func TestServerStartStopRaces(t *testing.T) {
	leak.Check(t)
	srv := &Server{
		Socket: filepath.Join(t.TempDir(), "s.sock"),
		Clock:  NewHostClock(),
		Reg:    telemetry.NewRegistry(),
	}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if err := srv.Start(); err != nil {
					t.Errorf("start: %v", err)
				}
			}()
			go func() {
				defer wg.Done()
				srv.Stop()
			}()
		}
		wg.Wait()
		if err := srv.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		if err := srv.Start(); err != nil {
			t.Fatalf("second start of an up server: %v", err)
		}
		c, err := net.DialTimeout("unix", srv.Socket, time.Second)
		if err != nil {
			t.Fatalf("round %d: started server not reachable: %v", round, err)
		}
		c.Close()
		srv.Stop()
		if srv.Up() {
			t.Fatal("up after Stop")
		}
		if c, err := net.DialTimeout("unix", srv.Socket, 50*time.Millisecond); err == nil {
			c.Close()
			t.Fatalf("round %d: socket still accepting after Stop", round)
		}
	}
}
