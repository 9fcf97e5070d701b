package rcr

import (
	"encoding/binary"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/resilience/leak"
)

func startServer(t *testing.T, bb *Blackboard, clock Clock) string {
	t.Helper()
	sock := filepath.Join(t.TempDir(), "rcrd.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(bb, clock, ln)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	})
	return sock
}

func TestServerQueryRoundTrip(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(2, 2)
	bb.SetSystem(MeterPower, 141.7, 3*time.Second)
	bb.SetSocket(0, MeterEnergy, 6860, 3*time.Second)
	clock := &fakeClock{now: 3 * time.Second}
	sock := startServer(t, bb, clock)

	got, err := Query("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(bb, 3*time.Second)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Query mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestServerMultipleClients(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	bb.SetSystem(MeterEnergy, 42, 0)
	sock := startServer(t, bb, &fakeClock{})
	for i := 0; i < 5; i++ {
		s, err := Query("unix", sock)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(s.System) != 1 || s.System[0].Value != 42 {
			t.Fatalf("query %d returned %+v", i, s.System)
		}
	}
}

func TestServerIgnoresBadRequest(t *testing.T) {
	leak.Check(t)
	bb, _ := NewBlackboard(1, 1)
	sock := startServer(t, bb, &fakeClock{})
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("BAD\n")); err != nil {
		t.Fatal(err)
	}
	// Server closes without a payload.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if n, _ := conn.Read(buf); n != 0 {
		t.Errorf("server responded to bad request with %d bytes", n)
	}
}

func TestQueryErrors(t *testing.T) {
	if _, err := Query("unix", filepath.Join(t.TempDir(), "absent.sock")); err == nil {
		t.Error("Query to absent socket succeeded")
	}
}

func TestQueryRejectsHugeHeader(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "evil.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req := make([]byte, 4)
		if _, err := conn.Read(req); err != nil {
			return
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 1<<31)
		if _, err := conn.Write(hdr[:]); err != nil {
			return
		}
	}()
	if _, err := Query("unix", sock); err == nil {
		t.Error("Query accepted implausible snapshot size")
	}
}
