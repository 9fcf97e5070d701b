//go:build unix

package rcr

import (
	"net"
	"syscall"
)

// connLive reports whether a parked connection can carry another
// exchange: a non-blocking read must find nothing to read (EAGAIN). EOF
// means the server closed it, bytes that it is out of step; either way,
// or on any error, it must not be written to.
func connLive(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	live := false
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, rerr := syscall.Read(int(fd), b[:])
		live = rerr == syscall.EAGAIN || rerr == syscall.EWOULDBLOCK
		return true // one look; never wait for readiness
	})
	return err == nil && live
}
