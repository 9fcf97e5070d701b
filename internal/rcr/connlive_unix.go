//go:build unix

package rcr

import (
	"net"
	"syscall"
)

// rawConn returns conn's descriptor for non-blocking I/O, or nil when it
// has none.
func rawConn(conn net.Conn) syscall.RawConn {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	return rc
}

// probeLive is a parked connection's liveness probe, run by its
// RawConn's Read: one non-blocking read must find nothing to read
// (EAGAIN). EOF means the server closed it, bytes that it is out of
// step; either way, or on any error, it must not be written to.
func (cc *clientConn) probeLive(fd uintptr) bool {
	_, err := syscall.Read(int(fd), cc.peek[:])
	cc.live = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
	return true // one look; never wait for readiness
}

// writeNow issues one write(2) of b on a non-blocking fd. A socket with
// no room (EAGAIN) or an interrupted call reports 0 bytes and no error;
// the caller queues what is left.
func writeNow(fd uintptr, b []byte) (int, error) {
	n, err := syscall.Write(int(fd), b)
	if err == nil {
		return n, nil
	}
	if err == syscall.EAGAIN || err == syscall.EWOULDBLOCK || err == syscall.EINTR {
		return 0, nil
	}
	return 0, err
}
