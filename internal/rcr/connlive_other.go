//go:build !unix

package rcr

import (
	"net"
	"syscall"
)

// rawConn has no non-blocking descriptor to offer here: publishers
// always queue for the subscriber's writer.
func rawConn(net.Conn) syscall.RawConn { return nil }

// probeLive is never reached: rawConn returns nil, so no parked
// connection is ever trusted and every exchange dials.
func (cc *clientConn) probeLive(uintptr) bool { return true }

// writeNow is never reached: rawConn returns nil.
func writeNow(uintptr, []byte) (int, error) { return 0, nil }
