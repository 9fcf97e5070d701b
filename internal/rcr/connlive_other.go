//go:build !unix

package rcr

import "net"

// connLive has no non-blocking probe here, so no parked connection is
// ever trusted and every exchange dials.
func connLive(net.Conn) bool { return false }
