// Package replaytest holds the host settings the replay gates run under.
// A run that is a pure function of its seed must come out bit-identical
// under every one of them: nothing about the host's scheduling or
// collection may reach the virtual timeline.
package replaytest

import (
	"runtime"
	"runtime/debug"
)

// Hosts are the settings — twice as the host is, once on a single P and
// once with the collector running twice as often. Set applies one and
// returns the function that restores it.
var Hosts = []struct {
	Name string
	Set  func() (restore func())
}{
	{"default", func() func() { return func() {} }},
	{"default again", func() func() { return func() {} }},
	{"GOMAXPROCS=1", func() func() {
		old := runtime.GOMAXPROCS(1)
		return func() { runtime.GOMAXPROCS(old) }
	}},
	{"GOGC=50", func() func() {
		old := debug.SetGCPercent(50)
		return func() { debug.SetGCPercent(old) }
	}},
}
