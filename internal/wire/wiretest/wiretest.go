// Package wiretest holds the two checks every frame codec is held to:
// the canonical-codec property (fuzzed) and the golden frames that pin
// the bytes on the wire.
package wiretest

import (
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
)

// Canonical checks one decoder on one input. recode decodes data and,
// if it accepts, returns the re-encoding. It must not panic on any
// input; an accepted input must re-encode to the identical bytes; and
// no proper prefix of an accepted input may be accepted, because every
// frame states its own length. Canonical reports whether data was
// accepted, for the caller's own checks on the decoded value.
func Canonical(t testing.TB, data []byte, recode func([]byte) ([]byte, error)) bool {
	t.Helper()
	out, err := recode(data)
	if err != nil {
		return false
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("accepted frame does not re-encode to itself:\n in %x\nout %x", data, out)
	}
	// Every prefix of a frame under 4 KiB, evenly spaced ones of a larger
	// frame: the check stays linear in what the fuzzer can grow.
	for n := len(data) - 1; n >= 0; n -= 1 + len(data)/4096 {
		if _, err := recode(data[:n]); err == nil {
			t.Fatalf("%d-byte prefix of an accepted %d-byte frame decodes", n, len(data))
		}
	}
	return true
}

// Golden reads a golden-frame file: '#' comment lines, then one
// "<name> <hex>" line per frame, as an earlier commit's encoders
// produced them. The file pins the bytes on the wire; regenerating it
// from the code under test defeats it.
func Golden(t *testing.T, path string) map[string][]byte {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string][]byte)
	for _, line := range strings.Split(string(text), "\n") {
		if name, enc, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if golden[name], err = hex.DecodeString(enc); err != nil {
				t.Fatalf("%s: frame %s: %v", path, name, err)
			}
		}
	}
	return golden
}

// Frame holds one codec to its golden frame: enc, the encoding of
// fixture, must be the golden bytes, and dec must decode those bytes to
// a value reflect.DeepEqual to fixture.
func Frame[T any](t *testing.T, golden map[string][]byte, name string, fixture T, enc []byte, dec func([]byte) (T, error)) {
	t.Helper()
	want, ok := golden[name]
	if !ok {
		t.Errorf("%s: no golden frame", name)
	} else if !bytes.Equal(enc, want) {
		t.Errorf("%s: encoder moved a byte:\n got %x\nwant %x", name, enc, want)
	} else if got, err := dec(want); err != nil {
		t.Errorf("%s: golden frame rejected: %v", name, err)
	} else if !reflect.DeepEqual(got, fixture) {
		t.Errorf("%s: decoded %+v, want %+v", name, got, fixture)
	}
}

// Into adapts a decoder that fills its caller's frame to the
// value-returning shape Frame takes, decoding into a fresh T.
func Into[T any](dec func([]byte, *T) error) func([]byte) (T, error) {
	return func(b []byte) (f T, err error) {
		err = dec(b, &f)
		return f, err
	}
}
