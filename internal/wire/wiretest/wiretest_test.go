package wiretest

import (
	"errors"
	"fmt"
	"testing"
)

// recorder is a testing.TB that records a Fatalf instead of failing.
type recorder struct {
	testing.TB
	failure string
}

func (r *recorder) Helper() {}
func (r *recorder) Fatalf(format string, args ...any) {
	r.failure = fmt.Sprintf(format, args...)
	panic(r)
}

// check runs Canonical against a recorder and returns what it reported.
func check(data []byte, recode func([]byte) ([]byte, error)) (accepted bool, failure string) {
	rec := &recorder{}
	defer func() {
		if p := recover(); p != nil && p != any(rec) {
			panic(p)
		}
		failure = rec.failure
	}()
	return Canonical(rec, data, recode), ""
}

// The toy format: a length byte, then that many bytes.
func strict(b []byte) ([]byte, error) {
	if len(b) == 0 || int(b[0]) != len(b)-1 {
		return nil, errors.New("bad length")
	}
	return append([]byte(nil), b...), nil
}

func TestCanonical(t *testing.T) {
	good := []byte{3, 'a', 'b', 'c'}
	if ok, failure := check(good, strict); !ok || failure != "" {
		t.Errorf("a canonical codec: accepted %v, failure %q", ok, failure)
	}
	if ok, failure := check(good[:3], strict); ok || failure != "" {
		t.Errorf("a rejected input: accepted %v, failure %q", ok, failure)
	}
	// A decoder with a second spelling: it ignores the length byte's top bit.
	lax := func(b []byte) ([]byte, error) {
		if len(b) == 0 {
			return nil, errors.New("empty")
		}
		out, err := strict(append([]byte{b[0] &^ 0x80}, b[1:]...))
		return out, err
	}
	if _, failure := check([]byte{0x83, 'a', 'b', 'c'}, lax); failure == "" {
		t.Error("a non-canonical accept went unreported")
	}
	// A decoder that does not notice a missing tail.
	loose := func(b []byte) ([]byte, error) {
		if len(b) == 0 {
			return nil, errors.New("empty")
		}
		return append([]byte(nil), b...), nil
	}
	if _, failure := check(good, loose); failure == "" {
		t.Error("an accepted prefix went unreported")
	}
}
