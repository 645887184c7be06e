package rng

import "testing"

func TestHash64Stateless(t *testing.T) {
	if Hash64(123) != Hash64(123) {
		t.Error("Hash64 must be pure")
	}
	if Hash64(123) == Hash64(124) {
		t.Error("adjacent inputs must differ")
	}
}
