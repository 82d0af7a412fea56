package seq

import (
	"math/rand"
	"testing"
)

func FuzzFromStringPackRoundTrip(f *testing.F) {
	f.Add("ACGTacgtNNN")
	f.Add("")
	f.Add("A>CGT")
	f.Fuzz(func(t *testing.T, in string) {
		s, err := FromString(in, rand.New(rand.NewSource(1)))
		if err != nil {
			return // invalid characters rejected: fine
		}
		if len(s) != len(in) {
			t.Fatalf("length changed: %d vs %d", len(s), len(in))
		}
		back, err := FromString(s.String(), nil)
		if err != nil || !back.Equal(s) {
			t.Fatalf("FromString(String()) round trip failed: %v", err)
		}
	})
}
