package config

import (
	"bytes"
	"testing"
)

// FuzzAdmissionConfig throws arbitrary bytes at the strict parser. The
// invariants: Parse never panics; when it accepts, Validate never
// panics, and the canonical WriteTo form re-parses to the identical
// config and is a byte-level fixed point — the contract the admin API's
// GET→edit→POST loop depends on.
func FuzzAdmissionConfig(f *testing.F) {
	var def bytes.Buffer
	Default().WriteTo(&def)
	f.Add(def.Bytes())
	f.Add([]byte("limits:\n  global_qps: 100\n  global_burst: 10\n"))
	f.Add([]byte("server:\n  addr: \"0.0.0.0:0\" # comment\n"))
	f.Add([]byte("shed:\n  high_water: 0.95\n  low_water: 0.2\n"))
	f.Add([]byte("queues:\n  slots: 1\njunk:\n"))
	f.Add([]byte("align:\n  fault_rate: 1e309\n"))
	f.Add([]byte("  orphan: 1\n"))
	f.Add([]byte("queues:\n  slots: 1\n  slots: 64\nshed:\nqueues:\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		_ = c.Validate() // may refuse, must not panic
		var canon bytes.Buffer
		if _, err := c.WriteTo(&canon); err != nil {
			t.Fatalf("WriteTo failed on a parsed config: %v", err)
		}
		c2, err := Parse(canon.Bytes())
		if err != nil {
			t.Fatalf("canonical form does not re-parse: %v\n%s", err, canon.String())
		}
		if *c2 != *c {
			t.Fatalf("canonical round trip diverged:\n got %+v\nwant %+v\nform:\n%s", *c2, *c, canon.String())
		}
		var canon2 bytes.Buffer
		c2.WriteTo(&canon2)
		if !bytes.Equal(canon.Bytes(), canon2.Bytes()) {
			t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", canon.String(), canon2.String())
		}
	})
}
