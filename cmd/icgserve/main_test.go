package main

import (
	"bytes"
	"testing"
)

// TestSelfcheckEvictionWAL runs the -selfcheck path in-process with
// dead-contact sessions, eviction and the write-ahead log armed: the
// received streams must verify against the in-process reference, exactly
// the dead sessions must be evicted, no live session may fail, and the
// log must replay every session's received stream byte for byte.
func TestSelfcheckEvictionWAL(t *testing.T) {
	dir := t.TempDir()
	f := fleet{sessions: 16, dead: 4, conns: 4, chunk: 50, duration: 40, evictBelow: 0.45}
	res, err := runSelfcheck(1, 0, dir, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.mismatched != 0 {
		t.Fatalf("%d sessions failed, %d differ from the reference", res.failed, res.mismatched)
	}
	for id := uint64(1); id <= uint64(f.sessions); id++ {
		dead := id > uint64(f.sessions-f.dead)
		if res.got.evicted[id] != dead {
			t.Errorf("session %d (dead contact %v): evicted %v", id, dead, res.got.evicted[id])
		}
	}

	logged, _, _, err := replayDirBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(res.got.m) {
		t.Fatalf("log holds %d sessions, the driver received %d", len(logged), len(res.got.m))
	}
	for id, got := range res.got.m {
		if !bytes.Equal(logged[id], got) {
			t.Errorf("session %d: log replays %d bytes, driver received %d", id, len(logged[id]), len(got))
		}
	}
}
