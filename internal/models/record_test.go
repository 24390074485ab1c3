package models

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestRecordingBytesPinned pins the JSON every model's generated recording
// saves to, through its SHA-256: the routing's in-memory element type may
// change, but a recording written by any version must stay byte for byte
// the same file, so old recordings replay and new ones diff cleanly.
func TestRecordingBytesPinned(t *testing.T) {
	want := map[string]string{
		"skipnet":   "47dc9212ba6a04ee034e0c70103f7e58bda48d9352683fcc906e45a9e0540467",
		"pabee":     "d92e9e637e874e774fec595f2fa334803a37f2bd0a601eeb17b2bb6a80662c67",
		"fbsnet":    "9d9c3e8da36f17e8f050ea91c774ce67857fad29c4678834ffb74dc004a60eba",
		"tutel-moe": "e8343a204fe7aa4c92ed4a250d77d944f88decb72ce1f2e6dbf5160b63871617",
		"dpsnet":    "fd52273d93da6352567a9018cb3727543ebc6708157fc23444c8764cb269a90b",
		"adavit":    "434cb7a6ebc7969b192a0f3b546d7c4d2dbb2717f331cd79b19fa6770dce8b98",
		"ranet":     "913529d484782f5c116ba80a085a358d51f9e4f8bea8ffe6d67851f2dec88367",
		"gcn":       "3757e3328a5fac1cf787a16a3c654c57aa4fbde749efc9a76f2870096d37e193",
	}
	for name, digest := range want {
		w, err := ByName(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		batches := w.GenTrace(workload.NewSource(3), 6, 16)
		var buf bytes.Buffer
		if err := workload.Record(w.Graph, name, 16, 3, batches).Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != digest {
			t.Errorf("%s: recording sha256 %s, want %s", name, got, digest)
		}
	}
}

// TestRecordReplayReturnsTrace records every model's generated trace, saves
// and loads it, and replays it on the model's graph: the replay is the
// generated trace, switch ordinals and all.
func TestRecordReplayReturnsTrace(t *testing.T) {
	for _, name := range append(Names(), "adavit", "ranet", "gcn") {
		w, err := ByName(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		batches := w.GenTrace(workload.NewSource(3), 6, 16)
		var buf bytes.Buffer
		if err := workload.Record(w.Graph, name, 16, 3, batches).Save(&buf); err != nil {
			t.Fatal(err)
		}
		rec, err := workload.LoadRecording(&buf)
		if err != nil {
			t.Fatal(err)
		}
		replayed, err := rec.Replay(w.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replayed, batches) {
			t.Errorf("%s: the replayed trace differs from the generated one", name)
		}
	}
}
