package discsp_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/discsp/discsp"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestSyncTelemetryGolden pins the exact schema-2 stream bytes of a seeded
// synchronous Solve — meta, every cycle event, per-agent totals, the end
// verdict, and the metrics snapshot. The stream is the single event format
// every surface reads, so any change to what a sync run emits, or in what
// order, shows up here byte for byte.
func TestSyncTelemetryGolden(t *testing.T) {
	p := hardColoring(t)
	var stream bytes.Buffer
	tel := discsp.NewTelemetry(discsp.NewMetricsRegistry(), &stream)
	if _, err := discsp.Solve(p, discsp.Options{InitialSeed: 11, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	if err := tel.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "sync_telemetry.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, stream.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s (run with -update-golden to create): %v", path, err)
	}
	if !bytes.Equal(stream.Bytes(), want) {
		t.Errorf("sync telemetry stream differs from %s (%d bytes, want %d)", path, stream.Len(), len(want))
	}
}
