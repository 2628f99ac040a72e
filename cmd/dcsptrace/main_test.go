package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/telemetry"
)

// writeFixture drops content into a temp file and returns its path.
func writeFixture(t *testing.T, name string, content []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tornTail drops the stream's closing events — the shape a writer that
// died mid-run (or a torn filesystem tail) leaves behind. The JSONL stays
// well-formed; only the terminator lines are gone (a telemetry stream
// closes with an end event plus a metrics snapshot, so both are torn).
func tornTail(t *testing.T, stream []byte) []byte {
	t.Helper()
	out := stream
	for {
		trimmed := bytes.TrimSuffix(out, []byte("\n"))
		i := bytes.LastIndexByte(trimmed, '\n')
		if i < 0 {
			t.Fatal("tore the fixture down to a single line")
		}
		last := trimmed[i:]
		out = trimmed[:i+1]
		if bytes.Contains(last, []byte(`"kind":"end"`)) ||
			bytes.Contains(last, []byte(`"kind":"snapshot"`)) {
			continue
		}
		return out
	}
}

// solveStream produces a telemetry stream from one real solve, so the
// fixture is byte-genuine writer output.
func solveStream(t *testing.T) []byte {
	t.Helper()
	col, err := discsp.GenerateColoring(8, 12, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tel := discsp.NewTelemetry(nil, &buf)
	if _, err := discsp.Solve(col.Problem, discsp.Options{InitialSeed: 3, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	if err := tel.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyTrace is a complete stream in the v1 cycle-trace format the
// removed dcspsolve -trace flag wrote.
var legacyTrace = []byte(`{"kind":"start","algorithm":"AWC/rslv","vars":8,"nogoods":36}
{"kind":"cycle","cycle":1,"messagesIn":24,"messagesOut":10,"maxChecks":9}
{"kind":"cycle","cycle":2,"messagesIn":10,"messagesOut":4,"maxChecks":6,"solutionFound":true}
{"kind":"end","solutionFound":true,"cycles":2,"maxcck":15,"totalChecks":61,"messages":34}
`)

func TestAnalyzeAcceptsCompleteStreams(t *testing.T) {
	tel := solveStream(t)
	if err := analyze(writeFixture(t, "tel.jsonl", tel), analysis{}); err != nil {
		t.Errorf("complete telemetry stream refused: %v", err)
	}
	if err := analyze(writeFixture(t, "tel.jsonl", tel), analysis{cycles: true}); err != nil {
		t.Errorf("per-cycle table refused: %v", err)
	}
}

// TestAnalyzeRefusesTornTails: a stream whose tail was torn exits with the
// reader's versioned truncation error instead of rendering a silently
// partial table.
func TestAnalyzeRefusesTornTails(t *testing.T) {
	tel := solveStream(t)
	err := analyze(writeFixture(t, "tel-torn.jsonl", tornTail(t, tel)), analysis{})
	if !errors.Is(err, telemetry.ErrTruncatedStream) {
		t.Errorf("torn telemetry stream: want ErrTruncatedStream, got %v", err)
	}
}

// TestAnalyzeRefusesLegacyTrace: a v1 cycle trace fails with the versioned
// legacy-trace error naming the flag that replaced it, not a field-level
// decode error.
func TestAnalyzeRefusesLegacyTrace(t *testing.T) {
	err := analyze(writeFixture(t, "v1.jsonl", legacyTrace), analysis{})
	if !errors.Is(err, telemetry.ErrLegacyTrace) {
		t.Errorf("want ErrLegacyTrace, got %v", err)
	}
}

// TestAnalyzeCausalOnLegacyTrace: asking a v1 cycle trace for causal
// analyses fails with the same versioned legacy-trace error.
func TestAnalyzeCausalOnLegacyTrace(t *testing.T) {
	err := analyze(writeFixture(t, "v1.jsonl", legacyTrace), analysis{critical: true})
	if !errors.Is(err, telemetry.ErrLegacyTrace) {
		t.Errorf("want ErrLegacyTrace, got %v", err)
	}
}
