package telemetry

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSinksWrite checks that every named sink file holds exactly what
// its writer produces, that an unnamed sink writes nothing, and that a
// failure names the sink's flag.
func TestSinksWrite(t *testing.T) {
	rec := testRecording(t)
	dir := t.TempDir()
	s := Sinks{
		Trace:   filepath.Join(dir, "trace.json"),
		Events:  filepath.Join(dir, "events.jsonl"),
		Samples: filepath.Join(dir, "samples.jsonl"),
	}
	if err := s.Write(rec); err != nil {
		t.Fatal(err)
	}
	for path, write := range map[string]func(io.Writer, ...*Recording) error{
		s.Trace:   WriteChromeTrace,
		s.Events:  WriteEventsJSONL,
		s.Samples: WriteSamplesJSONL,
	} {
		var want bytes.Buffer
		if err := write(&want, rec); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s differs from its writer's output", filepath.Base(path))
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 3 {
		t.Errorf("%d files written, want 3", len(entries))
	}

	err := Sinks{Events: filepath.Join(dir, "missing", "events.jsonl")}.Write(rec)
	if err == nil || !strings.HasPrefix(err.Error(), "events-out: ") {
		t.Fatalf("Write into a missing directory: error %v, want one prefixed events-out", err)
	}
}
