package telemetry

import (
	"fmt"
	"io"
	"os"
)

// Sinks names the files a run's recordings are exported to; an empty
// name skips that export. Each field is set by the command-line flag
// its Write errors are prefixed with.
type Sinks struct {
	Trace   string // -trace-out: Chrome trace-event timeline
	Events  string // -events-out: event stream as JSON lines
	Samples string // -sample-out: gauge series as JSON lines
	Hists   string // -hist-out: attribution histogram summaries as JSON lines
}

// Write exports recs to every named file, in field order, and stops at
// the first failure.
func (s Sinks) Write(recs ...*Recording) error {
	for _, sink := range []struct {
		flag, path string
		write      func(io.Writer, ...*Recording) error
	}{
		{"trace-out", s.Trace, WriteChromeTrace},
		{"events-out", s.Events, WriteEventsJSONL},
		{"sample-out", s.Samples, WriteSamplesJSONL},
		{"hist-out", s.Hists, WriteHistsJSONL},
	} {
		if sink.path == "" {
			continue
		}
		f, err := os.Create(sink.path)
		if err == nil {
			err = sink.write(f, recs...)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", sink.flag, err)
		}
	}
	return nil
}
