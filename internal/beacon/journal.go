package beacon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// ReplayStats summarises a journal replay.
type ReplayStats struct {
	// Replayed counts events successfully submitted to the sink.
	Replayed int
	// Skipped counts undecodable or invalid lines (e.g. a torn final
	// write after a crash); replay continues past them.
	Skipped int
}

// ReplayJournal streams a JSONL journal — the single-file format the
// collector wrote before the WAL replaced it — into a sink; qtag-replay
// reads old journal files through it. Corrupt lines are skipped and
// counted rather than aborting the replay — a torn tail write must not
// make the whole journal unreadable.
func ReplayJournal(r io.Reader, sink Sink) (ReplayStats, error) {
	var st ReplayStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			st.Skipped++
			continue
		}
		if err := sink.Submit(e); err != nil {
			st.Skipped++
			continue
		}
		st.Replayed++
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("beacon: journal read: %w", err)
	}
	return st, nil
}

// Tee returns a Sink fanning every event to all sinks in order. The
// first error aborts the fan-out and is returned; earlier sinks have
// already ingested the event, which is safe because ingestion is
// idempotent everywhere in this package.
func Tee(sinks ...Sink) Sink {
	return SinkFunc(func(e Event) error {
		for _, s := range sinks {
			if err := s.Submit(e); err != nil {
				return err
			}
		}
		return nil
	})
}
