package cluster

import (
	"encoding/json"
	"fmt"

	"repro/internal/durable"
	"repro/internal/obs"
)

// Journal is the job manager's durable lifecycle log: one WAL record per
// submission and one per terminal state a job reached on its own. A
// restarted replica replays the log, finds every job that was submitted
// but never finished — because the process was killed, or because
// Manager.Close cancelled it — and resubmits it from its payload under its
// original ID: the one recovery path. An evaluation is a pure function of
// its payload, so the re-run result is byte-identical to the one the stop
// interrupted.
//
// Journalling is strictly best-effort on the write side: a record that
// cannot be appended (disk full, injected fault, closed log) is dropped and
// counted as jobs.journal_drops rather than failing the job — durability
// must never make the serving path less available. The read side is the
// opposite: Recover trusts nothing beyond what the WAL's checksums
// admitted.
type Journal struct {
	wal *durable.WAL
	obs *obs.Scope
}

// journalRecord is the WAL body wire form, one JSON object per record.
// Journals written by earlier releases also hold per-generation search
// state and a routing group (extra record types, extra submit fields);
// decoding ignores both.
type journalRecord struct {
	// Type is "submit" or "done".
	Type string `json:"type"`
	ID   string `json:"id"`

	// Submission material (Type "submit").
	Op      string `json:"op,omitempty"`
	Payload []byte `json:"payload,omitempty"`

	// Terminal state (Type "done").
	State JobState `json:"state,omitempty"`
}

// submitRecord is the journal form of one submission.
func submitRecord(spec JobSpec) journalRecord {
	return journalRecord{Type: "submit", ID: spec.ID, Op: spec.Op, Payload: spec.Payload}
}

// OpenJournal opens (or creates) the job journal in dir, recovering any
// torn tail per the WAL's contract. opts.Obs also receives the journal's
// own jobs.journal_drops counter.
func OpenJournal(dir string, opts durable.Options) (*Journal, error) {
	w, err := durable.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return &Journal{wal: w, obs: opts.Obs}, nil
}

// append marshals and appends one record, best-effort.
func (jl *Journal) append(rec journalRecord) {
	if jl == nil {
		return
	}
	body, err := json.Marshal(rec)
	if err == nil {
		err = jl.wal.Append(body)
	}
	if err != nil {
		jl.obs.Count("jobs.journal_drops", 1)
	}
}

// RecordSubmit journals one admitted submission.
func (jl *Journal) RecordSubmit(spec JobSpec) {
	jl.append(submitRecord(spec))
}

// RecordDone journals a job's terminal state; recovery skips the job.
func (jl *Journal) RecordDone(id string, state JobState) {
	jl.append(journalRecord{Type: "done", ID: id, State: state})
}

// Recover replays the journal and returns every job that was submitted but
// never reached a terminal state, in submission order. Replay is
// idempotent by construction: a duplicate submit of a known ID is ignored,
// as is a done for an unknown ID and a record of any other type, so
// recovering twice — or recovering a log that was itself written by a
// recovered process — yields the same pending set.
func (jl *Journal) Recover() ([]JobSpec, error) {
	if jl == nil {
		return nil, nil
	}
	pending := map[string]JobSpec{}
	var order []string
	err := jl.wal.Replay(func(body []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(body, &rec); err != nil || rec.ID == "" {
			return nil // an unreadable record is skipped, not fatal
		}
		switch rec.Type {
		case "submit":
			if _, ok := pending[rec.ID]; ok {
				return nil
			}
			pending[rec.ID] = JobSpec{ID: rec.ID, Op: rec.Op, Payload: rec.Payload}
			order = append(order, rec.ID)
		case "done":
			delete(pending, rec.ID)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: journal replay: %w", err)
	}
	out := make([]JobSpec, 0, len(pending))
	for _, id := range order {
		if spec, ok := pending[id]; ok {
			out = append(out, spec)
		}
	}
	return out, nil
}

// Compact rewrites the journal down to one submit record per still-pending
// job, dropping the finished jobs' history — the startup housekeeping that
// keeps replay time bounded.
func (jl *Journal) Compact(pending []JobSpec) error {
	if jl == nil {
		return nil
	}
	records := make([][]byte, 0, len(pending))
	for _, spec := range pending {
		body, err := json.Marshal(submitRecord(spec))
		if err != nil {
			jl.obs.Count("jobs.journal_drops", 1)
			continue
		}
		records = append(records, body)
	}
	return jl.wal.Compact(records)
}

// Close flushes and closes the journal.
func (jl *Journal) Close() error {
	if jl == nil {
		return nil
	}
	return jl.wal.Close()
}
