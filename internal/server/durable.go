package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/durable"
)

// Durable state layout under Config.DataDir:
//
//	DataDir/journal/           WAL segments of the job journal
//	DataDir/characterisation/  one file per SPEC result set and IMB table
//
// The two halves persist different things for different reasons. The
// characterisation files are the expensive, do-once artifact (§2.2): each
// is written as its table is built and read back, verified, the first time
// a later process misses on it (see core/charfile.go), so a restart costs
// file reads where a cold start costs seconds of simulation. The journal
// keeps the cheap part re-runnable: every submission and every terminal
// state a job reached on its own is one WAL record, so a restarted process
// replays the log and resubmits whatever never finished from its payload —
// an evaluation is a pure function of its request, so the re-run is
// byte-identical to the uninterrupted run. Neither half is written at
// shutdown, so it does not matter how the previous process ended.
//
// A store.snapshot file left in DataDir by an earlier release is neither
// read nor removed.

// NewDurable builds a Server whose state survives process death, rooted
// at cfg.DataDir. With an empty DataDir it is exactly New — the serving
// path stays byte-identical with durability off. Startup order: open (and
// torn-tail-recover) the journal, point the store at the characterisation
// directory (no file is read until a request misses on it), then replay
// the journal and resubmit every unfinished job under its original ID
// (counted jobs.recovered).
func NewDurable(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return New(cfg), nil
	}
	cfg.charDir = filepath.Join(cfg.DataDir, "characterisation")
	if err := os.MkdirAll(cfg.charDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create data dir: %w", err)
	}
	jl, err := cluster.OpenJournal(filepath.Join(cfg.DataDir, "journal"), durable.Options{
		SyncEvery: cfg.WALSyncEvery,
		Obs:       cfg.Obs,
	})
	if err != nil {
		return nil, fmt.Errorf("server: open job journal: %w", err)
	}
	cfg.journal = jl
	s := New(cfg)
	if err := s.recoverJobs(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// recoverJobs replays the journal, compacts it down to the still-pending
// submissions, and resubmits each pending job under its original ID. A
// job whose payload no longer parses — or that the admission bound
// rejects — is dropped and counted; recovery must never wedge startup on
// one bad record.
func (s *Server) recoverJobs() error {
	pending, err := s.journal.Recover()
	if err != nil {
		return fmt.Errorf("server: job recovery: %w", err)
	}
	if err := s.journal.Compact(pending); err != nil {
		// Compaction is housekeeping: a failure costs replay time on the
		// next start, not correctness.
		s.obs.Count("jobs.journal_compact_fails", 1)
	}
	for _, spec := range pending {
		if s.resubmitRecovered(spec) {
			s.obs.Count("jobs.recovered", 1)
		} else {
			s.obs.Count("jobs.recover_drops", 1)
		}
	}
	return nil
}

// resubmitRecovered turns one journalled pending job back into a live
// submission from its original payload.
func (s *Server) resubmitRecovered(spec cluster.JobSpec) bool {
	var jreq jobRequest
	if err := json.Unmarshal(spec.Payload, &jreq); err != nil {
		return false
	}
	_, epSpec, req, err := jreq.resolve()
	if err != nil {
		return false
	}
	_, err = s.jobs.SubmitJob(spec, s.jobRun(epSpec, req))
	return err == nil
}
