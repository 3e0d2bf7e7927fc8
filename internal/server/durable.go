package server

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/durable"
)

// Durable state layout under Config.DataDir:
//
//	DataDir/journal/  WAL segments of the job journal
//
// That is all of it. The journal keeps a job re-runnable: every submission
// and every terminal state a job reached on its own is one WAL record, so
// a restarted process replays the log and resubmits whatever never
// finished from its payload — an evaluation is a pure function of its
// request, so the re-run is byte-identical to the uninterrupted run.
// Nothing is written at shutdown, so it does not matter how the previous
// process ended. Characterisation (§2.2's do-once artifact) lives only in
// the store's memory: a restart is a cold start, and the first request
// for each machine pair rebuilds its tables on demand exactly as on a
// fresh replica.
//
// Files left in DataDir by an earlier release — a store.snapshot, a
// characterisation/ directory of table files — are neither read nor
// removed.

// NewDurable builds a Server whose jobs survive process death, rooted at
// cfg.DataDir. With an empty DataDir it is exactly New — the serving path
// stays byte-identical with durability off. Startup order: open (and
// torn-tail-recover) the journal, then replay it and resubmit every
// unfinished job under its original ID (counted jobs.recovered).
func NewDurable(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return New(cfg), nil
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
	epSpec, req, err := jreq.resolve()
	if err != nil {
		return false
	}
	_, err = s.jobs.SubmitJob(spec, s.jobRun(epSpec, req, s.timeoutFor(jreq.Request)))
	return err == nil
}
