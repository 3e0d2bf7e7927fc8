package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
)

// Durable state layout under Config.DataDir:
//
//	DataDir/journal/        WAL segments of the job journal
//	DataDir/store.snapshot  layered-store spill (JSON core.StoreSnapshot)
//
// The journal makes async jobs survive kill -9: every submission and
// terminal state is one WAL record, so a restarted process replays the
// log and resubmits whatever never finished from its payload — an
// evaluation is a pure function of its request, so the re-run is
// byte-identical to the uninterrupted run. The snapshot is pure
// amortisation: a cache spill written at drain and imported
// (checksum-verified) at startup.

// snapshotFile is the layered-store spill under DataDir.
const snapshotFile = "store.snapshot"

// NewDurable builds a Server whose job state survives process death,
// rooted at cfg.DataDir. With an empty DataDir it is exactly New — the
// serving path stays byte-identical with durability off. Startup order:
// open (and torn-tail-recover) the journal, import the store snapshot if
// one exists, then replay the journal and resubmit every unfinished job
// under its original ID (counted jobs.recovered).
func NewDurable(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return New(cfg), nil
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
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
	s.loadSnapshot()
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
// submission, reusing the handoff-adoption parse of its original payload.
func (s *Server) resubmitRecovered(spec cluster.JobSpec) bool {
	var jreq jobRequest
	if err := json.Unmarshal(spec.Payload, &jreq); err != nil {
		return false
	}
	op := jreq.Op
	if op == "" {
		op = "project"
	}
	epSpec, ok := endpoints[op]
	if !ok {
		return false
	}
	req, err := evalRequest(jreq.Request)
	if err != nil {
		return false
	}
	_, err = s.jobs.SubmitJob(spec, s.jobRun(epSpec, req))
	return err == nil
}

// loadSnapshot imports the layered-store spill left by a previous drain,
// if one exists. Every entry is checksum-verified on import (corrupt or
// mis-keyed entries are rejected and counted by the store); an unreadable
// snapshot file degrades to a cold cache, never a failed startup.
func (s *Server) loadSnapshot() {
	body, err := os.ReadFile(filepath.Join(s.cfg.DataDir, snapshotFile))
	if errors.Is(err, os.ErrNotExist) {
		return
	}
	if err != nil {
		s.obs.Count("server.snapshot_load_fails", 1)
		return
	}
	var snap core.StoreSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		s.obs.Count("server.snapshot_load_fails", 1)
		return
	}
	stored, _ := s.store.ImportSnapshot(&snap)
	s.obs.Count("server.snapshot_loaded", int64(stored))
}

// SaveSnapshot exports the layered store to DataDir/store.snapshot,
// atomically (tmp file, fsync, rename) so a crash mid-save leaves the
// previous snapshot intact. A no-op without a DataDir.
func (s *Server) SaveSnapshot() error {
	if s.cfg.DataDir == "" {
		return nil
	}
	body, err := json.Marshal(s.store.ExportSnapshot())
	if err != nil {
		return fmt.Errorf("server: marshal snapshot: %w", err)
	}
	path := filepath.Join(s.cfg.DataDir, snapshotFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: write snapshot: %w", err)
	}
	if _, err := f.Write(body); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: write snapshot: %w", err)
	}
	return nil
}
