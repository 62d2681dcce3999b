package tcad

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

const checkpointVersion = "tcad-checkpoint/1"

// checkpointFile is the on-disk drain snapshot: every job the daemon
// accepted but did not finish, in submission order, as re-submittable
// requests. Results and the cache are deliberately not persisted — a
// restarted daemon re-derives them deterministically.
type checkpointFile struct {
	Version string          `json:"version"`
	NextID  uint64          `json:"next_id"`
	Jobs    []checkpointJob `json:"jobs"`
}

type checkpointJob struct {
	ID        uint64 `json:"id"`
	Kind      string `json:"kind"`
	Spec      string `json:"spec,omitempty"`
	Sweep     string `json:"sweep,omitempty"`
	Priority  string `json:"priority"`
	Attempts  int    `json:"attempts"`
	MaxEvents uint64 `json:"max_events"`
	MaxHostMS int64  `json:"max_host_ms"`
}

// request converts a checkpointed job back into the submission form that
// buildJob validates, so restore re-applies current admission rules.
func (cj checkpointJob) request() Request {
	return Request{
		Spec:      cj.Spec,
		Sweep:     cj.Sweep,
		Priority:  cj.Priority,
		MaxEvents: cj.MaxEvents,
		MaxHostMS: cj.MaxHostMS,
	}
}

// checkpoint persists every unfinished job. Jobs still running count as
// pending only when the drain grace expired (includeRunning) — otherwise
// they are about to finish and will not need re-running.
func (s *Server) checkpoint(includeRunning bool) error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	s.mu.Lock()
	cp := checkpointFile{Version: checkpointVersion, NextID: s.nextID}
	for _, id := range s.order {
		j := s.jobs[id]
		pending := j.State == StateQueued || (includeRunning && j.State == StateRunning)
		if !pending {
			continue
		}
		cp.Jobs = append(cp.Jobs, checkpointJob{
			ID:        j.ID,
			Kind:      j.Kind.String(),
			Spec:      j.SpecText,
			Sweep:     j.Sweep,
			Priority:  j.Priority.String(),
			Attempts:  j.Attempts,
			MaxEvents: j.MaxEvents,
			MaxHostMS: int64(j.MaxHost.Milliseconds()),
		})
	}
	s.mu.Unlock()
	sort.Slice(cp.Jobs, func(a, b int) bool { return cp.Jobs[a].ID < cp.Jobs[b].ID })
	if len(cp.Jobs) == 0 {
		// Nothing pending: make sure no stale checkpoint survives to be
		// restored twice.
		err := os.Remove(s.cfg.CheckpointPath)
		if err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("tcad: removing empty checkpoint: %w", err)
		}
		return nil
	}
	return writeCheckpoint(s.cfg.CheckpointPath, &cp)
}

// writeCheckpoint writes atomically (tmp file + rename) so a crash
// mid-write never leaves a truncated checkpoint to choke the restart.
func writeCheckpoint(path string, cp *checkpointFile) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("tcad: encoding checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("tcad: creating checkpoint dir: %w", err)
	}
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("tcad: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("tcad: committing checkpoint: %w", err)
	}
	return nil
}

func readCheckpoint(path string) (*checkpointFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp checkpointFile
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("tcad: decoding checkpoint %s: %w", path, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("tcad: checkpoint %s has version %q, want %q", path, cp.Version, checkpointVersion)
	}
	return &cp, nil
}
