package recovery

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"aets/internal/metrics"
)

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".aets"
	tmpSuffix  = ".tmp"
	// DefaultRetain is how many checkpoints the manager keeps. More than
	// one, so a checkpoint corrupted at rest still leaves a fallback.
	DefaultRetain = 3
)

// Manager owns a directory of checkpoints with crash-safe writes:
// content goes to a *.tmp file which is fsynced, renamed into place and
// made durable with a directory fsync — a crash mid-write leaves the
// previous checkpoint set untouched. Checkpoints are named by a
// monotonically increasing generation; the manager retains the newest
// K and deletes the rest.
type Manager struct {
	dir    string
	retain int

	mu  sync.Mutex
	gen uint64 // last generation used

	cWritten *metrics.Counter
	cPruned  *metrics.Counter
}

// OpenManager opens (or creates) the checkpoint directory. retain ≤ 0
// uses DefaultRetain. Stale *.tmp files from a crashed writer are
// removed.
func OpenManager(dir string, retain int, reg *metrics.Registry) (*Manager, error) {
	if dir == "" {
		return nil, fmt.Errorf("recovery: checkpoint dir is required")
	}
	if retain <= 0 {
		retain = DefaultRetain
	}
	if reg == nil {
		reg = metrics.Default
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		dir:      dir,
		retain:   retain,
		cWritten: reg.Counter("recovery_ckpt_written_total"),
		cPruned:  reg.Counter("recovery_ckpt_pruned_total"),
	}
	gens, err := m.generations()
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		m.gen = gens[len(gens)-1]
	}
	// A *.tmp is a checkpoint that never made it: remove, never restore.
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, de := range ents {
		if strings.HasSuffix(de.Name(), tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, de.Name()))
		}
	}
	return m, nil
}

// Write cuts one checkpoint: cut streams the content (a
// checkpoint.WriteWith call, typically via htap.Node.Checkpoint), and Write
// makes it durable atomically, then prunes beyond the retention count.
// The final path is returned.
func (m *Manager) Write(cut func(w io.Writer) error) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gen := m.gen + 1
	final := m.path(gen)
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if err := cut(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := syncDir(m.dir); err != nil {
		return "", err
	}
	m.gen = gen
	m.cWritten.Inc()
	if err := m.pruneLocked(); err != nil {
		return final, err
	}
	return final, nil
}

// Retain returns how many checkpoints the manager keeps.
func (m *Manager) Retain() int { return m.retain }

// List returns the retained checkpoint paths, newest first.
func (m *Manager) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gens, err := m.generations()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(gens))
	for i := len(gens) - 1; i >= 0; i-- {
		out = append(out, m.path(gens[i]))
	}
	return out, nil
}

func (m *Manager) pruneLocked() error {
	gens, err := m.generations()
	if err != nil {
		return err
	}
	for len(gens) > m.retain {
		if err := os.Remove(m.path(gens[0])); err != nil {
			return err
		}
		m.cPruned.Inc()
		gens = gens[1:]
	}
	return nil
}

func (m *Manager) path(gen uint64) string {
	return filepath.Join(m.dir, fmt.Sprintf("%s%016d%s", ckptPrefix, gen, ckptSuffix))
}

// generations returns the stored checkpoint generations, ascending.
func (m *Manager) generations() ([]uint64, error) {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, de := range ents {
		name := de.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
