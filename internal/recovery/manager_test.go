package recovery

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aets/internal/metrics"
)

func writeN(tb testing.TB, m *Manager, content string) string {
	tb.Helper()
	path, err := m.Write(func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return path
}

func TestManagerRetainsNewestK(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	m, err := OpenManager(dir, 3, reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		writeN(t, m, strings.Repeat("x", i+1))
	}
	paths, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("%d checkpoints retained, want 3", len(paths))
	}
	// Newest first: generation 5 has the longest content.
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 5 {
		t.Fatalf("newest checkpoint has %d bytes, want 5", len(data))
	}
	if v := reg.Counter("recovery_ckpt_pruned_total").Load(); v != 2 {
		t.Fatalf("pruned counter %d, want 2", v)
	}

	// Reopen: generations continue past the retained set.
	m2, err := OpenManager(dir, 3, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	p := writeN(t, m2, "later")
	newest, err := m2.Newest()
	if err != nil || newest != p {
		t.Fatalf("newest %q err %v, want %q", newest, err, p)
	}
}

func TestManagerFailedCutLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManager(dir, 0, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, m, "good")
	boom := errors.New("boom")
	if _, err := m.Write(func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Write error %v, want boom", err)
	}
	paths, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("%d checkpoints after failed cut, want 1", len(paths))
	}
	ents, _ := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix))
	if len(ents) != 0 {
		t.Fatalf("stale tmp files after failed cut: %v", ents)
	}
}

func TestManagerRemovesStaleTmpOnOpen(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ckptPrefix+"0000000000000009"+ckptSuffix+tmpSuffix)
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenManager(dir, 0, metrics.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale tmp survived open: %v", err)
	}
}

// Newest returns the newest checkpoint path, or "" when none exists.
func (m *Manager) Newest() (string, error) {
	paths, err := m.List()
	if err != nil || len(paths) == 0 {
		return "", err
	}
	return paths[0], nil
}
