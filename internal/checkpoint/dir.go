package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Checkpoint files are named ck-<sim seconds, zero-padded>.df3ck so a
// lexicographic sort is a sim-time sort. The zero-padding covers sim times
// up to 10^12 s (≈ 31700 years), far past any scenario horizon.

// FileExt is the checkpoint file extension.
const FileExt = ".df3ck"

// FileName returns the canonical name for a snapshot at sim time t.
func FileName(t float64) string {
	return fmt.Sprintf("ck-%013.0f%s", t, FileExt)
}

// WriteAtomic durably stores a snapshot in dir: write to a temp file,
// fsync it, rename into place, fsync the directory. A crash at any point
// leaves either the previous state or a complete, valid new file — never
// a half-written checkpoint under the canonical name (half-written temp
// files are invisible to Latest and harmless).
func WriteAtomic(dir string, s *Snapshot) (path string, err error) {
	path = filepath.Join(dir, FileName(float64(s.Meta.SimTime)))
	tmp, err := os.CreateTemp(dir, "ck-*.tmp")
	if err != nil {
		return "", err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if err = s.Encode(tmp); err != nil {
		tmp.Close()
		return "", err
	}
	if err = tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err = tmp.Close(); err != nil {
		return "", err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	if d, derr := os.Open(dir); derr == nil {
		// Directory fsync makes the rename itself durable; best-effort on
		// filesystems that refuse it.
		_ = d.Sync()
		_ = d.Close()
	}
	return path, nil
}

// Latest returns the newest valid snapshot in dir, its path, and the list
// of checkpoint files that were skipped as truncated or corrupt (newest
// first). A missing or empty directory returns fs.ErrNotExist.
func Latest(dir string) (s *Snapshot, path string, skipped []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "ck-") && strings.HasSuffix(e.Name(), FileExt) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, "", nil, fmt.Errorf("no checkpoints in %s: %w", dir, fs.ErrNotExist)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	for _, name := range names {
		p := filepath.Join(dir, name)
		snap, rerr := readFile(p)
		if rerr != nil {
			if errors.Is(rerr, ErrCorrupt) || errors.Is(rerr, ErrTruncated) {
				skipped = append(skipped, name)
				continue
			}
			return nil, "", skipped, rerr
		}
		return snap, p, skipped, nil
	}
	return nil, "", skipped, fmt.Errorf("all %d checkpoints in %s invalid: %w", len(names), dir, ErrCorrupt)
}

// readFile loads one snapshot from disk.
func readFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
