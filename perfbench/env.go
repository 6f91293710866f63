package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// environment is recorded with every result, so that a slower disk or a
// different machine is not read as a program regression.
type environment struct {
	NProc     int     `json:"nproc"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	FsyncMS   float64 `json:"fsync_ms"`
	RenameMS  float64 `json:"rename_over_existing_ms"`
}

// probeBytes is about the size of one 20,000-row session snapshot.
const probeBytes = 700 << 10

// probeEnv records the machine and measures the data-dir filesystem: the
// median of five fsyncs of a snapshot-sized file, and of five renames of a
// fresh file over an existing one — the two steps of every checkpoint.
func probeEnv(root, dir string) (environment, error) {
	env := environment{NProc: nproc(), GoVersion: runtime.Version(), Commit: commit(root)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return env, err
	}
	data := make([]byte, probeBytes)
	target := filepath.Join(dir, "probe.snap")
	var fsyncs, renames []float64
	for i := 0; i < 5; i++ {
		tmp := filepath.Join(dir, "probe.tmp")
		f, err := os.Create(tmp)
		if err != nil {
			return env, err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return env, err
		}
		start := time.Now()
		err = f.Sync()
		fsyncs = append(fsyncs, ms(time.Since(start)))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return env, err
		}
		start = time.Now()
		if err := os.Rename(tmp, target); err != nil {
			return env, err
		}
		if i > 0 { // the first rename has nothing to replace
			renames = append(renames, ms(time.Since(start)))
		}
	}
	env.FsyncMS = quantile(sortedCopy(fsyncs), 500)
	env.RenameMS = quantile(sortedCopy(renames), 500)
	return env, os.Remove(target)
}

// commit names the source the benchmark was built from: the VCS revision
// when the build stamped one, otherwise a digest of the source tree (a
// benchmark checkout need not be a repository).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() || filepath.Ext(path) != ".go" && d.Name() != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}
