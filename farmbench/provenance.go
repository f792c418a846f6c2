package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// prov records where a result came from. It is printed on the line before
// the result, so every stored result can carry it.
type prov struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"coordinator_workers"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	// Source is a digest of the Go sources and module files the binary was
	// built from, which identifies the code when there is no git checkout.
	Source string `json:"source_sha256"`
	// Digest is the journal digest of the verification window, the same
	// for every build of the seed.
	Digest string `json:"journal_sha256"`
}

// provenance describes this run, refusing to run with more GOMAXPROCS or
// coordinator workers than the machine has processors: such points
// measure scheduler contention, not the farm.
func provenance(o options, w *workload) (*prov, error) {
	p := &prov{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: w.workers,
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: commit(),
	}
	if p.GOMAXPROCS > p.NProc {
		return nil, fmt.Errorf("GOMAXPROCS %d exceeds the %d processors available", p.GOMAXPROCS, p.NProc)
	}
	if p.Workers > p.NProc {
		return nil, fmt.Errorf("%d coordinator workers exceed the %d processors available", p.Workers, p.NProc)
	}
	src, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	p.Source = src
	return p, nil
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out git commit, or "none" outside a work tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go, go.mod and go.sum file under root, by
// path and content, skipping dot directories.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source digest: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("source digest: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
