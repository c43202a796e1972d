package main

import (
	"runtime"
	"runtime/debug"
	"syscall"
)

// runMeta identifies a result: which code, on which machine shape, with
// which inputs. Every number the benchmark prints is wall-clock time on
// this machine, unlike the simulated seconds of the paper experiments.
type runMeta struct {
	Clock      string `json:"clock"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GitSHA     string `json:"git_sha"`
	GitDirty   string `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	WALFS      string `json:"wal_fs"`
}

// collectMeta fills in everything but the run's own parameters. The git
// revision is what the go command stamped into the binary; a build
// outside a git checkout has none and reports "unknown".
func collectMeta(workdir string) runMeta {
	m := runMeta{
		Clock:      "wall",
		GitSHA:     "unknown",
		GitDirty:   "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		WALFS:      filesystem(workdir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitSHA = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value
			}
		}
	}
	return m
}

// filesystem names the filesystem holding dir, from its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	default:
		return "unknown"
	}
}
