package main

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostStamp identifies the machine and build a result was measured on.
type hostStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

// checkBuild refuses race-detector builds: they measure the detector, not
// the program.
func checkBuild(info *debug.BuildInfo) error {
	if info == nil {
		return errors.New("perfbench: no build info; build with the go command")
	}
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return errors.New("perfbench: refusing to measure a -race build")
		}
	}
	return nil
}

func stamp(info *debug.BuildInfo) hostStamp {
	h := hostStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if info != nil {
		dirty := ""
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		h.Commit += dirty
	}
	if h.Commit == "unknown" {
		if d, err := sourceDigest("."); err == nil {
			h.Commit = "source-sha256:" + d
		}
	}
	return h
}

// sourceDigest identifies the measured code when the tree is not a git
// checkout: a sha256 over the path and content of every go.mod and .go file
// under root, outside .bench_build.
func sourceDigest(root string) (string, error) {
	sum := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".bench_build" {
			return filepath.SkipDir
		}
		if d.IsDir() || !(d.Name() == "go.mod" || strings.HasSuffix(d.Name(), ".go")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(sum, "%s %d\n", path, len(b))
		sum.Write(b)
		return nil
	})
	return fmt.Sprintf("%x", sum.Sum(nil))[:16], err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("perfbench: no VmHWM in /proc/self/status")
}
