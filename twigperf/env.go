package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// envelope describes the host and the run, printed ahead of the metrics.
func (r *runner) envelope(dir string) map[string]any {
	return map[string]any{
		"workload":     r.cfg.workload,
		"seed":         r.cfg.seed,
		"seconds":      r.cfg.seconds,
		"trace":        r.cfg.trace,
		"scale":        r.cfg.scale,
		"pool_mb":      float64(r.spec.poolBytes) / (1 << 20),
		"db_file_mb":   r.m["db_file_mb"].Value,
		"cpus":         runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"revision":     revision(),
		"fs_type":      fsType(dir),
		"closed_loop":  "1 client goroutine",
		"process_pid":  os.Getpid(),
		"host_os_arch": runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// revision is the VCS revision the binary was built from, when the build
// saw one (a source tree without .git has none).
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown"
}

// fsType returns the type of the filesystem holding dir, from the longest
// matching mount point in /proc/self/mounts.
func fsType(dir string) string {
	f, err := os.Open("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (dir == mnt || strings.HasPrefix(dir, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > len(best) {
			best, typ = mnt, fields[2]
		}
	}
	return typ
}
