package engine

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"i2mapreduce/internal/fsutil"
)

// JobMeta is the job.meta completion marker both refreshable engines
// stamp next to their durable stores: written when the initial run
// finishes and rewritten after every completed refresh. Its presence
// tells Open that a complete computation is preserved there, its fields
// that the caller resumes it with the topology it was preserved with.
type JobMeta struct {
	// Partitions is the partition count the state was preserved with.
	Partitions int
	// Mode names the preservation layout; each engine has its own
	// vocabulary and checks it.
	Mode string
	// MRBG is "on" or "off" for the iterative engine, whose MRBGraph
	// maintenance is configurable; the one-step engine leaves it empty.
	MRBG string
	// Jobs is the durably completed job count: 1 after the initial run,
	// +1 per committed refresh.
	Jobs int64
}

// Write durably replaces the meta file at path.
func (m JobMeta) Write(path string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "partitions=%d\nmode=%s\n", m.Partitions, m.Mode)
	if m.MRBG != "" {
		fmt.Fprintf(&b, "mrbg=%s\n", m.MRBG)
	}
	fmt.Fprintf(&b, "jobs=%d\n", m.Jobs)
	return fsutil.WriteFileAtomic(path, []byte(b.String()))
}

// ReadJobMeta loads the meta file at path; ok=false when none exists.
// A file that does not parse, or lacks a positive partition count, a
// mode or a positive job count, is an error.
func ReadJobMeta(path string) (m JobMeta, ok bool, err error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return JobMeta{}, false, nil
	}
	if err != nil {
		return JobMeta{}, false, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" {
			continue
		}
		k, v, found := strings.Cut(line, "=")
		var perr error
		switch {
		case !found:
			perr = errors.New("no '='")
		case k == "partitions":
			m.Partitions, perr = strconv.Atoi(v)
		case k == "mode":
			m.Mode = v
		case k == "mrbg":
			m.MRBG = v
		case k == "jobs":
			m.Jobs, perr = strconv.ParseInt(v, 10, 64)
		default:
			perr = errors.New("unknown key")
		}
		if perr != nil {
			return JobMeta{}, false, fmt.Errorf("engine: corrupt job meta %s: line %q: %v", path, line, perr)
		}
	}
	if m.Partitions <= 0 || m.Mode == "" || m.Jobs < 1 {
		return JobMeta{}, false, fmt.Errorf("engine: corrupt job meta %s: %q", path, string(b))
	}
	return m, true, nil
}

// IntentJob extracts the job number from a refresh.intent payload (a
// "job=N" line); -1 when there is none, which never equals a completed
// job count. A surviving intent marker whose job number equals the
// meta's Jobs belongs to a refresh that committed and only lost the
// unlink; any other surviving marker means half-applied state.
func IntentJob(payload string) int64 {
	for _, line := range strings.Split(payload, "\n") {
		if v, found := strings.CutPrefix(line, "job="); found {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				return n
			}
		}
	}
	return -1
}
