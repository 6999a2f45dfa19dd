package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// counters is the process's cumulative resource use at one instant.
// Taking it costs a few tens of microseconds and stops nothing, so the
// measured phase takes one at every boundary between writing and
// reading and charges each part its own difference.
type counters struct {
	cpu          time.Duration // user + system, getrusage
	allocBytes   uint64        // runtime/metrics /gc/heap/allocs:bytes
	allocObjects uint64        // ... /gc/heap/allocs:objects
	// /proc/self/io: bytes handed to read(2) and write(2) and their
	// kind, and the number of write calls.
	rchar, wchar, syscw int64
}

func (c *counters) add(after, before counters) {
	c.cpu += after.cpu - before.cpu
	c.allocBytes += after.allocBytes - before.allocBytes
	c.allocObjects += after.allocObjects - before.allocObjects
	c.rchar += after.rchar - before.rchar
	c.wchar += after.wchar - before.wchar
	c.syscw += after.syscw - before.syscw
}

func takeCounters() (counters, error) {
	var c counters
	var err error
	if c.cpu, err = cpuTime(); err != nil {
		return c, err
	}
	if c.rchar, c.wchar, c.syscw, err = readProcIO(); err != nil {
		return c, err
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	c.allocBytes, c.allocObjects = s[0].Value.Uint64(), s[1].Value.Uint64()
	return c, nil
}

// readProcIO returns rchar, wchar and syscw. The byte counts are
// end-to-end metrics every run must report, so a kernel that hides
// /proc/self/io fails the run with a message instead of a zero.
func readProcIO() (rchar, wchar, syscw int64, err error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, 0, 0, fmt.Errorf("write_bytes_per_record needs /proc/self/io: %w", err)
	}
	defer f.Close()
	want := map[string]*int64{"rchar": &rchar, "wchar": &wchar, "syscw": &syscw}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), ": ")
		if dst := want[name]; dst != nil {
			if *dst, err = strconv.ParseInt(val, 10, 64); err != nil {
				return 0, 0, 0, fmt.Errorf("/proc/self/io: %w", err)
			}
			delete(want, name)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, 0, err
	}
	if len(want) != 0 {
		return 0, 0, 0, fmt.Errorf("/proc/self/io lacks %d of rchar, wchar, syscw", len(want))
	}
	return rchar, wchar, syscw, nil
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// dirBytes sums the regular files under dir. Files the system deletes
// while the walk runs (WAL prune, compaction) are skipped.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total, err
}
