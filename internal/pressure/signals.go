package pressure

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// readSignals gathers one sample of real host state. Every reader is
// best-effort: a signal that cannot be read stays zero, which the
// classifier treats as "unknown, never escalate".
func readSignals(cfg Config) Signals {
	sig := Signals{
		LoadPerCPU: loadPerCPU(),
		RSSBytes:   rssBytes(),
		Goroutines: runtime.NumGoroutine(),
		FDs:        openFDs(),
	}
	if cfg.MemBudgetBytes > 0 {
		sig.MemBudgetBytes = cfg.MemBudgetBytes
	}
	if cfg.DiskPath != "" {
		if used, free, ok := diskUsage(cfg.DiskPath); ok {
			sig.DiskUsedFrac, sig.DiskFreeBytes = used, free
		}
	}
	return sig
}

func numCPU() int { return runtime.NumCPU() }

// loadPerCPU reads the 1-minute load average from /proc/loadavg and
// normalizes it by CPU count (0 when unreadable, e.g. non-Linux).
func loadPerCPU() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	load, err := strconv.ParseFloat(fields[0], 64)
	if err != nil || load < 0 {
		return 0
	}
	cpus := numCPU()
	if cpus < 1 {
		cpus = 1
	}
	return load / float64(cpus)
}

// rssBytes reads the process resident set from /proc/self/statm
// (field 2, in pages). 0 when unreadable.
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || pages < 0 {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// hostMemoryBytes reads MemTotal from /proc/meminfo for the automatic
// memory budget. 0 (memory check disabled) when unreadable.
func hostMemoryBytes() int64 {
	f, err := os.Open("/proc/meminfo")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "MemTotal:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil || kb < 0 {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// openFDs counts entries in /proc/self/fd. 0 when unreadable.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	// The ReadDir call itself holds one fd open on the directory;
	// don't charge the process for the act of measuring.
	n := len(ents) - 1
	if n < 0 {
		n = 0
	}
	return n
}
