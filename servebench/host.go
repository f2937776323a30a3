package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/trace"
)

// Host diagnostics are printed with every run and never used to drop or
// rescale one.

// cpuTimes reads the aggregate "cpu" line of /proc/stat: total and steal
// jiffies. ok is false where /proc/stat is unavailable.
func cpuTimes() (total, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealShare is the steal share of CPU time between two cpuTimes readings.
func stealShare(t0, s0, t1, s1 uint64) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// refDoc is the fixed document of the reference loop.
var refDoc = func() []byte {
	doc := trace.Document{Name: "reference", PEs: pes}
	for p := 0; p < 4; p++ {
		ph := trace.Phase{Name: fmt.Sprintf("phase %d", p)}
		for s := 0; s < pes; s++ {
			for k := 1; k <= 4; k++ {
				ph.Messages = append(ph.Messages, trace.Message{Src: s, Dst: (s + k*(p+1)) % pes, Flits: 16 * k})
			}
		}
		doc.Phases = append(doc.Phases, ph)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, doc); err != nil {
		panic(err)
	}
	return buf.Bytes()
}()

// referenceSpeed runs a fixed trace.Read loop on GOMAXPROCS goroutines for
// d and returns their total decodes per second: a gauge of the CPU capacity
// the host gives the benchmark at that moment.
func referenceSpeed(d time.Duration) float64 {
	procs := runtime.GOMAXPROCS(0)
	counts := make([]int, procs)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range counts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Since(start) < d {
				if _, err := trace.Read(bytes.NewReader(refDoc)); err != nil {
					panic(err) // refDoc is a valid document
				}
				counts[g]++
			}
		}(g)
	}
	wg.Wait()
	n := 0
	for _, c := range counts {
		n += c
	}
	return float64(n) / time.Since(start).Seconds()
}

func hostLine(dir string) string {
	return fmt.Sprintf("gomaxprocs=%d nproc=%d go=%s store_fs=%s", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), fsType(dir))
}
