package main

import (
	"os"
	"strconv"
	"strings"
)

// The host is a VM whose hypervisor, in phases of seconds to minutes,
// runs other guests on its CPUs while they are ready to run (steal time):
// from a few per cent to a third of the time, which moved whole runs of
// the same code by 40%. The kernel accounts it in /proc/stat, so the
// benchmark removes it from its times: a wall time t over a stretch in
// which the host's CPUs ran for busy ticks and were ready but stolen for
// steal ticks counts as t·busy/(busy+steal), except where steal does not
// stretch the times it is spread over (Workload.RawWrites). Every op still
// counts; the raw figures are printed beside the corrected ones on
// standard error.

// cpuStat is the host's CPU accounting, in clock ticks summed over all
// CPUs: busy is time they ran (user, nice, system, irq, softirq), steal
// time they were ready to run while the hypervisor ran something else.
type cpuStat struct {
	busy, steal int64
}

// readCPUStat reads the aggregate cpu line of /proc/stat; zero if absent.
func readCPUStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var n [8]int64 // user nice system idle iowait irq softirq steal
	for i := range n {
		n[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return cpuStat{busy: n[0] + n[1] + n[2] + n[5] + n[6], steal: n[7]}
}

// runShare is busy/(busy+steal) between two readings: the share of the
// time the host's CPUs were ready to run in which they did. It is 1 when
// nothing was stolen or the kernel does not say.
func runShare(from, to cpuStat) float64 {
	busy, steal := to.busy-from.busy, to.steal-from.steal
	if steal <= 0 || busy <= 0 {
		return 1
	}
	return float64(busy) / float64(busy+steal)
}
