package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask, wide enough for 1024 CPUs.
type cpuMask [16]uint64

// lastCPU returns the mask of the highest CPU in m alone, and its number.
func (m cpuMask) lastCPU() (cpuMask, int) {
	for c := 64*len(m) - 1; c >= 0; c-- {
		if m[c/64]&(1<<(c%64)) != 0 {
			var one cpuMask
			one[c/64] = 1 << (c % 64)
			return one, c
		}
	}
	return m, -1
}

// threadAffinity returns the CPUs the calling thread may run on.
func threadAffinity() (cpuMask, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// setProcessAffinity restricts every thread of the process to m. A thread
// started later inherits the mask of the thread that starts it, so a second
// pass over /proc/self/task catches a thread born during the first.
func setProcessAffinity(m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			if e != 0 && e != syscall.ESRCH { // the thread may have ended since the listing
				return fmt.Errorf("sched_setaffinity of thread %d: %w", tid, e)
			}
		}
	}
	return nil
}
