//go:build !linux

package main

// Thread placement is only steered on Linux, the one host the benchmark's
// numbers are reported from; elsewhere the kernel's own placement stands.
type cpuMask struct{}

func (m cpuMask) lastCPU() (cpuMask, int) { return m, -1 }
func threadAffinity() (cpuMask, error)    { return cpuMask{}, nil }
func setProcessAffinity(m cpuMask) error  { return nil }
