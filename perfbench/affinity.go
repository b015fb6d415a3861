package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a Linux CPU affinity mask (1024 CPUs).
type cpuSet [16]uint64

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var set cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(set)*64; i++ {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinProcess moves every thread of this process onto one CPU; threads
// started later inherit the mask of the thread that starts them.
func pinProcess(cpu int) error {
	var set cpuSet
	set[cpu/64] |= 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
		if errno != 0 && errno != syscall.ESRCH {
			return errno
		}
	}
	return nil
}
