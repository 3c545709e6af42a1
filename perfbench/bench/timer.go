package main

import (
	"io"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits on a Linux timerfd through the runtime's network poller.
// time.Sleep can wake a millisecond late (the poller's wait has
// millisecond resolution), which would send open-loop requests in
// millisecond bursts and charge that lateness to the middlebox; a plain
// nanosleep keeps the goroutine's P while it blocks and starves the
// response readers. A timerfd read parks only the goroutine.
type sleeper struct {
	fd  int
	f   *os.File
	buf [8]byte
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, os.NewSyscallError("timerfd_create", e)
	}
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// until waits for the monotonic offset at (ns since t0).
func (s *sleeper) until(t0 time.Time, at int64) error {
	d := time.Duration(at) - time.Since(t0)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one-shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return os.NewSyscallError("timerfd_settime", e)
	}
	_, err := io.ReadFull(s.f, s.buf[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }
