package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. Go's timers can wake up to a millisecond late
// when the process is idle, because the runtime's poller waits in whole
// milliseconds; that delay would be charged to the store as generator
// lateness. A nanosleep system call wakes on a high-resolution kernel timer.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
