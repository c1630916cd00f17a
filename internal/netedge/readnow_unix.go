//go:build unix

package netedge

import "syscall"

// readNow reads into p what has already reached the socket fd, without
// waiting: the descriptor is non-blocking. It returns 0 or less when
// nothing has arrived or the read failed.
func readNow(fd uintptr, p []byte) int {
	n, _ := syscall.Read(int(fd), p)
	return n
}
