package main

import (
	"os/exec"
	"syscall"
)

// killWithParent has the kernel SIGKILL the helper process when the test
// binary dies, which covers the exits t.Cleanup cannot: a -timeout panic
// or the test binary being killed.
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
