//go:build !linux

package main

import "os/exec"

// killWithParent is a no-op where the kernel offers no parent-death
// signal; t.Cleanup still kills the helper on every test exit path.
func killWithParent(*exec.Cmd) {}
