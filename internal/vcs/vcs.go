// Package vcs reads the git state of the working tree so run artifacts
// (run manifests, grid reports, ledger records) can tie results to the
// exact commit that produced them. Every accessor degrades gracefully
// outside a checkout (or without a git binary): the SHA becomes
// "unknown" and the dirty flag false, never an error — provenance is
// best-effort metadata, not a precondition for running experiments.
package vcs

import (
	"os/exec"
	"strings"
)

// Unknown is the SHA reported outside a git checkout.
const Unknown = "unknown"

// Info pins a run to a commit.
type Info struct {
	// SHA is the full HEAD commit hash, or Unknown outside a checkout.
	SHA string `json:"sha"`
	// Dirty reports uncommitted changes in the worktree or index — a
	// dirty SHA still names HEAD, but the run may not be reproducible
	// from it.
	Dirty bool `json:"dirty,omitempty"`
}

// Head returns the current commit and worktree cleanliness.
func Head() Info {
	return Info{SHA: SHA(), Dirty: Dirty()}
}

// SHA returns the current HEAD commit, or Unknown outside a checkout.
func SHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return Unknown
	}
	return strings.TrimSpace(string(out))
}

// Dirty reports whether the worktree or index differs from HEAD. Outside
// a checkout it returns false (there is nothing to be dirty against).
func Dirty() bool {
	out, err := exec.Command("git", "status", "--porcelain").Output()
	if err != nil {
		return false
	}
	return len(strings.TrimSpace(string(out))) > 0
}
